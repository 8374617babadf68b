import math

import numpy as np
import pytest

import niconsensus as nc
from conftest import rhs_rows

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_two_node_network_matches_explicit_block_realization():
    """Driven responses of the monolithic bank kron_ss(L2, M) and of two
    separately integrated lags with outputs mixed afterwards agree."""
    bank = nc.kron_ss(L2, nc.first_order(10.0, 10.0))
    assert np.array_equal(bank.A, [[-10.0, 0.0], [0.0, -10.0]])
    assert np.array_equal(bank.C, L2)

    def drive(field, dim):
        h, t_end = 1e-3, 3.0
        x = np.zeros(dim)
        outs = []
        for k in range(int(t_end / h)):
            t = k * h

            def u(tau):
                return np.array([math.sin(tau), math.cos(2.0 * tau)])

            k1 = field(x, u(t))
            k2 = field(x + 0.5 * h * k1, u(t + 0.5 * h))
            k3 = field(x + 0.5 * h * k2, u(t + 0.5 * h))
            k4 = field(x + h * k3, u(t + h))
            x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            outs.append(x.copy())
        return np.array(outs)

    xs_bank = drive(lambda x, u: bank.A @ x + bank.B @ u, 2)
    xs_node = drive(lambda x, u: -10.0 * x + 10.0 * u, 2)
    y_bank = xs_bank @ bank.C.T
    y_node = xs_node @ L2.T
    assert np.abs(y_bank - y_node).max() < 1e-9


def test_edgeless_network_zero_output():
    bank = nc.kron_ss(nc.laplacian(nc.Graph(3)), nc.first_order(10.0, 10.0))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert np.array_equal(bank.C @ rng.normal(size=3), np.zeros(3))


def test_network_requires_hurwitz_and_strictly_proper(pendulum):
    plant, _ = pendulum
    g = nc.Graph(2, frozenset({(0, 1)}))
    unstable = nc.StateSpace([[1.0]], [[1.0]], [[1.0]])
    proper = nc.StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.5]])
    for ctrl, match in ((unstable, "Hurwitz"), (proper, "strictly proper")):
        with pytest.raises(ValueError, match=match):
            nc.network_interconnect(plant, ctrl, g)
        with pytest.raises(ValueError, match=match):
            nc.pair_interconnect(plant, ctrl)


def test_network_dc_relation_steady_state(four_node_graph):
    net = nc.kron_ss(nc.laplacian(four_node_graph), nc.first_order(10.0, 10.0))
    ones = nc.check_steady_state_relation(net, np.ones(4), tol=1e-9)
    assert ones.passed and ones.max_violation <= 1e-9
    two = nc.kron_ss(L2, nc.first_order(10.0, 10.0))
    report = nc.check_steady_state_relation(two, [1.0, 0.0])
    assert report.passed
    # settle it directly and compare against the hand value M(0) L2 (1,0)
    rng = np.random.default_rng(1)
    report = nc.check_steady_state_relation(net, rng.uniform(-1, 1, 4))
    assert report.passed and report.max_violation <= 1e-6


def test_pair_interconnect_structure(pendulum):
    plant, _ = pendulum
    loop = nc.pair_interconnect(plant, nc.first_order(10.0, 10.0))
    assert loop.n_states == 3 and loop.n_plants == 1
    assert np.array_equal(loop.K, [[1.0]])
    assert np.array_equal(loop.evaluate(np.zeros(3)).dstate, np.zeros(3))
    sig = loop.evaluate(np.array([0.3, -0.2, 0.7]))
    assert sig.u1 == pytest.approx([0.7])   # plant input is the controller output
    assert sig.y1 == pytest.approx([0.3])   # controller input is the plant output
    two_io = nc.StateSpace(-np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="dimensions differ"):
        nc.pair_interconnect(plant, two_io)


def test_pair_rhs_is_the_explicit_pendulum_lag_field(pendulum):
    """The K = [[1]] bank reproduces the hand-written pair field bit for bit."""
    plant, _ = pendulum
    a, b = 20.0, 6.0
    m_kg, l_m, kappa, g = 1.0, 0.5, 5.0, 9.8
    ml2, mgl = m_kg * l_m ** 2, m_kg * g * l_m
    loop = nc.pair_interconnect(plant, nc.first_order(a, b))
    rng = np.random.default_rng(11)
    for _ in range(50):
        th, om, xc = rng.uniform(-3, 3, 3)
        explicit = [om, (-kappa * th - mgl * math.sin(th) + xc) / ml2, -b * xc + a * th]
        X = np.array([th, om, xc])
        assert np.array_equal(rhs_rows(loop, X)[0], explicit)
        assert np.array_equal(loop.evaluate(X).dstate, explicit)


def test_network_interconnect_dimensions(network_loop):
    assert network_loop.n_states == 12
    assert np.array_equal(network_loop.evaluate(np.zeros(12)).dstate, np.zeros(12))
    xp, xc = network_loop.split(np.arange(12.0))
    assert np.array_equal(xp[2], [4.0, 5.0]) and np.array_equal(xc[2:3], [10.0])


def test_network_disconnected_graph_rejected(pendulum):
    plant, _ = pendulum
    with pytest.raises(ValueError, match="connected graph"):
        nc.network_interconnect(plant, nc.first_order(10.0, 10.0),
                                nc.Graph(3, frozenset({(0, 1)})))


def test_identical_initial_states_stay_uncoupled(pendulum, four_node_graph):
    """Identical nodes feel zero network input and evolve like free plants."""
    plant, _ = pendulum
    loop = nc.network_interconnect(plant, nc.first_order(10.0, 10.0), four_node_graph)
    x0 = np.zeros(12)
    x0[0:8:2] = 0.9
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=8.0, record_every=20)
    traj = nc.integrate(loop, x0, cfg)
    assert np.abs(traj.u1).max() < 1e-9
    free_times, free_states = nc.rk4_path(
        lambda x, out: np.copyto(out, plant.f(x, np.zeros(1))), np.array([0.9, 0.0]), cfg)
    for i in range(4):
        assert np.allclose(loop.split(traj.states)[0][:, i], free_states, atol=1e-9)


def test_single_node_network_degenerates(pendulum):
    plant, _ = pendulum
    loop = nc.network_interconnect(plant, nc.first_order(10.0, 10.0), nc.Graph(1))
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=4.0, record_every=10)
    traj = nc.integrate(loop, np.array([1.2, 0.0, 0.0]), cfg)
    assert np.abs(traj.u1).max() == 0.0
    _, free_states = nc.rk4_path(lambda x, out: np.copyto(out, plant.f(x, np.zeros(1))),
                                 np.array([1.2, 0.0]), cfg)
    assert np.allclose(loop.split(traj.states)[0][:, 0], free_states, atol=1e-12)


def test_permutation_equivariance(pendulum):
    plant, _ = pendulum
    rng = np.random.default_rng(9)
    base_edges = {(0, 1), (0, 2), (0, 3), (1, 2)}
    perm = rng.permutation(4)
    g1 = nc.Graph(4, frozenset(base_edges))
    g2 = nc.Graph(4, frozenset((int(perm[i]), int(perm[j])) for i, j in base_edges))
    x_plants = rng.uniform(-1.5, 1.5, (4, 2))
    x_ctrl = rng.uniform(-0.5, 0.5, 4)
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=5.0, record_every=50)

    def run(g, xp, xc):
        loop = nc.network_interconnect(plant, nc.first_order(10.0, 10.0), g)
        return nc.integrate(loop, np.concatenate([xp.reshape(-1), xc]), cfg)

    t1 = run(g1, x_plants, x_ctrl)
    xp2 = np.empty_like(x_plants)
    xc2 = np.empty_like(x_ctrl)
    for i in range(4):
        xp2[perm[i]] = x_plants[i]
        xc2[perm[i]] = x_ctrl[i]
    t2 = run(g2, xp2, xc2)
    xp1, xp2 = t1.system.split(t1.states)[0], t2.system.split(t2.states)[0]
    assert np.allclose(xp1, xp2[:, perm], atol=1e-9)


def test_composite_storage_values(pendulum, network_loop):
    plant, v1 = pendulum
    a = b = 10.0
    Y, _ = nc.first_order_certificate(a, b)
    pair = nc.pair_interconnect(plant, nc.first_order(a, b))
    cs = nc.CompositeStorage(pair, v1, Y)
    assert cs.value(np.zeros(3)) == 0.0
    w = cs.value(np.array([math.pi, 0.0, 1.0]))
    assert w == pytest.approx(34.474011002723395 + 0.5 - math.pi, abs=1e-12)

    cs_net = nc.CompositeStorage(network_loop, v1, Y)
    assert cs_net.value(np.zeros(12)) == 0.0
    # consensus manifold: identical nodes leave only the plant energies
    x = np.concatenate([np.tile([0.8, -0.3], 4), np.full(4, 0.25)])
    assert cs_net.value(x) == pytest.approx(4.0 * v1.V([0.8, -0.3]), abs=1e-12)
    with pytest.raises(ValueError, match="1 x 1"):
        nc.CompositeStorage(pair, v1, np.eye(2))


def test_network_storage_vanishes_on_controller_consensus_line(pendulum, network_loop):
    """For K = L both the quadratic and the cross term of W vanish at xp = 0,
    xc = c 1 (L 1 = 0), so W is not positive definite; a pair's W is positive
    at the same controller state."""
    plant, v1 = pendulum
    Y, _ = nc.first_order_certificate(10.0, 10.0)
    cs_net = nc.CompositeStorage(network_loop, v1, Y)
    cs_pair = nc.CompositeStorage(nc.pair_interconnect(plant, nc.first_order(10.0, 10.0)),
                                  v1, Y)
    for c in (1.0, -3.0, 0.37):
        assert abs(cs_net.value(np.concatenate([np.zeros(8), np.full(4, c)]))) <= 1e-15
        assert cs_pair.value(np.array([0.0, 0.0, c])) > 0


def random_connected_graph(rng, n):
    """A random spanning tree plus random extra edges."""
    order = rng.permutation(n)
    edges = {(int(order[k]), int(order[rng.integers(k)])) for k in range(1, n)}
    for i, j in rng.integers(n, size=(n, 2)):
        if i != j:
            edges.add((int(i), int(j)))
    return nc.Graph(n, frozenset(edges))


def test_quadratic_controller_storage_is_the_edge_sum(pendulum):
    """(1/2) xc^T (L (x) Y^-1) xc equals (1/2) sum_ij a_ij V2(xc_i - xc_j)
    with V2(d) = (1/2) d^T Y^-1 d, summed over the edge list."""
    plant, v1 = pendulum
    # a 2-state strictly proper Hurwitz controller, so Y is a genuine matrix
    ctrl = nc.StateSpace([[-1.0, 0.5], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.3]])
    rng = np.random.default_rng(21)
    for n in (2, 3, 5, 8):
        g = random_connected_graph(rng, n)
        loop = nc.network_interconnect(plant, ctrl, g)
        for _ in range(5):
            R = rng.normal(size=(2, 2))
            Y = R @ R.T + 0.1 * np.eye(2)
            cs = nc.CompositeStorage(loop, v1, Y)
            xc = rng.uniform(-2, 2, (n, 2))
            Yinv = np.linalg.inv(Y)
            edge_sum = sum(0.5 * (xc[i] - xc[j]) @ Yinv @ (xc[i] - xc[j])
                           for i, j in g.edge_list)
            # plants at rest: W is the controller storage alone
            X = np.concatenate([np.zeros(2 * n), xc.reshape(-1)])
            assert cs.value(X) == pytest.approx(edge_sum, rel=1e-12, abs=1e-14)


def test_composite_storage_rate_matches_directional_difference(pendulum, network_loop,
                                                               pair_loop):
    """Chain-rule rate against a central difference along the flow direction."""
    plant, v1 = pendulum
    rng = np.random.default_rng(3)
    for loop, (a, b) in ((network_loop, (10.0, 10.0)), (pair_loop, (20.0, 6.0))):
        cs = nc.CompositeStorage(loop, v1, nc.first_order_certificate(a, b)[0])
        for _ in range(10):
            x = rng.uniform(-1, 1, loop.n_states)
            sig = loop.evaluate(x)
            d = sig.dstate
            eps = 1e-6
            fd = (cs.value(x + eps * d) - cs.value(x - eps * d)) / (2 * eps)
            assert cs.rate(x, sig) == pytest.approx(fd, abs=1e-5 * (1 + abs(fd)))


def test_positivity_scan(pendulum, four_node_graph):
    plant, v1 = pendulum
    lo = np.array([-math.pi, -5.0] * 4 + [-5.0] * 4)
    hi = -lo

    def scan(a, b, samples=100_000):
        loop = nc.network_interconnect(plant, nc.first_order(a, b), four_node_graph)
        cs = nc.CompositeStorage(loop, v1, nc.first_order_certificate(a, b)[0])
        return nc.storage_positivity_scan(cs, lo, hi, samples=samples)

    good = scan(10.0, 10.0)
    assert good.passed and good.min_value > 0
    bad = scan(100.0, 1.0, samples=20_000)
    assert not bad.passed and bad.min_value < 0


def test_positivity_scan_quadratic_dominates(four_node_graph):
    # stiff-spring limit: the quadratic plant energy dwarfs the cross term
    params = nc.PendulumParams(m_kg=1.0, l_m=0.5, kappa=500.0, g_ms2=9.8)
    plant = nc.pendulum_plant(params)
    v1 = nc.pendulum_storage(params)
    loop = nc.network_interconnect(plant, nc.first_order(10.0, 10.0), four_node_graph)
    cs = nc.CompositeStorage(loop, v1, nc.first_order_certificate(10.0, 10.0)[0])
    lo = np.array([-math.pi, -5.0] * 4 + [-5.0] * 4)
    report = nc.storage_positivity_scan(cs, lo, -lo, samples=20_000)
    assert report.passed


def test_positivity_scan_region_validation(pendulum, network_loop):
    plant, v1 = pendulum
    cs = nc.CompositeStorage(network_loop, v1, nc.first_order_certificate(10.0, 10.0)[0])
    with pytest.raises(ValueError, match="origin"):
        nc.storage_positivity_scan(cs, np.full(12, 1.0), np.full(12, 2.0), samples=10)
    with pytest.raises(ValueError, match="length"):
        nc.storage_positivity_scan(cs, np.zeros(3), np.ones(3), samples=10)
