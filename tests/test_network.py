import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import niconsensus as nc
from conftest import complete_graph, kron_ss, rhs_rows, steady_state_relation
from niconsensus import analysis, network

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_two_node_network_matches_explicit_block_realization():
    """Driven responses of the monolithic bank kron_ss(L2, M) and of two
    separately integrated lags with outputs mixed afterwards agree."""
    bank = kron_ss(L2, nc.first_order(10.0, 10.0))
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
    bank = kron_ss(nc.laplacian(nc.Graph(3)), nc.first_order(10.0, 10.0))
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
            nc.ClosedLoop(plant, ctrl, g)
        with pytest.raises(ValueError, match=match):
            nc.ClosedLoop(plant, ctrl)


def test_network_dc_relation_steady_state():
    """The two-node bank settled from rest under the input (1, 0) matches its
    DC map, the hand value (L2 (x) M(0)) (1, 0) = (1, -1) for M(0) = 1."""
    two = kron_ss(L2, nc.first_order(10.0, 10.0))
    assert np.array_equal(nc.dc_gain(two) @ [1.0, 0.0], [1.0, -1.0])
    report = steady_state_relation(two, [1.0, 0.0])
    assert report.passed and report.max_violation <= 1e-6


def test_pair_interconnect_structure(pendulum):
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0))
    assert loop.n_states == 3 and loop.n_plants == 1
    assert np.array_equal(loop.K, [[1.0]])
    assert np.array_equal(loop.evaluate(np.zeros(3)).dstate, np.zeros(3))
    sig = loop.evaluate(np.array([0.3, -0.2, 0.7]))
    assert sig.u1 == pytest.approx([0.7])   # plant input is the controller output
    assert sig.y1 == pytest.approx([0.3])   # controller input is the plant output
    two_io = nc.StateSpace(-np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="input/output dimension 2 differs from the plant's 1"):
        nc.ClosedLoop(plant, two_io)


def test_pair_rhs_is_the_explicit_pendulum_lag_field(pendulum):
    """The K = [[1]] bank reproduces the hand-written pair field bit for bit."""
    plant, _ = pendulum
    a, b = 20.0, 6.0
    m_kg, l_m, kappa, g = 1.0, 0.5, 5.0, 9.8
    ml2, mgl = m_kg * l_m ** 2, m_kg * g * l_m
    loop = nc.ClosedLoop(plant, nc.first_order(a, b))
    rng = np.random.default_rng(11)
    for _ in range(50):
        th, om, xc = rng.uniform(-3, 3, 3)
        explicit = [om, (-kappa * th - mgl * math.sin(th) + xc) / ml2, -b * xc + a * th]
        X = np.array([th, om, xc])
        assert np.array_equal(rhs_rows(loop, X)[0], explicit)
        assert np.array_equal(loop.evaluate(X).dstate, explicit)


def test_edge_product_rows_are_the_explicit_path_field(pendulum):
    """Above the crossover each row sums its entries in column order: the
    pendulum rows add spring, gravity and the inputs from the lower to the
    higher neighbour, as the hand-written field does, bit for bit."""
    plant, _ = pendulum
    a, b, n = 10.0, 10.0, 64
    kappa, ml2, mgl = 5.0, 0.25, 4.9
    loop = nc.ClosedLoop(plant, nc.first_order(a, b), nc.path_graph(n))
    assert loop.extend(np.zeros(loop.n_states)).size >= network.EDGE_PRODUCT_MIN
    X = np.random.default_rng(12).uniform(-3.0, 3.0, loop.n_states)
    th, om, xc = X[0:2 * n:2], X[1:2 * n:2], X[2 * n:]
    explicit = []
    for i in range(n):
        u = -kappa * th[i] - mgl * math.sin(th[i])
        for j in range(max(i - 1, 0), min(i + 2, n)):
            u += loop.K[i, j] * xc[j]
        explicit += [om[i], u / ml2]
    explicit += [-b * c + a * t for t, c in zip(th, xc)]
    assert np.array_equal(rhs_rows(loop, X)[0], explicit)


def test_network_interconnect_dimensions(network_loop):
    assert network_loop.n_states == 12
    assert np.array_equal(network_loop.evaluate(np.zeros(12)).dstate, np.zeros(12))
    xp, xc = network_loop.split(np.arange(12.0))
    assert np.array_equal(xp[2], [4.0, 5.0]) and np.array_equal(xc[2:3], [10.0])


def test_components_are_named_like_the_csv_columns(network_loop):
    """Composite index i is the i-th state column of the trajectory CSV,
    x_plant_<node>_<coordinate> or x_ctrl_<node>_<coordinate>."""
    names = [network_loop.component(i) for i in range(network_loop.n_states)]
    assert names[:3] == ["plant 1, coordinate 0", "plant 1, coordinate 1",
                         "plant 2, coordinate 0"]
    assert names[7:] == ["plant 4, coordinate 1"] + [
        f"controller {i}, coordinate 0" for i in (1, 2, 3, 4)]


def test_network_disconnected_graph_rejected(pendulum):
    plant, _ = pendulum
    with pytest.raises(ValueError, match="connected graph"):
        nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), nc.Graph(3, frozenset({(0, 1)})))


def test_identical_initial_states_stay_uncoupled(pendulum, four_node_graph):
    """Identical nodes feel zero network input and evolve like free plants."""
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), four_node_graph)
    x0 = np.zeros(12)
    x0[0:8:2] = 0.9
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=8.0, record_every=20)
    traj = nc.integrate(loop, x0, cfg)
    assert np.abs(traj.u1).max() < 1e-9
    free_times, free_states = nc.rk4_path(
        lambda x: lambda out: np.copyto(out, plant.f(x, np.zeros(1))),
        np.array([0.9, 0.0]), cfg)
    for i in range(4):
        assert np.allclose(loop.split(traj.states)[0][:, i], free_states, atol=1e-9)


def test_single_node_network_degenerates(pendulum):
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), nc.Graph(1))
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=4.0, record_every=10)
    traj = nc.integrate(loop, np.array([1.2, 0.0, 0.0]), cfg)
    assert np.abs(traj.u1).max() == 0.0
    _, free_states = nc.rk4_path(lambda x: lambda out: np.copyto(out, plant.f(x, np.zeros(1))),
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
        loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), g)
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
    pair = nc.ClosedLoop(plant, nc.first_order(a, b))
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
    cs_pair = nc.CompositeStorage(nc.ClosedLoop(plant, nc.first_order(10.0, 10.0)),
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
        loop = nc.ClosedLoop(plant, ctrl, g)
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


def margin_witness(cs, t):
    """The composite state t (u (x) v, u (x) Y G^T v), G = Cp^T Cc, u the top
    eigenvector of K and v the bottom one of Q - lambda_max(K) G Y G^T: the
    quadratic part of W there is (1/2) t^2 times the positivity margin."""
    loop = cs.loop
    G = loop.plant.C.T @ loop.controller.C
    lam, U = np.linalg.eigh(loop.K)
    v = np.linalg.eigh(cs.v1.Q - lam[-1] * G @ cs.Y @ G.T)[1][:, 0]
    u = U[:, -1]
    return t * np.concatenate([np.kron(u, v), np.kron(u, cs.Y @ G.T @ v)])


def lag_storage(plant, v1, a, b, graph=None):
    loop = nc.ClosedLoop(plant, nc.first_order(a, b), graph)
    return nc.CompositeStorage(loop, v1, nc.first_order_certificate(a, b)[0])


def test_positivity_margin(pendulum, four_node_graph):
    plant, v1 = pendulum
    # kappa = 5, m l^2 = 0.25, lambda_max(L) = 4: min(5 - 4 a/b, 0.25)
    good = lag_storage(plant, v1, 10.0, 10.0, four_node_graph)
    assert good.positivity_margin() == pytest.approx(0.25, abs=1e-12)
    bad = lag_storage(plant, v1, 100.0, 1.0, four_node_graph)
    assert bad.positivity_margin() == pytest.approx(5.0 - 400.0, rel=1e-12)
    assert bad.value(margin_witness(bad, 1.0)) < 0


def test_positivity_margin_quadratic_dominates(four_node_graph):
    # stiff-spring limit: the quadratic plant energy dwarfs the cross term
    params = nc.PendulumParams(m_kg=1.0, l_m=0.5, kappa=500.0, g_ms2=9.8)
    cs = lag_storage(nc.pendulum_plant(params), nc.pendulum_storage(params), 10.0, 10.0,
                     four_node_graph)
    assert cs.positivity_margin() > 0


@pytest.mark.parametrize("a,b,on_graph", [(10.0, 7.0, True), (10.0, 6.0, True),
                                          (20.0, 3.5, False), (20.0, 3.9, False)])
def test_positivity_margin_rejects_what_the_scan_passed(pendulum, four_node_graph,
                                                        a, b, on_graph):
    """Storages a 20 000-point scan of [-pi, pi] x [-5, 5] per node passed:
    each is negative at theta = t u, xc = t (a/b) u, u the top eigenvector
    of K, once t is large."""
    plant, v1 = pendulum
    cs = lag_storage(plant, v1, a, b, four_node_graph if on_graph else None)
    assert cs.positivity_margin() < 0
    n = cs.loop.n_plants
    u = np.linalg.eigh(cs.loop.K)[1][:, -1]
    t = 30.0
    X = np.concatenate([np.stack([t * u, np.zeros(n)], axis=1).reshape(-1), t * a / b * u])
    assert cs.value(X) < 0


@settings(max_examples=60, deadline=None, database=None)
@given(m=st.floats(0.5, 2.0), l=st.floats(0.25, 1.0), kappa=st.floats(0.5, 20.0),
       g=st.floats(1.0, 20.0), a=st.floats(0.5, 50.0), b=st.floats(0.5, 10.0),
       shape=st.sampled_from(["pair", "path", "complete"]), n=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_positivity_margin_decides_the_sign_of_the_storage(m, l, kappa, g, a, b, shape,
                                                           n, seed):
    """A positive margin: W >= 0 at random states. A negative one: W < 0 at
    the witness for t = 100, whenever the bound W <= n c + (1/2) t^2 margin,
    c = 2 m g l, is negative there."""
    params = nc.PendulumParams(m_kg=m, l_m=l, kappa=kappa, g_ms2=g)
    graph = {"pair": None, "path": nc.path_graph(n),
             "complete": nc.Graph(n, frozenset(itertools.combinations(range(n), 2)))}[shape]
    cs = lag_storage(nc.pendulum_plant(params), nc.pendulum_storage(params), a, b, graph)
    margin = cs.positivity_margin()
    if margin > 0:
        X = np.random.default_rng(seed).uniform(-10.0, 10.0, (200, cs.loop.n_states))
        assert cs.value(X).min() >= 0
    else:
        assume(cs.loop.n_plants * 2 * m * g * l + 0.5 * 100.0 ** 2 * margin < 0)
        assert cs.value(margin_witness(cs, 100.0)) < 0


@settings(max_examples=60, deadline=None, database=None)
@given(p=st.integers(1, 3), io=st.integers(1, 2), q=st.integers(1, 2), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_positivity_margin_matches_the_dense_storage_matrix(p, io, q, n, seed):
    """A linear plant with V = (1/2) x^T Q x makes W the quadratic form
    (1/2) z^T H z of the dense H. The margin's sign is that of H's smallest
    eigenvalue off H's kernel {xp = 0, xc in ker K (x) R^q}."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(p, p))
    Q = S @ S.T + rng.uniform(-1.0, 3.0) * np.eye(p)
    plant = nc.NonlinearPlant(A=-np.eye(p), B=rng.normal(size=(p, io)),
                              C=rng.normal(size=(io, p)), E=np.zeros((p, 0)),
                              phi=lambda x, out=None: x[..., :0])
    v1 = nc.StorageFunction(V=lambda x: 0.5 * np.einsum("...i,ij,...j", x, Q, x),
                            grad=lambda x: x @ Q, Q=Q)
    ctrl = nc.StateSpace(-np.eye(q), rng.normal(size=(q, io)), rng.normal(size=(io, q)))
    R = rng.normal(size=(q, q))
    Y = R @ R.T + 0.1 * np.eye(q)
    loop = nc.ClosedLoop(plant, ctrl, None if n == 1 else nc.path_graph(n))
    cs = nc.CompositeStorage(loop, v1, Y)
    K, G = loop.K, plant.C.T @ ctrl.C
    H = np.block([[np.kron(np.eye(len(K)), Q), -np.kron(K, G)],
                  [-np.kron(K, G.T), np.kron(K, np.linalg.inv(Y))]])
    Z = rng.normal(size=(5, loop.n_states))
    assert cs.value(Z) == pytest.approx(0.5 * np.einsum("ki,ij,kj->k", Z, H, Z),
                                        rel=1e-9, abs=1e-9)
    lam, U = np.linalg.eigh(K)
    kernel = np.vstack([np.zeros((len(K) * p, q)), np.kron(U[:, :1], np.eye(q))])
    if n == 1:  # K = [[1]] has no kernel
        kernel = kernel[:, :0]
    P = np.eye(loop.n_states) - kernel @ kernel.T
    off = np.linalg.eigvalsh(P @ H @ P)
    off = np.delete(off, np.argsort(np.abs(off))[:kernel.shape[1]])
    margin = cs.positivity_margin()
    assume(abs(margin) > 1e-6)
    assert (off.min() > 0) == (margin > 0)


def test_positivity_margin_needs_a_positive_definite_certificate(pendulum, network_loop):
    plant, v1 = pendulum
    two_state = nc.ClosedLoop(plant, nc.StateSpace(-np.eye(2), [[1.0], [0.0]], [[1.0, 0.0]]))
    for loop, Y in ((network_loop, [[-1.0]]), (two_state, [[1.0, 1.0], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            nc.CompositeStorage(loop, v1, Y).positivity_margin()


def test_controller_storage_refuses_a_certificate_that_is_not_symmetric_positive_definite():
    """x Y^-1 is V2's gradient only for a symmetric Y: with Y = [[1, 0.3], [0, 0.5]]
    it differs from a central difference of V2 by about 0.2. Such a Y, or a
    symmetric one that is not positive definite, is refused when the storage
    is built; a Y within 1e-12 of symmetric is accepted, as by
    osni_certificate_check."""
    ctrl = nc.StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    for Y in ([[1.0, 0.3], [0.0, 0.5]], [[1.0, 0.0], [0.0, -0.5]], [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            network.controller_storage(ctrl, Y)
    v2 = network.controller_storage(ctrl, [[1.0, 0.3], [0.3 + 1e-13, 0.5]])
    x, e = np.array([0.7, -0.4]), 1e-6
    diff = [(v2.V(x + e * u) - v2.V(x - e * u)) / (2 * e) for u in np.eye(2)]
    assert np.allclose(v2.grad(x), diff, atol=1e-6)


def star_graph(n):
    return nc.Graph(n, frozenset((0, i) for i in range(1, n)))


#: (EDGE_PRODUCT_MIN, PADDING_MAX) that force every operator of a loop into one form
FORMS = {"dense": (10 ** 9, 3), "slots": (0, 10 ** 9), "segments": (0, 0)}


def built_in(monkeypatch, form, build):
    """build() with the crossover constants forcing the operator form; the
    constants are restored to their module values afterwards."""
    with monkeypatch.context() as m:
        for name, value in zip(("EDGE_PRODUCT_MIN", "PADDING_MAX"), FORMS[form]):
            m.setattr(network, name, value)
        return build()


def form_of(op):
    return "dense" if op.dense is not None else "slots" if op._starts is None else "segments"


def stage_operators(monkeypatch, loop, h):
    """The four operators loop.rk4_stages(h) builds, recorded as it builds them."""
    built, cls = [], network.KronOperator
    with monkeypatch.context() as m:
        m.setattr(network, "KronOperator", lambda *args: built.append(cls(*args)) or built[-1])
        loop.rk4_stages(h)
    return built


def check_products(op, rng):
    """Each batch row of op.apply equals op's vector product of its vector
    (array_equal: bit for bit up to the sign of a zero sum), and both match
    op.matrix() to rounding relative to the sum of the absolute terms."""
    Z = rng.uniform(-2.0, 2.0, (6, op.shape[1]))
    batch, product, M = op.apply(Z), op.product(), op.matrix()
    for z, row in zip(Z, batch):
        out = np.empty(op.shape[0])
        product(z, out)
        assert np.array_equal(out, row)
    assert (np.abs(batch - Z @ M.T) <= 1e-13 * (np.abs(Z) @ np.abs(M).T)).all()


@pytest.mark.parametrize("shape", ["path", "star", "complete"])
@pytest.mark.parametrize("n", [4, 64, 256])
def test_edge_product_matches_the_dense_loop_matrix(pendulum, monkeypatch, shape, n):
    """Every form of one loop's operators, forced by the crossover constants:
    the dense W that the triplets add into is np.kron's np.block entry for
    entry once its rows and columns are read node by node, K (x) Cc, I (x) Cc
    and K (x) Y^-1 are np.kron's, and padded slots and row segments each
    agree with the dense form to rounding on every loop signal, the
    composite storage, its rate and the strictness form. In every form a
    batch evaluate row equals the bound field's state rows bit for bit."""
    plant, v1 = pendulum
    lag = nc.first_order(10.0, 10.0)
    graph = {"path": nc.path_graph, "star": star_graph, "complete": complete_graph}[shape](n)
    loops = {form: built_in(monkeypatch, form, lambda: nc.ClosedLoop(plant, lag, graph))
             for form in FORMS}
    dense = loops["dense"]
    eye, K, Y = np.eye(n), dense.K, np.array([[0.8]])
    Yinv = network.controller_storage(lag, Y).Q
    for form, loop in loops.items():
        storage = built_in(monkeypatch, form, lambda: loop.mixed(Yinv))
        assert {form_of(op) for op in (loop.W, loop.mixed_C, loop.node_C, storage)} == {form}
    W = np.block([[np.kron(eye, plant.A), np.kron(eye, plant.E), np.kron(K, plant.B @ lag.C)],
                  [np.zeros((n, 4 * n))],
                  [np.kron(eye, lag.B @ plant.C), np.zeros((n, n)), np.kron(eye, lag.A)]])
    # the extended state's indices node by node: plant states, phi (r = 1), xc
    node_major = np.r_[dense._rows[:2 * n], 2 * n + np.arange(n), dense._rows[2 * n:]]
    assert np.array_equal(dense.W.dense[np.ix_(node_major, node_major)], W)
    assert np.array_equal(dense.mixed_C.dense, np.kron(K, lag.C))
    assert np.array_equal(dense.node_C.dense, np.kron(eye, lag.C))
    assert np.array_equal(dense.mixed(Yinv).dense, np.kron(K, np.linalg.inv(Y)))
    X = np.random.default_rng(n).uniform(-2.0, 2.0, (8, dense.n_states))
    scale = np.abs(dense.W.dense) @ np.abs(dense.extend(X)).T

    def outputs(loop):
        sig = loop.evaluate(X)
        for x, row in zip(X, sig.dstate):
            state_rows, phi_rows = rhs_rows(loop, x)
            assert np.array_equal(state_rows, row) and not phi_rows.any()
        err = np.abs(sig.dstate - dense.evaluate(X).dstate)
        assert (err <= 1e-13 * scale.T[:, dense._rows]).all()
        traj = nc.Trajectory(system=loop, times=np.arange(8.0), states=X, **vars(sig))
        cs = nc.CompositeStorage(loop, v1, Y)
        return [*vars(sig).values(), cs.value(X), cs.rate(X, sig), analysis._strictness_form(traj)]

    outs = [built_in(monkeypatch, form, lambda: outputs(loop)) for form, loop in loops.items()]
    # the other outputs are sums of at most n + 1 terms: rounding in the
    # last place of each, relative to the largest of them
    for other in outs[1:]:
        for d, e in zip(outs[0], other):
            assert np.abs(e - d).max() <= 4 * (n + 1) * np.finfo(float).eps * np.abs(d).max()


@pytest.mark.parametrize("shape", ["path", "star", "complete"])
@pytest.mark.parametrize("n", [4, 64])
def test_edge_stages_match_the_dense_stage_operators(pendulum, monkeypatch, shape, n):
    """Every form of one loop, forced by the crossover constants, runs each
    RK4 stage on the same stage buffers and writes the same row to rounding.
    In each form three operators, W with its empty phi rows, the non-square
    K (x) Cc of a two-state controller and the first stage operator
    I + h/2 W, give batch rows equal to their vector products and match their
    matrix(), and that of I + h/2 W is np.eye(N) + h/2 W bit for bit (the
    identity and diagonal entries of W added, not assigned). At the module's
    PADDING_MAX a 64-node path's rows are about equally long, so its sparse
    operators sum padded slots, while a 64-node star's hub row holds every
    edge, so its W and stages reduce row segments."""
    plant, _ = pendulum
    h, lag = 1e-3, nc.first_order(10.0, 10.0)
    two_state = nc.StateSpace([[-1.0, 1.0], [0.0, -2.0]], [[1.0], [0.5]], [[1.0, 0.3]])
    graph = {"path": nc.path_graph, "star": star_graph, "complete": complete_graph}[shape](n)
    loops = {form: built_in(monkeypatch, form, lambda: nc.ClosedLoop(plant, lag, graph))
             for form in FORMS}
    size = loops["dense"].extend(np.zeros(loops["dense"].n_states)).size
    rng = np.random.default_rng(n)
    P, Q = rng.uniform(-2.0, 2.0, (5, size)), rng.uniform(-2.0, 2.0, (5, size))
    written = [(0, 1), (0, 2), (0, 3), (1, 0)]
    for k in range(4):
        outs = []
        for loop in loops.values():
            buffers = [P.copy(), Q.copy()]
            loop.rk4_stages(h)(*buffers)[k]()
            which, row = written[k]
            outs.append(buffers[which][row])
        for out in outs[1:]:
            assert np.abs(out - outs[0]).max() <= 1e-13
    W = loops["dense"].W.dense
    for form, loop in loops.items():
        mixed = built_in(monkeypatch, form,
                         lambda: nc.ClosedLoop(plant, two_state, graph)).mixed_C
        stages = built_in(monkeypatch, form, lambda: stage_operators(monkeypatch, loop, h))
        assert mixed.shape == (n, 2 * n)
        assert {form_of(op) for op in (loop.W, mixed, *stages)} == {form}
        for op in (loop.W, mixed, stages[0]):
            check_products(op, rng)
        assert np.array_equal(stages[0].matrix(), np.eye(size) + h / 2 * W)
    assert np.bincount(loops["dense"].W.entries[0], minlength=size).min() == 0
    if n == 64 and shape != "complete":
        natural = nc.ClosedLoop(plant, lag, graph)
        ops = (natural.W, *stage_operators(monkeypatch, natural, h))
        assert {form_of(op) for op in ops} == {"slots" if shape == "path" else "segments"}


def test_a_controller_without_states_mixes_to_zero_in_every_form(pendulum, monkeypatch):
    """M = 0 realised with no states: K (x) Cc and I (x) Cc have no columns,
    which every form of the loop holds as an empty dense matrix, and the
    controller outputs are zero."""
    plant, _ = pendulum
    empty = nc.StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))
    for form in FORMS:
        loop = built_in(monkeypatch, form,
                        lambda: nc.ClosedLoop(plant, empty, nc.path_graph(32)))
        sig = loop.evaluate(np.ones(loop.n_states))
        assert loop.mixed_C.shape == (32, 0) and not sig.y2.any() and not sig.ycdot.any()


def test_large_loop_is_built_without_its_dense_matrix(pendulum):
    """A 1024-node path has N' = 4096: its dense W alone would take 134 MB,
    and K or any other n x n matrix 8 MB; the built loop holds none."""
    plant, _ = pendulum
    graph = nc.path_graph(1024)
    tracemalloc.start()
    try:
        loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), graph)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert held < 5e6 and loop.n_plants == 1024
