import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, root

import niconsensus as nc
from conftest import kron_ss
from niconsensus.linsys import matvec

ML2, MGL, KAP = 0.25, 4.9, 5.0


def test_pendulum_plant_examples(pendulum):
    plant, _ = pendulum
    assert plant.p == 2 and plant.m == 1
    assert np.array_equal(plant.f([0.0, 0.0], [0.0]), [0.0, 0.0])
    f = plant.f([math.pi / 2, 0.0], [0.0])
    assert f == pytest.approx([0.0, -51.01592653589793], abs=1e-12)
    f = plant.f([0.0, 1.0], [4.9])
    assert f == pytest.approx([1.0, 19.6], abs=1e-12)
    assert np.array_equal(plant.h([0.3, -2.0]), [0.3])
    assert np.array_equal(plant.C, [[1.0, 0.0]])


def test_pendulum_is_bit_for_bit_its_matrices_and_energy():
    """A, B and E are the divisions by ml2 = m l^2 and mgl = m g l, each formed
    once, and V and grad the hand-written energy: every record of the
    pendulum configs rests on these bits."""
    rng = np.random.default_rng(24)
    x = rng.uniform(-4.0, 4.0, (16, 2))
    x1, x2 = x.T
    for m, l, kappa, g in (10.0 ** rng.uniform(-2.0, 2.0, (50, 4))).tolist():
        plant, storage = nc.pendulum(m_kg=m, l_m=l, kappa=kappa, g_ms2=g)
        ml2, mgl = m * l ** 2, m * g * l
        assert np.array_equal(plant.A, [[0.0, 1.0], [-kappa / ml2, 0.0]])
        assert np.array_equal(plant.B, [[0.0], [1.0 / ml2]])
        assert np.array_equal(plant.C, [[1.0, 0.0]])
        assert np.array_equal(plant.E, [[0.0], [-mgl / ml2]]) and plant.phi is np.sin
        assert np.array_equal(storage.V(x), 0.5 * kappa * x1 * x1 + 0.5 * ml2 * x2 * x2
                              + mgl * (1.0 - np.cos(x1)))
        assert np.array_equal(storage.grad(x),
                              np.stack([kappa * x1 + mgl * np.sin(x1), ml2 * x2], axis=-1))
        assert np.array_equal(storage.Q, np.diag([kappa, ml2]))


def test_pendulum_jacobian_matches_finite_differences(pendulum):
    plant, _ = pendulum
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-3, 3, 2)
        fd = np.array([[(plant.h(x + e)[0] - plant.h(x - e)[0]) / (2e-6)
                        for e in (np.array([1e-6, 0.0]), np.array([0.0, 1e-6]))]])
        assert np.abs(plant.C - fd).max() < 1e-5


def test_pendulum_storage_values(pendulum):
    _, storage = pendulum
    assert storage.V([0.0, 0.0]) == 0.0
    assert storage.V([math.pi, 0.0]) == pytest.approx(34.474011002723395, abs=1e-12)
    assert storage.V([0.0, 2.0]) == pytest.approx(0.5, abs=1e-15)


def test_storage_gradients_match_finite_differences(pendulum):
    _, storage = pendulum
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-3, 3, 2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (storage.V(x + e) - storage.V(x - e)) / 2e-6
            assert abs(storage.grad(x)[j] - fd) < 1e-5


def test_controller_storage_values(pendulum):
    """V2(x) = (1/2) x^T Y^-1 x with the lag's certificate Y = a/b is
    (b / 2a) x^2: the composite storage with the plant at rest."""
    plant, v1 = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0))
    cs = nc.CompositeStorage(loop, v1, nc.first_order_certificate(10.0, 10.0)[0])
    assert cs.value([0.0, 0.0, 1.0]) == pytest.approx(0.5)
    assert cs.value([0.0, 0.0, 0.0]) == 0.0
    assert cs.value([0.0, 0.0, 2.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        nc.first_order_certificate(-1.0, 1.0)


def test_pendulum_field_matches_closed_form(pendulum):
    """The structured field A x + B u + E phi(x) against the hand-written
    pendulum equations on a nested batch."""
    plant, _ = pendulum
    rng = np.random.default_rng(12)
    xs = rng.uniform(-4.0, 4.0, (3, 5, 2))
    us = rng.uniform(-20.0, 20.0, (3, 5, 1))
    th, om = xs[..., 0], xs[..., 1]
    closed = np.stack([om, (-KAP * th - MGL * np.sin(th) + us[..., 0]) / ML2], axis=-1)
    assert np.abs(plant.f(xs, us) - closed).max() <= 1e-13
    assert np.array_equal(plant.h(xs), xs[..., :1])


def test_pendulum_is_lossless(pendulum):
    """The energy rate equals the supply u dy/dt exactly (no damping term)."""
    plant, storage = pendulum
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-4, 4, 2)
        u = rng.uniform(-20, 20, 1)
        vdot = storage.grad(x) @ plant.f(x, u)
        supply = u @ plant.h(plant.f(x, u))
        worst = max(worst, abs(vdot - supply))
    assert worst < 1e-9


@pytest.mark.parametrize("delta", [0.05, 0.1])
def test_controller_dissipation_identity(delta):
    """u dy - delta dy^2 - dV2 = (1/a - delta) dy^2 for the lag a/(s+b)."""
    a = b = 10.0
    ctrl = nc.first_order(a, b)
    Y, _ = nc.first_order_certificate(a, b)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.uniform(-5, 5, 1)
        u = rng.uniform(-5, 5, 1)
        dx = ctrl.A @ x + ctrl.B @ u
        ydot = ctrl.C @ dx
        lhs = u @ ydot - delta * ydot @ ydot - np.linalg.solve(Y, x) @ dx
        rhs = (1.0 / a - delta) * float(ydot @ ydot)
        assert abs(lhs - rhs) < 1e-9


def test_equilibrium_examples(pendulum):
    plant, _ = pendulum
    x = nc.equilibrium_solve(plant, [0.0], [0.1, 0.0])
    assert np.abs(x).max() < 1e-10
    ubar = KAP * math.pi / 2 + MGL
    x = nc.equilibrium_solve(plant, [ubar], [1.0, 0.0])
    assert x == pytest.approx([math.pi / 2, 0.0], abs=1e-9)
    ubar = KAP * 0.1 + MGL * math.sin(0.1)
    x = nc.equilibrium_solve(plant, [ubar], [0.0, 0.0])
    assert x == pytest.approx([0.1, 0.0], abs=1e-9)
    assert np.abs(plant.f(x, [ubar])).max() < 1e-10


def test_equilibrium_failure_reports():
    hopeless = nc.NonlinearPlant(A=[[0.0]], B=[[0.0]], C=[[1.0]], E=[[1.0]],
                                 phi=lambda x, out=None: np.add(x ** 2, 1.0, out=out))
    with pytest.raises(RuntimeError, match="no equilibrium"):
        nc.equilibrium_solve(hopeless, [0.0], [0.0])


def coupled_pendulums(inertia, stiffness, mgl):
    """Two pendulums coupled by a torsional spring, M q'' = -K q - g(q) + u
    with g_i = mgl_i sin q_i and y = q: p = 4, m = 2 and phi = sin on the
    r = 2 angles."""
    Minv, K = np.diag(1.0 / np.asarray(inertia)), np.asarray(stiffness)
    Z, I = np.zeros((2, 2)), np.eye(2)
    return nc.NonlinearPlant(A=np.block([[Z, I], [-Minv @ K, Z]]), B=np.vstack((Z, Minv)),
                             C=np.hstack((I, Z)), E=np.vstack((Z, -Minv @ np.diag(mgl))),
                             phi=np.sin)


def test_equilibrium_of_coupled_pendulums_matches_scipy_root():
    """With K - diag(mgl) positive definite, K q + diag(mgl) sin q = u has one
    root, so Newton on the r = 2 angles from rest and scipy's root find the
    same one; the rates are zero. The batch (a LAPACK solve per Jacobian)
    keeps each member's own steps."""
    mgl = np.array([4.9, 2.0])
    K = np.array([[9.0, -2.0], [-2.0, 6.0]])
    plant = coupled_pendulums([0.25, 0.5], K, mgl)
    assert (plant.p, plant.m, plant.r) == (4, 2, 2)
    u = np.random.default_rng(3).uniform(-25.0, 25.0, (40, 2))
    x = nc.equilibrium_solve(plant, u, np.zeros((40, 4)))
    assert np.array_equal(x[:, 2:], np.zeros((40, 2)))
    for ui, xi in zip(u, x):
        sol = root(lambda q: K @ q + mgl * np.sin(q) - ui, np.zeros(2),
                   jac=lambda q: K + np.diag(mgl * np.cos(q)), tol=1e-12)
        assert sol.success and np.abs(sol.fun).max() <= 1e-12
        assert np.abs(xi[:2] - sol.x).max() <= 1e-9
        assert np.array_equal(xi, nc.equilibrium_solve(plant, ui, np.zeros(4)))


def test_equilibrium_with_a_singular_jacobian_fails_that_member_alone():
    """phi of the second coordinate has no weight in f, so every Jacobian of
    G is singular: a member already at rest converges with no step, the
    others fail, as each would alone, with no numpy warning."""
    plant = nc.NonlinearPlant(A=[[-1.0, 0.0], [0.0, 0.0]], B=np.eye(2), C=np.eye(2),
                              E=np.zeros((2, 2)), phi=np.tanh)
    u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nc.plant.EquilibriumError) as info:
            nc.equilibrium_solve(plant, u, np.zeros((3, 2)))
    assert info.value.member == 0
    assert np.isnan(info.value.x[[0, 2]]).all()
    assert np.array_equal(info.value.x[1], nc.equilibrium_solve(plant, u[1], np.zeros(2)))
    for i in (0, 2):
        with pytest.raises(nc.plant.EquilibriumError):
            nc.equilibrium_solve(plant, u[i], np.zeros(2))


def test_equilibrium_of_a_rank_deficient_plant_fails_every_member():
    """A[:, r:] of rank 1 < p - r = 2: the equilibria, where there are any,
    form a line, so no member has an isolated one. Every member fails at
    once, member 0 is named, and numpy warns of nothing."""
    plant = nc.NonlinearPlant(A=[[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 2.0]],
                              B=[[0.0], [1.0], [0.0]], C=[[1.0, 0.0, 0.0]],
                              E=[[0.0], [-1.0], [0.0]], phi=np.sin)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nc.plant.EquilibriumError) as info:
            nc.equilibrium_solve(plant, [[0.5], [0.0], [-2.0]], np.zeros((3, 3)))
    assert info.value.member == 0
    assert info.value.x.shape == (3, 3) and np.isnan(info.value.x).all()


def test_equilibrium_of_a_linear_plant_is_minus_a_inverse_b_u():
    """r = 0: no Newton step is taken, and xbar = -A^-1 B u from the QR of A."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3)) - 3.0 * np.eye(3)
    B = rng.normal(size=(3, 2))
    plant = nc.NonlinearPlant(A=A, B=B, C=rng.normal(size=(2, 3)), E=np.zeros((3, 0)),
                              phi=lambda x, out=None: x[..., :0])
    u = rng.uniform(-5.0, 5.0, (6, 2))
    x = nc.equilibrium_solve(plant, u, rng.normal(size=(6, 3)))
    assert np.abs(x - np.linalg.solve(A, -(u @ B.T).T).T).max() <= 1e-12


def test_equilibrium_refuses_mismatched_shapes(pendulum):
    plant, _ = pendulum
    with pytest.raises(ValueError, match=r"x0 of shape \(2,\) and ubar of shape \(2,\)"):
        nc.equilibrium_solve(plant, [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match=r"x0 of shape \(3, 2\) and ubar of shape \(2, 1\)"):
        nc.equilibrium_solve(plant, np.ones((2, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"x0 of shape \(1,\)"):
        nc.equilibrium_solve(plant, [1.0], [0.0])


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.floats(0.5, 2.0), l=st.floats(0.25, 1.0), stiffness=st.floats(1.5, 10.0),
       inputs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
def test_equilibrium_angles_match_bracketing_oracle(m, l, stiffness, inputs):
    """kappa = stiffness * m g l > m g l: each member's angle is the unique
    root the bracketing oracle finds. The residual bound 1e-10 moves the
    angle by at most 1e-10 m l^2 / (kappa - m g l) <= 2.1e-11 here."""
    mgl = m * 9.8 * l
    kappa = stiffness * mgl
    plant, _ = nc.pendulum(m_kg=m, l_m=l, kappa=kappa, g_ms2=9.8)
    u = np.array(inputs)[:, None]
    x = nc.equilibrium_solve(plant, u, np.zeros((len(u), 2)))
    oracle = [brentq_equilibrium(v, kappa, mgl) for v in inputs]
    assert np.abs(x[:, 0] - oracle).max() <= 1e-10
    assert np.array_equal(x[:, 1], np.zeros(len(u)))


def brentq_equilibrium(u, kap=KAP, mgl=MGL):
    """Independent scalar oracle for the pendulum equilibrium angle."""
    return brentq(lambda x: kap * x + mgl * math.sin(x) - u, -30.0, 30.0,
                  xtol=1e-13)


def test_gamma_pair_grid_matches_bracketing_oracle(pendulum):
    plant, _ = pendulum
    report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0),
                               nc.gamma_input_grid())
    oracle = max(u * brentq_equilibrium(u) / u ** 2
                 for u in np.linspace(-25, 25, 201) if abs(u) > 1e-12)
    assert report["gamma_hat"] == pytest.approx(oracle, abs=1e-9)
    assert report["gamma_hat"] == pytest.approx(0.254084, abs=1e-4)
    assert report["gamma_hat"] < 1.0
    # the ratio peaks near the positive root of tan(x) = x (about 4.4934)
    assert abs(brentq_equilibrium(abs(report["worst_input"][0])) - 4.4934) < 0.15


#: sin(t)/t at its minimum t* > 0, where tan(t*) = t* (t* about 4.4934).
THETA_STAR = brentq(lambda t: math.sin(t) - t * math.cos(t), math.pi, 1.5 * math.pi,
                    xtol=1e-15)
S_MIN = math.sin(THETA_STAR) / THETA_STAR


@pytest.mark.parametrize("name", ["pendulum4", "pendulum_pair"])
def test_sampled_gamma_pair_is_below_and_near_the_closed_form(name):
    """The pendulum's pair gain u ybar2 / u^2 = M(0) / (kappa + mgl sin(t)/t)
    at the equilibrium angle t peaks at M(0) / (kappa + S_MIN mgl): the
    sampled gamma_hat never exceeds that sup and, on the bundled configs,
    comes within 1e-4 of it."""
    cfg = nc.load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    p = cfg.raw["plant"]["pendulum"]
    closed = nc.dc_gain(cfg.controller_ss)[0, 0] / (p["kappa"] + S_MIN * p["m"] * p["g"] * p["l"])
    gamma_hat = nc.gamma_estimate(cfg.plant, cfg.controller_ss, nc.gamma_input_grid())["gamma_hat"]
    assert S_MIN == pytest.approx(-0.2172336, abs=1e-7)
    assert closed - 1e-4 < gamma_hat <= closed


def test_gamma_input_grid_is_one_input_per_row():
    grid = nc.gamma_input_grid()
    assert grid.shape == (200, 1)
    assert np.array_equal(grid[:, 0], np.delete(np.linspace(-25.0, 25.0, 201), 100))


@pytest.mark.parametrize("network", [False, True, 64])
def test_gamma_ratios_equal_single_input_solves(pendulum, four_node_graph, network):
    """The one batched solve gives, bit for bit, the ratios of one-input
    estimates; a list of input rows gives the same report. Against a loop of
    one-input solves mapped through the realised bank's DC map,
    dc_gain(kron_ss(K, M)), they agree bit for bit for the pair and within
    1e-12 for K = L, whose K (x) M(0) is applied through the nonzeros of L.
    network is False for the pair, True for the flagship graph, or the node
    count of a path."""
    plant, _ = pendulum
    M = nc.first_order(10.0, 10.0)
    if network:
        graph = four_node_graph if network is True else nc.path_graph(network)
        K = nc.laplacian(graph)
        inputs = np.random.default_rng(12345).uniform(-25, 25, (100, graph.n))
    else:
        graph, K, inputs = None, np.ones((1, 1)), nc.gamma_input_grid()
    report = nc.gamma_estimate(plant, M, inputs, graph)
    single = [nc.gamma_estimate(plant, M, u[None], graph)["ratios"][0] for u in inputs]
    assert np.array_equal(report["ratios"], single)
    n = inputs.shape[1]
    dc = nc.dc_gain(kron_ss(K, M))
    loop = []
    for u in inputs:
        x = nc.equilibrium_solve(plant, u.reshape(n, 1), np.zeros((n, 2)))
        y2 = matvec(dc, plant.h(x).reshape(-1))
        loop.append(np.sum(u * y2) / np.sum(u * u))
    if not network:
        assert np.array_equal(report["ratios"], loop)
    assert np.abs(report["ratios"] - loop).max() <= 1e-12
    assert np.array_equal(report["worst_input"], inputs[np.argmax(loop)])
    listed = nc.gamma_estimate(plant, M, list(inputs), graph)
    assert np.array_equal(listed["ratios"], report["ratios"])


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.floats(0.5, 2.0), l=st.floats(0.25, 1.0), stiffness=st.floats(1.5, 10.0),
       inputs=st.lists(st.floats(-50.0, 50.0).filter(lambda u: abs(u) >= 1.0),
                       min_size=1, max_size=20))
def test_gamma_matches_bracketing_oracle_on_random_pendulums(m, l, stiffness, inputs):
    """With kappa > m g l the equilibrium is unique, so every batch member
    solved from rest lands on the root the bracketing oracle finds. The
    Newton residual bound 1e-10 moves an angle by at most
    1e-10 m l^2 / (kappa - m g l) < 4e-10 here, and |u| >= 1."""
    mgl = m * 9.8 * l
    kappa = stiffness * mgl
    plant, _ = nc.pendulum(m_kg=m, l_m=l, kappa=kappa, g_ms2=9.8)
    report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), np.array(inputs)[:, None])
    oracle = max(brentq_equilibrium(u, kappa, mgl) / u for u in inputs)
    assert report["gamma_hat"] == pytest.approx(oracle, abs=1e-9)


def test_gamma_small_signal_limit(pendulum):
    plant, _ = pendulum
    report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0),
                               [np.array([1e-3]), np.array([-1e-3])])
    assert report["gamma_hat"] == pytest.approx(1.0 / (KAP + MGL), abs=1e-6)


def test_gamma_network_random_inputs(pendulum, four_node_graph):
    plant, _ = pendulum
    rng = np.random.default_rng(12345)
    inputs = [rng.uniform(-25, 25, 4) for _ in range(100)]
    report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), inputs, four_node_graph)
    assert report["gamma_hat"] < 1.0
    # cross-check the reported maximiser against the bracketing oracle
    u = report["worst_input"]
    y1 = np.array([brentq_equilibrium(v) for v in u])
    L = nc.laplacian(four_node_graph)
    assert report["gamma_hat"] == pytest.approx(float(u @ (L @ y1) / (u @ u)), abs=1e-9)


# the lossless spring x'' = -2 x + u, y = x (P(0) = 1/2), on the 4-cycle
# (lambda_max(L) = 4) under a/(s + 1): the linear theory's gain is exactly
# gamma = lambda_max(L) P(0) M(0) = 2a, and the ring reaches consensus
# exactly when gamma < 1
SPRING = nc.NonlinearPlant(A=[[0.0, 1.0], [-2.0, 0.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                           E=np.zeros((2, 0)), phi=lambda x, out=None: x[..., :0])
RING = nc.Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_gamma_estimate_reaches_one_on_a_spring_ring_whose_gain_exceeds_one():
    """Defect C on an exact loop: a = 0.501 gives gamma = 1.002, yet on
    verify's own 100 draws the sampled estimate reads 0.99975."""
    inputs = np.random.default_rng(12345).uniform(-25, 25, (100, 4))
    assert nc.gamma_estimate(SPRING, nc.first_order(0.501, 1.0), inputs, RING)["gamma_hat"] >= 1.0


@pytest.mark.parametrize("a", [0.49, 0.501])
def test_spring_ring_reaches_consensus_exactly_when_its_gain_is_below_one(a):
    """From the lambda = 4 mode (alternating angles, controllers at rest) the
    output spread max_i |y_i - mean(y)| shrinks at every recorded second
    from 80 s to 400 s for gamma = 0.98, to under 1% of its 80 s value, and
    grows at every one for gamma = 1.002, to over 1.5 times it."""
    loop = nc.ClosedLoop(SPRING, nc.first_order(a, 1.0), RING)
    x0 = np.zeros(loop.n_states)
    x0[0:8:2] = 0.1 * np.array([1.0, -1.0, 1.0, -1.0])
    traj = nc.integrate(loop, x0, nc.IntegratorConfig(0.01, 400.0, record_every=100))
    spread = np.abs(traj.y1 - traj.y1.mean(axis=1, keepdims=True)).max(axis=1)
    late = spread[traj.times >= 80.0]
    if 2.0 * a < 1.0:
        assert (np.diff(late) < 0).all() and late[-1] < 0.01 * late[0]
    else:
        assert (np.diff(late) > 0).all() and late[-1] > 1.5 * late[0]


def test_gamma_zero_output_plant():
    silent = nc.NonlinearPlant(A=[[-1.0]], B=[[1.0]], C=[[0.0]], E=np.zeros((1, 0)),
                               phi=lambda x, out=None: x[..., :0])
    report = nc.gamma_estimate(silent, nc.first_order(10.0, 10.0),
                               [np.array([1.0]), np.array([-2.0])])
    assert report["gamma_hat"] == 0.0


def test_gamma_input_validation(pendulum):
    plant, _ = pendulum
    with pytest.raises(ValueError, match="nonzero"):
        nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), [np.zeros(1)])
    with pytest.raises(ValueError, match="at least one"):
        nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), [])
    # a non-finite input is refused before the solve, which would warn of it
    for bad in (math.inf, -math.inf, math.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="constant inputs must be finite"):
                nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), [[1.0], [bad]])
    hopeless = nc.NonlinearPlant(A=[[0.0]], B=[[0.0]], C=[[1.0]], E=[[1.0]],
                                 phi=lambda x, out=None: np.add(x ** 2, 1.0, out=out))
    with pytest.raises(RuntimeError, match=r"failed for input \[3\."):
        nc.gamma_estimate(hopeless, nc.first_order(10.0, 10.0), [np.array([3.0])])


def test_phi_that_ignores_out_is_refused():
    """The integrator refills its phi block with phi(x, out): a phi that
    returns phi(x) but leaves out alone would keep the block stale in every
    RK4 stage, so the plant refuses it at construction."""
    with pytest.raises(ValueError, match=r"phi\(x, out\) must write phi\(x\)"):
        nc.NonlinearPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[-1.0]],
                          phi=lambda x, out=None: np.tanh(x))


def test_gamma_error_names_the_failing_node(four_node_graph):
    """tanh(x) = u has no solution for |u| >= 1, so the batched Newton solve
    of an input fails at exactly the nodes that receive such a value."""
    saturating = nc.NonlinearPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[-1.0]],
                                   phi=np.tanh)
    gain = partial(nc.gamma_estimate, saturating, nc.first_order(10.0, 10.0),
                   graph=four_node_graph)
    report = gain([np.array([0.5, -0.3, 0.2, 0.9])])
    assert np.isfinite(report["gamma_hat"])
    with pytest.raises(RuntimeError, match=r"\(node 2\)"):
        gain([np.array([0.5, -0.3, 3.0, 0.2])])
    with pytest.raises(RuntimeError, match=r"\(node 1\)"):
        gain([np.array([0.5, 0.1, 0.2, 0.3]), np.array([0.5, -2.0, 0.2, 4.0])])
    # two failing inputs: the first input is named, with its first failing node
    with pytest.raises(RuntimeError, match=r"input \[ 0\.5 +0\.1 +3\. +-1\.5\] \(node 2\)"):
        gain(np.array([[0.5, 0.1, 3.0, -1.5], [2.0, -2.0, 0.2, 4.0]]))
    # a bank passed as M, the form before the graph was an argument, is refused
    with pytest.raises(ValueError, match="must equal the plant's"):
        nc.gamma_estimate(saturating, kron_ss(nc.laplacian(four_node_graph),
                                              nc.first_order(10.0, 10.0)), np.ones((1, 4)))


def test_constant_output_implies_constant_state_on_trajectories(pair_loop):
    """Windowed check: small output rate forces a proportionally small state
    rate. The ratio fitted on one run bounds a run from different initial
    conditions."""
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=12.0, record_every=5)

    def window_ratios(x0):
        traj = nc.integrate(pair_loop, x0, cfg)
        plant = pair_loop.plant
        ratios = []
        n = traj.n_samples
        for start in range(n // 2, n - 120, 120):
            sl = slice(start, start + 120)
            xs = traj.states[sl, :2]
            us = traj.u1[sl]
            xdots = np.array([plant.f(xs[k], us[k]) for k in range(xs.shape[0])])
            eps = np.abs(traj.y1dot[sl]).max()
            if eps > 1e-12:
                ratios.append(np.abs(xdots).max() / eps)
        return ratios

    fitted = max(window_ratios(np.array([1.0, 0.0, 0.0])))
    probe = window_ratios(np.array([0.4, 0.5, 0.0]))
    assert probe, "probe trajectory produced no usable windows"
    assert max(probe) <= 1.5 * fitted


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["m_kg", "l_m", "kappa", "g_ms2"])
def test_pendulum_refuses_a_parameter_unless_positive_and_finite(name, value):
    with pytest.raises(ValueError, match="positive and finite"):
        nc.pendulum(**{name: value})
