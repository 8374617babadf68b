import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import niconsensus as nc
from niconsensus.linsys import matvec

PARAMS = nc.PendulumParams(m_kg=1.0, l_m=0.5, kappa=5.0, g_ms2=9.8)
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
    loop = nc.pair_interconnect(plant, nc.first_order(10.0, 10.0))
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
                                 phi=lambda x: x ** 2 + 1.0)
    with pytest.raises(RuntimeError, match="no equilibrium"):
        nc.equilibrium_solve(hopeless, [0.0], [0.0])


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
    assert report.gamma_hat == pytest.approx(oracle, abs=1e-9)
    assert report.gamma_hat == pytest.approx(0.254084, abs=1e-4)
    assert report.gamma_hat < 1.0
    # the ratio peaks near the positive root of tan(x) = x (about 4.4934)
    assert abs(brentq_equilibrium(abs(report.worst_input[0])) - 4.4934) < 0.15


def test_gamma_input_grid_is_one_input_per_row():
    grid = nc.gamma_input_grid()
    assert grid.shape == (200, 1)
    assert np.array_equal(grid[:, 0], np.delete(np.linspace(-25.0, 25.0, 201), 100))


@pytest.mark.parametrize("network", [False, True])
def test_gamma_ratios_equal_single_input_solves(pendulum, four_node_graph, network):
    """The one batched solve gives, bit for bit, the ratios of a loop of
    one-input solves from rest; a list of input rows gives the same report."""
    plant, _ = pendulum
    controller = nc.first_order(10.0, 10.0)
    if network:
        controller = nc.kron_ss(nc.laplacian(four_node_graph), controller)
        inputs = np.random.default_rng(12345).uniform(-25, 25, (100, 4))
    else:
        inputs = nc.gamma_input_grid()
    report = nc.gamma_estimate(plant, controller, inputs)
    n = inputs.shape[1]
    dc = nc.dc_gain(controller)
    loop = []
    for u in inputs:
        x = nc.equilibrium_solve(plant, u.reshape(n, 1), np.zeros((n, 2)))
        y2 = matvec(dc, plant.h(x).reshape(-1))
        loop.append(np.sum(u * y2) / np.sum(u * u))
    assert np.array_equal(report.ratios, loop)
    assert np.array_equal(report.worst_input, inputs[np.argmax(loop)])
    listed = nc.gamma_estimate(plant, controller, list(inputs))
    assert np.array_equal(listed.ratios, report.ratios)


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
    params = nc.PendulumParams(m_kg=m, l_m=l, kappa=stiffness * mgl, g_ms2=9.8)
    report = nc.gamma_estimate(nc.pendulum_plant(params), nc.first_order(10.0, 10.0),
                               np.array(inputs)[:, None])
    oracle = max(brentq_equilibrium(u, params.kappa, mgl) / u for u in inputs)
    assert report.gamma_hat == pytest.approx(oracle, abs=1e-9)


def test_gamma_small_signal_limit(pendulum):
    plant, _ = pendulum
    report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0),
                               [np.array([1e-3]), np.array([-1e-3])])
    assert report.gamma_hat == pytest.approx(1.0 / (KAP + MGL), abs=1e-6)


def test_gamma_network_random_inputs(pendulum, four_node_graph):
    plant, _ = pendulum
    net = nc.kron_ss(nc.laplacian(four_node_graph), nc.first_order(10.0, 10.0))
    rng = np.random.default_rng(12345)
    inputs = [rng.uniform(-25, 25, 4) for _ in range(100)]
    report = nc.gamma_estimate(plant, net, inputs)
    assert report.gamma_hat < 1.0
    # cross-check the reported maximiser against the bracketing oracle
    u = report.worst_input
    y1 = np.array([brentq_equilibrium(v) for v in u])
    L = nc.laplacian(four_node_graph)
    assert report.gamma_hat == pytest.approx(float(u @ (L @ y1) / (u @ u)), abs=1e-9)


def test_gamma_zero_output_plant():
    silent = nc.NonlinearPlant(A=[[-1.0]], B=[[1.0]], C=[[0.0]], E=np.zeros((1, 0)),
                               phi=lambda x: x[..., :0])
    report = nc.gamma_estimate(silent, nc.first_order(10.0, 10.0),
                               [np.array([1.0]), np.array([-2.0])])
    assert report.gamma_hat == 0.0


def test_gamma_input_validation(pendulum):
    plant, _ = pendulum
    with pytest.raises(ValueError, match="nonzero"):
        nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), [np.zeros(1)])
    with pytest.raises(ValueError, match="at least one"):
        nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), [])
    hopeless = nc.NonlinearPlant(A=[[0.0]], B=[[0.0]], C=[[1.0]], E=[[1.0]],
                                 phi=lambda x: x ** 2 + 1.0)
    with pytest.raises(RuntimeError, match=r"failed for input \[3\."):
        nc.gamma_estimate(hopeless, nc.first_order(10.0, 10.0), [np.array([3.0])])


def test_gamma_error_names_the_failing_node(four_node_graph):
    """tanh(x) = u has no solution for |u| >= 1, so the batched Newton solve
    of an input fails at exactly the nodes that receive such a value."""
    saturating = nc.NonlinearPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[-1.0]],
                                   phi=np.tanh)
    bank = nc.kron_ss(nc.laplacian(four_node_graph), nc.first_order(10.0, 10.0))
    report = nc.gamma_estimate(saturating, bank, [np.array([0.5, -0.3, 0.2, 0.9])])
    assert np.isfinite(report.gamma_hat)
    with pytest.raises(RuntimeError, match=r"\(node 2\)"):
        nc.gamma_estimate(saturating, bank, [np.array([0.5, -0.3, 3.0, 0.2])])
    with pytest.raises(RuntimeError, match=r"\(node 1\)"):
        nc.gamma_estimate(saturating, bank, [np.array([0.5, 0.1, 0.2, 0.3]),
                                             np.array([0.5, -2.0, 0.2, 4.0])])
    # two failing inputs: the first input is named, with its first failing node
    with pytest.raises(RuntimeError, match=r"input \[ 0\.5 +0\.1 +3\. +-1\.5\] \(node 2\)"):
        nc.gamma_estimate(saturating, bank, np.array([[0.5, 0.1, 3.0, -1.5],
                                                      [2.0, -2.0, 0.2, 4.0]]))


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


def test_pendulum_params_validation():
    with pytest.raises(ValueError):
        nc.PendulumParams(m_kg=0.0)
