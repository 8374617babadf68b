import math

import numpy as np
import pytest

import niconsensus as nc
from conftest import EXACT, convergence_order
from niconsensus.sim import rk4_path


def test_exponential_decay():
    cfg = nc.IntegratorConfig(step_s=0.01, t_end_s=1.0)
    times, states = rk4_path(lambda x: -x, np.array([1.0]), cfg)
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_constant_field():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=2.0)
    _, states = rk4_path(lambda x: np.zeros_like(x), np.array([3.0, -1.0]), cfg)
    assert np.array_equal(states, np.tile([3.0, -1.0], (states.shape[0], 1)))


def test_harmonic_oscillator_energy_drift():
    field = lambda x: np.array([x[1], -x[0]])
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=10.0, record_every=10)
    _, states = rk4_path(field, np.array([1.0, 0.0]), cfg)
    energy = 0.5 * (states[:, 0] ** 2 + states[:, 1] ** 2)
    assert np.abs(energy - energy[0]).max() < 1e-9


def test_recording_includes_both_endpoints():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.05, record_every=4)
    times, states = rk4_path(lambda x: -x, np.array([1.0]), cfg)
    # 10 steps of 0.1 (nearest to 1.05): records at 0, 0.4, 0.8 and the end
    assert times == pytest.approx([0.0, 0.4, 0.8, 1.0])


def test_determinism_bit_identical(network_loop, network_x0):
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=1.0, record_every=10)
    a = nc.integrate(network_loop, network_x0, cfg)
    b = nc.integrate(network_loop, network_x0, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.y2dot, b.y2dot)


def test_step_halving_error_ratio(network_loop, network_x0):
    """Terminal error versus a step/8 reference drops at least 12x per halving."""
    t_end = 4.0
    def terminal(h):
        cfg = nc.IntegratorConfig(step_s=h, t_end_s=t_end, record_every=10 ** 9)
        _, states = rk4_path(network_loop.rhs, network_x0, cfg)
        return states[-1]

    ref = terminal(0.02 / 8)
    err_h = np.linalg.norm(terminal(0.02) - ref)
    err_h2 = np.linalg.norm(terminal(0.01) - ref)
    assert err_h / err_h2 >= 12.0


def test_convergence_order_linear_field():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.0)
    order = convergence_order(lambda x: -x, np.array([1.0]), cfg)
    assert order == pytest.approx(4.0, abs=0.2)
    sysm = np.array([[0.0, 1.0], [-4.0, -0.4]])
    order = convergence_order(lambda x: sysm @ x, np.array([1.0, 0.0]), cfg)
    assert order == pytest.approx(4.0, abs=0.2)


def test_convergence_order_exact_sentinel():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.0)
    order = convergence_order(lambda x: np.zeros_like(x), np.array([2.0]), cfg)
    assert order == EXACT


def test_divergence_raises():
    # finite-time blow-up of dx/dt = x^2 overflows to inf
    cfg = nc.IntegratorConfig(step_s=0.01, t_end_s=3.0)
    with pytest.raises(nc.SimulationDiverged, match="divergence at t="):
        rk4_path(lambda x: x * x, np.array([1.0]), cfg)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        nc.IntegratorConfig(step_s=0.0, t_end_s=1.0)
    with pytest.raises(ValueError):
        nc.IntegratorConfig(step_s=0.1, t_end_s=0.05)
    with pytest.raises(ValueError):
        nc.IntegratorConfig(step_s=0.1, t_end_s=1.0, record_every=0)


def test_integrate_validates_state_length(network_loop):
    with pytest.raises(ValueError, match="length 12"):
        nc.integrate(network_loop, np.zeros(5),
                     nc.IntegratorConfig(step_s=0.1, t_end_s=1.0))


def test_trajectory_columns_and_csv(tmp_path, network_loop, network_x0):
    cfg = nc.IntegratorConfig(step_s=1e-2, t_end_s=1.0, record_every=10)
    traj = nc.integrate(network_loop, network_x0, cfg)
    # closed loop: plant inputs are the mixed controller outputs
    assert np.array_equal(traj.u1, traj.y2)
    # mixed outputs are the Laplacian image of the per-node outputs
    L = network_loop.K
    assert np.allclose(traj.y2, traj.yc @ L.T, atol=1e-12)
    path = tmp_path / "traj.csv"
    traj.write_csv(path, extra_columns=[("edge_max", np.zeros(traj.n_samples))])
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:13] == [f"x_plant_{i}_{k}" for i in (1, 2, 3, 4) for k in (0, 1)] \
        + [f"x_ctrl_{i}_0" for i in (1, 2, 3, 4)]
    assert header[-1] == "edge_max"
    assert len(lines) == traj.n_samples + 1


def test_pair_trajectory_signals(pair_traj):
    # with K = [[1]] the controller output is the plant input
    assert np.array_equal(pair_traj.u1, pair_traj.y2)
    assert np.array_equal(pair_traj.yc, pair_traj.y2)
