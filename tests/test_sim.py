import json
import math
from pathlib import Path

import numpy as np
import pytest

import niconsensus as nc
from conftest import EXACT, convergence_order, rk4_path_oracle
from niconsensus.cli import main
from niconsensus.sim import rk4_path

PENDULUM_PAIR = Path(__file__).resolve().parent.parent / "configs" / "pendulum_pair.json"


def test_exponential_decay():
    cfg = nc.IntegratorConfig(step_s=0.01, t_end_s=1.0)
    times, states = rk4_path(lambda x, out: np.negative(x, out=out), np.array([1.0]), cfg)
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_constant_field():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=2.0)
    _, states = rk4_path(lambda x, out: out.fill(0.0), np.array([3.0, -1.0]), cfg)
    assert np.array_equal(states, np.tile([3.0, -1.0], (states.shape[0], 1)))


def test_harmonic_oscillator_energy_drift():
    field = lambda x, out: np.copyto(out, [x[1], -x[0]])
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=10.0, record_every=10)
    _, states = rk4_path(field, np.array([1.0, 0.0]), cfg)
    energy = 0.5 * (states[:, 0] ** 2 + states[:, 1] ** 2)
    assert np.abs(energy - energy[0]).max() < 1e-9


def test_recording_includes_both_endpoints():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.05, record_every=4)
    times, states = rk4_path(lambda x, out: np.negative(x, out=out), np.array([1.0]), cfg)
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
        return nc.integrate(network_loop, network_x0, cfg).states[-1]

    ref = terminal(0.02 / 8)
    err_h = np.linalg.norm(terminal(0.02) - ref)
    err_h2 = np.linalg.norm(terminal(0.01) - ref)
    assert err_h / err_h2 >= 12.0


def test_convergence_order_linear_field():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.0)
    order = convergence_order(lambda x, out: np.negative(x, out=out), np.array([1.0]), cfg)
    assert order == pytest.approx(4.0, abs=0.2)
    sysm = np.array([[0.0, 1.0], [-4.0, -0.4]])
    order = convergence_order(lambda x, out: np.dot(sysm, x, out=out),
                              np.array([1.0, 0.0]), cfg)
    assert order == pytest.approx(4.0, abs=0.2)


def test_convergence_order_exact_sentinel():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.0)
    order = convergence_order(lambda x, out: out.fill(0.0), np.array([2.0]), cfg)
    assert order == EXACT


def test_divergence_raises():
    # finite-time blow-up of dx/dt = x^2 overflows to inf
    cfg = nc.IntegratorConfig(step_s=0.01, t_end_s=3.0)
    with pytest.raises(nc.SimulationDiverged, match="divergence at t="):
        rk4_path(lambda x, out: np.multiply(x, x, out=out), np.array([1.0]), cfg)


def test_divergence_reports_the_step_and_the_last_finite_state():
    """dx/dt = x^2 from 1 blows up at t = 1. The error names the first step
    whose result is not finite and the state before it, stepped by hand here,
    not the last recorded state; the allocating oracle stops at the same step."""
    h = 0.01
    cfg = nc.IntegratorConfig(step_s=h, t_end_s=3.0, record_every=7)
    with pytest.raises(nc.SimulationDiverged, match="divergence at t=") as err:
        rk4_path(lambda x, out: np.multiply(x, x, out=out), np.array([1.0]), cfg)
    x, step = np.array([1.0]), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k1 = x * x
            k2 = (x + 0.5 * h * k1) * (x + 0.5 * h * k1)
            k3 = (x + 0.5 * h * k2) * (x + 0.5 * h * k2)
            k4 = (x + h * k3) * (x + h * k3)
            new = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            step += 1
            if not np.isfinite(new).all():
                break
            x = new
    assert (step - 1) % cfg.record_every != 0
    assert err.value.step == step and err.value.t == step * h
    assert np.array_equal(err.value.last_state, x)
    with pytest.raises(nc.SimulationDiverged) as ref:
        rk4_path_oracle(lambda x: x * x, np.array([1.0]), cfg)
    assert ref.value.step == step and np.array_equal(ref.value.last_state, x)


def test_stiff_pair_diverges_with_its_last_composite_state(tmp_path):
    """a = b = 5000 at h = 1e-3 puts h lambda = -5 outside RK4's stability
    region: the run exits 3 at t = 0.268, and the error carries the composite
    state (not the extended one) that a run of one step fewer ends in."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"] = {"a": 5000.0, "b": 5000.0}
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["error"] == "divergence at t=0.268"
    cfg = nc.resolve_config(doc)
    loop, h = cfg.build_loop(), cfg.integrator.step_s
    with pytest.raises(nc.SimulationDiverged) as err:
        nc.integrate(loop, cfg.x0, cfg.integrator)
    assert err.value.step == 268 and err.value.last_state.shape == (loop.n_states,)
    before = nc.integrate(loop, cfg.x0, nc.IntegratorConfig(h, 267 * h, record_every=10))
    assert np.array_equal(err.value.last_state, before.states[-1])


@pytest.mark.parametrize("size", [1, 3, 12, 67])
def test_one_non_finite_entry_diverges_and_huge_entries_do_not(size):
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=0.1)
    still = lambda x, out: out.fill(0.0)
    huge = 1e300 * (-1.0) ** np.arange(size)
    _, states = rk4_path(still, huge, cfg)
    assert np.array_equal(states[-1], huge)
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(size):
            x0 = huge.copy()
            x0[i] = bad
            with pytest.raises(nc.SimulationDiverged):
                rk4_path(still, x0, cfg)


@pytest.mark.parametrize("name", ["pair", "flagship4", "path64"])
def test_integrate_matches_the_allocating_oracle(pendulum, four_node_graph, name):
    """In-place stages on the extended state record the states of the
    allocate-per-stage integrator on the plain composite field, bit for bit."""
    plant, _ = pendulum
    lag = nc.first_order(10.0, 10.0)
    loop = {"pair": lambda: nc.pair_interconnect(plant, nc.first_order(20.0, 6.0)),
            "flagship4": lambda: nc.network_interconnect(plant, lag, four_node_graph),
            "path64": lambda: nc.network_interconnect(plant, lag, nc.path_graph(64))}[name]()
    x0 = np.random.default_rng(7).uniform(-2.0, 2.0, loop.n_states)
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=1.0, record_every=7)
    traj = nc.integrate(loop, x0, cfg)
    times, states = rk4_path_oracle(lambda x: loop.evaluate(x).dstate, x0, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


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
