import gc
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import niconsensus as nc
from conftest import (EXACT, convergence_order, dense_plant, rhs_rows, rk4_path_oracle,
                      rk4_stage_oracle)
from niconsensus import network
from niconsensus.cli import main
from niconsensus.sim import rk4_path

PENDULUM_PAIR = Path(__file__).resolve().parent.parent / "configs" / "pendulum_pair.json"


def test_exponential_decay():
    cfg = nc.IntegratorConfig(step_s=0.01, t_end_s=1.0)
    times, states = rk4_path(np.negative, np.array([1.0]), cfg)
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_constant_field():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=2.0)
    _, states = rk4_path(np.zeros_like, np.array([3.0, -1.0]), cfg)
    assert np.array_equal(states, np.tile([3.0, -1.0], (states.shape[0], 1)))


def test_harmonic_oscillator_energy_drift():
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=10.0, record_every=10)
    _, states = rk4_path(lambda x: np.array([x[1], -x[0]]), np.array([1.0, 0.0]), cfg)
    energy = 0.5 * (states[:, 0] ** 2 + states[:, 1] ** 2)
    assert np.abs(energy - energy[0]).max() < 1e-9


def test_recording_includes_both_endpoints():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.05, record_every=4)
    times, states = rk4_path(np.negative, np.array([1.0]), cfg)
    # 10 steps of 0.1 (nearest to 1.05): records at 0, 0.4, 0.8 and the end
    assert times == pytest.approx([0.0, 0.4, 0.8, 1.0])


@pytest.mark.parametrize("seed", range(12))
def test_plain_field_path_is_the_oracle_bit_for_bit(seed):
    """A plain field's slopes run the oracle's arithmetic: on a random smooth
    field, step, horizon and record interval the times and states are the
    oracle's bit for bit, and on x' = x^2, which blows up at t = 1/x0, so
    are the divergence step, time and last state."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    A, B, c = rng.normal(size=(n, n)), rng.normal(size=(n, n)), rng.normal(size=n)
    h = float(rng.uniform(1e-3, 0.2))
    cfg = nc.IntegratorConfig(h, float(rng.uniform(h, 5.0)), int(rng.integers(1, 30)))
    x0 = rng.normal(size=n)
    field = lambda x: np.tanh(A @ x) + B @ np.sin(x) - 0.3 * x + c
    times, states = rk4_path(field, x0, cfg)
    ref_times, ref_states = rk4_path_oracle(field, x0, cfg)
    assert np.array_equal(times, ref_times) and np.array_equal(states, ref_states)
    x0 = rng.uniform(0.5, 2.0, n)
    cfg = nc.IntegratorConfig(h, 3.0 / x0.min() + h, cfg.record_every)
    with pytest.raises(nc.SimulationDiverged) as err:
        rk4_path(lambda x: x * x, x0, cfg)
    with pytest.raises(nc.SimulationDiverged) as ref:
        rk4_path_oracle(lambda x: x * x, x0, cfg)
    assert (err.value.step, err.value.t) == (ref.value.step, ref.value.t)
    assert np.array_equal(err.value.last_state, ref.value.last_state)


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
    order = convergence_order(np.negative, np.array([1.0]), cfg)
    assert order == pytest.approx(4.0, abs=0.2)
    sysm = np.array([[0.0, 1.0], [-4.0, -0.4]])
    order = convergence_order(lambda x: sysm @ x, np.array([1.0, 0.0]), cfg)
    assert order == pytest.approx(4.0, abs=0.2)


def test_convergence_order_exact_sentinel():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=1.0)
    order = convergence_order(np.zeros_like, np.array([2.0]), cfg)
    assert order == EXACT


def test_divergence_raises():
    # finite-time blow-up of dx/dt = x^2 overflows to inf
    cfg = nc.IntegratorConfig(step_s=0.01, t_end_s=3.0)
    with pytest.raises(nc.SimulationDiverged, match="divergence at t="):
        rk4_path(lambda x: x * x, np.array([1.0]), cfg)


@pytest.mark.parametrize("every", [1, 7, 10**9])
def test_divergence_reports_the_step_and_the_last_finite_state(every):
    """dx/dt = x^2 from 1 blows up at t = 1. The error names the first step
    whose result is not finite and the state before it, stepped by hand here,
    not the last recorded state; the allocating oracle stops at the same step.
    Recording every step, the failed step is named from its own slopes; else
    rk4_path steps the window since the last record again through the field."""
    h = 0.01
    cfg = nc.IntegratorConfig(step_s=h, t_end_s=3.0, record_every=every)
    with pytest.raises(nc.SimulationDiverged, match="divergence at t=") as err:
        rk4_path(lambda x: x * x, np.array([1.0]), cfg)
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
    assert ((step - 1) % every == 0) == (every == 1)
    assert err.value.step == step and err.value.t == step * h
    assert np.array_equal(err.value.last_state, x)
    with pytest.raises(nc.SimulationDiverged) as ref:
        rk4_path_oracle(lambda x: x * x, np.array([1.0]), cfg)
    assert ref.value.step == step and np.array_equal(ref.value.last_state, x)
    assert err.value.index == ref.value.index == 0


def test_stiff_pair_diverges_with_its_last_composite_state(tmp_path):
    """a = b = 5000 at h = 1e-3 puts h lambda = -5 outside RK4's stability
    region: the run exits 3 at t = 0.268, and the error carries the composite
    state (not the extended one) that a run of one step fewer ends in. The
    controller state, whose own pole is the stiff one, overflows first: the
    error names it by its composite index, 2, and in its message."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"] = {"a": 5000.0, "b": 5000.0}
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["error"] == "divergence at t=0.268 in controller 1, coordinate 0"
    cfg = nc.resolve_config(doc)
    loop, h = cfg.build_loop(), cfg.integrator.step_s
    with pytest.raises(nc.SimulationDiverged) as err:
        nc.integrate(loop, cfg.x0, cfg.integrator)
    assert err.value.step == 268 and err.value.last_state.shape == (loop.n_states,)
    assert err.value.index == 2 and loop.component(2) == "controller 1, coordinate 0"
    before = nc.integrate(loop, cfg.x0, nc.IntegratorConfig(h, 267 * h, record_every=10))
    assert np.array_equal(err.value.last_state, before.states[-1])


@pytest.mark.parametrize("t_end_s, x0", [(0.270, None), (0.001, [0.0, 0.0, 1e306])])
def test_a_run_that_ends_where_the_field_overflows_diverges(tmp_path, t_end_s, x0):
    """The folded stages carry a state further than the slopes, to finite
    entries near 1e307 whose derivative W Z overflows. The loop's divergence
    test is scaled by W's largest absolute row sum so that it trips first:
    the stiff pair stopped at t = 0.270, two steps after it diverges, and a
    single step from xc = 1e306 each exit 3 with no warning, not with
    infinite derivatives in the checks."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"] = {"a": 5000.0, "b": 5000.0}
    doc["integrator"]["t_end_s"] = t_end_s
    if x0:
        doc["initial_conditions"] = {"plant": x0[:2], "controller": x0[2:]}
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["error"].endswith(" in controller 1, coordinate 0")


LAG = nc.first_order(10.0, 10.0)


@pytest.mark.parametrize("build", [
    lambda: nc.StateSpace([[-1.0]], [[1.0]], [[np.inf]]),
    lambda: nc.first_order(np.nan, 10.0),
    lambda: nc.NonlinearPlant([[-1.0]], [[1.0]], [[1.0]], [[np.nan]], np.sin),
    lambda: network.controller_storage(LAG, [[np.inf]]),
    lambda: nc.osni_certificate_check(LAG, [[np.inf]], 0.1),
    lambda: nc.first_order_certificate(np.nan, 1.0),
    lambda: nc.first_order_certificate(1.0, np.inf),
    *(lambda delta=delta: nc.osni_certificate_check(LAG, [[1.0]], delta)
      for delta in (-1.0, 0.0, np.nan, np.inf)),
    lambda: nc.osni_freq_test(LAG, np.nan),
], ids=["state_space", "first_order", "plant", "controller_storage", "certificate_check",
        "certificate_a", "certificate_b", "certificate_delta_negative", "certificate_delta_0",
        "certificate_delta_nan", "certificate_delta_inf", "osni_freq_test_delta_nan"])
def test_non_finite_model_inputs_are_refused_before_any_run(build):
    """A NaN or inf in a model would otherwise surface only as a divergence
    blamed on the first step of a run, or as a NaN or zero certificate; a
    strictness level delta that is not positive and finite would certify a
    negative level or yield a NaN residual or verdict."""
    with pytest.raises(ValueError, match="finite"):
        build()


def test_divergence_names_the_first_non_finite_entry():
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=0.1)
    with pytest.raises(nc.SimulationDiverged) as err:
        rk4_path(np.zeros_like, np.array([1.0, 2.0, np.nan, 3.0, np.inf, -np.inf]), cfg)
    assert err.value.index == 2


def test_divergence_inside_a_stage_names_the_entry_that_overflowed(pendulum):
    """From xc = 1e306 the stiff controller's first slope overflows, and the
    product with W spreads it to every entry of the next slope and so of the
    new state. The error names the controller, not entry 0."""
    loop = nc.ClosedLoop(pendulum[0], nc.first_order(5000.0, 5000.0))
    with pytest.raises(nc.SimulationDiverged) as err:
        nc.integrate(loop, np.array([0.0, 0.0, 1e306]), nc.IntegratorConfig(1e-3, 1e-2))
    assert err.value.step == 1 and err.value.index == 2
    assert str(err.value) == "divergence at t=0.001 in controller 1, coordinate 0"


def test_divergence_on_the_edge_product_names_the_node_that_left(pendulum):
    """Above network.EDGE_PRODUCT_MIN the field never forms W, so a
    non-finite angle spoils only the rows that read it, where the dense
    product turns every row NaN (0 * inf). From a huge angle at node 41 the
    stiff controller of that node overflows first, and the error names it."""
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(5000.0, 5000.0), nc.path_graph(64))
    assert loop.extend(np.zeros(loop.n_states)).size >= network.EDGE_PRODUCT_MIN
    x0 = np.zeros(loop.n_states)
    x0[0:128:2] = 0.1
    x0[80] = 1e100
    with pytest.raises(nc.SimulationDiverged) as err:
        nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 1.0))
    assert str(err.value) == "divergence at t=0.18 in controller 41, coordinate 0"
    x0[80] = np.inf
    with np.errstate(invalid="ignore"):
        state_rows, phi_rows = rhs_rows(loop, x0)
    assert [loop.component(i) for i in np.flatnonzero(~np.isfinite(state_rows))] == [
        "plant 41, coordinate 1", "controller 41, coordinate 0"]
    assert not phi_rows.any()


def test_divergence_reads_entries_in_composite_order():
    """Plant 1's coordinate 1 and plant 2's coordinate 0 overflow in the same
    slope. The extended state holds plant 2's coordinate 0 first (coordinate
    by coordinate), the composite state and its CSV columns plant 1's
    coordinate 1 (node by node): the error names plant 1."""
    plant = nc.NonlinearPlant(A=-1e10 * np.eye(2), B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                              E=np.zeros((2, 0)), phi=np.positive)
    loop = nc.ClosedLoop(plant, nc.first_order(1.0, 1.0), nc.path_graph(2))
    assert loop._rows[2] < loop._rows[1]
    x0 = np.zeros(loop.n_states)
    x0[[1, 2]] = 1e300
    with pytest.raises(nc.SimulationDiverged) as err:
        nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 1e-2))
    assert err.value.index == 1
    assert str(err.value) == "divergence at t=0.001 in plant 1, coordinate 1"


@pytest.mark.parametrize("name, step", [("stiff_pair", 268), ("stiff_path64", 180)])
def test_divergence_between_recorded_steps_replays_to_the_same_step(pendulum, name, step):
    """The divergence test runs on the recorded states, and a failed one
    steps its window again from the last recorded state with the test on
    every step. A loop that diverges between recorded samples (the stiff
    pair on the dense product, the stiff 64-node path on the edge product)
    reports the same t, step, entry and last state whether every step,
    every 7th or only the final one is recorded."""
    plant, _ = pendulum
    stiff = nc.first_order(5000.0, 5000.0)
    if name == "stiff_pair":
        loop, x0 = nc.ClosedLoop(plant, stiff), np.array([1.0, 0.0, 0.0])
    else:
        loop = nc.ClosedLoop(plant, stiff, nc.path_graph(64))
        x0 = np.zeros(loop.n_states)
        x0[0:128:2] = 0.1
        x0[80] = 1e100
    errors = []
    for every in (1, 7, 10**9):
        with pytest.raises(nc.SimulationDiverged) as err:
            nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 1.0, record_every=every))
        errors.append(err.value)
    assert step % 7 != 0
    for err in errors:
        assert (err.t, err.step, err.index) == (step * 1e-3, step, errors[0].index)
        assert str(err) == str(errors[0])
        assert np.array_equal(err.last_state, errors[0].last_state)
        assert np.isfinite(err.last_state).all()


def test_a_diverging_loop_evaluates_its_field_only_inside_its_stages(pendulum, monkeypatch):
    """A failed step is named from the stage rows it filled, not by running
    it again in another form: the stiff pair, which diverges at step 268,
    calls ClosedLoop.rhs four times per step the loop runs or replays,
    whether every step, every 7th or only the final one is recorded. A failed
    step that is the first since the last recorded pass replays nothing."""
    calls, rhs = [], network.ClosedLoop.rhs

    def counted(self, *args, **kwargs):
        calls.append(None)
        return rhs(self, *args, **kwargs)

    monkeypatch.setattr(network.ClosedLoop, "rhs", counted)
    loop = nc.ClosedLoop(pendulum[0], nc.first_order(5000.0, 5000.0))
    for every in (1, 7, 10**9):
        calls.clear()
        with pytest.raises(nc.SimulationDiverged) as err:
            nc.integrate(loop, np.array([1.0, 0.0, 0.0]),
                         nc.IntegratorConfig(1e-3, 1.0, record_every=every))
        stop = err.value.step
        stepped = min(-(-stop // every) * every, 1000)  # to the first recorded failure
        start = (stop - 1) // every * every  # the last recorded pass
        replayed = 0 if stop - start == 1 else stop - start
        assert stop == 268 and len(calls) == 4 * (stepped + replayed)


@pytest.mark.parametrize("size", [1, 3, 12, 67])
def test_one_non_finite_entry_diverges_and_huge_entries_do_not(size):
    """A still field keeps huge finite entries and names a non-finite one.
    From the huge state, a field whose first slope overflows in entry i
    alone turns every later slope and the new state NaN (0 * inf in the
    sum): the step's first slope names entry i, where the new state would
    name entry 0."""
    cfg = nc.IntegratorConfig(step_s=0.1, t_end_s=0.1)
    still = np.zeros_like
    huge = 1e300 * (-1.0) ** np.arange(size)
    _, states = rk4_path(still, huge, cfg)
    assert np.array_equal(states[-1], huge)
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(size):
            x0 = huge.copy()
            x0[i] = bad
            with pytest.raises(nc.SimulationDiverged) as err:
                rk4_path(still, x0, cfg)
            assert err.value.index == i
    for i in range(size):
        gain = np.zeros(size)
        gain[i] = 1e10
        spill = lambda x: gain * x + 0.0 * x.sum()
        with pytest.raises(nc.SimulationDiverged) as err:
            rk4_path(spill, huge, cfg)
        assert (err.value.step, err.value.index) == (1, i)
        assert np.array_equal(err.value.last_state, huge)
        with pytest.raises(nc.SimulationDiverged) as ref:
            rk4_path_oracle(spill, huge, cfg)
        assert ref.value.index == 0


def dense_path3():
    """A 3-node path of the dense plant with m = 2 and r = 2."""
    return nc.ClosedLoop(*dense_plant(), nc.path_graph(3))


def linear_pair():
    """A pair with a linear plant: r = 0, so the phi block is empty."""
    plant = nc.NonlinearPlant(A=[[0.0, 1.0], [-4.0, -0.1]], B=[[0.0], [1.0]],
                              C=[[1.0, 0.0]], E=np.zeros((2, 0)),
                              phi=lambda x, out=None: x[..., :0])
    return nc.ClosedLoop(plant, nc.first_order(20.0, 6.0))


LOOPS = ["pair", "flagship4", "path64", "dense_path3", "linear_pair"]


def make_loop(pendulum, four_node_graph, name):
    plant, _ = pendulum
    lag = nc.first_order(10.0, 10.0)
    return {"pair": lambda: nc.ClosedLoop(plant, nc.first_order(20.0, 6.0)),
            "flagship4": lambda: nc.ClosedLoop(plant, lag, four_node_graph),
            "path64": lambda: nc.ClosedLoop(plant, lag, nc.path_graph(64)),
            "dense_path3": dense_path3, "linear_pair": linear_pair,
            "star40": lambda: nc.ClosedLoop(
                plant, lag, nc.Graph(40, frozenset((0, i) for i in range(1, 40))))}[name]()


# star40 is above the crossover with a hub row, so its edge stages reduce row segments
@pytest.mark.parametrize("name", LOOPS + ["star40"])
def test_integrate_matches_the_allocating_oracle(pendulum, four_node_graph, name):
    """In-place stages on the extended state record the states of the
    allocate-per-stage integrator of the loop's folded stages, bit for bit."""
    loop = make_loop(pendulum, four_node_graph, name)
    x0 = np.random.default_rng(7).uniform(-2.0, 2.0, loop.n_states)
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=1.0, record_every=7)
    traj = nc.integrate(loop, x0, cfg)
    times, states = rk4_stage_oracle(loop, x0, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("name", LOOPS)
def test_folded_stages_stay_within_1e_12_of_the_slope_form(pendulum, four_node_graph, name):
    """The folded stages are the classical RK4 slopes rearranged for a field
    linear in the extended state: every recorded state is within 1e-12 of
    the allocate-per-stage slope integrator on the plain composite field."""
    loop = make_loop(pendulum, four_node_graph, name)
    x0 = np.random.default_rng(7).uniform(-2.0, 2.0, loop.n_states)
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=1.0, record_every=7)
    traj = nc.integrate(loop, x0, cfg)
    times, states = rk4_path_oracle(lambda x: loop.evaluate(x).dstate, x0, cfg)
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.states - states).max() <= 1e-12


@pytest.mark.parametrize("name", ["flagship4", "path64"])
def test_stages_bind_contiguous_views_of_the_stage_buffer(pendulum, four_node_graph, name):
    """With r = 1 each stage's phi argument, the angles of all n nodes, and
    its phi block are C-contiguous (n, 1) views of its own row of the stage
    buffer, below and above the crossover: the pendulum's np.sin runs on
    contiguous memory with no slice."""
    loop = make_loop(pendulum, four_node_graph, name)
    n = loop.n_plants
    size = loop.extend(np.zeros(loop.n_states)).size
    P, Q = np.zeros((5, size)), np.zeros((5, size))
    for k, stage in enumerate(loop.rk4_stages(1e-3)(P, Q)):
        arg, ph = stage.args[1:3]
        assert arg.shape == ph.shape == (n, 1)
        assert arg.flags.c_contiguous and ph.flags.c_contiguous
        assert np.shares_memory(arg, P[k, :n]) and np.shares_memory(ph, P[k, 2 * n:3 * n])


@pytest.mark.parametrize("name", LOOPS)
def test_extend_lays_out_the_plant_and_phi_blocks_coordinate_by_coordinate(
        pendulum, four_node_graph, name):
    """extend(X)[..., _rows] is X for a batch, each batch row is the
    extension of its state alone, and the plant and phi blocks hold
    coordinate 1 of every node, then coordinate 2, and so on. A state of
    another length is refused, not broadcast."""
    loop = make_loop(pendulum, four_node_graph, name)
    X = np.random.default_rng(8).uniform(-2.0, 2.0, (3, 4, loop.n_states))
    Z = loop.extend(X)
    assert np.array_equal(Z[..., loop._rows], X)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(Z[i, j], loop.extend(X[i, j]))
    xp, xc = loop.split(X)
    r = loop.plant.r
    major = lambda v: v.swapaxes(-1, -2).reshape(X.shape[:-1] + (-1,))
    assert np.array_equal(Z, np.concatenate(
        (major(xp), major(loop.plant.phi(xp[..., :r])), xc), axis=-1))
    with pytest.raises(ValueError, match=f"length {loop.n_states}"):
        loop.extend(np.ones((3, 1)))


def test_a_phi_of_several_coordinates_is_a_phi_of_all_p(four_node_graph):
    """A nonlinearity that reads more than the first coordinates, here the
    product x1 x2, is phi on all r = p coordinates with a zero column of E
    for the phi entry no row uses: the loop integrates to the run of the
    hand-written field within 1e-13."""
    plant = nc.NonlinearPlant(A=[[0.0, 1.0], [-4.0, -0.5]], B=[[0.0], [1.0]],
                              C=[[1.0, 0.0]], E=[[0.0, 0.0], [-1.0, 0.0]],
                              phi=lambda v, out=None: np.multiply(v, v[..., ::-1], out=out))
    loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), four_node_graph)
    L = loop.K

    def field(X):
        x1, x2, xc = X[0:8:2], X[1:8:2], X[8:]
        dX = np.empty(12)
        dX[0:8:2] = x2
        dX[1:8:2] = -4.0 * x1 - 0.5 * x2 - x1 * x2 + L @ xc
        dX[8:] = -10.0 * xc + 10.0 * x1
        return dX

    x0 = np.random.default_rng(9).uniform(-1.0, 1.0, 12)
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=2.0, record_every=10)
    traj = nc.integrate(loop, x0, cfg)
    times, states = rk4_path_oracle(field, x0, cfg)
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.states - states).max() <= 1e-13


def step_frames(loop, x0):
    """The Python frames, by name, of a one-step and a two-step run of a
    loop: setup frames cancel in their difference, and the collector is off
    so that no callback adds frames."""
    def python_frames(steps):
        names = []
        cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=steps * 1e-3)
        z0 = loop.extend(x0)
        gc.disable()
        sys.setprofile(lambda frame, event, _: names.append(frame.f_code.co_name)
                       if event == "call" else None)
        try:
            rk4_path(None, z0, cfg, loop.rk4_stages(1e-3))
        finally:
            sys.setprofile(None)
            gc.enable()
        return Counter(names)

    return python_frames(1), python_frames(2)


def test_an_rk4_step_runs_no_hidden_python_frames(network_loop, network_x0):
    """A flagship4 step is four stages, each one ``rhs`` frame: the
    pendulum's phi is the ufunc np.sin, and no numpy dispatcher or other
    Python frame runs on the hot path."""
    one, two = step_frames(network_loop, network_x0)
    assert two - one == Counter({"rhs": 4})
    assert two.total() - one.total() == 4


def test_an_edge_rk4_step_adds_one_frame_per_stage_product(pendulum):
    """Above the crossover (a 64-node path) each stage adds the one frame of
    its stage operator's vector product, KronOperator._gather_sum, and the
    last stage one more for the weighted sum before it: the gather,
    multiply, reduction and weighted sum are ufunc and array methods, which
    run no numpy dispatcher."""
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), nc.path_graph(64))
    x0 = np.random.default_rng(1).uniform(-2.0, 2.0, loop.n_states)
    assert loop.extend(x0).size >= network.EDGE_PRODUCT_MIN
    one, two = step_frames(loop, x0)
    assert two - one == Counter({"rhs": 4, "_gather_sum": 4, "_last_stage": 1})
    assert two.total() - one.total() == 9


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        nc.IntegratorConfig(step_s=0.0, t_end_s=1.0)
    with pytest.raises(ValueError):
        nc.IntegratorConfig(step_s=0.1, t_end_s=0.05)
    with pytest.raises(ValueError):
        nc.IntegratorConfig(step_s=0.1, t_end_s=1.0, record_every=0)
    # record_every slices the record: a float or a bool is refused by name,
    # and an integer of numpy's own type is accepted
    for every in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="record_every must be a positive integer"):
            nc.IntegratorConfig(step_s=0.1, t_end_s=1.0, record_every=every)
    assert nc.IntegratorConfig(0.1, 1.0, record_every=np.int64(2)).record_every == 2
    # a NaN or infinite time is refused by name here, not where rk4_path
    # derives its step count from it
    for field in ("step_s", "t_end_s"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                nc.IntegratorConfig(**{"step_s": 1e-3, "t_end_s": 1.0, field: value})


def test_integrate_validates_state_length(network_loop):
    with pytest.raises(ValueError, match="length 12"):
        nc.integrate(network_loop, np.zeros(5),
                     nc.IntegratorConfig(step_s=0.1, t_end_s=1.0))


def test_trajectory_columns_and_csv(tmp_path, network_loop, network_x0):
    cfg = nc.IntegratorConfig(step_s=1e-2, t_end_s=1.0, record_every=10)
    traj = nc.integrate(network_loop, network_x0, cfg)
    # closed loop: plant inputs are the mixed controller outputs
    assert np.array_equal(traj.u1, traj.y2)
    # mixed outputs are y2 = (K (x) C) xc, K the Laplacian
    xc = network_loop.split(traj.states)[1]
    KC = np.kron(network_loop.K, network_loop.controller.C)
    assert np.allclose(traj.y2, xc @ KC.T, atol=1e-12)
    path = tmp_path / "traj.csv"
    traj.write_csv(path, extra_columns=[("edge_max", np.zeros(traj.n_samples))])
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:13] == [f"x_plant_{i}_{k}" for i in (1, 2, 3, 4) for k in (0, 1)] \
        + [f"x_ctrl_{i}_0" for i in (1, 2, 3, 4)]
    assert header[-1] == "edge_max"
    assert len(lines) == traj.n_samples + 1


@pytest.mark.parametrize("entries", [None, 1])
@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("traj", ["network_traj", "pair_traj"])
def test_csv_blocks_are_the_bytes_of_savetxt(tmp_path, request, monkeypatch, traj, extra,
                                             entries):
    """write_csv formats blocks of rows, not the whole table at once, and
    writes np.savetxt's bytes: 2001 rows, which is no multiple of the
    block, with and without extra columns, and one row per block."""
    traj = request.getfixturevalue(traj)
    if entries:
        monkeypatch.setattr(nc.sim, "CSV_BLOCK_ENTRIES", entries)
    extras = [("edge_max", np.linspace(-1.0, 1.0, traj.n_samples) ** 3),
              ("flag", np.arange(traj.n_samples) % 2)] if extra else None
    traj.write_csv(tmp_path / "blocks.csv", extra_columns=extras)
    table = np.column_stack([traj.times, traj.states, traj.y1, traj.y2, traj.y1dot,
                             traj.y2dot, *(s for _, s in extras or ())])
    rows = max(1, nc.sim.CSV_BLOCK_ENTRIES // table.shape[1])
    assert traj.n_samples % rows or rows == 1
    with open(tmp_path / "blocks.csv", newline="") as fh:
        header = fh.readline()
    with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
        fh.write(header)
        np.savetxt(fh, table, fmt="%.12g", delimiter=",", newline="\r\n")
    expected = (tmp_path / "savetxt.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == expected
    assert expected.count(b"\r\n") == traj.n_samples + 1


def test_pair_trajectory_signals(pair_traj):
    # with K = [[1]] the controller output C xc is the plant input
    loop = pair_traj.system
    assert np.array_equal(pair_traj.u1, pair_traj.y2)
    assert np.array_equal(loop.K, [[1.0]])
    assert np.array_equal(pair_traj.y2, loop.split(pair_traj.states)[1] @ loop.controller.C.T)
