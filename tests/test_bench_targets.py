"""The benchmark's traced run wraps package functions by (owner, attribute);
a refactor that moves or renames one of them, or calls them by a reference
taken at import, must fail here, not in the benchmark."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from niconsensus import IntegratorConfig, config, integrate
from niconsensus.cli import main, run_simulation

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_targets_exist_and_are_callable():
    targets = load_tracing().targets()
    assert targets
    for owner, attr, span in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({span}) is gone"
        assert callable(owner.__dict__[attr]), f"{owner.__name__}.{attr} is not callable"


def test_tracer_sees_one_span_per_configured_check(tmp_path):
    doc = json.loads((ROOT / "configs" / "pendulum4.json").read_text())
    doc["integrator"] = {"step_s": 1e-3, "t_end_s": 0.5, "record_every": 10}
    doc["consensus"] = {"rel": 1.0, "abs": 10.0}
    cfg = config.resolve_config(doc)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code, _ = run_simulation(cfg, tmp_path, quiet=True)
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.take()
    span_of = {"consensus": "analysis.consensus"}
    for name in cfg.checks:
        assert spans.count(span_of.get(name, f"analysis.{name}")) == 1, name


def test_tracer_sees_each_verify_certificate_function(tmp_path):
    """verify runs each certificate function a fixed number of times: δ* is
    computed once for the controller and once for the two-node bank (the
    halving reuses the first), and osni_max_delta runs ni_freq_test again
    itself. A table run holding a function taken at import would hide it."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = main(["verify", "--config", str(ROOT / "configs" / "pendulum4.json"),
                     "--out", str(tmp_path), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.take()
    counts = {"linsys.ni_freq_test": 3, "linsys.osni_freq_test": 1,
              "linsys.osni_max_delta": 2, "linsys.certificate": 1,
              "plant.gamma_estimate": 2, "plant.equilibrium_solve": 2}
    assert {name: spans.count(name) for name in counts} == counts


def test_tracer_sees_every_field_evaluation_under_rk4_path():
    """The benchmark counts sim.steps as the network.rhs spans whose parent
    is sim.rk4_path, over 4: the field the integrator binds must run the
    traced ClosedLoop.rhs at every stage of every step."""
    cfg = config.resolve_config(json.loads((ROOT / "configs" / "pendulum4.json").read_text()))
    loop, h, steps = cfg.build_loop(), cfg.integrator.step_s, 25
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        integrate(loop, cfg.x0, IntegratorConfig(h, steps * h, record_every=10))
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert spans.count("network.rhs") == 4 * steps
    assert spans.count("network.rhs", parent="sim.rk4_path") == 4 * steps


def test_pendulum4_final_state_matches_benchmark_oracle():
    """The flagship run against the benchmark's independent RK4 integration
    of the hand-written pendulum/lag field."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = json.loads((ROOT / "configs" / "pendulum4.json").read_text())
    cfg = config.resolve_config(doc)
    traj = integrate(cfg.build_loop(), cfg.x0, cfg.integrator)
    assert np.abs(traj.states[-1] - workloads.oracle_final_state(doc)).max() <= 1e-10
