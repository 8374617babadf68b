"""The benchmark's traced run wraps package functions by (owner, attribute);
a refactor that moves or renames one of them, or calls them by a reference
taken at import, must fail here, not in the benchmark."""

import importlib.util
import json
from pathlib import Path

from niconsensus import config
from niconsensus.cli import run_simulation

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
