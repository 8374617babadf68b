"""The benchmark's traced run wraps package functions by (owner, attribute);
a refactor that moves or renames one of them must fail here, not in the
benchmark."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_targets_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    assert targets
    for owner, attr, span in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({span}) is gone"
        assert callable(owner.__dict__[attr]), f"{owner.__name__}.{attr} is not callable"
