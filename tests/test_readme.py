"""README's code blocks run: the custom-plant example is executed as written,
after the quick start it continues, and the config block resolves, so an API
or schema change cannot silently break the documented examples."""

import json
import re
from pathlib import Path

from niconsensus.config import resolve_config

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_custom_plant_example_passes_its_check():
    blocks = python_blocks()
    spring = [b for b in blocks if "nc.NonlinearPlant(" in b]
    assert len(spring) == 1
    namespace = {}
    exec(compile(blocks[0], "README quick start", "exec"), namespace)
    exec(compile(spring[0], "README custom plant", "exec"), namespace)
    reports = namespace["analysis"].check_ni_dissipation(namespace["traj"],
                                                         namespace["energy"])
    assert namespace["loop"].plant is namespace["spring"]
    assert len(reports) == 4 and all(r.passed for r in reports)


def test_readme_field_example_runs():
    blocks = python_blocks()
    field = [b for b in blocks if "def damped(x)" in b]
    assert len(field) == 1
    namespace = {}
    exec(compile(blocks[0], "README quick start", "exec"), namespace)
    exec(compile(field[0], "README field", "exec"), namespace)
    assert namespace["times"][-1] == 10.0 and namespace["states"].shape == (101, 2)


def test_readme_config_block_resolves():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = resolve_config(json.loads(blocks[0]))
    assert cfg.graph.n == 4
