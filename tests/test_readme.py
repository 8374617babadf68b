"""README's code blocks run and its names resolve: every python block is
executed as written, the config block resolves, the command block exits as
its comments state, and the claims table, the backticked package names and
the demo table name only what exists, so an API, schema or test change
cannot silently leave README stale."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from niconsensus import analysis, cli
from niconsensus.config import resolve_config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def fenced(lang):
    """The bodies of README's fenced blocks in language lang, in order."""
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_custom_plant_example_passes_its_check():
    blocks = fenced("python")
    spring = [b for b in blocks if "nc.NonlinearPlant(" in b]
    assert len(spring) == 1
    namespace = {}
    exec(compile(blocks[0], "README quick start", "exec"), namespace)
    exec(compile(spring[0], "README custom plant", "exec"), namespace)
    entry = namespace["analysis"].check_ni_dissipation(namespace["traj"], namespace["energy"])
    assert namespace["loop"].plant is namespace["spring"]
    assert len(entry["per_node"]) == 4 and all(r["passed"] for r in entry["per_node"])


def test_readme_field_example_runs():
    blocks = fenced("python")
    field = [b for b in blocks if "def damped(x)" in b]
    assert len(field) == 1
    namespace = {}
    exec(compile(blocks[0], "README quick start", "exec"), namespace)
    exec(compile(field[0], "README field", "exec"), namespace)
    assert namespace["times"][-1] == 10.0 and namespace["states"].shape == (101, 2)


def test_readme_config_block_resolves():
    blocks = fenced("json")
    assert len(blocks) == 1
    cfg = resolve_config(json.loads(blocks[0]))
    assert cfg.graph.n == 4


def test_readme_python_blocks_run_in_one_namespace_as_their_comments_state():
    """Every python block, in order, in one namespace: the quick start's
    consensus figures and positivity margin, and the strictness levels of
    the frequency-domain block, are the ones their comments give."""
    namespace = {}
    for k, block in enumerate(fenced("python")):
        exec(compile(block, f"README python block {k + 1}", "exec"), namespace)
    nc, edge_max = namespace["nc"], namespace["edge_max"]
    assert edge_max[0] == 4.0 and round(edge_max[-1], 3) == 0.006
    assert namespace["cs"].positivity_margin() == pytest.approx(0.25, abs=1e-12)
    halved = nc.osni_max_delta(namespace["m"], graph=nc.Graph(2, {(0, 1)}))
    assert (nc.osni_max_delta(namespace["m"]), halved) == pytest.approx((0.1, 0.05))


def test_readme_command_block_exits_as_it_states(tmp_path):
    """The command block runs through cli.main with every --out under
    tmp_path: each command exits with the code its comment states, and the
    sweep's sweep.csv reads the statuses its comment line lists. Every
    fenced block is python, json or this one sh block, each executed here
    or above."""
    text = README.read_text()
    assert set(re.findall(r"```(\w*)\n.*?```", text, flags=re.S)) == {"python", "json", "sh"}
    (block,) = fenced("sh")
    statuses, sweep_out = None, None
    for line in block.replace("\\\n", " ").splitlines():
        command, _, note = line.partition("#")
        if not command.strip():
            statuses = re.findall(r"(\w+)=(\S+) (\w+)", note)
            continue
        argv = shlex.split(command)
        assert argv[0] == "niconsensus"
        for flag, base in (("--config", ROOT), ("--out", tmp_path)):
            argv[argv.index(flag) + 1] = str(base / argv[argv.index(flag) + 1])
        code = int(re.fullmatch(r"\s*exit (\d+)\s*", note).group(1))
        assert cli.main(argv[1:]) == code, line
        if argv[1] == "sweep":
            sweep_out = Path(argv[argv.index("--out") + 1])
    rows = (sweep_out / "sweep.csv").read_text().splitlines()[1:]
    assert statuses and [tuple(row.split(",")[:3]) for row in rows] == statuses


def resolve(dotted):
    """The object a dotted name of README names: nc.X and niconsensus.X
    from the package, <module>.<attr>[.<attr>] from niconsensus.<module>."""
    head, *attrs = dotted.split(".")
    obj = importlib.import_module("niconsensus" if head in ("nc", "niconsensus")
                                  else f"niconsensus.{head}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))
NAME = re.compile(rf"(?<![\w.$/])(?:nc|niconsensus|{'|'.join(MODULES)})(?:\.\w+)+")


def test_readme_backticked_package_names_resolve():
    """Every package name in a backticked span outside the fenced blocks."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = [name for span in re.findall(r"`([^`\n]+)`", prose) for name in NAME.findall(span)]
    assert "analysis.CHECKS" in names and "niconsensus.graph" in names
    missing = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_readme_demo_table_and_module_map_list_exactly_what_exists():
    text = README.read_text()
    demos = re.findall(r"^\| `(\d\d_\w+\.py)` \|", text, flags=re.M)
    assert demos == sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    modules = re.findall(r"^\* `niconsensus\.(\w+)`:", text, flags=re.M)
    assert sorted(modules) == MODULES


def claims():
    """The rows of the table in README's first section, as lists of cells."""
    first = re.split(r"^## ", README.read_text(), flags=re.M)[1]
    rows = [line for line in first.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert header == ["claim", "function", "check", "pinned by", "status"]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def strict_xfail(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "pytest.mark.xfail"
               and any(k.arg == "strict" and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in fn.decorator_list)


def test_readme_claims_table_names_what_tests_each_claim(tmp_path):
    """One row per claim of the abstract: every function resolves in the
    package, every check is a trajectory check of analysis.CHECKS or an entry
    of verify.json for the bundled network config, every test id is a test
    function of its file, and the status is one of three, with the ROADMAP
    item for the two that are not "reproduced". A row is "sampled" exactly
    when its test is a strict xfail, so the row must change with the test."""
    config = ROOT / "configs" / "pendulum4.json"
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    verified = json.loads((tmp_path / "verify.json").read_text())["checks"]
    checks = set(analysis.CHECKS) | set(verified)
    items = set(re.findall(r"^(\d+)\. \*\*", (ROOT / "ROADMAP.md").read_text(), flags=re.M))
    rows = claims()
    assert len(rows) == 7
    for claim, *names, test_id, status in rows:
        functions, named_checks = (re.findall(r"`([^`]+)`", cell) for cell in names)
        assert functions and all(callable(resolve(name)) for name in functions), claim
        assert named_checks and set(named_checks) <= checks, claim
        path, name = re.fullmatch(r"`(tests/\w+\.py)::(\w+)(?:\[[^\]]*\])?`", test_id).groups()
        tests = {node.name: node for node in ast.parse((ROOT / path).read_text()).body
                 if isinstance(node, ast.FunctionDef)}
        assert name in tests, (claim, test_id)
        kind = re.fullmatch(r"(reproduced)|(sampled|not yet reproduced): .+ \(item (\d+)\)",
                            status)
        assert kind and kind.group(3) in items | {None}, claim
        assert strict_xfail(tests[name]) == (kind.group(2) == "sampled"), (claim, test_id)
