"""Config reading: ``ExperimentConfig``'s typed readers against jsonschema's Draft
2020-12 validator over ``SCHEMA``, the config's JSON Schema, which lives here as
the oracle: jsonschema is a test-only dependency. The readers must keep its
verdicts, its paths and, outside ``$.controller``, its messages.
"""

import copy
import json
import math
import operator
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from conftest import package_env
from niconsensus import config
from niconsensus.analysis import CHECKS
from niconsensus.cli import main
from niconsensus.config import ConfigError, resolve_config

ROOT = Path(__file__).resolve().parent.parent
PENDULUM4 = json.loads((ROOT / "configs" / "pendulum4.json").read_text())
PENDULUM_PAIR = json.loads((ROOT / "configs" / "pendulum_pair.json").read_text())

_NUMBER, _POSITIVE = {"type": "number"}, {"type": "number", "exclusiveMinimum": 0}
_LIST = {"type": "array", "items": _NUMBER}
_MATRIX = {"type": "array", "items": {**_LIST, "minItems": 1}, "minItems": 1}


def closed(properties, required=()):
    """An object schema: the required properties, and no others than these."""
    return {"type": "object", "required": list(required), "additionalProperties": False,
            "properties": properties}


#: The config document's JSON Schema, the contract the readers keep.
SCHEMA = {"$schema": "https://json-schema.org/draft/2020-12/schema", **closed({
    "schema": {"const": 1},
    "label": {"type": "string"},
    "mode": {"enum": ["pair", "network"]},
    "graph": closed({"n": {"type": "integer", "minimum": 1},
                     "edges": {"type": "array", "items": {"type": "array", "items": {
                         "type": "integer"}, "minItems": 2, "maxItems": 2}}}, ["n", "edges"]),
    "plant": closed({"pendulum": closed(dict.fromkeys(["m", "l", "kappa", "g"], _POSITIVE),
                                        ["m", "l", "kappa", "g"])}, ["pendulum"]),
    "controller": {"type": "object", "oneOf": [
        {"required": ["first_order"], "additionalProperties": False,
         "properties": {"first_order": closed({"a": _POSITIVE, "b": _POSITIVE}, ["a", "b"])}},
        {"required": ["A", "B", "C"], "additionalProperties": False,
         "properties": dict.fromkeys(["A", "B", "C", "D"], _MATRIX)},
    ]},
    "delta": _POSITIVE,
    "initial_conditions": closed({"plants": {"type": "array", "items": _LIST},
                                  "controllers": {"type": "array", "items": _LIST},
                                  "plant": _LIST, "controller": _LIST}),
    "integrator": closed({"step_s": _POSITIVE, "t_end_s": _POSITIVE,
                          "record_every": {"type": "integer", "minimum": 1}},
                         ["step_s", "t_end_s"]),
    "checks": {"type": "array", "items": {"enum": list(CHECKS)}, "uniqueItems": True},
    "consensus": closed({"rel": _POSITIVE, "abs": _POSITIVE}),
    "output": closed({"dir": {"type": "string"}}),
}, ["schema", "mode", "plant", "controller", "delta", "initial_conditions", "integrator"])}


def path_doc(n=64):
    """pendulum4.json's plant and controller on an n-node path."""
    doc = copy.deepcopy(PENDULUM4)
    doc["graph"] = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    doc["initial_conditions"] = {"plants": [[(i % 5) - 2.0, 0.0] for i in range(n)],
                                 "controllers": [[0.0] for _ in range(n)]}
    return doc


DOCS = {"pendulum4": PENDULUM4, "pendulum_pair": PENDULUM_PAIR, "path64": path_doc()}


def oracle_errors(doc):
    return [(e.json_path, e.message) for e in Draft202012Validator(SCHEMA).iter_errors(doc)]


def config_error(doc):
    """(path, message) of the ConfigError ExperimentConfig(doc) raises, or None."""
    try:
        resolve_config(doc)
    except ConfigError as err:
        return tuple(str(err).split(": ", 1))


#: The wordings of a reader's refusal; a resolve rule's message has none.
READING = re.compile(r"is not of type|is a required property|Additional properties|is less than|"
                     r"was expected|is not one of|non-unique|should be non-empty|is too short|"
                     r"is too long|is neither 'first_order'|is not finite|overflows a float")


def assert_agrees(doc):
    """ExperimentConfig refuses doc exactly when jsonschema does, on one of its
    paths or under one, in its words outside $.controller (whose oneOf message
    gives way to the chosen form's first error); else doc resolves or breaks a rule."""
    expected, error = oracle_errors(doc), config_error(doc)
    if not expected:
        assert error is None or not READING.search(error[1]), error
        return
    assert error is not None, expected
    path = error[0]
    assert any(path == at or path.startswith((at + ".", at + "[")) for at, _ in expected), (
        error, expected)
    assert path.startswith("$.controller") or error in expected, (error, expected)


def locations(value, at=()):
    yield at
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from locations(child, at + (key,))


#: Property names of SCHEMA and a few it lacks, for extra and deleted keys.
NAMES = sorted({"extra", "A", "n", "pendulum", "first_order", "rel"} | set(SCHEMA["properties"]))
LEAVES = st.one_of(
    st.booleans(), st.none(), st.integers(-2, 70), st.integers(-2, 3).map(float),
    st.floats(-2.0, 2.0), st.sampled_from(["", "pair", "network", "consensus", "x"]))
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(st.sampled_from(NAMES), kids, max_size=2),
                      max_leaves=6)


@st.composite
def mutated_docs(draw):
    """A bundled or 64-node doc after one to three edits: a value replaced
    (bools, integral floats, strings, nested lists, objects), a key added or
    deleted, or a list entry duplicated or deleted."""
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(locations(doc))))
        if not where:
            doc = draw(st.one_of(VALUES, st.just(doc)))
            continue
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        key = where[-1]
        edit = draw(st.sampled_from(["replace", "delete", "extra key", "duplicate"]))
        if edit == "replace":
            parent[key] = draw(VALUES)
        elif edit == "delete":
            del parent[key]
        elif edit == "extra key" and isinstance(parent[key], dict):
            parent[key][draw(st.sampled_from(NAMES))] = draw(VALUES)
        elif edit == "duplicate" and isinstance(parent[key], list) and parent[key]:
            parent[key].append(copy.deepcopy(parent[key][draw(
                st.integers(0, len(parent[key]) - 1))]))
    return doc


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_docs())
def test_readers_agree_with_jsonschema(doc):
    assert_agrees(doc)


@pytest.mark.parametrize("key", ["plants", "controllers", "edges", "A"])
@pytest.mark.parametrize("at", [0, 31, -1])
@pytest.mark.parametrize("bad", [True, "1", None, [0.0], 3.5, 3.0, [], [1, 2, 3]], ids=repr)
def test_schema_errors_of_a_long_array_are_jsonschema_s(key, at, bad):
    """A value the one-pass read refuses, as a row or in one, at the first, a
    middle or the last row of the plants, controllers, edges or a controller
    matrix: the item walk names one of jsonschema's errors (none for 3.0)."""
    for inside in (False, True):
        doc = path_doc(64)
        if key == "A":
            doc["controller"] = {"A": [[-1.0] for _ in range(64)], "B": [[1.0]], "C": [[1.0]]}
            rows = doc["controller"]["A"]
        else:
            rows = doc["graph" if key == "edges" else "initial_conditions"][key]
        if inside:
            rows[at][0] = bad
        else:
            rows[at] = bad
        assert_agrees(doc)


def test_a_valid_array_of_rows_is_checked_in_one_pass(monkeypatch):
    """Resolving a valid 4096-node path config walks no row of its plants,
    controllers or edges item by item: as at 64 nodes, it walks only the checks."""
    def walked(doc):
        calls = []

        def counted(path, *args):
            calls.append(path)
            return walk(path, *args)

        monkeypatch.setattr(config, "_row", counted)
        resolve_config(doc)
        return calls

    walk = config._row
    assert walked(path_doc(4096)) == walked(path_doc(64)) == ["$.checks"]


_IN_CHECKS = "is not one of " + repr(list(CHECKS))


@pytest.mark.parametrize("edit,expected", [
    # a bool is not a number, an integral float is an integer
    (("delta", True), ("$.delta", "True is not of type 'number'")),
    (("integrator", {"step_s": 1e-3, "t_end_s": 1.0, "record_every": 10.0}), None),
    (("integrator", {"step_s": 1e-3, "t_end_s": 1.0, "record_every": 1.5}),
     ("$.integrator.record_every", "1.5 is not of type 'integer'")),
    (("schema", True), ("$.schema", "1 was expected")),
    (("delta", 0), ("$.delta", "0 is less than or equal to the minimum of 0")),
    (("mode", "x"), ("$.mode", "'x' is not one of ['pair', 'network']")),
    (("checks", ["consensus"] * 2),
     ("$.checks", "['consensus', 'consensus'] has non-unique elements")),
    # each name is read before the list is checked for repeats, so an
    # unhashable item, or True inside one, is refused as no check's name
    (("checks", [[1], [1]]), ("$.checks[0]", "[1] " + _IN_CHECKS)),
    (("checks", [[1], [True]]), ("$.checks[0]", "[1] " + _IN_CHECKS)),
    (("checks", [{"a": 1}, {"a": 1}]), ("$.checks[0]", "{'a': 1} " + _IN_CHECKS)),
    # jsonschema's oneOf says only that neither controller form fits: the
    # readers pick the form by its keys and name its first error, or both forms
    (("controller", {}), ("$.controller", "{} is neither 'first_order' nor 'A', 'B', 'C'")),
    (("controller", {"first_order": {"a": True, "b": 6.0}}),
     ("$.controller.first_order.a", "True is not of type 'number'")),
    (("controller", {"first_order": {"a": 20.0, "b": 6.0}, "A": [[-1.0]]}),
     ("$.controller", "Additional properties are not allowed ('A' was unexpected)")),
    (("controller", {"A": [[-1.0]], "B": [[1.0]]}), ("$.controller", "'C' is a required property")),
    (("controller", {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": []}),
     ("$.controller.D", "[] should be non-empty")),
])
def test_schema_errors_edge_cases(edit, expected):
    doc = copy.deepcopy(PENDULUM_PAIR)
    doc[edit[0]] = edit[1]
    assert config_error(doc) == expected
    assert_agrees(doc)


@pytest.mark.parametrize("field", ["delta", "plant.pendulum.m", "consensus.rel",
                                   "controller.first_order.a", "initial_conditions.plants.1.0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400], ids=repr)
def test_a_number_beyond_the_finite_floats_is_refused_on_its_path(field, value):
    """JSON text cannot hold these (strict_json refuses them), but a dict can:
    the number reader refuses each on its field's path, and a row's entry is
    refused on its array's path when the array is built."""
    doc = copy.deepcopy(PENDULUM4)
    *parents, leaf = [int(k) if k.isdigit() else k for k in field.split(".")]
    reduce(operator.getitem, parents, doc)[leaf] = value
    message = ("entries must be finite numbers" if isinstance(leaf, int) else "an integer that "
               "overflows a float" if isinstance(value, int) else f"{value!r} is not finite")
    assert config_error(doc) == (re.sub(r"(\.\d+)+$", "", f"$.{field}"), message)


def test_schema_is_a_valid_draft_2020_12_schema():
    Draft202012Validator.check_schema(SCHEMA)


def test_integral_float_record_every_runs_as_the_integer(tmp_path):
    """10.0 is a schema integer: the run matches record_every 10 byte for byte."""
    csvs = []
    for every in (10, 10.0):
        doc = copy.deepcopy(PENDULUM_PAIR)
        doc["integrator"].update(t_end_s=0.5, record_every=every)
        path = tmp_path / f"cfg_{every}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out_{every}"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        csvs.append((out / "trajectory.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_runs_without_jsonschema(tmp_path):
    """simulate and verify run with jsonschema unimportable."""
    doc = copy.deepcopy(PENDULUM_PAIR)
    doc["integrator"]["t_end_s"] = 0.5
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(doc))
    probe = ("import sys; sys.modules['jsonschema'] = None; "
             "from niconsensus.cli import main; "
             "sys.exit(max(main([cmd, '--config', sys.argv[1], '--out', sys.argv[2] + cmd, "
             "'--quiet']) for cmd in ('simulate', 'verify')))")
    proc = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path / "out_")],
                          env=package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out_simulate" / "trajectory.csv").exists()
    assert (tmp_path / "out_verify" / "verify.json").exists()


def test_a_large_path_config_resolves_and_builds_in_o_edges_memory():
    """A 4096-node path config resolves and builds its loop without any
    n x n array: one dense Laplacian alone would take 134 MB."""
    doc = path_doc(4096)
    tracemalloc.start()
    try:
        loop = resolve_config(doc).build_loop()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loop.n_plants == 4096 and peak < 16e6
