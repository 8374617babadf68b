"""Config validation: ``config.schema_errors`` against jsonschema as oracle.

jsonschema is a test-only dependency. The package validates configs with its
own walker over ``config.SCHEMA``; these tests hold the walker to
jsonschema's Draft 2020-12 verdicts, keyword order and messages.
"""

import copy
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from conftest import package_env
from niconsensus.cli import main
from niconsensus.config import SCHEMA, resolve_config, schema_errors

ROOT = Path(__file__).resolve().parent.parent
PENDULUM4 = json.loads((ROOT / "configs" / "pendulum4.json").read_text())
PENDULUM_PAIR = json.loads((ROOT / "configs" / "pendulum_pair.json").read_text())


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


def first_error(errors):
    """The error ``resolve_config`` reports: the least json path, first
    produced among equals."""
    return min(errors, key=lambda e: e[0], default=None)


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
def test_schema_errors_match_jsonschema(doc):
    """Every error, in order, so the least path and its message agree too."""
    expected = oracle_errors(doc)
    errors = list(schema_errors(SCHEMA, doc))
    assert errors == expected
    assert first_error(errors) == first_error(expected)


@pytest.mark.parametrize("edit,expected", [
    # a bool is not a number, an integral float is an integer
    (("delta", True), ("$.delta", "True is not of type 'number'")),
    (("integrator", {"step_s": 1e-3, "t_end_s": 1.0, "record_every": 10.0}), None),
    (("integrator", {"step_s": 1e-3, "t_end_s": 1.0, "record_every": 1.5}),
     ("$.integrator.record_every", "1.5 is not of type 'integer'")),
    (("schema", True), ("$.schema", "1 was expected")),
    # uniqueness over unhashable items, and True is not 1 inside them
    (("checks", [[1], [1]]), ("$.checks", "[[1], [1]] has non-unique elements")),
    (("checks", [[1], [True]]), ("$.checks[0]", "[1] is not one of " + repr(
        SCHEMA["properties"]["checks"]["items"]["enum"]))),
    (("checks", [{"a": 1}, {"a": 1}]),
     ("$.checks", "[{'a': 1}, {'a': 1}] has non-unique elements")),
])
def test_schema_errors_edge_cases(edit, expected):
    doc = copy.deepcopy(PENDULUM_PAIR)
    doc[edit[0]] = edit[1]
    assert first_error(oracle_errors(doc)) == expected
    assert first_error(schema_errors(SCHEMA, doc)) == expected


def test_schema_is_a_valid_draft_2020_12_schema():
    Draft202012Validator.check_schema(SCHEMA)


def schema_keywords(schema):
    """Every (keyword, argument) of a schema and its subschemas."""
    for key, arg in schema.items():
        yield key, arg
        subschemas = arg.values() if key == "properties" else arg if key == "oneOf" else (
            [arg] if key == "items" else [])
        for sub in subschemas:
            yield from schema_keywords(sub)


def test_walker_implements_every_keyword_schema_uses():
    """A keyword the walker lacks raises; it is never skipped as jsonschema
    skips the keywords it does not know."""
    for key, arg in schema_keywords(SCHEMA):
        for probe in (None, 0, [], {}):
            list(schema_errors({key: arg}, probe))
    for unknown in ({"maximum": 1}, {"additionalProperties": {"type": "number"}},
                    {"prefixItems": [{"type": "number"}]}):
        with pytest.raises(NotImplementedError):
            list(schema_errors(unknown, 2))


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
