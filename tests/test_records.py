"""Records: ``cli._write_json`` against the indented writer it replaced.

``json.dumps(finite(doc), indent=2, allow_nan=False)`` stays here as the
oracle of a record's content. A written record parses, with NaN and Infinity
tokens refused, to the oracle's values, and holds one line per top-level key
and one per entry of "checks".
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from niconsensus import cli
from niconsensus.cli import _write_json, finite

#: str (non-ASCII too), int, float (nan and +-inf too), bool and None.
SCALARS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=2).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4), max_leaves=20)


@st.composite
def records(draw):
    """A dict of values, usually with "checks" among its keys: a dict of
    values (empty too) or any value."""
    doc = draw(st.dictionaries(st.text(), VALUES, max_size=4))
    if draw(st.booleans()):
        doc["checks"] = draw(st.dictionaries(st.text(), VALUES, max_size=4) | VALUES)
    doc.update(draw(st.dictionaries(st.text(), VALUES, max_size=2)))
    return doc


def strict(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def line_item(line, indent):
    """The one key and value a line holds after exactly indent spaces."""
    assert line.startswith(" " * indent + '"'), line
    return strict("{" + line[indent:].removesuffix(",") + "}")


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records())
def test_a_record_holds_the_values_of_the_indented_writer(tmp_path, doc):
    path = tmp_path / "run" / "record.json"
    _write_json(path, doc)
    text = path.read_text()
    oracle = strict(json.dumps(finite(doc), indent=2, allow_nan=False))
    # == takes true for 1 and 1.0 for 1; the compact encodings tell them apart
    assert strict(text) == oracle and json.dumps(strict(text)) == json.dumps(oracle)

    lines = text.splitlines()
    assert (lines[0], lines[-1]) == ("{", "}")
    rest = lines[1:-1]
    for key, value in doc.items():
        if key == "checks" and isinstance(value, dict) and value:
            n = len(value)
            assert rest[0] == '  "checks": {' and rest[n + 1].removesuffix(",") == "  }"
            got = [line_item(line, 4) for line in rest[1:n + 1]]
            want = [{name: entry} for name, entry in value.items()]
            rest = rest[n + 2:]
        else:
            got, want = [line_item(rest[0], 2)], [{key: value}]
            rest = rest[1:]
        assert json.dumps(got) == json.dumps(finite(want))
    assert rest == []


def test_only_a_value_with_a_non_finite_float_is_walked(tmp_path, monkeypatch):
    """json's C encoder writes a finite value as it is; finite() walks only
    the top-level value or checks entry that the encoder refused."""
    walked = []
    monkeypatch.setattr(cli, "finite", lambda value: walked.append(value) or finite(value))
    _write_json(tmp_path / "record.json", {"label": "x", "checks": {
        "ok": {"passed": True, "value": [1.0, 2.5]}, "bad": {"passed": False, "value": math.inf}},
        "config": {"delta": 0.05}})
    # the refused entry, then each value inside it
    assert walked == [{"passed": False, "value": math.inf}, False, math.inf]
    assert strict((tmp_path / "record.json").read_text())["checks"]["bad"]["value"] is None
