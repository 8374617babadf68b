"""Experiment configuration: versioned JSON schema, validation, builders."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .analysis import CHECKS
from .graph import Graph, integral, is_connected
from .linsys import StateSpace, first_order, first_order_certificate
from .network import ClosedLoop, check_controller
from .plant import PendulumParams, pendulum_plant, pendulum_storage
from .sim import IntegratorConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries field diagnostics."""


def strict_json(text: str):
    """Parse outside input, a config file or a sweep value, as JSON. The NaN
    and Infinity tokens Python's json accepts are not JSON, and a number
    literal beyond the floats (1e999, or an integer past Python's 4300-digit
    limit) would parse as inf or overflow later: each is a ConfigError here."""
    def reject_constant(token):
        raise ConfigError(f"non-finite number {token} is not valid JSON")

    def finite_float(literal):
        value = float(literal)
        if math.isinf(value):
            raise ConfigError(f"number {literal} overflows a float")
        return value

    def finite_int(literal):
        finite_float(literal)
        return int(literal)

    return json.loads(text, parse_constant=reject_constant, parse_float=finite_float,
                      parse_int=finite_int)


_NUMBER = {"type": "number"}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUMBER, "minItems": 1},
           "minItems": 1}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "mode", "plant", "controller", "delta",
                 "initial_conditions", "integrator"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": 1},
        "label": {"type": "string"},
        "mode": {"enum": ["pair", "network"]},
        "graph": {
            "type": "object",
            "required": ["n", "edges"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "edges": {"type": "array",
                          "items": {"type": "array", "items": {"type": "integer"},
                                    "minItems": 2, "maxItems": 2}},
            },
        },
        "plant": {
            "type": "object",
            "required": ["pendulum"],
            "additionalProperties": False,
            "properties": {
                "pendulum": {
                    "type": "object",
                    "required": ["m", "l", "kappa", "g"],
                    "additionalProperties": False,
                    "properties": {"m": {"type": "number", "exclusiveMinimum": 0},
                                   "l": {"type": "number", "exclusiveMinimum": 0},
                                   "kappa": {"type": "number", "exclusiveMinimum": 0},
                                   "g": {"type": "number", "exclusiveMinimum": 0}},
                },
            },
        },
        "controller": {
            "type": "object",
            "oneOf": [
                {"required": ["first_order"], "additionalProperties": False,
                 "properties": {"first_order": {
                     "type": "object", "required": ["a", "b"],
                     "additionalProperties": False,
                     "properties": {"a": {"type": "number", "exclusiveMinimum": 0},
                                    "b": {"type": "number", "exclusiveMinimum": 0}}}}},
                {"required": ["A", "B", "C"], "additionalProperties": False,
                 "properties": {"A": _MATRIX, "B": _MATRIX, "C": _MATRIX, "D": _MATRIX}},
            ],
        },
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "initial_conditions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "plants": {"type": "array", "items": {"type": "array", "items": _NUMBER}},
                "controllers": {"type": "array", "items": {"type": "array", "items": _NUMBER}},
                "plant": {"type": "array", "items": _NUMBER},
                "controller": {"type": "array", "items": _NUMBER},
            },
        },
        "integrator": {
            "type": "object",
            "required": ["step_s", "t_end_s"],
            "additionalProperties": False,
            "properties": {"step_s": {"type": "number", "exclusiveMinimum": 0},
                           "t_end_s": {"type": "number", "exclusiveMinimum": 0},
                           "record_every": {"type": "integer", "minimum": 1}},
        },
        "checks": {"type": "array", "items": {"enum": list(CHECKS)}, "uniqueItems": True},
        "consensus": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"rel": {"type": "number", "exclusiveMinimum": 0},
                           "abs": {"type": "number", "exclusiveMinimum": 0}},
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}

#: JSON Schema's types as jsonschema decides them: a bool is no number, and an
#: integral float such as 10.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": integral,
}


def _equal(a, b):
    """jsonschema's equality of JSON values: True is not 1, inside arrays and
    objects too."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    return a is b or isinstance(a, bool) == isinstance(b, bool) and a == b


def _unique(items):
    """jsonschema's uniqueness test: no equal neighbours once sorted, or no
    equal pair when the items do not sort (a bool among them, mixed types,
    objects). Unhashable items such as lists are fine."""
    try:
        if any(isinstance(v, bool) for v in items):
            raise TypeError("bools are compared pairwise")
        ordered = sorted(items)
        pairs = zip(ordered, ordered[1:])
    except TypeError:
        pairs = ((a, b) for k, b in enumerate(items) for a in items[:k])
    return not any(_equal(a, b) for a, b in pairs)


def schema_errors(schema, value, path="$"):
    """Yield ``(json_path, message)`` for each way ``value`` breaks ``schema``,
    in the keyword order and wording of jsonschema's Draft 2020-12 validator.

    Only the keywords SCHEMA uses are implemented (``additionalProperties``
    only as false, ``type`` only as one name); any other keyword raises
    NotImplementedError instead of being skipped.
    """
    for key, arg in schema.items():
        if key == "$schema":
            continue
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "const":
            if not _equal(value, arg):
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if not any(_equal(each, value) for each in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minimum":
            if _TYPES["number"](value) and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum":
            if _TYPES["number"](value) and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from schema_errors(arg, item, f"{path}[{i}]")
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "uniqueItems":
            if arg and isinstance(value, list) and not _unique(value):
                yield path, f"{value!r} has non-unique elements"
        elif key == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from schema_errors(sub, value[name], f"{path}.{name}")
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                known = schema.get("properties", {})
                extras = sorted((name for name in value if name not in known), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, (f"Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "oneOf":
            valid = [sub for sub in arg if next(schema_errors(sub, value, path), None) is None]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:  # jsonschema names the first valid one last
                yield path, (f"{value!r} is valid under each of "
                             f"{', '.join(map(repr, valid[1:] + valid[:1]))}")
        else:
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r}")


DEFAULT_CHECKS = ["ni_dissipation", "osni_dissipation", "osni_like_network",
                  "lyapunov_monotone", "consensus"]


def resolved(path, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as a ConfigError on path."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


class ExperimentConfig:
    """A parsed JSON document, validated and resolved: systems built,
    dimensions checked. ExperimentConfig(doc) raises ConfigError on the first
    rule doc breaks, in the order schema, controller, I/O dimension,
    mode/graph, connectivity, initial conditions, integrator.

    ``graph`` is None for a single plant/controller pair. ``controller_Y`` is
    the OSNI certificate Y whose storage (1/2) x^T Y^-1 x the trajectory
    checks use; None when the controller has no closed-form certificate.
    """

    def __init__(self, doc: dict):
        error = min(schema_errors(SCHEMA, doc), key=lambda e: e[0], default=None)
        if error is not None:
            raise ConfigError("{}: {}".format(*error))
        self.raw, mode = doc, doc["mode"]
        params = doc["plant"]["pendulum"]
        pp = PendulumParams(m_kg=params["m"], l_m=params["l"], kappa=params["kappa"],
                            g_ms2=params["g"])
        self.plant, self.plant_storage = pendulum_plant(pp), pendulum_storage(pp)
        entry, self.controller_Y = doc["controller"], None
        if "first_order" in entry:
            a, b = entry["first_order"]["a"], entry["first_order"]["b"]
            self.controller_ss = resolved("$.controller", first_order, a, b)
            self.controller_Y = first_order_certificate(a, b)[0]
        else:
            self.controller_ss = resolved("$.controller", StateSpace, entry["A"], entry["B"],
                                          entry["C"], entry.get("D"))
        resolved("$.controller", check_controller, self.controller_ss, self.plant)
        if ("graph" in doc) != (mode == "network"):
            raise ConfigError("$.graph: network mode requires a graph and pair mode takes none")
        self.graph = (resolved("$.graph", Graph, doc["graph"]["n"], doc["graph"]["edges"])
                      if mode == "network" else None)
        if not is_connected(self.graph):
            raise ConfigError("$.graph: consensus requires a connected graph")
        # one bank of n nodes either way; the pair form drops the node axis
        keys, nodes = ((("plant", "controller"), ()) if self.graph is None
                       else (("plants", "controllers"), (self.graph.n,)))
        ics = doc["initial_conditions"]
        if any(key not in ics for key in keys):
            raise ConfigError(f"$.initial_conditions: {mode} mode needs "
                              f"{keys[0]!r} and {keys[1]!r}")
        stray = sorted(set(ics) - set(keys))
        if stray:
            raise ConfigError(f"$.initial_conditions: {mode} mode takes only {keys[0]!r} "
                              f"and {keys[1]!r}, not {', '.join(map(repr, stray))}")
        x0 = []
        for key, dim in zip(keys, (self.plant.p, self.controller_ss.state_dim)):
            value, shape = np.asarray(ics[key], dtype=float), nodes + (dim,)
            if value.shape != shape:
                raise ConfigError(f"$.initial_conditions.{key}: expected shape "
                                  f"{list(shape)}, got {list(value.shape)}")
            x0.append(value.reshape(-1))
        self.x0 = np.concatenate(x0)
        # the schema's integrator keys are IntegratorConfig's fields; a schema
        # integer may be an integral float (10.0), which the integrator cannot step by
        fields = dict(doc["integrator"])
        if "record_every" in fields:
            fields["record_every"] = int(fields["record_every"])
        self.integrator = resolved("$.integrator", IntegratorConfig, **fields)
        self.delta = float(doc["delta"])
        self.checks = list(doc.get("checks", DEFAULT_CHECKS))
        consensus = doc.get("consensus", {})
        self.consensus_rel = float(consensus.get("rel", 0.02))
        self.consensus_abs = float(consensus.get("abs", 0.05))
        self.out_dir = doc.get("output", {}).get("dir")
        self.label = doc.get("label", "experiment")

    def build_loop(self) -> ClosedLoop:
        return ClosedLoop(self.plant, self.controller_ss, self.graph)


#: Validate a parsed JSON document and build every referenced object.
resolve_config = ExperimentConfig


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            doc = strict_json(fh.read())
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return resolve_config(doc)
