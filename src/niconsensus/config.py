"""Experiment configuration: a versioned JSON document, read by typed readers
that refuse on a `$.` path in the words of jsonschema's Draft 2020-12 validator."""

from __future__ import annotations

import json
import math
import numbers
from itertools import chain

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


def _object(path, value, required, optional=()):
    """value, a JSON object with every key of required and no key outside required and optional."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: {value!r} is not of type 'object'")
    for name in required:
        if name not in value:
            raise ConfigError(f"{path}: {name!r} is a required property")
    extras = sorted((k for k in value if k not in required and k not in optional), key=str)
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        raise ConfigError(f"{path}: Additional properties are not allowed "
                          f"({', '.join(map(repr, extras))} {verb} unexpected)")
    return value


def _number(path, value, positive=False):
    """value, a real number (no bool) whose float is finite, and > 0 if positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: {value!r} is not of type 'number'")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the floats, such as the dict API's 10**400
        raise ConfigError(f"{path}: an integer that overflows a float") from None
    if not finite:
        raise ConfigError(f"{path}: {value!r} is not finite")
    if positive and value <= 0:
        raise ConfigError(f"{path}: {value!r} is less than or equal to the minimum of 0")
    return value


def _integer(path, value, least=-math.inf):
    """value, an integer as graph.integral decides (10.0 is one), at least least."""
    if not integral(value):
        raise ConfigError(f"{path}: {value!r} is not of type 'integer'")
    if value < least:
        raise ConfigError(f"{path}: {value!r} is less than the minimum of {least!r}")
    return int(value)


def _string(path, value, choices=None):
    """value, a string, and one of choices unless they are None."""
    if not isinstance(value, str) or choices is not None and value not in choices:
        raise ConfigError(f"{path}: {value!r} " + ("is not of type 'string'" if choices is None
                                                   else f"is not one of {list(choices)!r}"))
    return value


def _row(path, value, read, least=0, most=math.inf):
    """value, a JSON array of least to most items, each read by read(path, item)."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: {value!r} is not of type 'array'")
    for i, item in enumerate(value):
        read(f"{path}[{i}]", item)
    if not least <= len(value) <= most:
        raise ConfigError(f"{path}: {value!r} " + ("is too long" if len(value) > most else
                          "should be non-empty" if least == 1 else "is too short"))
    return value


def _rows(path, value, read, least=0, most=math.inf, min_rows=0):
    """value, at least min_rows rows as _row reads them with read _number or _integer:
    in one pass over types and lengths, or item by item to name the first bad one."""
    if isinstance(value, list) and {*map(type, value)} <= {list}:
        lengths, exact = {*map(len, value)}, {int, float} if read is _number else {int}
        if (len(value) >= min_rows and least <= min(lengths, default=least)
                and max(lengths, default=least) <= most
                and {*map(type, chain.from_iterable(value))} <= exact):
            return value
    return _row(path, value, lambda at, row: _row(at, row, read, least, most), min_rows)


def _array(path, rows):
    """rows, as read, as a float array; ragged rows, and an entry beyond the finite
    floats (only the dict API gives one, and _rows' one pass lets it by), are refused on path."""
    try:
        value = np.array(rows, dtype=float)
    except ValueError as err:  # numpy's "inhomogeneous shape"
        raise ConfigError(f"{path}: rows differ in length") from err
    except OverflowError:  # an int beyond the floats
        value = np.array(math.inf)
    if not np.isfinite(value).all():
        raise ConfigError(f"{path}: entries must be finite numbers")
    return value


DEFAULT_CHECKS = [name for name in CHECKS if name != "pair_identities"]


def resolved(path, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as a ConfigError on path."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


class ExperimentConfig:
    """A parsed JSON document, read and resolved: ExperimentConfig(doc) reads each
    field once, then runs its rules, and raises ConfigError on the first field it
    cannot read or else the first rule broken, in the order controller, I/O
    dimension, mode/graph, connectivity, initial conditions, integrator.

    ``graph`` is None for a single plant/controller pair. ``controller_Y`` is
    the OSNI certificate Y whose storage (1/2) x^T Y^-1 x the trajectory
    checks use; None when the controller has no closed-form certificate.
    """

    def __init__(self, doc: dict):
        _object("$", doc, ("schema", "mode", "plant", "controller", "delta",
                           "initial_conditions", "integrator"),
                ("label", "graph", "checks", "consensus", "output"))
        if isinstance(doc["schema"], bool) or doc["schema"] != 1:
            raise ConfigError("$.schema: 1 was expected")
        self.raw, self.label = doc, _string("$.label", doc.get("label", "experiment"))
        mode = _string("$.mode", doc["mode"], ("pair", "network"))
        if "graph" in doc:
            graph = _object("$.graph", doc["graph"], ("n", "edges"))
            _integer("$.graph.n", graph["n"], 1)
            _rows("$.graph.edges", graph["edges"], _integer, 2, 2)
        plant = _object("$.plant", doc["plant"], ("pendulum",))
        params = _object("$.plant.pendulum", plant["pendulum"], ("m", "l", "kappa", "g"))
        pp = PendulumParams(*(_number(f"$.plant.pendulum.{k}", params[k], True)
                              for k in ("m", "l", "kappa", "g")))
        self.plant, self.plant_storage = pendulum_plant(pp), pendulum_storage(pp)
        entry, self.controller_Y = doc["controller"], None
        lag = isinstance(entry, dict) and "first_order" in entry
        if isinstance(entry, dict) and not lag and not entry.keys() & {"A", "B", "C", "D"}:
            raise ConfigError(f"$.controller: {entry!r} is neither 'first_order' nor 'A', 'B', 'C'")
        _object("$.controller", entry, ("first_order",) if lag else ("A", "B", "C"),
                () if lag else ("D",))
        if lag:
            ab = _object("$.controller.first_order", entry["first_order"], ("a", "b"))
            a, b = (_number(f"$.controller.first_order.{k}", ab[k], True) for k in "ab")
            self.controller_ss = first_order(a, b)
            self.controller_Y = first_order_certificate(a, b)[0]
        for name, rows in entry.items() if not lag else ():
            _rows(f"$.controller.{name}", rows, _number, 1, min_rows=1)
        self.delta = float(_number("$.delta", doc["delta"], True))
        ics = _object("$.initial_conditions", doc["initial_conditions"], (),
                      ("plants", "controllers", "plant", "controller"))
        for key, rows in ics.items():  # a bank of rows, or one pair's row
            (_rows if key.endswith("s") else _row)(f"$.initial_conditions.{key}", rows, _number)
        steps = _object("$.integrator", doc["integrator"], ("step_s", "t_end_s"), ("record_every",))
        step_s, t_end_s = (_number(f"$.integrator.{k}", steps[k], True)
                           for k in ("step_s", "t_end_s"))
        every = _integer("$.integrator.record_every", steps.get("record_every", 1), 1)
        self.checks = list(_row("$.checks", doc.get("checks", DEFAULT_CHECKS),
                                lambda at, name: _string(at, name, CHECKS)))
        if len(set(self.checks)) < len(self.checks):
            raise ConfigError(f"$.checks: {self.checks!r} has non-unique elements")
        consensus = _object("$.consensus", doc.get("consensus", {}), (), ("rel", "abs"))
        self.consensus_rel = float(_number("$.consensus.rel", consensus.get("rel", 0.02), True))
        self.consensus_abs = float(_number("$.consensus.abs", consensus.get("abs", 0.05), True))
        output = _object("$.output", doc.get("output", {}), (), ("dir",))
        self.out_dir = _string("$.output.dir", output["dir"]) if "dir" in output else None
        # every field is read: the rules, in order
        if not lag:
            self.controller_ss = resolved("$.controller", StateSpace, *(
                _array(f"$.controller.{k}", entry[k]) if k in entry else None for k in "ABCD"))
        resolved("$.controller", check_controller, self.controller_ss, self.plant)
        if ("graph" in doc) != (mode == "network"):
            raise ConfigError("$.graph: network mode requires a graph and pair mode takes none")
        self.graph = resolved("$.graph", Graph, **graph) if "graph" in doc else None
        if not is_connected(self.graph):
            raise ConfigError("$.graph: consensus requires a connected graph")
        # one bank of n nodes either way; the pair form drops the node axis
        keys, nodes = ((("plant", "controller"), ()) if self.graph is None
                       else (("plants", "controllers"), (self.graph.n,)))
        if any(key not in ics for key in keys):
            raise ConfigError(f"$.initial_conditions: {mode} mode needs "
                              f"{keys[0]!r} and {keys[1]!r}")
        stray = sorted(set(ics) - set(keys))
        if stray:
            raise ConfigError(f"$.initial_conditions: {mode} mode takes only {keys[0]!r} "
                              f"and {keys[1]!r}, not {', '.join(map(repr, stray))}")
        x0 = []
        for key, dim in zip(keys, (self.plant.p, self.controller_ss.state_dim)):
            value, shape = _array(f"$.initial_conditions.{key}", ics[key]), nodes + (dim,)
            if value.shape != shape:
                raise ConfigError(f"$.initial_conditions.{key}: expected shape "
                                  f"{list(shape)}, got {list(value.shape)}")
            x0.append(value.reshape(-1))
        self.x0 = np.concatenate(x0)
        self.integrator = resolved("$.integrator", IntegratorConfig, step_s, t_end_s, every)

    def build_loop(self) -> ClosedLoop:
        return ClosedLoop(self.plant, self.controller_ss, self.graph)


#: Read a parsed JSON document and build every object it names.
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
