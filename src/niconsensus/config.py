"""Experiment configuration: versioned JSON schema, validation, builders."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from jsonschema import Draft202012Validator

from .analysis import CHECKS
from .graph import Graph, is_connected, laplacian
from .linsys import StateSpace, first_order, first_order_certificate
from .network import ClosedLoop, check_controller
from .plant import (NonlinearPlant, PendulumParams, StorageFunction, pendulum_plant,
                    pendulum_storage)
from .sim import IntegratorConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries field diagnostics."""


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

DEFAULT_CHECKS = ["ni_dissipation", "osni_dissipation", "osni_like_network",
                  "lyapunov_monotone", "consensus"]


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: systems built, dimensions checked.

    ``graph`` is None for a single plant/controller pair. ``controller_Y`` is
    the OSNI certificate Y whose storage (1/2) x^T Y^-1 x the trajectory
    checks use; None when the controller has no closed-form certificate.
    """

    raw: dict
    graph: Graph | None
    plant: NonlinearPlant
    plant_storage: StorageFunction | None
    controller_ss: StateSpace
    controller_Y: np.ndarray | None
    delta: float
    x0: np.ndarray
    integrator: IntegratorConfig
    checks: list
    consensus_rel: float = 0.02
    consensus_abs: float = 0.05
    out_dir: str | None = None
    label: str = "experiment"

    @property
    def K(self) -> np.ndarray:
        """Mixing matrix of the controller bank: [[1]] for a pair, else L."""
        return np.ones((1, 1)) if self.graph is None else laplacian(self.graph)

    def build_loop(self) -> ClosedLoop:
        return ClosedLoop(self.plant, self.controller_ss, self.K)


def graph_from_config(entry: dict) -> Graph:
    try:
        return Graph(int(entry["n"]), frozenset(tuple(e) for e in entry["edges"]))
    except ValueError as err:
        raise ConfigError(f"graph: {err}") from err


def controller_from_config(entry: dict):
    """(M, Y): the controller and its closed-form OSNI certificate Y, None for
    a general realisation."""
    try:
        if "first_order" in entry:
            a, b = entry["first_order"]["a"], entry["first_order"]["b"]
            return first_order(a, b), first_order_certificate(a, b)[0]
        return StateSpace(entry["A"], entry["B"], entry["C"], entry.get("D")), None
    except ValueError as err:
        raise ConfigError(f"controller: {err}") from err


def plant_from_config(entry: dict):
    params = entry["pendulum"]
    pp = PendulumParams(m_kg=params["m"], l_m=params["l"],
                        kappa=params["kappa"], g_ms2=params["g"])
    return pendulum_plant(pp), pendulum_storage(pp)


def resolve_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build every referenced object."""
    e = min(Draft202012Validator(SCHEMA).iter_errors(doc), key=lambda e: e.json_path,
            default=None)
    if e is not None:
        raise ConfigError(f"{e.json_path}: {e.message}")
    mode = doc["mode"]
    plant, plant_storage = plant_from_config(doc["plant"])
    controller, controller_Y = controller_from_config(doc["controller"])
    try:
        check_controller(controller)
    except ValueError as err:
        raise ConfigError(f"$.controller: {err}") from err
    if ("graph" in doc) != (mode == "network"):
        raise ConfigError("$.graph: network mode requires a graph and pair mode takes none")
    graph = graph_from_config(doc["graph"]) if mode == "network" else None
    if graph is not None and not is_connected(graph):
        raise ConfigError("$.graph: consensus requires a connected graph")
    # one bank of n nodes either way; the pair form drops the node axis
    pair = graph is None
    keys = ("plant", "controller") if pair else ("plants", "controllers")
    ics = doc["initial_conditions"]
    if any(key not in ics for key in keys):
        raise ConfigError(f"$.initial_conditions: {mode} mode needs "
                          f"{keys[0]!r} and {keys[1]!r}")
    x0 = []
    for key, dim in zip(keys, (plant.p, controller.state_dim)):
        value = np.asarray(ics[key], dtype=float)
        shape = (dim,) if pair else (graph.n, dim)
        if value.shape != shape:
            raise ConfigError(f"$.initial_conditions.{key}: expected shape "
                              f"{list(shape)}, got {list(value.shape)}")
        x0.append(value.reshape(-1))
    try:  # the schema's integrator keys are IntegratorConfig's fields
        integrator = IntegratorConfig(**doc["integrator"])
    except ValueError as err:
        raise ConfigError(f"$.integrator: {err}") from err
    consensus = doc.get("consensus", {})
    return ExperimentConfig(
        raw=doc,
        graph=graph,
        plant=plant,
        plant_storage=plant_storage,
        controller_ss=controller,
        controller_Y=controller_Y,
        delta=float(doc["delta"]),
        x0=np.concatenate(x0),
        integrator=integrator,
        checks=list(doc.get("checks", DEFAULT_CHECKS)),
        consensus_rel=float(consensus.get("rel", 0.02)),
        consensus_abs=float(consensus.get("abs", 0.05)),
        out_dir=doc.get("output", {}).get("dir"),
        label=doc.get("label", "experiment"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return resolve_config(doc)
