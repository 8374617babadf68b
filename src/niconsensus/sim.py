"""Deterministic fixed-step integration of closed loops and trajectory records.

Classical fourth-order Runge-Kutta with a fixed step. Fixed stepping keeps
runs bit-reproducible on one platform and gives the dissipation checks a
uniform sample spacing; adaptive stepping and stiff solvers are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import LoopSignals


@dataclass(frozen=True)
class IntegratorConfig:
    step_s: float
    t_end_s: float
    record_every: int = 1

    def __post_init__(self):
        if not (self.step_s > 0):
            raise ValueError("step_s must be positive")
        if self.t_end_s < self.step_s:
            raise ValueError("t_end_s must be at least one step")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


class SimulationDiverged(RuntimeError):
    """The state left the finite floats at ``step``; ``last_state`` precedes it
    and ``index`` is the entry that left them first."""

    def __init__(self, t: float, step: int, last_state: np.ndarray, index: int):
        super().__init__(f"divergence at t={t:.6g}")
        self.t, self.step, self.last_state, self.index = t, step, last_state, index


def _first_non_finite(x, k1, k2, k3, k4, half, h, s) -> int:
    """The entry that left the finite floats first in a failed step from x:
    the first non-finite entry of the earliest non-finite slope, stage state
    or new state s. A field's product can turn one non-finite entry of a
    stage state into a non-finite slope everywhere, so later arrays do not
    name it."""
    for v in (k1, x + half * k1, k2, x + half * k2, k3, x + h * k3, k4, s):
        finite = np.isfinite(v)
        if not finite.all():
            return int(np.argmin(finite))


def rk4_path(field_at, x0, cfg: IntegratorConfig):
    """Integrate dx/dt = f(x) in place on stage buffers allocated once.

    field_at(z) binds f to one state buffer z: it returns a function of one
    argument, out, that writes f at z's current value into out. The loop
    evaluates f at two buffers only, the state x and the stage state s, and
    binds each once. Returns (times, states) at the recorded samples: t = 0,
    every record_every-th step, and the final step."""
    h = cfg.step_s
    n_steps = max(1, round(cfg.t_end_s / h))
    x = np.array(x0, dtype=float)
    n_rec = n_steps // cfg.record_every + 1 + (1 if n_steps % cfg.record_every else 0)
    times = np.empty(n_rec)
    states = np.empty((n_rec, x.size))
    times[0], states[0] = 0.0, x
    rec, every = 1, cfg.record_every
    # 0-d arrays: a ufunc takes them without converting a Python float per call
    half, step, two, sixth = (np.array(v) for v in (0.5 * h, h, 2.0, h / 6.0))
    k1, k2, k3, k4, s, t = (np.empty_like(x) for _ in range(6))
    fx, fs = field_at(x), field_at(s)
    add, mul = np.add, np.multiply
    # 0 * v is +-0 for finite v and NaN for +-inf or NaN: zero . s != 0 iff s is not finite
    zero = np.zeros_like(x)
    # overflow on the way to divergence raises SimulationDiverged, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            fx(k1)
            add(x, mul(half, k1, out=t), out=s)
            fs(k2)
            add(x, mul(half, k2, out=t), out=s)
            fs(k3)
            add(x, mul(step, k3, out=t), out=s)
            fs(k4)
            mul(two, add(k2, k3, out=t), out=t)
            mul(sixth, add(add(k1, t, out=t), k4, out=t), out=t)
            add(x, t, out=s)
            if zero.dot(s) != 0.0:
                raise SimulationDiverged(k * h, k, x,
                                         _first_non_finite(x, k1, k2, k3, k4, half, h, s))
            x, s, fx, fs = s, x, fs, fx
            if k % every == 0 or k == n_steps:
                times[rec] = k * h
                states[rec] = x
                rec += 1
    return times[:rec], states[:rec]


@dataclass(frozen=True)
class Trajectory(LoopSignals):
    """Recorded closed-loop run: the loop signals of the recorded composite
    states, derivative ``dstate`` included, with their uniform sample
    instants and the loop that produced them."""

    system: object
    times: np.ndarray
    states: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.times.size

    def write_csv(self, path, extra_columns=None):
        """Column order: t, plant states node by node, controller states node
        by node, y1 per node, y2 per node, y1 rates, y2 rates, then any extra
        (name, series) columns."""
        cl = self.system
        nodes = range(1, cl.n_plants + 1)
        header = ["t"]
        for name, dim in (("x_plant", cl.plant.p), ("x_ctrl", cl.controller.state_dim),
                          ("y1", cl.io_dim), ("y2", cl.io_dim),
                          ("y1dot", cl.io_dim), ("y2dot", cl.io_dim)):
            header += [f"{name}_{i}_{k}" for i in nodes for k in range(dim)]
        extras = list(extra_columns or [])
        header += [name for name, _ in extras]
        table = np.column_stack([self.times, self.states, self.y1, self.y2,
                                 self.y1dot, self.y2dot, *(s for _, s in extras)])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            np.savetxt(fh, table, fmt="%.12g", delimiter=",", newline="\r\n")


def integrate(cl, x0, cfg: IntegratorConfig) -> Trajectory:
    """Run the closed loop from the composite state x0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cl.n_states,):
        raise ValueError(f"initial state must have length {cl.n_states}")
    try:
        times, Z = rk4_path(cl.field_at, cl.extend(x0), cfg)
    except SimulationDiverged as err:
        err.last_state = err.last_state[cl._rows]
        # W's phi rows are zero, so a slope's phi block stays 0 (edge product)
        # or goes non-finite only together with every other row (dense
        # product): the entry named is a state row
        err.index = int(np.searchsorted(cl._rows, err.index))
        err.args = (f"{err} in {cl.component(err.index)}",)
        raise
    states = Z[:, cl._rows]
    return Trajectory(system=cl, times=times, states=states, **vars(cl.evaluate(states)))

