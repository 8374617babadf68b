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
    """The state left the finite floats at ``step``; ``last_state`` precedes it."""

    def __init__(self, t: float, step: int, last_state: np.ndarray):
        super().__init__(f"divergence at t={t:.6g}")
        self.t, self.step, self.last_state = t, step, last_state


def rk4_path(field, x0, cfg: IntegratorConfig):
    """Integrate dx/dt = field(x, out), a field that writes dx/dt into out, in
    place on stage buffers allocated once. Returns (times, states) at the
    recorded samples: t = 0, every record_every-th step, and the final step."""
    h = cfg.step_s
    n_steps = max(1, round(cfg.t_end_s / h))
    x = np.array(x0, dtype=float)
    n_rec = n_steps // cfg.record_every + 1 + (1 if n_steps % cfg.record_every else 0)
    times = np.empty(n_rec)
    states = np.empty((n_rec, x.size))
    times[0], states[0] = 0.0, x
    rec = 1
    half, sixth = 0.5 * h, h / 6.0
    k1, k2, k3, k4, s, t = (np.empty_like(x) for _ in range(6))
    # 0 * v is +-0 for finite v and NaN for +-inf or NaN: zero . s != 0 iff s is not finite
    zero = np.zeros_like(x)
    # overflow on the way to divergence raises SimulationDiverged, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            field(x, k1)
            field(np.add(x, np.multiply(half, k1, out=t), out=s), k2)
            field(np.add(x, np.multiply(half, k2, out=t), out=s), k3)
            field(np.add(x, np.multiply(h, k3, out=t), out=s), k4)
            np.multiply(2.0, np.add(k2, k3, out=t), out=t)
            np.multiply(sixth, np.add(np.add(k1, t, out=t), k4, out=t), out=t)
            np.add(x, t, out=s)
            if zero.dot(s) != 0.0:
                raise SimulationDiverged(k * h, k, x)
            x, s = s, x
            if k % cfg.record_every == 0 or k == n_steps:
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
        times, Z = rk4_path(cl.rhs, cl.extend(x0), cfg)
    except SimulationDiverged as err:
        err.last_state = err.last_state[cl._rows]
        raise
    states = Z[:, cl._rows]
    return Trajectory(system=cl, times=times, states=states, **vars(cl.evaluate(states)))

