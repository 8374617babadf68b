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
    """Raised when the state leaves the finite floats."""

    def __init__(self, t: float, last_state: np.ndarray):
        super().__init__(f"divergence at t={t:.6g}")
        self.t = t
        self.last_state = last_state


def rk4_path(field, x0, cfg: IntegratorConfig):
    """Integrate dx/dt = field(x), returning (times, states) at the recorded
    samples: t = 0, every record_every-th step, and the final step."""
    h = cfg.step_s
    n_steps = max(1, round(cfg.t_end_s / h))
    x = np.array(x0, dtype=float)
    n_rec = n_steps // cfg.record_every + 1 + (1 if n_steps % cfg.record_every else 0)
    times = np.empty(n_rec)
    states = np.empty((n_rec, x.size))
    times[0], states[0] = 0.0, x
    rec = 1
    half = 0.5 * h
    sixth = h / 6.0
    # overflow on the way to divergence is reported via SimulationDiverged,
    # not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            k1 = field(x)
            k2 = field(x + half * k1)
            k3 = field(x + half * k2)
            k4 = field(x + h * k3)
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.isfinite(x).all():
                raise SimulationDiverged(k * h, states[rec - 1])
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
    times, states = rk4_path(cl.rhs, x0, cfg)
    return Trajectory(system=cl, times=times, states=states, **vars(cl.evaluate(states)))

