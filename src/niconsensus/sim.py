"""Deterministic fixed-step integration of closed loops and trajectory records.

Classical fourth-order Runge-Kutta with a fixed step. Fixed stepping keeps
runs bit-reproducible on one platform and gives the dissipation checks a
uniform sample spacing; adaptive stepping and stiff solvers are out of scope.

One step loop, ``rk4_path``, serves two stage forms. A plain field runs the
classical slopes (``slope_stages``). A closed loop's field is linear in its
extended state once the phi block is fresh, so ``integrate`` runs the folded
stages of ``ClosedLoop.rk4_stages``: each stage state is one product of a
stage operator on the stacked stage states, and no slope is formed. The two
agree to round-off (the classical RK4 stability-polynomial identity for
linear fields), not bit for bit. A step that diverges is named from the
stage rows it has just filled, in either form, without running it again.
"""

from __future__ import annotations

from functools import partial
from math import isfinite

import numpy as np

from .graph import Frozen
from .network import LoopSignals


class IntegratorConfig(Frozen):
    def __init__(self, step_s: float, t_end_s: float, record_every: int = 1):
        for name, value in (("step_s", step_s), ("t_end_s", t_end_s)):
            if not isfinite(value):
                raise ValueError(f"{name} must be finite")
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        if t_end_s < step_s:
            raise ValueError("t_end_s must be at least one step")
        # a float or a bool would pass the range test, then fail or mislead
        # where integrate slices the record by it
        every = record_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError("record_every must be a positive integer")
        self._set(step_s=step_s, t_end_s=t_end_s, record_every=record_every)


#: Table entries per block of ``Trajectory.write_csv``, rounded down to whole
#: rows: a block holds about 70 bytes per entry as floats and text at once.
#: flagship4's 2001 x 30 table writes in 19-20 ms against np.savetxt's 28-34 ms
#: (one pinned core, minimum of 15 writes, four alternating processes).
CSV_BLOCK_ENTRIES = 4096


class SimulationDiverged(RuntimeError):
    """The state left the finite floats, or the range ``rk4_path``'s scale
    allows, at ``step``; ``last_state`` precedes it and ``index`` is the
    entry that left first, both in the order ``rk4_path`` reads entries."""

    def __init__(self, t: float, step: int, last_state: np.ndarray, index: int):
        super().__init__(f"divergence at t={t:.6g}")
        self.t, self.step, self.last_state, self.index = t, step, last_state, index


def _diverged_entry(stages, new, order) -> int:
    """The entry that left first in a failed step, as a position in order,
    the indices of the state in the order entries are read: the first
    non-finite entry of the earliest non-finite row of stages, the stage
    buffer rows 1-4 the step filled (a plain field's slopes k1..k4, or the
    folded stage states z2..z4 and the sparse last stage's weighted sum),
    else of the new state new, else new's largest entry (a finite new state
    beyond the scaled range). A field's product can turn one non-finite
    entry of a stage into a non-finite row everywhere, so later rows do not
    name it."""
    for v in (*stages, new):
        finite = np.isfinite(v[order])
        if not finite.all():
            return int(np.argmin(finite))
    return int(np.argmax(np.abs(new[order])))


def slope_stages(field_at, h):
    """The stages_at of ``rk4_path`` for a plain field dx/dt = f(x): the
    classical RK4 slopes k1..k4 in rows 1-4 of the stage buffer, the stage
    state and a scratch array beside them, and the new state
    x + h/6 (k1 + 2 (k2 + k3) + k4) written in place."""
    # 0-d arrays: a ufunc takes them without converting a Python float per call
    half, step, two, sixth = (np.array(v) for v in (0.5 * h, h, 2.0, h / 6.0))
    add, mul = np.add, np.multiply

    def stages(P, Q):
        x, (k1, k2, k3, k4), new = P[0], P[1:], Q[0]
        s, t = np.empty_like(x), np.empty_like(x)
        fx, fs = field_at(x), field_at(s)

        def stage(f, k, c):  # slope k at the stage state, then the next: s = x + c k
            f(k)
            add(x, mul(c, k, out=t), out=s)

        def last():
            fs(k4)
            mul(two, add(k2, k3, out=t), out=t)
            mul(sixth, add(add(k1, t, out=t), k4, out=t), out=t)
            add(x, t, out=new)

        return (partial(stage, fx, k1, half), partial(stage, fs, k2, half),
                partial(stage, fs, k3, step), last)

    return stages


def rk4_path(field_at, x0, cfg: IntegratorConfig, stages_at=None, scale=0.0, order=None):
    """Integrate dx/dt = f(x) with fixed-step RK4 in stage buffers allocated once.

    field_at(z) binds f to one state buffer z: it returns a function of one
    argument, out, that writes f at z's current value into out. A step runs
    in two (5, N) stage buffers P and Q: stages_at(P, Q) returns its four
    stage calls, functions of no argument that together write the state
    that follows P[0] into Q[0], using rows 1-4 of P as they like. The loop
    binds P to Q and Q to P once each and alternates the two. By default
    the stages are ``slope_stages(field_at, h)``; with stages_at given (the
    folded stages of ``ClosedLoop.rk4_stages``) field_at is not read. P and
    Q start as zeros, so a row the stages never write reads as finite.

    A state x' diverges when scale * sum(x'), one dot product, is not
    finite: with scale 0, exactly when x' is not finite; with scale > 0 also
    as x' nears the largest float over scale, and a state that passes has
    every |x'_i| below twice that (a fused multiply-add can absorb one
    product up to twice the largest float). The test runs on the recorded
    states only. When one fails at the first step since the last recorded
    state, that step raises SimulationDiverged, with the state before it and
    the entry that left first (``_diverged_entry`` of the rows it filled)
    read in order. Otherwise rk4_path runs the window again from the last
    recorded state, recording every step, and re-raises its error at the
    step and time counted from the start. Every stage carries the state
    itself (x' = x + ...), so a state that leaves the finite floats never
    returns to them; a finite state beyond the range that is back in it by
    the next recorded step passes. Returns (times, states) at the recorded
    samples: t = 0, every record_every-th step, and the final step."""
    h = cfg.step_s
    n_steps = max(1, round(cfg.t_end_s / h))
    x = np.array(x0, dtype=float)
    n_rec = n_steps // cfg.record_every + 1 + (1 if n_steps % cfg.record_every else 0)
    times, states = np.empty(n_rec), np.empty((n_rec, x.size))
    times[0], states[0] = 0.0, x
    rec, every = 1, cfg.record_every
    P, Q = np.zeros((5, x.size)), np.zeros((5, x.size))
    P[0] = x
    bind = stages_at or slope_stages(field_at, h)
    here, there = bind(P, Q), bind(Q, P)
    x, new = P[0], Q[0]
    # 0 * v is +-0 for finite v and NaN for +-inf or NaN, so with scale 0 the
    # probe's dot is finite iff x is
    probe = np.full_like(x, scale)
    order = slice(None) if order is None else order
    # overflow on the way to divergence raises SimulationDiverged, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            first, second, third, last = here
            first()
            second()
            third()
            last()
            x, new, here, there = new, x, there, here
            if k % every == 0 or k == n_steps:
                if not isfinite(probe.dot(x)):
                    start, before = (rec - 1) * every, (P, Q)[(k - 1) % 2]
                    if k - start == 1:  # step k ran on the rows of the state before it
                        raise SimulationDiverged(k * h, k, before[0][order],
                                                 _diverged_entry(before[1:], x, order))
                    try:  # the window again, each step recorded, so its failure is a first step
                        rk4_path(field_at, states[rec - 1], IntegratorConfig(h, (k - start) * h),
                                 stages_at, scale, order)
                    except SimulationDiverged as err:
                        raise SimulationDiverged((start + err.step) * h, start + err.step,
                                                 err.last_state, err.index) from None
                times[rec] = k * h
                states[rec] = x
                rec += 1
    return times[:rec], states[:rec]


class Trajectory(LoopSignals):
    """Recorded closed-loop run: the loop signals of the recorded composite
    states, derivative ``dstate`` included, with their uniform sample
    instants and the loop that produced them."""

    def __init__(self, dstate: np.ndarray, u1: np.ndarray, y1: np.ndarray,
                 y1dot: np.ndarray, ycdot: np.ndarray, y2: np.ndarray, y2dot: np.ndarray,
                 system: object, times: np.ndarray, states: np.ndarray):
        super().__init__(dstate, u1, y1, y1dot, ycdot, y2, y2dot)
        self._set(system=system, times=times, states=states)

    @property
    def n_samples(self) -> int:
        return self.times.size

    def write_csv(self, path, extra_columns=None):
        """Column order: t, plant states node by node, controller states node
        by node, y1 per node, y2 per node, y1 rates, y2 rates, then any extra
        (name, series) columns. The bytes are np.savetxt's with fmt="%.12g",
        written a block of about CSV_BLOCK_ENTRIES entries at a time, each
        with one %."""
        cl = self.system
        nodes = range(1, cl.n_plants + 1)
        header = ["t"]
        for name, dim in (("x_plant", cl.plant.p), ("x_ctrl", cl.controller.state_dim),
                          ("y1", cl.io_dim), ("y2", cl.io_dim),
                          ("y1dot", cl.io_dim), ("y2dot", cl.io_dim)):
            header += [f"{name}_{i}_{k}" for i in nodes for k in range(dim)]
        extras = list(extra_columns or [])
        header += [name for name, _ in extras]
        signals = [self.times, self.states, self.y1, self.y2, self.y1dot, self.y2dot,
                   *(s for _, s in extras)]
        rows = max(1, CSV_BLOCK_ENTRIES // len(header))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.n_samples, rows):
                block = np.column_stack([s[start:start + rows] for s in signals])
                row = ",".join(["%.12g"] * block.shape[1]) + "\r\n"
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def integrate(cl, x0, cfg: IntegratorConfig) -> Trajectory:
    """Run the closed loop from the composite state x0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cl.n_states,):
        raise ValueError(f"initial state must have length {cl.n_states}")
    try:
        # a recorded state then has |Z_i| <= max / (2 |W|), so evaluate's W Z stays
        # finite; divergence reads the state rows in composite order, skipping phi's
        times, Z = rk4_path(None, cl.extend(x0), cfg, cl.rk4_stages(cfg.step_s),
                            4.0 * cl.field_norm, cl._rows)
    except SimulationDiverged as err:
        err.args = (f"{err} in {cl.component(err.index)}",)
        raise
    states = Z[:, cl._rows]
    return Trajectory(system=cl, times=times, states=states, **vars(cl.evaluate(states)))

