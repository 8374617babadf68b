"""Trajectory checks: dissipation inequalities, Lyapunov decay, consensus.

Every check follows one convention: a residual series lhs - rhs is formed at
each recorded sample from exact gradients and the state derivatives the
trajectory recorded in ``dstate``, the violation is max(0, lhs - rhs), and
the check passes when the largest violation stays below its tolerance. The
default tolerance of 1e-6 absorbs floating-point accumulation only; there is
no differentiation noise to absorb because no sampled signal is ever
differenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import StateSpace, dc_gain
from .network import CompositeStorage
from .plant import StorageFunction
from .sim import IntegratorConfig, Trajectory, rk4_path

DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_violation: float
    time_of_max: float
    tolerance: float
    passed: bool


def _report(name: str, violations: np.ndarray, times: np.ndarray,
            tol: float) -> CheckReport:
    worst = int(np.argmax(violations))
    max_violation = float(violations[worst])
    return CheckReport(name=name, max_violation=max_violation,
                       time_of_max=float(times[worst]), tolerance=tol,
                       passed=max_violation <= tol)


def _node_reports(name: str, violations: np.ndarray, times: np.ndarray,
                  tol: float) -> list:
    """One report per column of the (T, n) violations, named name_node_i."""
    return [_report(f"{name}_node_{i}", v, times, tol) for i, v in enumerate(violations.T)]


def _by_node(traj: Trajectory, signal: np.ndarray) -> np.ndarray:
    """A (T, n k) signal or state block as a (T, n, k) view."""
    return signal.reshape(traj.n_samples, traj.system.n_plants, -1)


def ni_dissipation_residuals(traj: Trajectory, v: StorageFunction) -> np.ndarray:
    """dV/dt - u^T dy/dt of every plant node, shape (T, n) (<= 0 when NI,
    identically 0 for lossless plants)."""
    xp, _ = traj.system.split(traj.states)
    dxp, _ = traj.system.split(traj.dstate)
    u1, y1dot = _by_node(traj, traj.u1), _by_node(traj, traj.y1dot)
    return np.sum(v.grad(xp) * dxp, axis=-1) - np.sum(u1 * y1dot, axis=-1)


def check_ni_dissipation(traj: Trajectory, v: StorageFunction, *,
                         tol: float = DEFAULT_TOL) -> list:
    """One report per plant node, ni_dissipation_node_i."""
    residuals = ni_dissipation_residuals(traj, v)
    return _node_reports("ni_dissipation", np.maximum(residuals, 0.0), traj.times, tol)


def osni_dissipation_residuals(traj: Trajectory, Y, delta: float) -> np.ndarray:
    """dV2/dt - u^T dy/dt + delta |dy/dt|^2 of every controller node, shape
    (T, n), with V2(x) = (1/2) x^T Y^-1 x. For the lag a/(s+b) with its
    certificate Y = a/b this equals -(1/a - delta) |dy/dt|^2 identically."""
    if delta <= 0:
        raise ValueError("strictness level delta must be positive")
    cl = traj.system
    Yinv, _ = cl.storage_matrices(Y)
    xc = _by_node(traj, cl.split(traj.states)[1])
    dxc = _by_node(traj, cl.split(traj.dstate)[1])
    u2, ycdot = _by_node(traj, traj.y1), _by_node(traj, traj.ycdot)
    rate = np.sum((xc @ Yinv) * dxc, axis=-1)
    return rate - np.sum(u2 * ycdot, axis=-1) + delta * np.sum(ycdot * ycdot, axis=-1)


def check_osni_dissipation(traj: Trajectory, Y, delta: float, *,
                           tol: float = DEFAULT_TOL) -> list:
    """One report per controller node, osni_dissipation_node_i."""
    residuals = osni_dissipation_residuals(traj, Y, delta)
    return _node_reports("osni_dissipation", np.maximum(residuals, 0.0), traj.times, tol)


def _strictness_form(traj: Trajectory) -> np.ndarray:
    """Per-sample ycdot^T (K (x) I) ycdot, the output-rate term of the
    strictness bounds: |dy2/dt|^2 for a pair, (1/2) sum_ij a_ij
    |d(yc_i - yc_j)/dt|^2 for K = L."""
    cl = traj.system
    mix = np.kron(cl.K, np.eye(cl.io_dim))
    return np.sum((traj.ycdot @ mix) * traj.ycdot, axis=1)


def osni_like_network_residuals(traj: Trajectory, Y, delta: float) -> np.ndarray:
    """d/dt [(1/2) xc^T (K (x) Y^-1) xc] - U2^T dY2/dt
    + delta ycdot^T (K (x) I) ycdot along the whole controller bank."""
    if delta <= 0:
        raise ValueError("strictness level delta must be positive")
    cl = traj.system
    xc, dxc = cl.split(traj.states)[1], cl.split(traj.dstate)[1]
    _, P = cl.storage_matrices(Y)
    storage_rate = np.sum((xc @ P) * dxc, axis=1)
    supply = np.sum(traj.y1 * traj.y2dot, axis=1)
    return storage_rate - (supply - delta * _strictness_form(traj))


def check_osni_like_network(traj: Trajectory, Y, delta: float,
                            tol: float = DEFAULT_TOL) -> CheckReport:
    """Output strictness of the controller bank with storage
    (1/2) xc^T (K (x) Y^-1) xc.

    For K = L this is the edge-wise inequality
        d/dt [ (1/2) sum_ij a_ij V2(xc_i - xc_j) ]
             <= U2^T dY2/dt - (delta/2) sum_ij a_ij |d(yc_i - yc_j)/dt|^2;
    for a pair (K = [[1]]) it is the OSNI inequality of the one controller.
    """
    residuals = osni_like_network_residuals(traj, Y, delta)
    return _report("osni_like_network", np.maximum(residuals, 0.0), traj.times, tol)


def check_pair_identities(traj: Trajectory, tol: float = 1e-12) -> CheckReport:
    """Algebraic identities of a two-node controller bank.

    With inputs (u_1, u_2) and mixed outputs (yc_1 - yc_2, yc_2 - yc_1):
        U2 . dY2/dt = (u_1 - u_2) . d(yc_1 - yc_2)/dt
        |dY2/dt|^2  = 2 |d(yc_1 - yc_2)/dt|^2
    Checked against the stored trajectory columns at every sample.
    """
    cl = traj.system
    if cl.n_plants != 2:
        raise ValueError("pair identities need a 2-node network trajectory")
    m = cl.io_dim
    u2 = traj.y1
    du = u2[:, :m] - u2[:, m:]
    dycdot = traj.ycdot[:, :m] - traj.ycdot[:, m:]
    lhs1 = np.sum(u2 * traj.y2dot, axis=1)
    rhs1 = np.sum(du * dycdot, axis=1)
    lhs2 = np.sum(traj.y2dot ** 2, axis=1)
    rhs2 = 2.0 * np.sum(dycdot ** 2, axis=1)
    violations = np.maximum(np.abs(lhs1 - rhs1), np.abs(lhs2 - rhs2))
    return _report("pair_identities", violations, traj.times, tol)


def check_lyapunov_monotone(traj: Trajectory, cs, delta: float,
                            tol: float = DEFAULT_TOL) -> CheckReport:
    """Decay of the composite storage W along the trajectory.

    Verifies the rate bound at every sample
        dW/dt <= -delta ycdot^T (K (x) I) ycdot
    (-delta |dy2/dt|^2 for a pair, -(delta/2) sum_ij a_ij
    |d(yc_i - yc_j)/dt|^2 for K = L) and monotonicity
    W(t_{k+1}) <= W(t_k) + tol across samples, with dW/dt from exact
    gradients.
    """
    values = cs.value(traj.states)
    rates = cs.rate(traj.states, traj)
    rate_violation = np.maximum(rates + delta * _strictness_form(traj), 0.0)
    mono_violation = np.concatenate([[0.0], np.maximum(np.diff(values), 0.0)])
    return _report("lyapunov_monotone",
                   np.maximum(rate_violation, mono_violation), traj.times, tol)


def consensus_metric(traj: Trajectory):
    """Largest plant-output disagreement per sample.

    Returns (edge_max, all_pairs_max): the max of |y_i - y_j| over the graph
    edges (the nonzero off-diagonal entries of the loop's mixing matrix) and
    over all node pairs. Needs at least two nodes.
    """
    cl = traj.system
    if cl.n_plants < 2:
        raise ValueError("needs a loop with at least two nodes")
    y1 = _by_node(traj, traj.y1)

    def max_dist(i, j):
        return np.linalg.norm(y1[:, i, :] - y1[:, j, :], axis=2).max(axis=1)

    return max_dist(*np.nonzero(np.triu(cl.K, 1))), max_dist(*np.triu_indices(cl.n_plants, 1))


@dataclass(frozen=True)
class ConsensusReport:
    """Plant-output disagreement over the graph edges at the start and the
    end of a run; ``columns`` holds the per-sample series as (name, series)."""

    initial_edge_max: float
    final_edge_max: float
    final_all_pairs_max: float
    rel_threshold: float
    abs_threshold: float
    outcome: str
    passed: bool
    columns: tuple = ()


def check_consensus(traj: Trajectory, rel: float, abs_tol: float) -> ConsensusReport:
    """Passes when the final edge disagreement is at most rel times the
    initial one and at most abs_tol. The outcome is "zero_convergence" when
    every plant state ends below 1e-3, else "consensus"."""
    edge_max, all_pairs = consensus_metric(traj)
    final_plant_norm = float(np.abs(traj.system.split(traj.states[-1])[0]).max())
    return ConsensusReport(
        initial_edge_max=float(edge_max[0]), final_edge_max=float(edge_max[-1]),
        final_all_pairs_max=float(all_pairs[-1]), rel_threshold=rel, abs_threshold=abs_tol,
        outcome="zero_convergence" if final_plant_norm < 1e-3 else "consensus",
        passed=bool(edge_max[-1] <= rel * edge_max[0] and edge_max[-1] <= abs_tol),
        columns=(("edge_max", edge_max), ("all_pairs_max", all_pairs)))


def check_steady_state_relation(bank: StateSpace, u2bar,
                                tol: float = DEFAULT_TOL) -> CheckReport:
    """Long-run output of a controller bank against its DC map.

    Simulates the bank (for instance kron_ss(L, M)) from rest under the
    constant input and compares the settled output with its DC gain applied
    to u2bar, (L (x) M(0)) u2bar for the Laplacian-mixed bank. The horizon is
    set from the slowest controller mode so the transient is below round-off.
    """
    u2bar = np.asarray(u2bar, dtype=float).reshape(-1)
    if u2bar.size != bank.io_dim:
        raise ValueError(f"constant input must have length {bank.io_dim}")
    eigs = np.linalg.eigvals(bank.A)
    decay = float(np.max(eigs.real))
    if decay >= 0:
        raise ValueError("steady-state relation needs a Hurwitz controller")
    t_end = min(60.0 / -decay, 1e4)
    step = min(0.5 / float(np.max(np.abs(eigs))), t_end / 50.0)
    drive = bank.B @ u2bar
    field_at = lambda xc: lambda out: np.add(bank.A @ xc, drive, out=out)
    cfg = IntegratorConfig(step_s=step, t_end_s=t_end, record_every=10 ** 9)
    _, states = rk4_path(field_at, np.zeros(bank.state_dim), cfg)
    settled = bank.C @ states[-1]
    violation = float(np.abs(settled - dc_gain(bank) @ u2bar).max())
    return CheckReport(name="steady_state_relation", max_violation=violation,
                       time_of_max=t_end, tolerance=tol, passed=violation <= tol)


# Skip rules of the check table: (applies(cfg, entries recorded so far), reason).
_NEEDS_Y = (lambda cfg, done: cfg.controller_Y is None, "no closed-form controller storage")
_NEEDS_NODES = (lambda cfg, done: cfg.graph is None or cfg.graph.n < 2,
                "needs at least two nodes")
_NEEDS_PAIR = (lambda cfg, done: cfg.graph is None or cfg.graph.n != 2,
               "needs a 2-node network")

#: The trajectory checks a config may name: name -> (run, skip rule, per node).
#: run(cfg, traj) takes its arguments from the ExperimentConfig cfg and returns
#: one report, or one per node when the flag is set. It looks its check up in
#: this module when it runs, so a wrapper set on the module attribute sees it.
CHECKS = {
    "ni_dissipation": (lambda cfg, traj: check_ni_dissipation(traj, cfg.plant_storage),
                       None, True),
    "osni_dissipation": (lambda cfg, traj: check_osni_dissipation(
        traj, cfg.controller_Y, cfg.delta), _NEEDS_Y, True),
    "osni_like_network": (lambda cfg, traj: check_osni_like_network(
        traj, cfg.controller_Y, cfg.delta), _NEEDS_Y, False),
    "pair_identities": (lambda cfg, traj: check_pair_identities(traj), _NEEDS_PAIR, False),
    "lyapunov_monotone": (lambda cfg, traj: check_lyapunov_monotone(
        traj, CompositeStorage(traj.system, cfg.plant_storage, cfg.controller_Y), cfg.delta),
        _NEEDS_Y, False),
    "consensus": (lambda cfg, traj: check_consensus(
        traj, cfg.consensus_rel, cfg.consensus_abs), _NEEDS_NODES, False),
}
