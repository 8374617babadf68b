"""Trajectory checks: dissipation inequalities, Lyapunov decay, consensus.

Every check follows one convention: a residual series lhs - rhs is formed at
each recorded sample from exact gradients and the state derivatives the
trajectory recorded in ``dstate``, the violation is max(0, lhs - rhs), and
the check passes when the largest violation stays below its tolerance. The
tolerance DEFAULT_TOL = 1e-6 absorbs floating-point accumulation only; there is
no differentiation noise to absorb because no sampled signal is ever
differenced.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .graph import Frozen
from .network import CompositeStorage, controller_storage, dissipation
from .plant import StorageFunction
from .sim import Trajectory

DEFAULT_TOL = 1e-6


class CheckReport(Frozen):
    def __init__(self, name: str, max_violation: float, time_of_max: float, tolerance: float,
                 passed: bool):
        self._set(name=name, max_violation=max_violation, time_of_max=time_of_max,
                  tolerance=tolerance, passed=passed)


def worst(violations, times):
    """The index along axis 0 of the worst of violations sampled at times,
    per column when violations is (T, n): the first non-finite one in time
    (an overflowed run's), else the largest."""
    bad = ~np.isfinite(violations).T
    first_bad = np.argmin(np.where(bad, times, np.inf), axis=-1)
    return np.where(bad.any(axis=-1), first_bad, np.argmax(np.asarray(violations).T, axis=-1))


def _reports(names, violations: np.ndarray, times: np.ndarray, tol: float) -> list:
    """One report per column of the (T, n) violations, named by names."""
    k = worst(violations, times)
    maxima = violations[k, np.arange(violations.shape[1])].tolist()
    return [CheckReport(name=name, max_violation=m, time_of_max=t, tolerance=tol,
                        passed=m <= tol)
            for name, m, t in zip(names, maxima, times[k].tolist())]


def ni_dissipation_residuals(traj: Trajectory, v: StorageFunction) -> np.ndarray:
    """dV/dt - u^T dy/dt of every plant node, shape (T, n) (<= 0 when NI,
    identically 0 for lossless plants)."""
    cl = traj.system
    xp, dxp = cl.split(traj.states)[0], cl.split(traj.dstate)[0]
    return dissipation(v.grad(xp), dxp, cl.nodes(traj.u1), cl.nodes(traj.y1dot))


def check_ni_dissipation(traj: Trajectory, v: StorageFunction) -> list:
    """One report per plant node, ni_dissipation_node_i."""
    residuals = ni_dissipation_residuals(traj, v)
    return _reports([f"ni_dissipation_node_{i}" for i in range(residuals.shape[1])],
                    np.maximum(residuals, 0.0), traj.times, DEFAULT_TOL)


def osni_dissipation_residuals(traj: Trajectory, Y, delta: float) -> np.ndarray:
    """dV2/dt - u^T dy/dt + delta |dy/dt|^2 of every controller node, shape
    (T, n), with V2(x) = (1/2) x^T Y^-1 x. For the lag a/(s+b) with its
    certificate Y = a/b this equals -(1/a - delta) |dy/dt|^2 identically."""
    if delta <= 0:
        raise ValueError("strictness level delta must be positive")
    cl = traj.system
    v2, ycdot = controller_storage(cl.controller, Y), cl.nodes(traj.ycdot)
    xc, dxc = cl.nodes(cl.split(traj.states)[1]), cl.nodes(cl.split(traj.dstate)[1])
    return (dissipation(v2.grad(xc), dxc, cl.nodes(traj.y1), ycdot)
            + delta * np.sum(ycdot * ycdot, axis=-1))


def check_osni_dissipation(traj: Trajectory, Y, delta: float) -> list:
    """One report per controller node, osni_dissipation_node_i."""
    residuals = osni_dissipation_residuals(traj, Y, delta)
    return _reports([f"osni_dissipation_node_{i}" for i in range(residuals.shape[1])],
                    np.maximum(residuals, 0.0), traj.times, DEFAULT_TOL)


def _strictness_form(traj: Trajectory) -> np.ndarray:
    """Per-sample ycdot^T y2dot = ycdot^T (K (x) I) ycdot (y2dot = (K (x) C)
    dxc), the output-rate term of the strictness bounds: |dy2/dt|^2 for a
    pair, (1/2) sum_ij a_ij |d(yc_i - yc_j)/dt|^2 for K = L."""
    return np.sum(traj.ycdot * traj.y2dot, axis=1)


def osni_like_network_residuals(traj: Trajectory, Y, delta: float) -> np.ndarray:
    """d/dt [(1/2) xc^T (K (x) Y^-1) xc] - U2^T dY2/dt
    + delta ycdot^T (K (x) I) ycdot: the bank's residual with U2 = y1, Y2 = y2."""
    if delta <= 0:
        raise ValueError("strictness level delta must be positive")
    cl = traj.system
    xc, dxc = cl.split(traj.states)[1], cl.split(traj.dstate)[1]
    P = cl.mixed(controller_storage(cl.controller, Y).Q)
    return dissipation(P.apply(xc), dxc, traj.y1, traj.y2dot) + delta * _strictness_form(traj)


def check_osni_like_network(traj: Trajectory, Y, delta: float) -> CheckReport:
    """Output strictness of the controller bank with storage
    (1/2) xc^T (K (x) Y^-1) xc.

    For K = L this is the edge-wise inequality
        d/dt [ (1/2) sum_ij a_ij V2(xc_i - xc_j) ]
             <= U2^T dY2/dt - (delta/2) sum_ij a_ij |d(yc_i - yc_j)/dt|^2;
    for a pair (K = [[1]]) it is the OSNI inequality of the one controller.
    """
    violations = np.maximum(osni_like_network_residuals(traj, Y, delta), 0.0)[:, None]
    return _reports(["osni_like_network"], violations, traj.times, DEFAULT_TOL)[0]


def check_pair_identities(traj: Trajectory) -> CheckReport:
    """Algebraic identities of a two-node controller bank.

    With inputs (u_1, u_2) and mixed outputs (yc_1 - yc_2, yc_2 - yc_1):
        U2 . dY2/dt = (u_1 - u_2) . d(yc_1 - yc_2)/dt
        |dY2/dt|^2  = 2 |d(yc_1 - yc_2)/dt|^2
    Checked against the stored trajectory columns at every sample, to 1e-12.
    """
    cl = traj.system
    if cl.n_plants != 2:
        raise ValueError("pair identities need a 2-node network trajectory")
    u2, ycdot = cl.nodes(traj.y1), cl.nodes(traj.ycdot)
    du, dycdot = u2[:, 0] - u2[:, 1], ycdot[:, 0] - ycdot[:, 1]
    lhs1 = np.sum(traj.y1 * traj.y2dot, axis=1)
    rhs1 = np.sum(du * dycdot, axis=1)
    lhs2 = np.sum(traj.y2dot ** 2, axis=1)
    rhs2 = 2.0 * np.sum(dycdot ** 2, axis=1)
    violations = np.maximum(np.abs(lhs1 - rhs1), np.abs(lhs2 - rhs2))
    return _reports(["pair_identities"], violations[:, None], traj.times, 1e-12)[0]


def check_lyapunov_monotone(traj: Trajectory, cs, delta: float) -> CheckReport:
    """Decay of the composite storage W along the trajectory.

    Verifies the rate bound at every sample
        dW/dt <= -delta ycdot^T (K (x) I) ycdot
    (-delta |dy2/dt|^2 for a pair, -(delta/2) sum_ij a_ij
    |d(yc_i - yc_j)/dt|^2 for K = L) and monotonicity
    W(t_{k+1}) <= W(t_k) + DEFAULT_TOL across samples, with dW/dt from exact
    gradients.
    """
    values = cs.value(traj.states)
    rates = cs.rate(traj.states, traj)
    rate_violation = np.maximum(rates + delta * _strictness_form(traj), 0.0)
    mono_violation = np.concatenate([[0.0], np.maximum(np.diff(values), 0.0)])
    violations = np.maximum(rate_violation, mono_violation)[:, None]
    return _reports(["lyapunov_monotone"], violations, traj.times, DEFAULT_TOL)[0]


def consensus_metric(traj: Trajectory):
    """Largest plant-output disagreement per sample.

    Returns (edge_max, all_pairs_max): the max of |y_i - y_j| over the graph
    edges (the off-diagonal nonzeros of the loop's K) and over all node pairs.
    For scalar outputs the farthest pair is the largest and the smallest
    output, and rounding y_i - y_j is monotone in both, so max - min is the
    all-pairs maximum exactly; otherwise it is a running maximum over one
    node's pairs at a time. Needs at least two nodes.
    """
    cl = traj.system
    if cl.n_plants < 2:
        raise ValueError("needs a loop with at least two nodes")
    y1 = cl.nodes(traj.y1)

    def max_dist(i, j):
        return np.linalg.norm(y1[:, i, :] - y1[:, j, :], axis=2).max(axis=1)

    if y1.shape[2] == 1:
        all_pairs = y1.max(axis=(1, 2)) - y1.min(axis=(1, 2))
    else:
        all_pairs = reduce(np.maximum, (max_dist([i], slice(i + 1, None))
                                        for i in range(cl.n_plants - 1)))
    i, j, _ = cl.mix
    return max_dist(i[i < j], j[i < j]), all_pairs


class ConsensusReport(Frozen):
    """Plant-output disagreement over the graph edges at the start and the
    end of a run; ``columns`` holds the per-sample series as (name, series)."""

    def __init__(self, initial_edge_max: float, final_edge_max: float,
                 final_all_pairs_max: float, rel_threshold: float, abs_threshold: float,
                 outcome: str, passed: bool, columns: tuple = ()):
        self._set(initial_edge_max=initial_edge_max, final_edge_max=final_edge_max,
                  final_all_pairs_max=final_all_pairs_max, rel_threshold=rel_threshold,
                  abs_threshold=abs_threshold, outcome=outcome, passed=passed, columns=columns)


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


# Skip rules of the check table: (applies(cfg, traj), reason), called as the run is.
_NEEDS_Y = (lambda cfg, traj: cfg.controller_Y is None, "no closed-form controller storage")
_NEEDS_NODES = (lambda cfg, traj: traj.system.n_plants < 2, "needs at least two nodes")
_NEEDS_PAIR = (lambda cfg, traj: traj.system.n_plants != 2, "needs a 2-node network")

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
