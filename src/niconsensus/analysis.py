"""Trajectory checks: dissipation inequalities, Lyapunov decay, consensus.

Every check follows one convention: a residual series lhs - rhs is formed at
each recorded sample from exact gradients and the state derivatives the
trajectory recorded in ``dstate``, the violation is max(0, lhs - rhs), and
the check passes when the largest violation stays below its tolerance. The
tolerance DEFAULT_TOL = 1e-6 absorbs floating-point accumulation only; there is
no differentiation noise to absorb because no sampled signal is ever
differenced.
A check returns its report.json entry as a dict, {name, max_violation, time_of_max, tolerance,
passed}; a per-node check's holds its worst node's figures and every node's under "per_node".
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .linsys import require_level
from .network import CompositeStorage, controller_storage, dissipation
from .plant import StorageFunction
from .sim import Trajectory

DEFAULT_TOL = 1e-6


def worst(violations, times):
    """The index along axis 0 of the worst of violations sampled at times,
    per column when violations is (T, n): the first non-finite one in time
    (an overflowed run's), else the largest."""
    bad = ~np.isfinite(violations).T
    first_bad = np.argmin(np.where(bad, times, np.inf), axis=-1)
    return np.where(bad.any(axis=-1), first_bad, np.argmax(np.asarray(violations).T, axis=-1))


def _reports(names, violations: np.ndarray, times: np.ndarray, tol: float) -> list:
    """One entry per column of the (T, n) violations, named by names."""
    k = worst(violations, times)
    maxima = violations[k, np.arange(violations.shape[1])].tolist()
    return [{"name": name, "max_violation": m, "time_of_max": t, "tolerance": tol,
             "passed": m <= tol} for name, m, t in zip(names, maxima, times[k].tolist())]


def per_node(reports: list) -> dict:
    """The entry of a per-node check: the worst node's figures, every node's under "per_node"."""
    w = reports[worst([r["max_violation"] for r in reports], [r["time_of_max"] for r in reports])]
    return {"passed": all(r["passed"] for r in reports), "max_violation": w["max_violation"],
            "time_of_max": w["time_of_max"], "tolerance": w["tolerance"], "per_node": reports}


def ni_dissipation_residuals(traj: Trajectory, v: StorageFunction) -> np.ndarray:
    """dV/dt - u^T dy/dt of every plant node, shape (T, n) (<= 0 when NI,
    identically 0 for lossless plants)."""
    cl = traj.system
    xp, dxp = cl.split(traj.states)[0], cl.split(traj.dstate)[0]
    return dissipation(v.grad(xp), dxp, cl.nodes(traj.u1), cl.nodes(traj.y1dot))


def check_ni_dissipation(traj: Trajectory, v: StorageFunction) -> dict:
    """The per-node entry over the plant nodes, named ni_dissipation_node_i."""
    residuals = ni_dissipation_residuals(traj, v)
    return per_node(_reports([f"ni_dissipation_node_{i}" for i in range(residuals.shape[1])],
                             np.maximum(residuals, 0.0), traj.times, DEFAULT_TOL))


def osni_dissipation_residuals(traj: Trajectory, Y, delta: float) -> np.ndarray:
    """dV2/dt - u^T dy/dt + delta |dy/dt|^2 of every controller node, shape
    (T, n), with V2(x) = (1/2) x^T Y^-1 x. For the lag a/(s+b) with its
    certificate Y = a/b this equals -(1/a - delta) |dy/dt|^2 identically."""
    require_level(delta)
    cl = traj.system
    v2, ycdot = controller_storage(cl.controller, Y), cl.nodes(traj.ycdot)
    xc, dxc = cl.nodes(cl.split(traj.states)[1]), cl.nodes(cl.split(traj.dstate)[1])
    return (dissipation(v2.grad(xc), dxc, cl.nodes(traj.y1), ycdot)
            + delta * np.sum(ycdot * ycdot, axis=-1))


def check_osni_dissipation(traj: Trajectory, Y, delta: float) -> dict:
    """The per-node entry over the controller nodes, named osni_dissipation_node_i."""
    residuals = osni_dissipation_residuals(traj, Y, delta)
    return per_node(_reports([f"osni_dissipation_node_{i}" for i in range(residuals.shape[1])],
                             np.maximum(residuals, 0.0), traj.times, DEFAULT_TOL))


def _strictness_form(traj: Trajectory) -> np.ndarray:
    """Per-sample ycdot^T y2dot = ycdot^T (K (x) I) ycdot (y2dot = (K (x) C)
    dxc), the output-rate term of the strictness bounds: |dy2/dt|^2 for a
    pair, (1/2) sum_ij a_ij |d(yc_i - yc_j)/dt|^2 for K = L."""
    return np.sum(traj.ycdot * traj.y2dot, axis=1)


def osni_like_network_residuals(traj: Trajectory, Y, delta: float) -> np.ndarray:
    """d/dt [(1/2) xc^T (K (x) Y^-1) xc] - U2^T dY2/dt
    + delta ycdot^T (K (x) I) ycdot: the bank's residual with U2 = y1, Y2 = y2."""
    require_level(delta)
    cl = traj.system
    xc, dxc = cl.split(traj.states)[1], cl.split(traj.dstate)[1]
    P = cl.mixed(controller_storage(cl.controller, Y).Q)
    return dissipation(P.apply(xc), dxc, traj.y1, traj.y2dot) + delta * _strictness_form(traj)


def check_osni_like_network(traj: Trajectory, Y, delta: float) -> dict:
    """Output strictness of the controller bank with storage
    (1/2) xc^T (K (x) Y^-1) xc.

    For K = L this is the edge-wise inequality
        d/dt [ (1/2) sum_ij a_ij V2(xc_i - xc_j) ]
             <= U2^T dY2/dt - (delta/2) sum_ij a_ij |d(yc_i - yc_j)/dt|^2;
    for a pair (K = [[1]]) it is the OSNI inequality of the one controller.
    """
    violations = np.maximum(osni_like_network_residuals(traj, Y, delta), 0.0)[:, None]
    return _reports(["osni_like_network"], violations, traj.times, DEFAULT_TOL)[0]


def check_pair_identities(traj: Trajectory) -> dict:
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


def check_lyapunov_monotone(traj: Trajectory, cs, delta: float) -> dict:
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


def check_consensus(traj: Trajectory, rel: float, abs_tol: float) -> dict:
    """Edge disagreement at a run's start and end; passes when the final one is at most
    rel times the initial one and at most abs_tol. "outcome" is "zero_convergence" when
    every plant state ends below 1e-3, else "consensus"; "columns" holds the series."""
    edge_max, all_pairs = consensus_metric(traj)
    settled = np.abs(traj.system.split(traj.states[-1])[0]).max() < 1e-3
    return {"initial_edge_max": float(edge_max[0]), "final_edge_max": float(edge_max[-1]),
            "final_all_pairs_max": float(all_pairs[-1]), "rel_threshold": rel,
            "abs_threshold": abs_tol, "outcome": "zero_convergence" if settled else "consensus",
            "passed": bool(edge_max[-1] <= rel * edge_max[0] and edge_max[-1] <= abs_tol),
            "columns": (("edge_max", edge_max), ("all_pairs_max", all_pairs))}


_NEEDS_Y = (lambda cfg, traj: cfg.controller_Y is None, "no closed-form controller storage")
_NEEDS_NODES = (lambda cfg, traj: traj.system.n_plants < 2, "needs at least two nodes")
_NEEDS_PAIR = (lambda cfg, traj: traj.system.n_plants != 2, "needs a 2-node network")

#: The trajectory checks a config may name: name -> (run, skip), skip None or a rule
#: (applies(cfg, traj), reason). run(cfg, traj) returns the check's report.json entry,
#: looking the check up in this module when it runs, so a module-level wrapper sees it.
CHECKS = {
    "ni_dissipation": (lambda cfg, traj: check_ni_dissipation(traj, cfg.plant_storage), None),
    "osni_dissipation": (lambda cfg, traj: check_osni_dissipation(
        traj, cfg.controller_Y, cfg.delta), _NEEDS_Y),
    "osni_like_network": (lambda cfg, traj: check_osni_like_network(
        traj, cfg.controller_Y, cfg.delta), _NEEDS_Y),
    "pair_identities": (lambda cfg, traj: check_pair_identities(traj), _NEEDS_PAIR),
    "lyapunov_monotone": (lambda cfg, traj: check_lyapunov_monotone(
        traj, CompositeStorage(traj.system, cfg.plant_storage, cfg.controller_Y), cfg.delta),
        _NEEDS_Y),
    "consensus": (lambda cfg, traj: check_consensus(
        traj, cfg.consensus_rel, cfg.consensus_abs), _NEEDS_NODES),
}


@np.errstate(over="ignore", invalid="ignore")  # an overflowed run fails its checks as NaN
def run_checks(cfg, traj) -> dict:
    """The entry of each check the ExperimentConfig cfg names, by its row (run, skip) of
    CHECKS: {"skipped": reason} where skip applies to (cfg, traj), else run(cfg, traj)."""
    rows = {name: CHECKS[name] for name in cfg.checks}
    return {name: {"skipped": skip[1]} if skip and skip[0](cfg, traj) else run(cfg, traj)
            for name, (run, skip) in rows.items()}
