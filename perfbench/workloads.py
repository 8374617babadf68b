"""Workloads, seeded inputs and the correctness gate of the benchmark.

Every workload is a closed loop: one client in this process issues the next
CLI command when the previous one returns. An operation is one `simulate`,
one `verify` or one sweep variant. Each operation's artifacts are read back
and judged against `reference.json`, which holds the outputs at the default
seed, and against an independent RK4 integration of the same loop written
here with array arithmetic (`oracle_final_state`).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
#: CLI exit codes behind the statuses that sweep.csv reports.
EXIT_BY_STATUS = {"ok": 0, "diverged": 3, "check_failed": 4}

#: (parameter, values) of the `sweep` that ends each round; BENCHMARK.json
#: says why each workload exists. Every workload sweeps so that sweep_s
#: exists on each. flagship4 and path64 sweep the shape-changing `n` with one
#: variant that keeps every check passing (a shorter flagship horizon would
#: fail consensus). Only pair_sweep runs two variants at once on the pool:
#: they need both cores, so they swing most with load from other tenants.
SWEEPS = {
    "flagship4": ("n", "2"),
    "path64": ("n", "32"),
    "pair_sweep": ("a", "10,20"),
}


def path64_config(seed: int) -> dict:
    """A 64-node path with initial angles uniform in [-2, 2] rad, drawn from
    `seed`; plant, controller and delta as in configs/pendulum4.json.

    Consensus is left out: the path's algebraic connectivity (0.0024) makes
    it far slower than the 2 s horizon. Denser graphs with lambda_max(L)
    above about 5 make gamma_network fail and the run blow up."""
    base = json.loads((ROOT / "configs" / "pendulum4.json").read_text())
    n = 64
    angles = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    return {
        "schema": 1,
        "label": f"64-node path, seed {seed}",
        "mode": "network",
        "graph": {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
        "plant": base["plant"],
        "controller": base["controller"],
        "delta": base["delta"],
        "initial_conditions": {"plants": [[float(a), 0.0] for a in angles],
                               "controllers": [[0.0] for _ in range(n)]},
        "integrator": {"step_s": 0.001, "t_end_s": 2.0, "record_every": 10},
        "checks": ["ni_dissipation", "osni_dissipation", "osni_like_network",
                   "lyapunov_monotone"],
    }


def config_path(workload: str, seed: int, tmp: Path) -> Path:
    """The config file the program is given; only path64 depends on the seed."""
    if workload == "flagship4":
        return ROOT / "configs" / "pendulum4.json"
    if workload == "pair_sweep":
        return ROOT / "configs" / "pendulum_pair.json"
    if workload == "path64":
        path = tmp / f"path64_seed{seed}.json"
        path.write_text(json.dumps(path64_config(seed), indent=1))
        return path
    raise ValueError(f"unknown workload {workload!r}")


def reference_applies(workload: str, seed: int, op: str) -> bool:
    """Stored values hold wherever an operation's inputs equal those at the
    default seed. Only path64's simulate reads the seeded initial angles:
    verify ignores initial conditions and the `n` sweep sets its own."""
    return op != "simulate" or workload != "path64" or seed == DEFAULT_SEED


# --- reading the artifacts back -------------------------------------------

def _checks(entries: dict) -> dict:
    return {name: bool(e["passed"]) for name, e in entries.items() if "skipped" not in e}


def simulate_outcome(exit_code: int, out_dir: Path) -> dict:
    """Exit code, check outcomes, final state and consensus of one simulate."""
    outcome = {"exit": exit_code, "checks": {}, "final_state": None}
    try:
        report = json.loads((out_dir / "report.json").read_text())
        with open(out_dir / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError):
        return outcome
    header, last = rows[0], rows[-1]
    cols = [k for k, name in enumerate(header) if name.startswith(("x_plant_", "x_ctrl_"))]
    outcome["checks"] = _checks(report["checks"])
    outcome["final_state"] = [float(last[k]) for k in cols]
    outcome["config"] = report["config"]
    outcome["max_violation"] = max((e["max_violation"] for e in report["checks"].values()
                                    if "max_violation" in e), default=0.0)
    consensus = report["checks"].get("consensus", {})
    if "final_edge_max" in consensus:
        outcome["final_edge_max"] = consensus["final_edge_max"]
    return outcome


def verify_outcome(exit_code: int, out_dir: Path) -> dict:
    """Exit code, check outcomes, delta* and gamma estimates of one verify."""
    outcome = {"exit": exit_code, "checks": {}}
    try:
        checks = json.loads((out_dir / "verify.json").read_text())["checks"]
    except (OSError, ValueError):
        return outcome
    outcome["checks"] = _checks(checks)
    if "value" in checks.get("osni_max_delta", {}):
        outcome["delta_star"] = checks["osni_max_delta"]["value"]
    outcome["gamma_hat"] = {k: checks[k]["gamma_hat"]
                            for k in ("gamma_pair", "gamma_network") if k in checks}
    return outcome


def sweep_outcomes(out_root: Path) -> dict:
    """One simulate outcome per sweep variant, keyed by `param=value`."""
    outcomes = {}
    try:
        with open(out_root / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return outcomes
    for row in rows:
        code = EXIT_BY_STATUS.get(row["status"], 2)
        outcomes[f"{row['param']}={row['value']}"] = simulate_outcome(code, Path(row["out_dir"]))
    return outcomes


# --- the gate ----------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def max_abs(a, b) -> float:
    """Largest absolute difference; inf when a value is missing or not finite."""
    if a is None or b is None:
        return float("inf")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return float("inf")
    return float(np.max(np.abs(a - b), initial=0.0))


def judge(outcome: dict, ref: dict, tol: dict, with_values: bool, oracle=None):
    """(correct, failed, reasons) for one operation.

    Correct: every check the reference ran still runs, no check fails that
    passed in the reference, the exit code is 0 or, if checks fail, the
    reference's; where `with_values`, every stored value lies within its
    stated max-abs tolerance; and the final state lies within that tolerance
    of the oracle. A reference failure that now passes stays correct, so a
    fix of a known defect does not break the gate.

    Failed: not correct, or a nonzero exit, or any failing check.
    """
    reasons = []
    failing = {c for c, ok in outcome["checks"].items() if not ok}
    ref_failing = {c for c, ok in ref["checks"].items() if not ok}
    missing = set(ref["checks"]) - set(outcome["checks"])
    if missing:
        reasons.append(f"checks not run: {sorted(missing)}")
    if failing - ref_failing:
        reasons.append(f"checks failing: {sorted(failing - ref_failing)}")
    expected_exit = ref["exit"] if failing else 0
    if outcome["exit"] != expected_exit:
        reasons.append(f"exit {outcome['exit']}, expected {expected_exit}")
    if with_values:
        for key in ("final_state", "final_edge_max", "delta_star"):
            if key in ref and max_abs(outcome.get(key), ref[key]) > tol[key]:
                reasons.append(f"{key} off the reference by "
                               f"{max_abs(outcome.get(key), ref[key]):.3g}")
        for key, value in ref.get("gamma_hat", {}).items():
            if max_abs(outcome.get("gamma_hat", {}).get(key), value) > tol["gamma_hat"]:
                reasons.append(f"gamma_hat[{key}] off the reference")
    if oracle is not None and max_abs(outcome.get("final_state"), oracle) > tol["final_state"]:
        reasons.append("final state off the oracle by "
                       f"{max_abs(outcome.get('final_state'), oracle):.3g}")
    correct = not reasons
    failed = not correct or outcome["exit"] != 0 or bool(failing)
    return correct, failed, reasons


# --- oracle ------------------------------------------------------------------

def oracle_final_state(doc: dict) -> np.ndarray:
    """Final composite state of a pendulum / first-order-lag loop by RK4.

    Written independently of the package as one array expression over all
    nodes: theta' = omega, omega' = (-kappa theta - m g l sin theta + u)/(m l^2),
    xc' = -b xc + a theta, u = K xc with K the graph Laplacian (network mode)
    or [[1]] (pair mode). State layout as in the package: plant states node
    by node, then controller states."""
    pend = doc["plant"]["pendulum"]
    ml2 = pend["m"] * pend["l"] ** 2
    mgl = pend["m"] * pend["g"] * pend["l"]
    kap = pend["kappa"]
    fo = doc["controller"]["first_order"]
    a, b = fo["a"], fo["b"]
    ics = doc["initial_conditions"]
    if doc["mode"] == "network":
        n = doc["graph"]["n"]
        K = np.zeros((n, n))
        for i, j in doc["graph"]["edges"]:
            K[i, j] = K[j, i] = -1.0
        K[np.diag_indices(n)] = -K.sum(axis=1)
        xp = np.asarray(ics["plants"], dtype=float)
        xc = np.asarray(ics["controllers"], dtype=float)[:, 0]
    else:
        K = np.ones((1, 1))
        xp = np.asarray([ics["plant"]], dtype=float)
        xc = np.asarray(ics["controller"], dtype=float)
    x = np.concatenate([xp[:, 0], xp[:, 1], xc])
    n = xp.shape[0]

    def field(x):
        th, om, c = x[:n], x[n:2 * n], x[2 * n:]
        return np.concatenate([om, (-kap * th - mgl * np.sin(th) + K @ c) / ml2,
                               -b * c + a * th])

    integ = doc["integrator"]
    h = integ["step_s"]
    for _ in range(max(1, round(integ["t_end_s"] / h))):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return np.concatenate([np.column_stack([x[:n], x[n:2 * n]]).ravel(), x[2 * n:]])
