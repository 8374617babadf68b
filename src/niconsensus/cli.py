"""Experiment runner: simulate / verify / sweep over JSON configs.

Exit codes: 0 success, 2 configuration error, 3 simulation divergence,
4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, ExperimentConfig, load_config, resolve_config
from .linsys import (FreqGrid, is_hurwitz, kron_ss, ni_freq_test,
                     osni_certificate_check, osni_freq_test, osni_max_delta)
from .network import CompositeStorage
from .plant import gamma_estimate, gamma_input_grid
from .sim import SimulationDiverged, integrate
from .svgplot import write_line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4
EXIT_BY_STATUS = {"ok": EXIT_OK, "check_failed": EXIT_CHECK_FAILED,
                  "diverged": EXIT_DIVERGED}

#: Trajectory checks that need the controller storage of an OSNI certificate.
STORAGE_CHECKS = ("osni_dissipation", "osni_like_network", "lyapunov_monotone")
#: Consensus figures a run's summary carries into its row of sweep.csv.
SWEEP_FIGURES = ("initial_edge_max", "final_edge_max", "final_all_pairs_max")


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _aggregate(reports):
    worst = max(reports, key=lambda r: r.max_violation)
    return {
        "passed": all(r.passed for r in reports),
        "max_violation": worst.max_violation,
        "time_of_max": worst.time_of_max,
        "tolerance": worst.tolerance,
        "per_node": [asdict(r) for r in reports],
    }


def _run_checks(cfg: ExperimentConfig, loop, traj, summary: dict):
    """Results and extra CSV columns of the configured checks; fills `summary`."""
    results = {}
    extra_cols = []
    for name in cfg.checks:
        if name in STORAGE_CHECKS and cfg.controller_Y is None:
            results[name] = {"skipped": "no closed-form controller storage"}
        elif name == "ni_dissipation":
            reports = [analysis.check_ni_dissipation(traj, cfg.plant_storage, node=i)
                       for i in range(loop.n_plants)]
            results[name] = _aggregate(reports)
        elif name == "osni_dissipation":
            reports = [analysis.check_osni_dissipation(
                traj, cfg.controller_Y, cfg.delta, node=i)
                for i in range(loop.n_plants)]
            results[name] = _aggregate(reports)
        elif name == "osni_like_network":
            results[name] = asdict(analysis.check_osni_like_network(
                traj, cfg.controller_Y, cfg.delta))
        elif name == "pair_identities":
            if loop.n_plants != 2:
                results[name] = {"skipped": "needs a 2-node network"}
                continue
            results[name] = asdict(analysis.check_pair_identities(traj))
        elif name == "lyapunov_monotone":
            cs = CompositeStorage(loop, cfg.plant_storage, cfg.controller_Y)
            results[name] = asdict(analysis.check_lyapunov_monotone(
                traj, cs, cfg.delta))
        elif name == "consensus":
            if loop.n_plants < 2:
                results[name] = {"skipped": "needs at least two nodes"}
                continue
            edge_max, all_pairs = analysis.consensus_metric(traj)
            extra_cols = [("edge_max", edge_max), ("all_pairs_max", all_pairs)]
            final_plant_norm = float(np.abs(loop.split(traj.states[-1])[0]).max())
            entry = {
                "initial_edge_max": float(edge_max[0]),
                "final_edge_max": float(edge_max[-1]),
                "final_all_pairs_max": float(all_pairs[-1]),
                "rel_threshold": cfg.consensus_rel,
                "abs_threshold": cfg.consensus_abs,
                "outcome": ("zero_convergence" if final_plant_norm < 1e-3
                            else "consensus"),
                "passed": bool(edge_max[-1] <= cfg.consensus_rel * edge_max[0]
                               and edge_max[-1] <= cfg.consensus_abs),
            }
            results[name] = entry
            summary.update({k: entry[k] for k in SWEEP_FIGURES})
        else:
            results[name] = {"skipped": f"unknown check {name!r}"}
    return results, extra_cols


def run_simulation(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False):
    """Integrate one experiment, run its checks, write the artifacts, and
    write report.json on every path: "status" is "ok", "check_failed" or
    "diverged" (with "error"). Returns (exit_code, summary dict)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    loop = cfg.build_loop()
    summary = {"status": "ok"}
    results, artifacts = {}, {}
    try:
        traj = integrate(loop, cfg.x0, cfg.integrator)
    except SimulationDiverged as err:
        _say(quiet, f"simulation diverged: {err}")
        summary = {"status": "diverged", "error": str(err)}
    else:
        results, extra_cols = _run_checks(cfg, loop, traj, summary)
        csv_path = out_dir / "trajectory.csv"
        traj.write_csv(csv_path, extra_columns=extra_cols)
        svg_path = out_dir / "outputs.svg"
        curves = traj.y1.reshape(traj.n_samples, loop.n_plants, loop.io_dim)[:, :, 0].T
        labels = [f"node {i + 1}" for i in range(loop.n_plants)]
        write_line_plot(svg_path, traj.times, curves, labels=labels,
                        title=cfg.label, xlabel="time (s)", ylabel="output")
        artifacts = {"trajectory_csv": str(csv_path), "outputs_svg": str(svg_path)}
        summary["failed_checks"] = [name for name, entry in results.items()
                                    if entry.get("passed") is False]
        if summary["failed_checks"]:
            summary["status"] = "check_failed"

    report = {"label": cfg.label, "mode": "pair" if cfg.graph is None else "network",
              **{k: summary[k] for k in ("status", "error") if k in summary},
              "checks": results, "artifacts": artifacts, "config": cfg.raw}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    for name, entry in results.items():
        if "skipped" in entry:
            _say(quiet, f"  [skip] {name}: {entry['skipped']}")
        else:
            _say(quiet, f"  [{'pass' if entry['passed'] else 'FAIL'}] {name}")
    _say(quiet, f"artifacts in {out_dir}")
    return EXIT_BY_STATUS[summary["status"]], summary


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out or cfg.out_dir or "out")
    code, _ = run_simulation(cfg, out_dir, quiet=args.quiet)
    return code


def cmd_verify(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out or cfg.out_dir or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = FreqGrid.default()
    sysm = cfg.controller_ss
    checks = {}

    def record(name, passed, **extra):
        checks[name] = {"passed": bool(passed), **extra}

    # resolve_config has already rejected a controller that is not Hurwitz
    record("is_hurwitz", is_hurwitz(sysm))
    record("ni_freq_test", ni_freq_test(sysm, grid))
    if checks["ni_freq_test"]["passed"]:
        record("osni_freq_test", osni_freq_test(sysm, cfg.delta, grid),
               delta=cfg.delta)
        delta_max = osni_max_delta(sysm, grid)
        record("osni_max_delta", delta_max >= cfg.delta, value=delta_max)
        two_node = kron_ss([[1.0, -1.0], [-1.0, 1.0]], sysm)
        half = osni_max_delta(two_node, grid)
        record("pair_network_strictness_halving",
               abs(half - 0.5 * delta_max) <= 2e-6,
               value=half, expected=0.5 * delta_max)
    else:
        for name in ("osni_freq_test", "osni_max_delta",
                     "pair_network_strictness_halving"):
            record(name, False, skipped="controller is not NI")
    if cfg.controller_Y is not None:
        cert = osni_certificate_check(sysm, cfg.controller_Y, cfg.delta)
        record("osni_certificate", cert.passed,
               inequality_residual=cert.inequality_residual,
               b_equation_residual=cert.b_equation_residual)
    gamma_cfg = cfg.raw.get("gamma", {})
    lo = gamma_cfg.get("lo", -25.0)
    hi = gamma_cfg.get("hi", 25.0)
    count = gamma_cfg.get("count", 201)
    pair_report = gamma_estimate(cfg.plant, sysm, gamma_input_grid(lo, hi, count))
    record("gamma_pair", pair_report.gamma_hat < 1.0,
           gamma_hat=pair_report.gamma_hat,
           worst_input=pair_report.worst_input.tolist())
    if cfg.graph is not None:
        rng = np.random.default_rng(gamma_cfg.get("seed", 12345))
        nm = cfg.graph.n * cfg.plant.m
        samples = gamma_cfg.get("network_samples", 100)
        inputs = [rng.uniform(lo, hi, nm) for _ in range(samples)]
        net_report = gamma_estimate(cfg.plant, kron_ss(cfg.K, sysm), inputs)
        record("gamma_network", net_report.gamma_hat < 1.0,
               gamma_hat=net_report.gamma_hat,
               worst_input=net_report.worst_input.tolist())

    report = {"label": cfg.label, "checks": checks, "config": cfg.raw}
    (out_dir / "verify.json").write_text(json.dumps(report, indent=2) + "\n")
    failed = [name for name, entry in checks.items()
              if not entry["passed"] and "skipped" not in entry]
    for name, entry in checks.items():
        tag = "pass" if entry["passed"] else "FAIL"
        extra = {k: v for k, v in entry.items() if k != "passed"}
        _say(args.quiet, f"  [{tag}] {name}" + (f" {extra}" if extra else ""))
    if failed:
        print(f"verification failed: {failed[0]} failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _set_path(doc: dict, dotted: str, value):
    node = doc
    parts = dotted.split(".")
    for key in parts[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"sweep parameter path {dotted!r} not found in config")
        node = node[key]
    if parts[-1] not in node:
        raise ConfigError(f"sweep parameter path {dotted!r} not found in config")
    node[parts[-1]] = value


def _sweep_variant(doc: dict, param: str, value):
    doc = deepcopy(doc)
    if param == "n":
        n = int(value)
        if n < 2:
            raise ConfigError("sweep over n needs n >= 2")
        doc["mode"] = "network"
        doc["graph"] = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
        angles = np.linspace(-2.0, 2.0, n)
        doc["initial_conditions"] = {
            "plants": [[float(a), 0.0] for a in angles],
            "controllers": [[0.0] for _ in range(n)],
        }
        return doc
    if param in ("a", "b"):
        param = f"controller.first_order.{param}"
    _set_path(doc, param, value)
    return doc


def _sweep_worker(task):
    doc, out_dir = task
    try:
        cfg = resolve_config(doc)
        code, summary = run_simulation(cfg, Path(out_dir), quiet=True)
        summary["exit_code"] = code
        return summary
    except (ConfigError, ValueError) as err:
        return {"status": "error", "error": str(err), "exit_code": EXIT_CONFIG}


def cmd_sweep(args) -> int:
    values = [v for v in (args.values or "").split(",") if v.strip()]
    if not values:
        print("config error: sweep needs a non-empty --values list", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base = load_config(args.config)
        parsed = [json.loads(v) for v in values]
        tasks = []
        out_root = Path(args.out or base.out_dir or "out")
        for v in parsed:
            doc = _sweep_variant(base.raw, args.param, v)
            tasks.append((doc, str(out_root / f"run_{args.param}={v}")))
    except (ConfigError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    with ProcessPoolExecutor(max_workers=min(4, len(tasks))) as pool:
        outcomes = list(pool.map(_sweep_worker, tasks))
    out_root.mkdir(parents=True, exist_ok=True)
    table = out_root / "sweep.csv"
    with open(table, "w") as fh:
        fh.write(",".join(("param", "value", "status", *SWEEP_FIGURES, "out_dir")) + "\n")
        for v, (doc, run_dir), outcome in zip(parsed, tasks, outcomes):
            fh.write(",".join([
                args.param, json.dumps(v), outcome.get("status", "error"),
                *(str(outcome.get(k, "")) for k in SWEEP_FIGURES), run_dir,
            ]) + "\n")
    _say(args.quiet, f"sweep table written to {table}")
    bad = [o for o in outcomes if o.get("exit_code", EXIT_OK) != EXIT_OK]
    return 1 if bad else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="niconsensus",
        description="Simulate and verify output-feedback consensus experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("verify", cmd_verify),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--param", required=True,
                           help="config path to vary (e.g. a, delta, n, "
                                "integrator.step_s)")
            p.add_argument("--values", required=True,
                           help="comma-separated values")
    args = parser.parse_args(argv)
    return args.fn(args)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
