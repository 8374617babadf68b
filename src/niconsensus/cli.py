"""Experiment runner: simulate / verify / sweep over JSON configs.

Exit codes: 0 success, 2 configuration error, 3 simulation divergence,
4 check failure; `sweep` exits 1 when any variant does not exit 0.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .plant import GammaError, gamma_estimate, gamma_input_grid
from .sim import SimulationDiverged, integrate
from .svgplot import write_line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4
EXIT_BY_STATUS = {"ok": EXIT_OK, "check_failed": EXIT_CHECK_FAILED,
                  "diverged": EXIT_DIVERGED}

#: Consensus figures a run's summary carries into its row of sweep.csv.
SWEEP_FIGURES = ("initial_edge_max", "final_edge_max", "final_all_pairs_max")


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _write_json(path: Path, doc: dict):
    """Write doc as strict JSON, creating its directory: non-finite floats
    become null, since NaN and Infinity tokens are rejected by strict parsers."""
    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(finite(doc), indent=2, allow_nan=False) + "\n")


def _aggregate(reports):
    # a NaN violation is the worst; max() alone would rank it by list position
    worst = max(reports, key=lambda r: (math.isnan(r.max_violation), r.max_violation))
    return {
        "passed": all(r.passed for r in reports),
        "max_violation": worst.max_violation,
        "time_of_max": worst.time_of_max,
        "tolerance": worst.tolerance,
        "per_node": [asdict(r) for r in reports],
    }


def _run_checks(cfg: ExperimentConfig, loop, traj, summary: dict):
    """Results and extra CSV columns of the configured checks; fills `summary`."""
    results, extra_cols = {}, []
    for name in cfg.checks:
        run, skip, per_node = analysis.CHECKS[name]
        if skip and skip[0](cfg, loop.n_plants):
            results[name] = {"skipped": skip[1]}
            continue
        report = run(cfg, traj)
        entry = _aggregate(report) if per_node else asdict(report)
        extra_cols += entry.pop("columns", ())
        summary.update({k: entry[k] for k in SWEEP_FIGURES if k in entry})
        results[name] = entry
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
    _write_json(out_dir / "report.json", report)

    for name, entry in results.items():
        if "skipped" in entry:
            _say(quiet, f"  [skip] {name}: {entry['skipped']}")
        else:
            _say(quiet, f"  [{'pass' if entry['passed'] else 'FAIL'}] {name}")
    _say(quiet, f"artifacts in {out_dir}")
    return EXIT_BY_STATUS[summary["status"]], summary


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    code, _ = run_simulation(cfg, Path(args.out or cfg.out_dir or "out"), quiet=args.quiet)
    return code


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir or "out")
    grid = FreqGrid.default()
    sysm = cfg.controller_ss
    checks = {}

    def record(name, passed, **extra):
        checks[name] = {"passed": bool(passed), **extra}

    # resolve_config has already rejected a controller that is not Hurwitz
    record("is_hurwitz", is_hurwitz(sysm))
    record("ni_freq_test", ni_freq_test(sysm, grid))
    if checks["ni_freq_test"]["passed"]:
        admissible = osni_freq_test(sysm, cfg.delta, grid)
        record("osni_freq_test", admissible, delta=cfg.delta)
        # P - delta R falls monotonically in delta (R >= 0), so the test at the
        # configured delta decides "delta <= delta*" exactly on the grid; the
        # bisection value is only accurate to its tolerance and is reported.
        delta_max = osni_max_delta(sysm, grid)
        record("osni_max_delta", admissible, value=delta_max)
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

    def record_gamma(name, controller, inputs):
        try:
            est = gamma_estimate(cfg.plant, controller, inputs)
        except GammaError as err:
            record(name, False, error=str(err), input=err.input.tolist(), node=err.node)
        else:
            record(name, est.gamma_hat < 1.0, gamma_hat=est.gamma_hat,
                   worst_input=est.worst_input.tolist())

    gamma_cfg = cfg.raw.get("gamma", {})
    lo = gamma_cfg.get("lo", -25.0)
    hi = gamma_cfg.get("hi", 25.0)
    count = gamma_cfg.get("count", 201)
    record_gamma("gamma_pair", sysm, gamma_input_grid(lo, hi, count))
    if cfg.graph is not None:
        rng = np.random.default_rng(gamma_cfg.get("seed", 12345))
        nm = cfg.graph.n * cfg.plant.m
        samples = gamma_cfg.get("network_samples", 100)
        record_gamma("gamma_network", kron_ss(cfg.K, sysm),
                     rng.uniform(lo, hi, (samples, nm)))

    report = {"label": cfg.label, "checks": checks, "config": cfg.raw}
    _write_json(out_dir / "verify.json", report)
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
    *parents, leaf = dotted.split(".")
    node = doc
    for key in parents:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"sweep parameter path {dotted!r} not found in config")
    node[leaf] = value


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
        raise ConfigError("sweep needs a non-empty --values list")
    base = load_config(args.config)
    parsed = [json.loads(v) for v in values]
    out_root = Path(args.out or base.out_dir or "out")
    tasks = [(_sweep_variant(base.raw, args.param, v), str(out_root / f"run_{args.param}={v}"))
             for v in parsed]
    with ProcessPoolExecutor(max_workers=min(4, len(tasks))) as pool:
        outcomes = list(pool.map(_sweep_worker, tasks))
    out_root.mkdir(parents=True, exist_ok=True)
    table = out_root / "sweep.csv"
    with open(table, "w") as fh:
        fh.write(",".join(("param", "value", "status", *SWEEP_FIGURES, "out_dir")) + "\n")
        for v, (doc, run_dir), outcome in zip(parsed, tasks, outcomes):
            if outcome["status"] == "error":  # a rejected variant: say why
                print(f"{args.param}={v}: {outcome['error']}", file=sys.stderr)
                report = {"status": "error", "error": outcome["error"], "config": doc}
                _write_json(Path(run_dir) / "report.json", report)
            fh.write(",".join([
                args.param, json.dumps(v), outcome["status"],
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
    try:
        return args.fn(args)
    except (ConfigError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
