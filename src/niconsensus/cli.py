"""Experiment runner: simulate / verify / sweep over JSON configs.

Exit codes: 0 success, 1 a `sweep` variant that did not exit 0,
2 configuration error, 3 simulation divergence, 4 check failure.
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
from .linsys import (is_hurwitz, kron_ss, ni_freq_test, osni_certificate_check, osni_freq_test,
                     osni_max_delta)
from .plant import GammaError, gamma_estimate, gamma_input_grid
from .sim import SimulationDiverged, integrate
from .svgplot import write_line_plot

EXIT_OK = 0
EXIT_SWEEP_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4
EXIT_BY_STATUS = {"ok": EXIT_OK, "check_failed": EXIT_CHECK_FAILED,
                  "diverged": EXIT_DIVERGED}

#: Consensus figures a run's summary carries into its row of sweep.csv.
SWEEP_FIGURES = ("initial_edge_max", "final_edge_max", "final_all_pairs_max")
#: Accepted gap between the two-node bank's delta* and half the controller's.
HALVING_TOL = 2e-6


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


def _run_table(table: dict, names, cfg: ExperimentConfig, arg, entries: dict) -> dict:
    """Fill `entries` with one entry per named row of a check table, a row being
    (run, skip rule[, per node]): {"skipped": reason} when the skip rule applies
    to (cfg, entries so far), else run(cfg, arg)'s report as a dict, per-node
    reports aggregated. A run that returns None leaves its row out."""
    for name in names:
        run, skip, *per_node = table[name]
        if skip and skip[0](cfg, entries):
            entries[name] = {"skipped": skip[1]}
            continue
        entry = run(cfg, arg)
        if per_node:
            entry = _aggregate(entry) if per_node[0] else asdict(entry)
        if entry is not None:
            entries[name] = entry
    return entries


def _record(path: Path, doc: dict, quiet: bool) -> list:
    """Write doc to path, print one line per entry of its "checks" and return
    the names of the failed ones; a doc whose "status" is "ok" turns
    "check_failed" when one failed."""
    failed = [name for name, entry in doc["checks"].items() if entry.get("passed") is False]
    if failed and doc.get("status") == "ok":
        doc["status"] = "check_failed"
    _write_json(path, doc)
    for name, entry in doc["checks"].items():
        if "skipped" in entry:
            _say(quiet, f"  [skip] {name}: {entry['skipped']}")
        else:
            _say(quiet, f"  [{'pass' if entry['passed'] else 'FAIL'}] {name}")
    return failed


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
        results = _run_table(analysis.CHECKS, cfg.checks, cfg, traj, {})
        extra_cols = []
        for entry in results.values():
            extra_cols += entry.pop("columns", ())
            summary.update({k: entry[k] for k in SWEEP_FIGURES if k in entry})
        csv_path = out_dir / "trajectory.csv"
        traj.write_csv(csv_path, extra_columns=extra_cols)
        svg_path = out_dir / "outputs.svg"
        curves = traj.y1.reshape(traj.n_samples, loop.n_plants, loop.io_dim)[:, :, 0].T
        labels = [f"node {i + 1}" for i in range(loop.n_plants)]
        write_line_plot(svg_path, traj.times, curves, labels=labels,
                        title=cfg.label, xlabel="time (s)", ylabel="output")
        artifacts = {"trajectory_csv": str(csv_path), "outputs_svg": str(svg_path)}

    report = {"label": cfg.label, "mode": "pair" if cfg.graph is None else "network",
              **{k: summary[k] for k in ("status", "error") if k in summary},
              "checks": results, "artifacts": artifacts, "config": cfg.raw}
    _record(out_dir / "report.json", report, quiet)
    summary["status"] = report["status"]
    _say(quiet, f"artifacts in {out_dir}")
    return EXIT_BY_STATUS[summary["status"]], summary


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    code, _ = run_simulation(cfg, Path(args.out or cfg.out_dir or "out"), quiet=args.quiet)
    return code


def _gamma(cfg: ExperimentConfig, controller, inputs) -> dict:
    try:
        est = gamma_estimate(cfg.plant, controller, inputs)
    except GammaError as err:
        return {"passed": False, "error": str(err), "input": err.input.tolist(),
                "node": err.node}
    return {"passed": bool(est.gamma_hat < 1.0), "gamma_hat": est.gamma_hat,
            "worst_input": est.worst_input.tolist()}


def _certificate(cfg: ExperimentConfig) -> dict:
    cert = osni_certificate_check(cfg.controller_ss, cfg.controller_Y, cfg.delta)
    return {"passed": bool(cert.passed), "inequality_residual": cert.inequality_residual,
            "b_equation_residual": cert.b_equation_residual}


def _halving(cfg: ExperimentConfig, done: dict) -> dict:
    half = osni_max_delta(kron_ss([[1.0, -1.0], [-1.0, 1.0]], cfg.controller_ss))
    expected = 0.5 * done["osni_max_delta"]["value"]
    return {"passed": bool(abs(half - expected) <= HALVING_TOL), "value": half,
            "expected": expected}


_NOT_NI = (lambda cfg, done: not done["ni_freq_test"]["passed"], "controller is not NI")

#: verify's certificates in report order: name -> (run(cfg, entries so far),
#: skip rule), on the default frequency grid, with gains over gamma_input_grid()
#: and 100 seeded draws from [-25, 25]^(n m). A run looks its function up in
#: this module when it runs, so a wrapper set on the module attribute sees it.
CERTIFICATES = {
    # resolve_config has already rejected a controller that is not Hurwitz
    "is_hurwitz": (lambda cfg, done: {"passed": is_hurwitz(cfg.controller_ss)}, None),
    "ni_freq_test": (lambda cfg, done: {"passed": ni_freq_test(cfg.controller_ss)}, None),
    "osni_freq_test": (lambda cfg, done: {
        "passed": osni_freq_test(cfg.controller_ss, cfg.delta), "delta": cfg.delta}, _NOT_NI),
    # P - delta R falls monotonically in delta (R >= 0), so the test at the
    # configured delta decides "delta <= delta*" on the grid; the value is
    # the grid supremum delta* itself.
    "osni_max_delta": (lambda cfg, done: {"passed": done["osni_freq_test"]["passed"],
                                          "value": osni_max_delta(cfg.controller_ss)},
                       _NOT_NI),
    "pair_network_strictness_halving": (_halving, _NOT_NI),
    "osni_certificate": (lambda cfg, done: None if cfg.controller_Y is None
                         else _certificate(cfg), None),
    "gamma_pair": (lambda cfg, done: _gamma(cfg, cfg.controller_ss, gamma_input_grid()),
                   None),
    "gamma_network": (lambda cfg, done: None if cfg.graph is None else _gamma(
        cfg, kron_ss(cfg.K, cfg.controller_ss), np.random.default_rng(12345).uniform(
            -25.0, 25.0, (100, cfg.graph.n * cfg.plant.m))), None),
}


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir or "out")
    checks = {}
    _run_table(CERTIFICATES, CERTIFICATES, cfg, checks, checks)
    doc = {"label": cfg.label, "checks": checks, "config": cfg.raw}
    failed = _record(out_dir / "verify.json", doc, args.quiet)
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


def _sweep_variant(base: ExperimentConfig, param: str, value):
    doc = deepcopy(base.raw)
    if param == "n":
        n = value
        if type(n) is not int or n < 2:  # bool is an int subclass, and not a count
            raise ConfigError(f"sweep over n needs integers n >= 2, got {json.dumps(n)}")
        doc["mode"] = "network"
        doc["graph"] = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
        angles = np.linspace(-2.0, 2.0, n)
        doc["initial_conditions"] = {
            "plants": [[float(a), 0.0] for a in angles],
            "controllers": [[0.0] * base.controller_ss.state_dim for _ in range(n)],
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
    tasks = [(_sweep_variant(base, args.param, v), str(out_root / f"run_{args.param}={v}"))
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
    return EXIT_SWEEP_FAILED if bad else EXIT_OK


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
