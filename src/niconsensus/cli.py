"""Experiment runner: simulate / verify / sweep over JSON configs.

`sweep` runs its first variant in this process, beside a process pool for
the others; a one-variant sweep starts no pool.

Exit codes: 0 success, 1 a `sweep` variant that did not exit 0,
2 configuration error, 3 simulation divergence, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np

from . import analysis
from .config import (ConfigError, ExperimentConfig, load_config, resolve_config, resolved,
                     strict_json)
from .graph import Graph
from .linsys import (is_hurwitz, ni_freq_test, osni_certificate_check, osni_freq_test,
                     osni_max_delta)
# perfbench's tracer wraps cli.gamma_estimate; verify's gains run through gamma_estimates
from .plant import GammaError, gamma_estimate, gamma_estimates, gamma_input_grid
from .sim import SimulationDiverged, integrate
from .svgplot import write_line_plot

EXIT_OK = 0
EXIT_SWEEP_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4
EXIT_BY_STATUS = {"ok": EXIT_OK, "check_failed": EXIT_CHECK_FAILED,
                  "diverged": EXIT_DIVERGED}

#: Figures of a run's consensus check that its row of sweep.csv carries.
SWEEP_FIGURES = ("initial_edge_max", "final_edge_max", "final_all_pairs_max")
#: Accepted gap between the two-node bank's delta* and half the controller's.
HALVING_TOL = 2e-6


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _output(path: Path, write, *args, **kwargs):
    """write(path, *args, **kwargs), as Path.mkdir or an artifact's writer: an
    OSError, as where path names a file or a directory, is a config error naming path."""
    try:
        write(path, *args, **kwargs)
    except OSError as err:
        raise ConfigError(f"cannot write output to {path}: {err.strerror or err}") from None


def finite(value):
    """value with each non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite(v) for v in value]
    return value


def _compact(value) -> str:
    """value as one line of strict JSON by json's C encoder: non-finite floats
    become null, since NaN and Infinity tokens are rejected by strict parsers.
    A finite value is encoded once and never walked in Python."""
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError:  # a non-finite float
        return json.dumps(finite(value), allow_nan=False)


def _write_json(path: Path, doc: dict):
    """Write doc as strict JSON, creating its directory: each top-level key on
    its own line, each entry of a "checks" object too, and every value compact."""
    lines = []
    for key, value in doc.items():
        if key == "checks" and isinstance(value, dict) and value:
            entries = ",".join(f"\n    {json.dumps(k)}: {_compact(v)}" for k, v in value.items())
            lines.append(f"\n  {json.dumps(key)}: {{{entries}\n  }}")
        else:
            lines.append(f"\n  {json.dumps(key)}: {_compact(value)}")
    _output(path.parent, Path.mkdir, parents=True, exist_ok=True)
    _output(path, Path.write_text, "{" + ",".join(lines) + "\n}\n")


def _aggregate(reports):
    worst = reports[analysis.worst([r.max_violation for r in reports],
                                   [r.time_of_max for r in reports])]
    return {
        "passed": all(r.passed for r in reports),
        "max_violation": worst.max_violation,
        "time_of_max": worst.time_of_max,
        "tolerance": worst.tolerance,
        "per_node": [dict(vars(r)) for r in reports],
    }


def _run_table(cfg: ExperimentConfig, traj) -> dict:
    """One entry per check cfg names, from its row (run, skip rule, per node)
    of analysis.CHECKS: {"skipped": reason} when the skip rule applies to
    (cfg, traj), else run(cfg, traj)'s report as a dict, per-node reports
    aggregated."""
    entries = {}
    for name in cfg.checks:
        run, skip, per_node = analysis.CHECKS[name]
        if skip and skip[0](cfg, traj):
            entries[name] = {"skipped": skip[1]}
        else:
            report = run(cfg, traj)
            entries[name] = _aggregate(report) if per_node else dict(vars(report))
    return entries


def _failed(checks: dict) -> list:
    """The names of the failed entries of checks."""
    return [name for name, entry in checks.items() if entry.get("passed") is False]


def _record(path: Path, doc: dict, quiet: bool):
    """Write doc to path and print one line per entry of its "checks"."""
    _write_json(path, doc)
    for name, entry in doc["checks"].items():
        if "skipped" in entry:
            _say(quiet, f"  [skip] {name}: {entry['skipped']}")
        else:
            _say(quiet, f"  [{'pass' if entry['passed'] else 'FAIL'}] {name}")


def run_simulation(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False):
    """Integrate one experiment, run its checks, write the artifacts, and
    write report.json on every path: "status" is "ok", "check_failed" or
    "diverged", with an "error" naming a divergence. Returns (exit_code,
    report), the dict written."""
    _output(out_dir, Path.mkdir, parents=True, exist_ok=True)
    loop = cfg.build_loop()
    outcome, results, artifacts = {"status": "ok"}, {}, {}
    try:
        traj = integrate(loop, cfg.x0, cfg.integrator)
    except SimulationDiverged as err:
        _say(quiet, f"simulation diverged: {err}")
        outcome = {"status": "diverged", "error": str(err)}
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed runs fail as NaN
            results = _run_table(cfg, traj)
        if _failed(results):
            outcome = {"status": "check_failed"}
        extra_cols = [col for entry in results.values() for col in entry.pop("columns", ())]
        csv_path = out_dir / "trajectory.csv"
        _output(csv_path, traj.write_csv, extra_columns=extra_cols)
        svg_path = out_dir / "outputs.svg"
        curves = loop.nodes(traj.y1)[:, :, 0].T
        labels = [f"node {i + 1}" for i in range(loop.n_plants)]
        _output(svg_path, write_line_plot, traj.times, curves, labels=labels,
                title=cfg.label, xlabel="time (s)", ylabel="output")
        artifacts = {"trajectory_csv": str(csv_path), "outputs_svg": str(svg_path)}

    report = {"label": cfg.label, "mode": cfg.raw["mode"], **outcome,
              "checks": results, "artifacts": artifacts, "config": cfg.raw}
    _record(out_dir / "report.json", report, quiet)
    _say(quiet, f"artifacts in {out_dir}")
    return EXIT_BY_STATUS[report["status"]], report


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    code, _ = run_simulation(cfg, Path(args.out or cfg.out_dir or "out"), quiet=args.quiet)
    return code


def _gains(cfg: ExperimentConfig) -> dict:
    """gamma_pair and, on a graph, gamma_network: one solve, each its own failure."""
    cases = {"gamma_pair": (gamma_input_grid(), None)}
    if cfg.graph is not None:
        cases["gamma_network"] = (np.random.default_rng(12345).uniform(
            -25.0, 25.0, (100, cfg.graph.n * cfg.plant.m)), cfg.graph)
    ests = gamma_estimates(cfg.plant, cfg.controller_ss, list(cases.values()))
    return {name: ({"passed": False, "error": str(est), "input": est.input.tolist(),
                    "node": est.node} if isinstance(est, GammaError)
                   else {"passed": bool(est.gamma_hat < 1.0), "gamma_hat": est.gamma_hat,
                         "worst_input": est.worst_input.tolist()})
            for name, est in zip(cases, ests)}


def cmd_verify(args) -> int:
    """Run the certificates in report order on the frequency grid linsys.GRID, then
    _gains; each function is a module global read at call time, so a wrapper sees it."""
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir or "out")
    ctrl = cfg.controller_ss
    # resolve_config has already rejected a controller that is not Hurwitz
    checks = {"is_hurwitz": {"passed": is_hurwitz(ctrl)},
              "ni_freq_test": {"passed": ni_freq_test(ctrl)}}
    if checks["ni_freq_test"]["passed"]:
        # P - delta R falls monotonically in delta (R >= 0), so the test at the
        # configured delta decides "delta <= delta*" on the grid; the value is
        # the grid supremum delta* itself.
        passed = osni_freq_test(ctrl, cfg.delta)
        delta_star = osni_max_delta(ctrl)
        half = osni_max_delta(ctrl, graph=Graph(2, {(0, 1)}))
        checks["osni_freq_test"] = {"passed": passed, "delta": cfg.delta}
        checks["osni_max_delta"] = {"passed": passed, "value": delta_star}
        checks["pair_network_strictness_halving"] = {
            "passed": bool(abs(half - 0.5 * delta_star) <= HALVING_TOL), "value": half,
            "expected": 0.5 * delta_star}
    else:
        checks.update({name: {"skipped": "controller is not NI"} for name in
                       ("osni_freq_test", "osni_max_delta", "pair_network_strictness_halving")})
    if cfg.controller_Y is not None:
        cert = osni_certificate_check(ctrl, cfg.controller_Y, cfg.delta)
        checks["osni_certificate"] = {"passed": bool(cert.passed),
                                      "inequality_residual": cert.inequality_residual,
                                      "b_equation_residual": cert.b_equation_residual}
    checks.update(_gains(cfg))
    failed = _failed(checks)
    _record(out_dir / "verify.json", {"label": cfg.label, "checks": checks, "config": cfg.raw},
            args.quiet)
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
    """(exit_code, report) of one sweep variant: a variant its config rejects
    gets a report.json of its own holding the error, where it can be written."""
    doc, out_dir = task
    try:
        return run_simulation(resolve_config(doc), Path(out_dir), quiet=True)
    except ValueError as err:  # a ConfigError too
        report = {"status": "error", "error": str(err), "config": doc}
        try:
            _write_json(Path(out_dir) / "report.json", report)
        except ConfigError:  # its run directory or report.json cannot be written
            pass
        return EXIT_CONFIG, report


def _run_variants(tasks) -> list:
    """The outcomes of _sweep_worker over tasks, in order: this process runs
    the first while a pool of at most 3 workers runs the rest, so at most 4
    run at once. A single variant runs here alone and starts no pool."""
    first, rest = tasks[0], tasks[1:]
    if not rest:
        return [_sweep_worker(first)]
    # imported here: the pool's multiprocessing stack would load with every command
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(3, len(rest))) as pool:
        pending = pool.map(_sweep_worker, rest)  # submitted first, so the two overlap
        return [_sweep_worker(first), *pending]


def cmd_sweep(args) -> int:
    values = [v for v in (args.values or "").split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs a non-empty --values list")
    base = load_config(args.config)
    parsed = [resolved(f"sweep value {v}", strict_json, v) for v in values]
    names = [json.dumps(v) for v in parsed]  # a value's name in sweep.csv, run dir and stderr
    out_root = Path(args.out or base.out_dir or "out")
    run_dirs = [str(out_root / f"run_{args.param}={name}") for name in names]
    for name, run_dir in zip(names, run_dirs):
        if run_dirs.count(run_dir) > 1:  # two pool workers would write one directory
            raise ConfigError(f"sweep value {name} repeats: two runs would share {run_dir}")
    tasks = [(_sweep_variant(base, args.param, v), run_dir)
             for v, run_dir in zip(parsed, run_dirs)]
    _output(out_root, Path.mkdir, parents=True, exist_ok=True)
    outcomes = _run_variants(tasks)
    rows = [("param", "value", "status", *SWEEP_FIGURES, "out_dir")]
    for name, run_dir, (code, report) in zip(names, run_dirs, outcomes):
        if code != EXIT_OK:  # a failed variant: say why
            reason = (report["error"] if "error" in report
                      else f"{', '.join(_failed(report['checks']))} failed")
            print(f"{args.param}={name}: {reason}", file=sys.stderr)
        consensus = report.get("checks", {}).get("consensus", {})
        rows.append((args.param, name, report["status"],
                     *(str(consensus.get(k, "")) for k in SWEEP_FIGURES), run_dir))
    table = out_root / "sweep.csv"
    # the out_dir column carries each run directory's own bytes, in any locale
    _output(table, Path.write_text, "".join(",".join(row) + "\n" for row in rows),
            encoding="utf-8", errors="surrogateescape")
    _say(args.quiet, f"sweep table written to {table}")
    return EXIT_SWEEP_FAILED if any(code for code, _ in outcomes) else EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="niconsensus", allow_abbrev=False,
        description="Simulate and verify output-feedback consensus experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("verify", cmd_verify),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name, allow_abbrev=False)  # main joins only the full --values
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--param", required=True,
                           help="config path to vary (e.g. a, delta, n, "
                                "integrator.step_s)")
            p.add_argument("--values", help="comma-separated values")
    return parser


_PARSER = _parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--values" in argv[:-1]:  # else argparse reads a list like -1,0.05 as an option
        k = argv.index("--values")
        argv[k:k + 2] = ["--values=" + argv[k + 1]]
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint():
    raise SystemExit(main())
