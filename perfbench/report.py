"""Run every workload once and print its end-to-end metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 36]

Prints one line per metric and workload: name, median, unit and sample
count, plus `ops_failed_frac` (failed / attempted operations). Times are
seconds at the reference host speed of `run.SpeedProbe`. Exits 1 if a
run breaks the correctness gate or gives no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    args = parser.parse_args(argv)

    ok = True
    print(f"{'workload':<11} {'metric':<16} {'value':>12} {'unit':<6} samples")
    for workload in wl.SWEEPS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=wl.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        record = json.loads((BENCH_DIR / "results" /
                             f"{workload}-seed{args.seed}-trace0.json").read_text())
        for name, metric in result["metrics"].items():
            n = len(record["samples"].get(name, [])) or 1
            print(f"{workload:<11} {name:<16} {metric['value']:>12.6g} {metric['unit']:<6} {n}")
        frac = result["failed"] / result["attempted"]
        print(f"{workload:<11} {'ops_failed_frac':<16} {frac:>12.6g} {'ratio':<6} "
              f"{result['failed']}/{result['attempted']} ops")
        if not result["correct"]:
            ok = False
            for problem in record["problems"]:
                print(f"{workload}: gate: {problem}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
