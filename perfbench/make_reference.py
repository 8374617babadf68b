"""Write perfbench/reference.json from one round of every workload.

    python3 perfbench/make_reference.py

Run at the default seed on the commit whose outputs become the reference.
Operations that fail there (pair_sweep's verify) are stored as they are, so
the gate counts them as failed operations rather than as wrong outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

#: Stated max-abs tolerances. The state and edge metric are far above the
#: 1e-12 relative digits of the CSV; delta* allows the bisection tolerance
#: twice (1e-6 each side); gamma_hat sits two orders above the 1e-10 Newton
#: residual.
TOLERANCE = {"final_state": 1e-8, "final_edge_max": 1e-8, "delta_star": 2e-6,
             "gamma_hat": 1e-8}


def stored(outcome: dict) -> dict:
    return {k: v for k, v in outcome.items() if k not in ("config", "max_violation")}


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    from run import Client

    reference = {"default_seed": wl.DEFAULT_SEED, "tolerance": TOLERANCE, "workloads": {}}
    bench_dir = Path(__file__).resolve().parent
    for workload in wl.SWEEPS:
        with tempfile.TemporaryDirectory(dir=bench_dir, prefix="tmp-") as tmp:
            tmp = Path(tmp)
            client = Client(workload, wl.config_path(workload, wl.DEFAULT_SEED, tmp), tmp)
            code, _ = client.simulate()
            sim = wl.simulate_outcome(code, client.sim_dir)
            code, _ = client.verify()
            ver = wl.verify_outcome(code, client.ver_dir)
            client.sweep()
            sweep = wl.sweep_outcomes(client.sweep_dir)
        reference["workloads"][workload] = {
            "simulate": stored(sim), "verify": stored(ver),
            "sweep": {k: stored(v) for k, v in sweep.items()}}
        print(workload, "simulate", sim["exit"], "verify", ver["exit"],
              "sweep", [v["exit"] for v in sweep.values()], file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
