"""End-to-end benchmark of the niconsensus CLI, with a traced variant.

    python3 perfbench/run.py --workload flagship4 --seed 1 --seconds 36 --trace 0

Run from the root of a source tree: the package is imported from `src/`.
One client in this process runs the workload's commands (`simulate`,
`verify`, `sweep`) through `niconsensus.cli.main`, each after the previous
one returned, until the next round would end past `--seconds`. Every
operation's artifacts pass the correctness gate of `workloads.judge`.

`--trace 0` reports the end-to-end metrics: medians over the rounds of each
command's time and of `setup_s`, a fresh interpreter importing the
package, loading the config and building the loop (once per round; this
process has imported the package before, so its bytecode cache is
written); the peak RSS of this process and its children; and the share of
operations that did not fail. Times are in seconds at a reference host
speed: `SpeedProbe` measures the host's speed while each command runs and
scales its wall time by it; the wall times are kept in the run record.
No wrapper is installed.

`--trace 1` reports per-layer metrics. Each round runs one untraced
`simulate`, then `simulate` and `verify` with the public functions of
`tracing.targets` wrapped, then an untraced `sweep` whose variants are
replayed serially in-process. A `<layer>.<function>_s` of a wrapped
function is its self time: its spans minus the spans of wrapped functions
they called, so these add up to the traced command. `config.load_s` and
`network.build_loop_s` are per call; `sim.reconstruct_s` is `integrate`
minus `rk4_path`; `cli.sweep_pool_overhead_s` is `sweep` minus its slowest
variant replayed alone; `trace.overhead_s` is traced minus untraced
`simulate`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A record with the machine, versions and every sample
goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = wl.ROOT
SRC = ROOT / "src"
SETUP_CODE = ("import sys, niconsensus\n"
              "from niconsensus.config import load_config\n"
              "load_config(sys.argv[1]).build_loop()\n")
#: Speed probe kernel: the oracle's RK4 on a fixed 4-node ring, 50 steps.
#: It is the benchmark's own code, so no change to the package moves it.
KERNEL_DOC = {
    "mode": "network",
    "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    "plant": {"pendulum": {"m": 1.0, "l": 0.5, "kappa": 5.0, "g": 9.8}},
    "controller": {"first_order": {"a": 10.0, "b": 10.0}},
    "initial_conditions": {"plants": [[2.0, 0.0], [1.0, 0.0], [-2.0, 0.0], [-1.0, 0.0]],
                           "controllers": [[0.0], [0.0], [0.0], [0.0]]},
    "integrator": {"step_s": 0.001, "t_end_s": 0.05},
}
#: Seconds the kernel takes at the reference host speed.
KERNEL_REF_S = 0.003
#: Seconds between two kernels.
PROBE_INTERVAL_S = 0.05
#: Shortest stretch of time whose kernels are averaged for one command.
PROBE_WINDOW_S = 0.5


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_setup_s(cfg: Path) -> float:
    """Wall time of a fresh interpreter importing the package, loading the
    config and building the loop."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg)], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_times():
    """(total, scipy) seconds from `python -X importtime -c "import niconsensus"`.

    scipy's share sums the cumulative times of the outermost scipy.* imports,
    so nested scipy modules are not counted twice."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import niconsensus"],
                          env=child_env(), check=True, capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = sum(cum for depth, cum, name in rows if name == "niconsensus")
    scipy_us, stack = 0, []
    for depth, cum, name in reversed(rows):  # parents now precede children
        del stack[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(stack):
            scipy_us += cum
        stack.append(is_scipy)
    return total * 1e-6, scipy_us * 1e-6


def run_record(args) -> dict:
    """Machine, versions and source revision stored with every result."""
    import scipy
    from importlib.metadata import version

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    with contextlib.suppress(OSError, IndexError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.exists():
                sha = ref_file.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
                sha = next(l.split()[0] for l in packed if l.endswith(" " + ref))
        else:
            sha = head
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "jsonschema": version("jsonschema"),
            "git_sha": sha}


class Gate:
    """Counts operations and judges each one's artifacts."""

    def __init__(self, workload: str, seed: int):
        ref = wl.load_reference()
        self.tol = ref["tolerance"]
        self.ref = ref["workloads"][workload]
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.problems = []
        self._oracles = {}

    def oracle(self, doc):
        key = json.dumps(doc, sort_keys=True)
        if key not in self._oracles:
            self._oracles[key] = wl.oracle_final_state(doc)
        return self._oracles[key]

    def judge(self, label, outcome, ref, oracle=None):
        with_values = wl.reference_applies(self.workload, self.seed, label.split()[0])
        correct, failed, reasons = wl.judge(outcome, ref, self.tol, with_values, oracle)
        self.attempted += 1
        self.failed += failed
        if not correct:
            self.problems.append(f"{label}: {'; '.join(reasons)}")

    def simulate(self, code, out_dir):
        outcome = wl.simulate_outcome(code, out_dir)
        oracle = self.oracle(outcome["config"]) if "config" in outcome else None
        self.judge("simulate", outcome, self.ref["simulate"], oracle)
        return outcome

    def verify(self, code, out_dir):
        outcome = wl.verify_outcome(code, out_dir)
        self.judge("verify", outcome, self.ref["verify"])
        return outcome

    def sweep(self, out_root):
        outcomes = wl.sweep_outcomes(out_root)
        for key, ref in self.ref["sweep"].items():
            outcome = outcomes.get(key, {"exit": None, "checks": {}})
            oracle = self.oracle(outcome["config"]) if "config" in outcome else None
            self.judge(f"sweep {key}", outcome, ref, oracle)
        return outcomes


class Client:
    """Issues CLI commands for one workload and times each call."""

    def __init__(self, workload: str, cfg: Path, tmp: Path, cpus=None):
        from niconsensus import cli

        self.cli = cli
        self.cpus = cpus
        self.cfg = cfg
        self.sim_dir, self.ver_dir, self.sweep_dir = tmp / "sim", tmp / "verify", tmp / "sweep"
        self.param, self.values = wl.SWEEPS[workload]

    def call(self, argv, out_dir, main=None):
        """(exit code, seconds) of one command writing into an emptied `out_dir`,
        so that no artifact of an earlier round can pass the gate."""
        shutil.rmtree(out_dir, ignore_errors=True)
        main = main or self.cli.main
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            code = main(argv)
            return code, time.perf_counter() - t0

    def simulate(self, main=None):
        return self.call(["simulate", "--config", str(self.cfg), "--out", str(self.sim_dir),
                          "--quiet"], self.sim_dir, main)

    def verify(self, main=None):
        return self.call(["verify", "--config", str(self.cfg), "--out", str(self.ver_dir),
                          "--quiet"], self.ver_dir, main)

    def sweep(self):
        """The sweep's pool workers inherit this process's cores, so it runs
        on one core per variant, the first being the pinned one."""
        pinned = os.sched_getaffinity(0)
        variants = len(self.values.split(","))
        os.sched_setaffinity(0, set(sorted(self.cpus)[:variants]) if self.cpus else pinned)
        try:
            return self.call(["sweep", "--config", str(self.cfg), "--out",
                              str(self.sweep_dir), "--quiet", "--param", self.param,
                              "--values", self.values], self.sweep_dir)
        finally:
            os.sched_setaffinity(0, pinned)

    def replay_s(self, doc, out_dir) -> float:
        """Serial in-process time of one sweep variant, as a pool worker runs it."""
        from niconsensus.config import resolve_config

        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            self.cli.run_simulation(resolve_config(doc), out_dir, quiet=True)
        return time.perf_counter() - t0


def rounds(seconds: float):
    """Yield round numbers until the next round would end past `seconds`."""
    start = time.perf_counter()
    last = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield k
        last = time.perf_counter() - t0
        k += 1


class SpeedProbe:
    """Samples the speed of the host while commands run, on their core.

    The host slows this machine's cores by tens of percent, each on its own,
    in spells from a fraction of a second to minutes. A timer signal runs a
    fixed kernel every PROBE_INTERVAL_S in this process's main thread, in
    between the bytecodes of whatever command runs. A kernel's time is this
    thread's CPU time, which a child process on the same core (`setup_s`)
    does not inflate. A command's time is its wall time minus the kernels
    run inside it, scaled by KERNEL_REF_S over the mean kernel time around
    it: seconds at the reference speed.
    """

    def __init__(self):
        self.starts, self.durations = [], []
        self.ops = []
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would scan the package's objects too
        try:
            start, t0 = time.perf_counter(), time.thread_time()
            wl.oracle_final_state(KERNEL_DOC)
            self.durations.append(time.thread_time() - t0)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def op(self, name: str, seconds: float):
        """Record a command of `seconds` wall time that ended just now."""
        end = time.perf_counter()
        self.ops.append((name, end - seconds, end))

    def scaled(self) -> dict:
        """Reference-speed seconds of every recorded command, by name."""
        starts, durations = np.asarray(self.starts), np.asarray(self.durations)
        out = {}
        for name, t0, t1 in self.ops:
            inside = (starts >= t0) & (starts < t1)
            mid, half = 0.5 * (t0 + t1), 0.5 * max(t1 - t0, PROBE_WINDOW_S)
            near = (starts >= mid - half) & (starts < mid + half)
            own = t1 - t0 - durations[inside].sum()
            out.setdefault(name, []).append(own * KERNEL_REF_S / durations[near].mean())
        return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_untraced(client, gate, cfg, seconds):
    gate.oracle(json.loads(cfg.read_text()))
    with SpeedProbe() as probe:
        for _ in rounds(seconds):
            probe.op("setup_s", fresh_setup_s(cfg))
            code, dt = client.simulate()
            probe.op("simulate_s", dt)
            gate.simulate(code, client.sim_dir)
            code, dt = client.verify()
            probe.op("verify_s", dt)
            gate.verify(code, client.ver_dir)
            _, dt = client.sweep()
            probe.op("sweep_s", dt)
            gate.sweep(client.sweep_dir)
    samples = probe.scaled()
    metrics = {name: (statistics.median(values), "s") for name, values in samples.items()}
    metrics.update({
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_ok_frac": (1.0 - gate.failed / gate.attempted, "ratio"),
    })
    samples["wall_s"] = {name: [t1 - t0 for op, t0, t1 in probe.ops if op == name]
                         for name in samples}
    samples["probe_kernel_s"] = probe.durations
    return metrics, samples


def file_bytes(path: Path) -> int:
    return path.stat().st_size if path.is_file() else 0


def simulate_layers(sp, sim_dir) -> dict:
    """Per-layer metrics of one traced simulate."""
    rhs = sp.durations[sp.mask("network.rhs")] * 1e6
    loads = sp.count("config.load")
    builds = sp.count("network.build_loop")
    return {
        "config.load_s": sp.total("config.load") / max(loads, 1),
        "network.build_loop_s": sp.total("network.build_loop") / max(builds, 1),
        "network.rhs_calls": sp.count("network.rhs"),
        "network.rhs_s": sp.self_time("network.rhs"),
        "network.rhs_us_p50": float(np.percentile(rhs, 50)) if rhs.size else 0.0,
        "network.rhs_us_p99": float(np.percentile(rhs, 99)) if rhs.size else 0.0,
        "network.evaluate_calls": sp.count("network.evaluate"),
        "network.evaluate_s": sp.self_time("network.evaluate"),
        "sim.samples": sp.count("network.evaluate", parent="sim.integrate"),
        "sim.reconstruct_s": sp.total("sim.integrate") - sp.total("sim.rk4_path"),
        "sim.steps": sp.count("network.rhs", parent="sim.rk4_path") // 4,
        "sim.rk4_self_s": sp.self_time("sim.rk4_path"),
        "network.storage_evals": sp.count("network.storage"),
        "network.storage_s": sp.self_time("network.storage"),
        "analysis.lyapunov_monotone_s": sp.self_time("analysis.lyapunov_monotone"),
        "analysis.ni_dissipation_s": sp.self_time("analysis.ni_dissipation"),
        "analysis.osni_dissipation_s": sp.self_time("analysis.osni_dissipation"),
        "analysis.osni_like_network_s": sp.self_time("analysis.osni_like_network"),
        "analysis.consensus_s": sp.self_time("analysis.consensus"),
        "sim.write_csv_s": sp.self_time("sim.write_csv"),
        "sim.csv_bytes": file_bytes(sim_dir / "trajectory.csv"),
        "svgplot.write_s": sp.self_time("svgplot.write"),
        "svgplot.bytes": file_bytes(sim_dir / "outputs.svg"),
        "cli.simulate_self_s": sp.self_time("cli.simulate"),
        "trace.simulate_s": sp.total("cli.simulate"),
    }


def verify_layers(sp) -> dict:
    """Per-layer metrics of one traced verify."""
    return {
        "linsys.ni_freq_test_s": sp.self_time("linsys.ni_freq_test"),
        "linsys.osni_freq_test_s": sp.self_time("linsys.osni_freq_test"),
        "linsys.osni_max_delta_s": sp.self_time("linsys.osni_max_delta"),
        "linsys.osni_max_delta_calls": sp.count("linsys.osni_max_delta"),
        "linsys.freq_response_calls": sp.count("linsys.freq_response"),
        "linsys.freq_response_s": sp.self_time("linsys.freq_response"),
        "linsys.certificate_s": sp.self_time("linsys.certificate"),
        "plant.gamma_estimate_s": sp.self_time("plant.gamma_estimate"),
        "plant.equilibrium_solve_s": sp.self_time("plant.equilibrium_solve"),
        "plant.equilibrium_solves": sp.count("plant.equilibrium_solve"),
        "cli.verify_self_s": sp.self_time("cli.verify"),
    }


def run_traced(client, gate, cfg, seconds, tracer):
    total_s, scipy_s = import_times()
    doc = json.loads(cfg.read_text())
    gate.oracle(doc)
    a = doc["controller"]["first_order"]["a"]
    samples = {"untraced_simulate_s": []}
    for _ in rounds(seconds):
        code, dt = client.simulate()
        samples["untraced_simulate_s"].append(dt)
        gate.simulate(code, client.sim_dir)

        tracer.install()
        try:
            code, _ = client.simulate(tracer.wrap("cli.simulate", client.cli.main))
            sim_spans = tracer.take()
            sim_out = gate.simulate(code, client.sim_dir)
            code, _ = client.verify(tracer.wrap("cli.verify", client.cli.main))
            ver_spans = tracer.take()
        finally:
            tracer.uninstall()
        ver_out = gate.verify(code, client.ver_dir)

        _, sweep_s = client.sweep()
        variants = gate.sweep(client.sweep_dir)
        replays = [client.replay_s(v["config"], client.sweep_dir / f"replay{i}")
                   for i, v in enumerate(variants.values()) if "config" in v]

        layer = simulate_layers(sim_spans, client.sim_dir)
        layer.update(verify_layers(ver_spans))
        oracle = gate.oracle(sim_out["config"]) if "config" in sim_out else None
        layer.update({
            "cli.sweep_variants": len(variants),
            "cli.sweep_pool_overhead_s": sweep_s - max(replays, default=0.0),
            "sim.final_state_dev": wl.max_abs(sim_out["final_state"], oracle),
            "analysis.max_violation": sim_out.get("max_violation", float("inf")),
            "linsys.delta_star_err": abs(ver_out.get("delta_star", float("inf")) - 1.0 / a),
        })
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)

    metrics = {"import.total_s": (total_s, "s"), "import.scipy_s": (scipy_s, "s")}
    for name, values in samples.items():
        if name != "untraced_simulate_s":
            metrics[name] = (statistics.median(values), layer_unit(name))
    metrics["trace.overhead_s"] = (metrics["trace.simulate_s"][0]
                                   - statistics.median(samples["untraced_simulate_s"]), "s")
    return metrics, samples


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_evals", "_solves", ".samples", ".steps", "_variants")):
        return "count"
    if name.endswith("bytes"):
        return "bytes"
    if "_us_" in name:
        return "us"
    if name.endswith(("_dev", "_err", "max_violation")):
        return "abs"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SWEEPS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "niconsensus" / "__init__.py", ROOT / "configs" / "pendulum4.json",
              ROOT / "configs" / "pendulum_pair.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a niconsensus source tree, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import niconsensus
    if Path(niconsensus.__file__).resolve().parent != SRC / "niconsensus":
        print(f"imported niconsensus from {niconsensus.__file__}, not {SRC}", file=sys.stderr)
        return 2

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="tmp-") as tmp:
        tmp = Path(tmp)
        cfg = wl.config_path(args.workload, args.seed, tmp)
        # One core runs every command, a child's setup and a one-variant
        # sweep, so that SpeedProbe's kernels run where they do: the host
        # slows each core on its own.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        client = Client(args.workload, cfg, tmp, cpus)
        gate = Gate(args.workload, args.seed)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            metrics, samples = run_traced(client, gate, cfg, args.seconds, tracer)
            tracer.save(results / f"{stem}.spans.npz")
        else:
            metrics, samples = run_untraced(client, gate, cfg, args.seconds)

    result = {"correct": not gate.problems, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"run": run_record(args), "result": result, "problems": gate.problems,
              "samples": samples}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in gate.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
