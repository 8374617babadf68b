import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import niconsensus
from conftest import ROOT, package_env, perfbench
from niconsensus import gamma_estimate, load_config
from niconsensus.analysis import CHECKS, CheckReport
from niconsensus.cli import SWEEP_FIGURES, _aggregate, main, run_simulation
from niconsensus.config import DEFAULT_CHECKS, resolve_config
from niconsensus.plant import GammaError, gamma_input_grid

CONFIG_DIR = ROOT / "configs"
PENDULUM4 = CONFIG_DIR / "pendulum4.json"
PENDULUM_PAIR = CONFIG_DIR / "pendulum_pair.json"


def load_pendulum4():
    return json.loads(PENDULUM4.read_text())


def short_network_doc(t_end=2.0):
    doc = load_pendulum4()
    doc["integrator"] = {"step_s": 1e-3, "t_end_s": t_end, "record_every": 10}
    doc["checks"] = ["ni_dissipation", "osni_dissipation", "osni_like_network",
                     "lyapunov_monotone"]
    return doc


def write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


#: Source that lists the process pool's modules loaded in sys.modules.
POOL_MODULES = ("sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
                "or m == 'concurrent.futures.process')")


def fresh_python(code: str) -> str:
    """The stripped stdout of code run by a fresh interpreter that imports
    this process's package, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_simulate_bundled_config(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(PENDULUM4), "--out", str(out),
                 "--quiet"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "outputs.svg").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["consensus"]["passed"]
    assert report["checks"]["consensus"]["outcome"] == "consensus"
    assert report["config"]["graph"]["n"] == 4  # provenance embeds the config
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.endswith("edge_max,all_pairs_max")
    svg = (out / "outputs.svg").read_text()
    assert svg.count("<polyline") == 4


def test_simulate_pair_config(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(PENDULUM_PAIR), "--out", str(out),
                 "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["lyapunov_monotone"]["passed"]


def test_simulate_missing_config_exit2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_naming_a_directory_exit2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_an_out_that_names_a_file_exit2(tmp_path, capsys, command):
    """An --out that cannot be created as a directory is a config error that
    names it (exit 2), not a traceback, for every command."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.2
    out = tmp_path / "taken"
    out.write_text("")
    argv = [command, "--config", str(write(tmp_path, doc)), "--out", str(out), "--quiet"]
    assert main(argv + (["--param", "a", "--values", "10"] if command == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output to {out}: ")
    assert out.read_text() == ""


def test_sweep_variant_whose_directory_is_a_file_is_an_error_row(tmp_path, capsys):
    """A run directory that cannot be made fails its variant alone: sweep.csv
    is written in full, with an error row for it, and the sweep exits 1."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.2
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "run_a=10").write_text("")
    code = main(["sweep", "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--param", "a", "--values", "10,20", "--quiet"])
    assert code == 1
    assert f"a=10: cannot write output to {out / 'run_a=10'}: " in capsys.readouterr().err
    _, bad, good = (out / "sweep.csv").read_text().splitlines()
    assert bad == f"a,10,error,,,,{out / 'run_a=10'}"
    assert good.startswith("a,20,ok,")
    assert (out / "run_a=10").read_text() == ""


@pytest.mark.parametrize("command, artifact", [
    ("simulate", "trajectory.csv"), ("simulate", "outputs.svg"), ("simulate", "report.json"),
    ("verify", "verify.json"), ("sweep", "sweep.csv")])
def test_an_artifact_that_names_a_directory_exit2(tmp_path, capsys, command, artifact):
    """An artifact that cannot be written, here because its path is a
    directory, is a config error that names it (exit 2), not a traceback."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.2
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    argv = [command, "--config", str(write(tmp_path, doc)), "--out", str(out), "--quiet"]
    assert main(argv + (["--param", "a", "--values", "10"] if command == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output to {out / artifact}: ")
    assert (out / artifact).is_dir()


def test_sweep_variant_whose_artifact_is_a_directory_is_an_error_row(tmp_path, capsys):
    """A variant whose trajectory.csv cannot be written fails alone: sweep.csv
    is written in full, with an error row for it, and the sweep exits 1."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.2
    out = tmp_path / "sweep"
    (out / "run_a=10" / "trajectory.csv").mkdir(parents=True)
    code = main(["sweep", "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--param", "a", "--values", "10,20", "--quiet"])
    assert code == 1
    csv_path = out / "run_a=10" / "trajectory.csv"
    assert f"a=10: cannot write output to {csv_path}: " in capsys.readouterr().err
    _, bad, good = (out / "sweep.csv").read_text().splitlines()
    assert bad == f"a,10,error,,,,{out / 'run_a=10'}"
    assert good.startswith("a,20,ok,")
    report = json.loads((out / "run_a=10" / "report.json").read_text())
    assert report["status"] == "error" and str(csv_path) in report["error"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: gamma_pair is a sampled lower bound")
def test_verify_fails_a_pair_whose_gain_sup_exceeds_one(tmp_path):
    """Defect C's first reproduction: kappa = 10, a/(s+b) = 18/(s+2) has the
    pair gain sup 9 / (10 - 0.2172336 * 4.9) = 1.00721 > 1, yet the sampled
    gamma_hat reads 0.7451 and verify exits 0."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["plant"]["pendulum"]["kappa"] = 10.0
    doc["controller"]["first_order"] = {"a": 18.0, "b": 2.0}
    argv = ["verify", "--config", str(write(tmp_path, doc)), "--out", str(tmp_path / "o")]
    assert main(argv + ["--quiet"]) == 4


def test_config_that_is_not_utf8_exit2(tmp_path, capsys):
    """JSON text is UTF-8: a UTF-16 file (it starts ff fe) is refused as a config error."""
    path = tmp_path / "cfg.json"
    path.write_bytes(PENDULUM_PAIR.read_text().encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf8_label", "escaped_label"])
def test_non_ascii_label_under_the_c_locale(tmp_path, ensure_ascii):
    """Configs are read and outputs.svg written as UTF-8 whatever the locale:
    in the C locale without UTF-8 mode, simulate and verify exit 0 on a label
    that is not ASCII, written raw or as JSON escapes, and every record is written."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["label"] = "pair, \u03b4 = 0.05"
    doc["integrator"] = {"step_s": 1e-3, "t_end_s": 0.5, "record_every": 10}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc, ensure_ascii=ensure_ascii), encoding="utf-8")
    env = package_env(LC_ALL="C", PYTHONUTF8="0")
    for cmd, record in (("simulate", "report.json"), ("verify", "verify.json")):
        proc = subprocess.run([sys.executable, "-m", "niconsensus", cmd, "--config", str(cfg),
                               "--out", str(tmp_path / cmd), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / cmd / record).read_text())["label"] == doc["label"]
    assert doc["label"] in (tmp_path / "simulate" / "outputs.svg").read_bytes().decode("utf-8")


def test_sweep_table_under_the_c_locale(tmp_path):
    """In the C locale without UTF-8 mode, an --out path that is not ASCII
    reaches the process as surrogate escapes: sweep exits 0, and the out_dir
    cell of sweep.csv holds the run directory's own (UTF-8) bytes."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.2
    out = tmp_path / "sw-\u03b4"
    proc = subprocess.run([sys.executable, "-m", "niconsensus", "sweep", "--config",
                           str(write(tmp_path, doc)), "--out", str(out), "--param", "a",
                           "--values", "10", "--quiet"],
                          env=package_env(LC_ALL="C", PYTHONUTF8="0"), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, row = (out / "sweep.csv").read_bytes().splitlines()
    assert header.endswith(b",out_dir") and row.startswith(b"a,10,ok,")
    assert row.rsplit(b",", 1)[1] == str(out / "run_a=10").encode("utf-8")


def test_simulate_disconnected_graph_exit2(tmp_path, capsys):
    doc = short_network_doc()
    doc["graph"] = {"n": 4, "edges": [[0, 1]]}
    doc["initial_conditions"]["plants"] = [[1.0, 0.0]] * 4
    assert main(["simulate", "--config", str(write(tmp_path, doc))]) == 2
    assert "connected graph" in capsys.readouterr().err


def test_simulate_zero_step_exit2(tmp_path, capsys):
    doc = short_network_doc()
    doc["integrator"]["step_s"] = 0.0
    assert main(["simulate", "--config", str(write(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "step_s" in err


def test_simulate_schema_violation_exit2(tmp_path, capsys):
    doc = short_network_doc()
    del doc["delta"]
    assert main(["simulate", "--config", str(write(tmp_path, doc))]) == 2
    assert "delta" in capsys.readouterr().err


def test_simulate_dimension_mismatch_exit2(tmp_path, capsys):
    doc = short_network_doc()
    doc["initial_conditions"]["plants"] = [[1.0, 0.0]] * 3
    assert main(["simulate", "--config", str(write(tmp_path, doc))]) == 2
    assert "initial_conditions" in capsys.readouterr().err


def test_simulate_divergence_exit3(tmp_path):
    doc = {
        "schema": 1, "mode": "pair",
        "plant": {"pendulum": {"m": 1.0, "l": 0.5, "kappa": 5.0, "g": 9.8}},
        "controller": {"first_order": {"a": 1e6, "b": 0.1}},
        "delta": 1e-7,
        "initial_conditions": {"plant": [1.0, 0.0], "controller": [0.0]},
        "integrator": {"step_s": 0.001, "t_end_s": 20.0, "record_every": 100},
        "checks": [],
    }
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["status"] == "diverged"
    assert report["error"].startswith("divergence at t=")
    assert report["checks"] == {} and report["artifacts"] == {}
    assert report["config"] == doc


def test_overflowing_run_writes_strict_json(tmp_path):
    """a = 5000, b = 1 at h = 1e-3 grows to about 1e232 without leaving the
    finite floats, so the checks overflow to NaN: report.json carries those
    as null, parses as strict JSON, and every such check fails."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"] = {"a": 5000.0, "b": 1.0}
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"])
    assert code == 4

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    for name in doc["checks"]:
        assert report["checks"][name]["passed"] is False
        assert report["checks"][name]["max_violation"] is None
    # each check names its first non-finite sample: the storage rate is +inf
    # from t = 13.09 s, before the node residuals' NaN at 13.25 s
    times = {name: report["checks"][name]["time_of_max"] for name in doc["checks"]}
    assert times == {"ni_dissipation": 13.25, "osni_dissipation": 13.09,
                     "lyapunov_monotone": 13.09}


def test_overflowing_run_fails_its_checks_without_a_warning(tmp_path, capsys):
    """The checks of the a = 5000, b = 1 pair overflow to inf and NaN inside
    numpy's errstate: under the suite's RuntimeWarning-as-error filter,
    simulate exits 4 with status check_failed and writes nothing to stderr."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"] = {"a": 5000.0, "b": 1.0}
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(write(tmp_path, doc)), "--out", str(out), "--quiet"])
    assert (code, capsys.readouterr().err) == (4, "")
    assert json.loads((out / "report.json").read_text())["status"] == "check_failed"


def test_aggregate_ranks_a_nan_violation_worst():
    finite = CheckReport("node_0", 1e-3, 0.5, 1e-6, False)
    nan = CheckReport("node_1", math.nan, 1.0, 1e-6, False)
    for reports in ([finite, nan], [nan, finite]):
        entry = _aggregate(reports)
        assert math.isnan(entry["max_violation"]) and entry["time_of_max"] == 1.0
        assert entry["passed"] is False


def test_aggregate_names_the_first_non_finite_node_in_time():
    """Over the nodes as within one report: the worst is the non-finite
    violation that comes first in time, inf or NaN alike, else the largest."""
    finite = CheckReport("node_0", 1e3, 0.1, 1e-6, False)
    late_nan = CheckReport("node_1", math.nan, 0.7, 1e-6, False)
    early_inf = CheckReport("node_2", math.inf, 0.3, 1e-6, False)
    for reports in ([finite, late_nan, early_inf], [early_inf, late_nan, finite]):
        entry = _aggregate(reports)
        assert (entry["max_violation"], entry["time_of_max"]) == (math.inf, 0.3)
    small = CheckReport("node_3", 1e-3, 0.2, 1e-6, False)
    assert _aggregate([small, finite])["time_of_max"] == 0.1


def test_simulate_failing_check_exit4(tmp_path):
    doc = short_network_doc(t_end=1.0)
    doc["delta"] = 0.2  # exceeds the controller's strictness capacity 1/a
    doc["checks"] = ["osni_dissipation"]
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 4


def test_verify_bundled_config(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--config", str(PENDULUM4), "--out", str(out),
                 "--quiet"])
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    checks = report["checks"]
    assert list(checks) == ["is_hurwitz", "ni_freq_test", "osni_freq_test", "osni_max_delta",
                            "pair_network_strictness_halving", "osni_certificate",
                            "gamma_pair", "gamma_network"]
    assert checks["osni_max_delta"]["value"] == pytest.approx(0.1, abs=1e-6)
    assert checks["pair_network_strictness_halving"]["value"] == pytest.approx(
        0.05, abs=2e-6)
    assert checks["osni_certificate"]["passed"]
    assert checks["gamma_pair"]["gamma_hat"] < 1.0
    assert checks["gamma_network"]["gamma_hat"] < 1.0


def test_verify_gamma_network_draws_one_input_per_row(tmp_path):
    """verify draws the network inputs as one (samples, n m) array: the
    stream of one draw per input, so a list of those draws gives the same
    estimate."""
    out = tmp_path / "out"
    assert main(["verify", "--config", str(PENDULUM4), "--out", str(out),
                 "--quiet"]) == 0
    entry = json.loads((out / "verify.json").read_text())["checks"]["gamma_network"]
    cfg = load_config(PENDULUM4)
    rng = np.random.default_rng(12345)
    inputs = [rng.uniform(-25.0, 25.0, 4) for _ in range(100)]
    report = gamma_estimate(cfg.plant, cfg.controller_ss, inputs, cfg.graph)
    assert entry["gamma_hat"] == report.gamma_hat
    assert entry["worst_input"] == report.worst_input.tolist()


def test_verify_bundled_pair_config(tmp_path):
    """pendulum_pair.json sets delta = 1/a, the lag's exact strictness level;
    the grid supremum is 1/a + PSD_TOL/(2a^2), just above it."""
    out = tmp_path / "out"
    assert main(["verify", "--config", str(PENDULUM_PAIR), "--out", str(out),
                 "--quiet"]) == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert all(entry["passed"] for entry in checks.values())
    assert 0.05 <= checks["osni_max_delta"]["value"] <= 0.05 + 1e-9


@pytest.mark.parametrize("a", [7.0, 10.0, 20.0])
def test_verify_strictness_verdict_is_exact_at_the_boundary(tmp_path, a):
    """The lag a/(s+b) has delta* = 1/a. The osni_max_delta verdict comes
    from the OSNI test at the configured delta, so delta = 1/a passes and
    delta = (1/a)(1 + 1e-9) fails; the reported value is the grid supremum,
    1/a + PSD_TOL/(2a^2)."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"] = {"a": a, "b": 6.0}
    for delta, admissible in ((1.0 / a, True), (1.0 / a * (1.0 + 1e-9), False)):
        doc["delta"] = delta
        out = tmp_path / str(admissible)
        code = main(["verify", "--config", str(write(tmp_path, doc)),
                     "--out", str(out), "--quiet"])
        entry = json.loads((out / "verify.json").read_text())["checks"]["osni_max_delta"]
        assert entry["passed"] is admissible
        assert 1.0 / a <= entry["value"] <= 1.0 / a + 1e-9
        assert code == (0 if admissible else 4)


def test_verify_records_a_failed_equilibrium_solve(tmp_path, capsys):
    """kappa = 1 < mgl = 4.9: the plant is NI, but Newton from rest finds no
    equilibrium for u = -24.75. gamma_pair is then a recorded failure that
    names the input and node; every other check is still written."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["plant"]["pendulum"]["kappa"] = 1.0
    out = tmp_path / "out"
    code = main(["verify", "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--quiet"])
    assert code == 4
    assert "gamma_pair failed" in capsys.readouterr().err
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["gamma_pair"] == {
        "passed": False, "error": "equilibrium solve failed for input [-24.75] (node 0)",
        "input": [-24.75], "node": 0}
    assert list(checks) == ["is_hurwitz", "ni_freq_test", "osni_freq_test", "osni_max_delta",
                            "pair_network_strictness_halving", "osni_certificate",
                            "gamma_pair"]
    assert all(checks[name]["passed"] for name in checks if name != "gamma_pair")


def test_verify_names_each_gains_own_failure_through_the_shared_solve(tmp_path):
    """Both gains' node equilibria are one batched solve. With kappa = 1 on
    the four-node network each gain still records its own first failing
    input and node, those of gamma_estimate run on that gain alone."""
    doc = load_pendulum4()
    doc["plant"]["pendulum"]["kappa"] = 1.0
    out = tmp_path / "out"
    assert main(["verify", "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--quiet"]) == 4
    checks = json.loads((out / "verify.json").read_text())["checks"]
    cfg = resolve_config(doc)
    inputs = {"gamma_pair": (gamma_input_grid(), None),
              "gamma_network": (np.random.default_rng(12345).uniform(-25.0, 25.0, (100, 4)),
                                cfg.graph)}
    for name, (U, graph) in inputs.items():
        with pytest.raises(GammaError) as info:
            gamma_estimate(cfg.plant, cfg.controller_ss, U, graph)
        assert checks[name] == {"passed": False, "error": str(info.value),
                                "input": info.value.input.tolist(),
                                "node": info.value.node}
    assert (checks["gamma_pair"]["input"], checks["gamma_pair"]["node"]) == ([-24.75], 0)
    assert checks["gamma_network"]["input"] == inputs["gamma_network"][0][0].tolist()
    assert checks["gamma_network"]["node"] == 3
    assert all(checks[name]["passed"] for name in checks if not name.startswith("gamma"))


def test_sweep_refuses_an_abbreviated_option(tmp_path, capsys):
    """argparse would read --val as --values, past main's join of --values
    with a value list that starts with '-': prefixes are refused by name,
    and --values -1,0.05 still reaches sweep as one list."""
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(PENDULUM_PAIR), "--param", "delta",
              "--val", "-1,0.05"])
    assert info.value.code == 2
    assert "unrecognized arguments: --val -1,0.05" in capsys.readouterr().err
    code = main(["sweep", "--config", str(PENDULUM_PAIR), "--out", str(tmp_path),
                 "--param", "delta", "--values", "-1,0.05", "--quiet"])
    assert code == 1  # -1 is rejected as a variant, 0.05 runs
    assert "delta=-1:" in capsys.readouterr().err


def test_misspelled_check_name_exit2(tmp_path, capsys):
    doc = short_network_doc(t_end=0.5)
    doc["checks"] = ["ni_disipation"]
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "$.checks[0]" in err and "'ni_disipation' is not one of" in err
    assert not (tmp_path / "o").exists()
    assert set(DEFAULT_CHECKS) <= set(CHECKS)


def test_repeated_check_name_exit2(tmp_path, capsys):
    """A check named twice would run twice and write its CSV columns twice."""
    doc = short_network_doc(t_end=0.5)
    doc["checks"] = ["consensus", "consensus"]
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "$.checks" in err and "non-unique" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_pair_config_with_a_graph_exit2(tmp_path, capsys, command):
    """A pair config's graph would be ignored: one pair would run as a pair."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["graph"] = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    code = main([command, "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "$.graph: network mode requires a graph and pair mode takes none" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_network_config_without_a_graph_exit2(tmp_path, capsys):
    doc = load_pendulum4()
    del doc["graph"]
    assert main(["simulate", "--config", str(write(tmp_path, doc)), "--quiet"]) == 2
    assert "$.graph: network mode requires a graph" in capsys.readouterr().err


def test_config_with_a_gamma_block_exit2(tmp_path, capsys):
    """verify's gain grid and network draws are fixed, not configured."""
    doc = load_pendulum4()
    doc["gamma"] = {"lo": -10.0, "hi": 10.0}
    code = main(["verify", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "'gamma' was unexpected" in capsys.readouterr().err


def test_verify_controller_that_is_not_ni(tmp_path, capsys):
    """M = -1/(s+1) is Hurwitz and strictly proper but not NI: ni_freq_test
    fails, the strictness certificates that presuppose NI are recorded as
    skipped, and the gain estimate still runs."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"] = {"A": [[-1.0]], "B": [[1.0]], "C": [[-1.0]]}
    out = tmp_path / "out"
    code = main(["verify", "--config", str(write(tmp_path, doc)), "--out", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert "verification failed: ni_freq_test failed" in captured.err
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert list(checks) == ["is_hurwitz", "ni_freq_test", "osni_freq_test", "osni_max_delta",
                            "pair_network_strictness_halving", "gamma_pair"]
    assert checks["ni_freq_test"] == {"passed": False}
    skipped = ("osni_freq_test", "osni_max_delta", "pair_network_strictness_halving")
    for name in skipped:
        assert checks[name] == {"skipped": "controller is not NI"}
        assert f"  [skip] {name}: controller is not NI" in captured.out.splitlines()
    assert "  [FAIL] ni_freq_test" in captured.out.splitlines()


def test_verify_inadmissible_delta_exit4(tmp_path, capsys):
    doc = load_pendulum4()
    doc["delta"] = 0.2
    code = main(["verify", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 4
    assert "osni_freq_test failed" in capsys.readouterr().err


def test_sweep_controller_gain(tmp_path, capsys):
    cfg = write(tmp_path, short_network_doc(), "base.json")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--param", "a", "--values", "1,5,10", "--quiet"])
    assert (code, capsys.readouterr().err) == (0, "")
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0].startswith("param,value,status")
    assert len(rows) == 4
    assert all(",ok," in row for row in rows[1:])
    assert (out / "run_a=1" / "trajectory.csv").exists()


def test_sweep_path_graph_sizes(tmp_path):
    cfg = write(tmp_path, short_network_doc(), "base.json")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--param", "n", "--values", "2,4,8", "--quiet"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 4


@pytest.mark.parametrize("value", ["2.5", '"abc"', "null"])
def test_sweep_node_count_that_is_not_an_integer_exit2(tmp_path, capsys, value):
    """A node count is an integer: 2.5 must not run as n = 2 under the name
    run_n=2.5, and a string or null is a config error, not a traceback."""
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(PENDULUM_PAIR), "--out", str(out),
                 "--param", "n", "--values", value, "--quiet"])
    assert code == 2
    assert f"sweep over n needs integers n >= 2, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_values_exit2(tmp_path, capsys):
    cfg = write(tmp_path, short_network_doc())
    assert main(["sweep", "--config", str(cfg), "--param", "a",
                 "--values", ""]) == 2
    assert "non-empty" in capsys.readouterr().err


def test_sweep_unknown_parameter_exit2(tmp_path, capsys):
    cfg = write(tmp_path, short_network_doc())
    assert main(["sweep", "--config", str(cfg), "--param", "nonsense.path",
                 "--values", "1"]) == 2


def test_full_statespace_controller_config(tmp_path):
    doc = short_network_doc(t_end=1.0)
    doc["controller"] = {"A": [[-10.0]], "B": [[10.0]], "C": [[1.0]],
                         "D": [[0.0]]}
    doc["checks"] = ["ni_dissipation", "osni_dissipation"]
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["ni_dissipation"]["passed"]
    # storage-based controller checks need the first-order form
    assert "skipped" in report["checks"]["osni_dissipation"]
    # verify still runs the frequency-domain battery on the raw matrices
    assert main(["verify", "--config", str(write(tmp_path, doc, "v.json")),
                 "--out", str(out), "--quiet"]) == 0


def test_statespace_controller_with_default_checks(tmp_path):
    """Without a certificate every storage-based check is skipped alike."""
    doc = short_network_doc(t_end=0.5)
    doc["controller"] = {"A": [[-10.0]], "B": [[10.0]], "C": [[1.0]]}
    del doc["checks"]
    doc["consensus"] = {"rel": 1.0, "abs": 10.0}
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    for name in ("osni_dissipation", "osni_like_network", "lyapunov_monotone"):
        assert "skipped" in checks[name]
    assert checks["ni_dissipation"]["passed"] and checks["consensus"]["passed"]


@pytest.mark.parametrize("controller,message", [
    ({"A": [[1.0]], "B": [[1.0]], "C": [[1.0]]}, "Hurwitz"),
    ({"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.5]]}, "strictly proper"),
])
@pytest.mark.parametrize("base", [PENDULUM4, PENDULUM_PAIR])
def test_inadmissible_controller_exit2(tmp_path, capsys, base, controller, message):
    doc = json.loads(base.read_text())
    doc["controller"] = controller
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_single_node_network_skips_consensus(tmp_path):
    doc = short_network_doc(t_end=0.5)
    doc["graph"] = {"n": 1, "edges": []}
    doc["initial_conditions"] = {"plants": [[1.0, 0.0]], "controllers": [[0.0]]}
    doc["checks"] = ["ni_dissipation", "consensus"]
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert "skipped" in checks["consensus"]
    assert checks["ni_dissipation"]["passed"]


def two_node_doc():
    doc = load_pendulum4()
    doc["graph"] = {"n": 2, "edges": [[0, 1]]}
    doc["initial_conditions"] = {"plants": [[1.0, 0.0], [-0.5, 0.0]],
                                 "controllers": [[0.0], [0.0]]}
    return doc


@pytest.mark.parametrize("doc, mode, skipped", [
    (lambda: json.loads(PENDULUM_PAIR.read_text()), "pair",
     {"consensus": "needs at least two nodes", "pair_identities": "needs a 2-node network"}),
    (load_pendulum4, "network", {"pair_identities": "needs a 2-node network"}),
    (two_node_doc, "network", {}),
], ids=["pair", "four_nodes", "two_nodes"])
def test_skip_rules_read_the_node_count_of_the_loop(tmp_path, doc, mode, skipped):
    """Every check named, each skip rule decides on the loop it would run
    on: the pair is one node, so it skips both node-count checks; only a
    2-node network runs pair_identities. Every other check runs and passes."""
    doc = doc()
    doc["checks"] = list(CHECKS)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == mode and report["status"] == "ok"
    assert list(report["checks"]) == list(CHECKS)
    assert {k: v["skipped"] for k, v in report["checks"].items() if "skipped" in v} == skipped
    assert all(v["passed"] for k, v in report["checks"].items() if k not in skipped)


def test_sweep_node_count_from_pair_config(tmp_path):
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.5
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--param", "n", "--values", "2,3", "--quiet"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3 and all(",ok," in row for row in rows[1:])
    report = json.loads((out / "run_n=3" / "report.json").read_text())
    assert report["mode"] == "network"


def test_sweep_node_count_with_a_two_state_controller(tmp_path):
    doc = short_network_doc(t_end=0.5)
    doc["controller"] = {"A": [[-10.0, 0.0], [0.0, -5.0]], "B": [[5.0], [2.5]],
                         "C": [[1.0, 1.0]]}
    doc["initial_conditions"]["controllers"] = [[0.0, 0.0]] * 4
    doc["checks"] = ["ni_dissipation"]
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--param", "n", "--values", "2,3", "--quiet"])
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3 and not any(",error," in row for row in rows[1:])
    assert code == 0


def test_zero_state_run_reports_zero_convergence(tmp_path):
    doc = short_network_doc(t_end=1.0)
    doc["initial_conditions"] = {"plants": [[0.0, 0.0]] * 4,
                                 "controllers": [[0.0]] * 4}
    doc["checks"] = ["consensus"]
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["consensus"]["outcome"] == "zero_convergence"


def test_module_entrypoint(tmp_path):
    doc = short_network_doc(t_end=0.5)
    doc["checks"] = []
    cfg = write(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "niconsensus", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o"), "--quiet"],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "report.json").exists()


def test_a_fresh_interpreter_imports_this_package():
    """package_env reaches the package this process imported, from src/ or
    installed: a fresh interpreter started with it imports the same file."""
    path = fresh_python("import niconsensus; print(niconsensus.__file__)")
    assert Path(path).resolve() == Path(niconsensus.__file__).resolve()


def test_package_imports_without_scipy():
    """scipy and jsonschema (with its `referencing`) are test-only
    dependencies: importing the package and its CLI in a fresh interpreter
    must load none of them."""
    assert fresh_python("import sys, niconsensus, niconsensus.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                        "('scipy', 'jsonschema', 'referencing')))") == "[]"


def test_package_imports_neither_dataclasses_nor_numpy_random():
    """Every command starts a fresh interpreter: importing the package and its
    CLI must load no dataclasses, whose generated methods compile on every
    import, and no numpy.random, which only verify's network gain draws need."""
    assert fresh_python("import sys, niconsensus, niconsensus.cli; print([m for m in "
                        "('dataclasses', 'numpy.random') if m in sys.modules])") == "[]"


def test_cli_imports_the_process_pool_only_for_sweep():
    """Only `sweep` runs a process pool: importing the CLI in a fresh
    interpreter must load neither multiprocessing nor the pool's module,
    which `simulate` and `verify` would otherwise pay for at every start."""
    assert fresh_python(f"import sys, niconsensus.cli; print({POOL_MODULES})") == "[]"


def test_svg_escapes_label_text(tmp_path):
    doc = short_network_doc(t_end=0.5)
    doc["label"] = "gain a < b & fast"
    doc["checks"] = []
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(out), "--quiet"]) == 0
    texts = [el.text for el in ET.parse(out / "outputs.svg").getroot().iter()
             if el.tag.endswith("text")]
    assert "gain a < b & fast" in texts


def test_sweep_rejected_variant_keeps_its_reason(tmp_path, capsys):
    """The rejected variant's reason reaches stderr, sweep.csv and its own
    report.json both when it runs in this process (first) and on the pool."""
    for where, values in (("pool", "0.05,-1"), ("in_process", "-1,0.05")):
        out = tmp_path / where
        code = main(["sweep", "--config", str(PENDULUM_PAIR), "--out", str(out),
                     "--param", "delta", "--values", values, "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "delta=-1: $.delta: -1 is less than or equal to the minimum of 0" in err
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == ("param,value,status,initial_edge_max,final_edge_max,"
                           "final_all_pairs_max,out_dir")
        bad = 1 + values.split(",").index("-1")
        assert rows[3 - bad].startswith("delta,0.05,ok,")
        assert rows[bad].startswith("delta,-1,error,,,,")
        run_dir = Path(rows[bad].rsplit(",", 1)[1])
        report = json.loads((run_dir / "report.json").read_text())
        assert report["status"] == "error" and "minimum of 0" in report["error"]
        assert report["config"]["delta"] == -1


def test_sweep_names_a_value_by_its_json_text(tmp_path, capsys):
    """A value's run directory and stderr line name it as sweep.csv does, by
    its JSON text: true, which is no gain, is an error row whose report.json
    is in run_a=true."""
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(PENDULUM_PAIR), "--out", str(out),
                 "--param", "a", "--values", "true,10", "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("a=true: ")
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1] == f"a,true,error,,,,{out / 'run_a=true'}"
    assert rows[2].startswith("a,10,ok,")
    report = json.loads((out / "run_a=true" / "report.json").read_text())
    assert report["status"] == "error"
    assert report["config"]["controller"]["first_order"]["a"] is True


def pair_doc(**gains):
    """pendulum_pair.json with its controller's first_order gains updated."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"]["first_order"].update(gains)
    return doc


@pytest.mark.parametrize("doc, values, statuses, err", [
    (lambda: pair_doc(a=5000.0), ["--param", "b", "--values", "1,5000"],
     ["check_failed", "diverged"],
     "b=1: ni_dissipation, osni_dissipation, lyapunov_monotone failed\n"
     "b=5000: divergence at t=0.268 in controller 1, coordinate 0\n"),
    (lambda: short_network_doc() | {"checks": ["consensus"]},
     ["--param", "a", "--values", "1"], ["check_failed"], "a=1: consensus failed\n"),
], ids=["overflow_and_divergence", "consensus"])
def test_sweep_names_why_each_failed_variant_failed(tmp_path, capsys, doc, values, statuses,
                                                    err):
    """Each variant that is not ok, on the pool or in this process, prints
    one stderr line even under --quiet: its divergence, or its failed checks
    in report order. sweep.csv holds only the statuses."""
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(write(tmp_path, doc())), "--out", str(out),
                 "--quiet", *values])
    assert (code, capsys.readouterr().err) == (1, err)
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == statuses


def sweep_modules(tmp_path, values):
    """The pool's modules that a fresh interpreter has loaded after a short
    pair sweep over a, run through main() with exit 0."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["integrator"]["t_end_s"] = 0.2
    argv = ["sweep", "--config", str(write(tmp_path, doc)), "--out",
            str(tmp_path / values.replace(",", "_")), "--param", "a", "--values", values,
            "--quiet"]
    return fresh_python(f"import sys; from niconsensus.cli import main; "
                        f"assert main({argv!r}) == 0; print({POOL_MODULES})")


def test_one_variant_sweep_runs_in_process(tmp_path):
    """A one-variant sweep runs its variant in the calling process and starts
    no pool: neither multiprocessing nor the pool's module is loaded. A
    two-variant sweep loads the pool's module, so the probe sees a pool."""
    assert sweep_modules(tmp_path, "10") == "[]"
    assert "'concurrent.futures.process'" in sweep_modules(tmp_path, "10,20")


@pytest.mark.parametrize("values", ["10,20", "5,10,20"])
def test_sweep_artifacts_are_the_bytes_of_solo_runs(tmp_path, values):
    """A sweep's first variant runs in this process and the others on the
    pool: every run directory holds the bytes of the variant run alone
    through run_simulation (paths aside), and sweep.csv has each run's
    status and figures in --values order, as the report run_simulation
    returns and writes holds them. The network base adds consensus figures
    to sweep.csv."""
    for name, doc in (("pair", json.loads(PENDULUM_PAIR.read_text())),
                      ("network", short_network_doc())):
        doc["integrator"]["t_end_s"] = 1.0
        if name == "network":
            doc["checks"] = doc["checks"] + ["consensus"]
        out, solo = tmp_path / name / "sweep", tmp_path / name / "solo"
        swept_code = main(["sweep", "--config", str(write(tmp_path, doc, f"{name}.json")),
                           "--out", str(out), "--param", "a", "--values", values, "--quiet"])
        rows = ["param,value,status,initial_edge_max,final_edge_max,final_all_pairs_max,"
                "out_dir"]
        codes = []
        for v in values.split(","):
            doc["controller"]["first_order"]["a"] = int(v)
            code, report = run_simulation(resolve_config(doc), solo / f"run_a={v}", quiet=True)
            codes.append(code)
            written = (solo / f"run_a={v}" / "report.json").read_text()
            assert json.loads(written) == json.loads(json.dumps(report))
            consensus = report["checks"].get("consensus", {})
            figures = [str(consensus.get(k, "")) for k in SWEEP_FIGURES]
            rows.append(",".join(["a", v, report["status"], *figures, str(out / f"run_a={v}")]))
            for path in sorted((solo / f"run_a={v}").iterdir()):
                swept = (out / f"run_a={v}" / path.name).read_text()
                assert swept == path.read_text().replace(str(solo), str(out)), path
        assert name == "pair" or rows[1].split(",")[3]
        assert (out / "sweep.csv").read_text() == "\n".join(rows) + "\n"
        assert swept_code == (1 if any(codes) else 0)


@pytest.mark.parametrize("command,key,token", [
    ("simulate", ("integrator", "t_end_s"), "NaN"),
    ("simulate", ("integrator", "t_end_s"), "Infinity"),
    ("verify", ("delta",), "NaN"),
    ("simulate", ("plant", "pendulum", "kappa"), "NaN"),
    ("sweep", None, "NaN"),
], ids=["t_end_s-NaN", "t_end_s-Infinity", "delta-NaN", "kappa-NaN", "sweep-values-NaN"])
def test_non_finite_json_token_exit2(tmp_path, capsys, command, key, token):
    """Python's json parses NaN and Infinity, which are not JSON: a config
    file and sweep's --values both reject them by name before anything runs."""
    doc = json.loads(PENDULUM_PAIR.read_text())
    extra = ["--param", "delta", "--values", token] if command == "sweep" else []
    if key:
        *parents, leaf = key
        node = doc
        for name in parents:
            node = node[name]
        node[leaf] = float(token)
    out = tmp_path / "o"
    code = main([command, "--config", str(write(tmp_path, doc)), "--out", str(out),
                 "--quiet", *extra])
    assert code == 2
    assert f"non-finite number {token} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


BEYOND_FLOATS = "1" + "0" * 400
BEYOND_INT_DIGITS = "1" + "0" * 4300


@pytest.mark.parametrize("command, literal", [
    pytest.param("simulate", "1e999", id="simulate"),
    pytest.param("sweep", "1e999", id="sweep"),
    pytest.param("simulate", BEYOND_FLOATS, id="simulate-int"),
    pytest.param("simulate", BEYOND_INT_DIGITS, id="simulate-int-4301-digits"),
    pytest.param("sweep", BEYOND_FLOATS, id="sweep-int"),
])
def test_overflowing_number_literal_exit2(tmp_path, capsys, command, literal):
    """json parses 1e999 as inf without calling parse_constant, and an integer
    literal as a Python int: a config file and sweep's --values both reject
    the literal by name before anything runs (simulate ended in an
    OverflowError or a digit-limit ValueError traceback, sweep ran a=inf or
    ended in the pool's OverflowError)."""
    path = PENDULUM_PAIR
    if command == "simulate":
        doc = json.loads(PENDULUM_PAIR.read_text())
        doc["integrator"]["t_end_s"] = 1234.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace("1234.5", literal))
    extra = ["--param", "a", "--values", literal] if command == "sweep" else []
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out), "--quiet", *extra])
    assert code == 2
    assert f"number {literal} overflows a float" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_repeated_value_exit2(tmp_path, capsys):
    """10 and 10 name one run directory, which two workers would write at once."""
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(write(tmp_path, short_network_doc())),
                 "--out", str(out), "--param", "a", "--values", "10,5, 10", "--quiet"])
    assert code == 2
    assert "sweep value 10 repeats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_controller_of_another_io_dimension_exit2(tmp_path, capsys, command):
    doc = json.loads(PENDULUM_PAIR.read_text())
    doc["controller"] = {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
                         "C": [[1.0, 0.0], [0.0, 1.0]]}
    code = main([command, "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert ("$.controller: input/output dimension 2 differs from the plant's 1"
            in capsys.readouterr().err)



_EYE2 = [[1.0, 0.0], [0.0, 1.0]]
#: One edit per resolve rule of pendulum4, in the order the rules run, with
#: the message of the rule it breaks.
RESOLVE_RULES = [
    ("schema", lambda d: d.pop("delta"), "$: 'delta' is a required property"),
    ("controller", lambda d: d.update(controller={"A": _EYE2, "B": _EYE2, "C": _EYE2}),
     "$.controller: the controller must be Hurwitz"),
    ("io_dimension", lambda d: d.update(controller={
        "A": [[-1.0, 0.0], [0.0, -1.0]], "B": _EYE2, "C": _EYE2}),
     "$.controller: input/output dimension 2 differs from the plant's 1"),
    ("mode", lambda d: d.update(mode="pair"),
     "$.graph: network mode requires a graph and pair mode takes none"),
    ("connectivity", lambda d: d["graph"].update(edges=[[0, 1]]),
     "$.graph: consensus requires a connected graph"),
    ("initial_conditions", lambda d: d["initial_conditions"].update(plants=[[1.0, 0.0]] * 3),
     "$.initial_conditions.plants: expected shape [4, 2], got [3, 2]"),
    ("integrator", lambda d: d["integrator"].update(t_end_s=1e-4),
     "$.integrator: t_end_s must be at least one step"),
]


def _break_from(k):
    """An edit breaking rule k and every later one: the edits run from the
    last rule back to k, so an earlier rule's edit is the one that stays."""
    return lambda doc: [edit(doc) for _, edit, _ in reversed(RESOLVE_RULES[k:])]


@pytest.mark.parametrize("base, edit, message", [
    *((PENDULUM4, _break_from(k), message) for k, (_, _, message) in enumerate(RESOLVE_RULES)),
    (PENDULUM4, lambda d: d["initial_conditions"].pop("controllers"),
     "$.initial_conditions: network mode needs 'plants' and 'controllers'"),
    (PENDULUM_PAIR, lambda d: d["initial_conditions"].update(plants=[[1.0, 2.0, 3.0]]),
     "$.initial_conditions: pair mode takes only 'plant' and 'controller', not 'plants'"),
    (PENDULUM4, lambda d: d["initial_conditions"].update(plant=[1.0, 0.0], controller=[0.0]),
     "$.initial_conditions: network mode takes only 'plants' and 'controllers', "
     "not 'controller', 'plant'"),
], ids=[*(f"{name}_and_later" for name, _, _ in RESOLVE_RULES), "network_needs_both_banks",
        "pair_with_a_plants_key", "network_with_pair_keys"])
def test_resolve_reports_the_first_broken_rule_exit2(tmp_path, capsys, base, edit, message):
    """Resolution runs its rules in order (schema, controller, I/O dimension,
    mode/graph, connectivity, initial conditions, integrator) and stops at
    the first a config breaks; a mode's initial conditions take only its own
    two keys."""
    doc = json.loads(base.read_text())
    edit(doc)
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert (code, capsys.readouterr().err) == (2, f"config error: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("base, edit, message", [
    (PENDULUM4, lambda d: d["initial_conditions"]["plants"].__setitem__(1, [0.0]),
     "$.initial_conditions.plants: rows differ in length"),
    (PENDULUM_PAIR, lambda d: d.update(controller={"A": [[-1.0, 0.0], [0.0]], "B": [[1.0], [0.0]],
                                                   "C": [[1.0, 0.0]]}),
     "$.controller.A: rows differ in length"),
], ids=["initial_conditions", "controller_matrix"])
def test_ragged_rows_exit2(tmp_path, capsys, base, edit, message):
    """Rows of unequal length are refused on their document path; numpy's
    inhomogeneous-shape ValueError ended simulate in a traceback."""
    doc = json.loads(base.read_text())
    edit(doc)
    code = main(["simulate", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert (code, capsys.readouterr().err) == (2, f"config error: {message}\n")


@pytest.mark.parametrize("base, edit, extra, message", [
    (PENDULUM4, lambda d: d["graph"]["edges"].append([0, 0]), [],
     "$.graph: self-loop at node 0"),
    (PENDULUM4, lambda d: d["graph"]["edges"].append([2, 7]), [],
     "$.graph: edge (2, 7) out of range for n=4"),
    (PENDULUM_PAIR, lambda d: d.update(controller={"A": [[-1.0, 0.0]], "B": [[1.0]],
                                                   "C": [[1.0]]}),
     [], "$.controller: A must be square"),
    (PENDULUM_PAIR, None, ["--param", "a", "--values", "10,abc"],
     "sweep value abc: Expecting value: line 1 column 1 (char 0)"),
    (PENDULUM_PAIR, None, ["--param", "a", "--values", "1e999"],
     "sweep value 1e999: number 1e999 overflows a float"),
    (None, None, [], "{path}:2:10: Expecting value"),
], ids=["self_loop", "edge_out_of_range", "controller_not_square", "sweep_value_not_json",
        "sweep_value_overflows", "config_not_json"])
def test_library_refusals_name_their_document_path_exit2(tmp_path, capsys, base, edit,
                                                         extra, message):
    """A rule the library owns (Graph's, StateSpace's, the JSON parser's)
    refuses a config on the path of what it refused: the config key, or the
    sweep value by its text."""
    path = tmp_path / "cfg.json"
    if base is None:
        path.write_text('{\n"schema":,\n}')
    else:
        doc = json.loads(base.read_text())
        if edit is not None:
            edit(doc)
        path.write_text(json.dumps(doc))
    command = "sweep" if extra else "simulate"
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet",
                 *extra])
    expected = f"config error: {message.format(path=path)}\n"
    assert (code, capsys.readouterr().err) == (2, expected)
    assert not (tmp_path / "o").exists()


def test_path64_runs_through_the_cli(tmp_path):
    """The benchmark's 64-node path is above network.EDGE_PRODUCT_MIN, unlike
    both bundled configs: simulate and verify run its sparse operator forms
    and exit 0 with numpy's RuntimeWarnings as errors."""
    cfg = write(tmp_path, perfbench("workloads").path64_config(1))
    for command in ("simulate", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command),
                     "--quiet"]) == 0


def test_an_8192_node_path_runs_in_bounded_memory(tmp_path):
    """path64's config on an 8192-node path for 0.01 s: the loop and the
    gains read the Laplacian's nonzeros, built from the edges, so simulate
    and verify, each in a fresh interpreter, exit 0 under 400 MB peak RSS
    (a dense 8192 x 8192 Laplacian alone takes 537 MB). Their records hold
    compact values: report.json is 2.39 MB and verify.json 0.56 MB, where
    indented values made them 4.36 and 1.48 MB."""
    doc, n = perfbench("workloads").path64_config(1), 8192
    doc["graph"] = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    angles = np.random.default_rng(1).uniform(-2.0, 2.0, n)
    doc["initial_conditions"] = {"plants": [[a, 0.0] for a in angles.tolist()],
                                 "controllers": [[0.0]] * n}
    doc["integrator"]["t_end_s"] = 0.01
    cfg = write(tmp_path, doc)
    # ru_maxrss counts KB on Linux and bytes on macOS
    probe = ("import resource, sys; from niconsensus.cli import main; "
             "code = main(sys.argv[1:]); kb = resource.getrusage(resource.RUSAGE_SELF)."
             "ru_maxrss // (1024 if sys.platform == 'darwin' else 1); print(kb); sys.exit(code)")
    for command in ("simulate", "verify"):
        proc = subprocess.run([sys.executable, "-c", probe, command, "--config", str(cfg),
                               "--out", str(tmp_path / command), "--quiet"],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 400 * 1024, f"{command}: {int(proc.stdout) // 1024} MB"
    assert (tmp_path / "simulate" / "report.json").stat().st_size < 3.2e6
    assert (tmp_path / "verify" / "verify.json").stat().st_size < 1.0e6
