import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from niconsensus import gamma_estimate, kron_ss, load_config
from niconsensus.analysis import CHECKS, CheckReport
from niconsensus.cli import _aggregate, main
from niconsensus.config import DEFAULT_CHECKS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_aggregate_ranks_a_nan_violation_worst():
    finite = CheckReport("node_0", 1e-3, 0.5, 1e-6, False)
    nan = CheckReport("node_1", math.nan, 1.0, 1e-6, False)
    for reports in ([finite, nan], [nan, finite]):
        entry = _aggregate(reports)
        assert math.isnan(entry["max_violation"]) and entry["time_of_max"] == 1.0
        assert entry["passed"] is False


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
    report = gamma_estimate(cfg.plant, kron_ss(cfg.K, cfg.controller_ss), inputs)
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
    assert set(checks) == {"is_hurwitz", "ni_freq_test", "osni_freq_test", "osni_max_delta",
                           "pair_network_strictness_halving", "osni_certificate",
                           "gamma_pair"}
    assert all(checks[name]["passed"] for name in checks if name != "gamma_pair")


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
    assert set(checks) == {"is_hurwitz", "ni_freq_test", "osni_freq_test", "osni_max_delta",
                           "pair_network_strictness_halving", "gamma_pair"}
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


def test_sweep_controller_gain(tmp_path):
    cfg = write(tmp_path, short_network_doc(), "base.json")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--param", "a", "--values", "1,5,10", "--quiet"])
    assert code == 0
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
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "report.json").exists()


def test_package_imports_without_scipy():
    """scipy is a test-only dependency: importing the package and its CLI in
    a fresh interpreter must not load it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, niconsensus, niconsensus.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(PENDULUM_PAIR), "--out", str(out),
                 "--param", "delta", "--values", "0.05,-1", "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "delta=-1: $.delta: -1 is less than or equal to the minimum of 0" in err
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == ("param,value,status,initial_edge_max,final_edge_max,"
                       "final_all_pairs_max,out_dir")
    assert rows[1].startswith("delta,0.05,ok,") and rows[2].startswith("delta,-1,error,,,,")
    run_dir = Path(rows[2].rsplit(",", 1)[1])
    report = json.loads((run_dir / "report.json").read_text())
    assert report["status"] == "error" and "minimum of 0" in report["error"]
    assert report["config"]["delta"] == -1
