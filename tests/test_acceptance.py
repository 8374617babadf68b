"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

import niconsensus as nc
from conftest import convergence_order, edge_rate_sums, kron_ss, steady_state_relation
from niconsensus import analysis

A = B = 10.0
DELTA = 0.05
PAIR_A, PAIR_B = 20.0, 6.0


def _criterion(number, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def timed_network_traj(network_loop, network_x0):
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=20.0, record_every=10)
    start = time.perf_counter()
    traj = nc.integrate(network_loop, network_x0, cfg)
    return traj, time.perf_counter() - start


def test_criterion_1_strictness_levels():
    start = time.perf_counter()
    single = nc.osni_max_delta(nc.first_order(A, B))
    two_node = kron_ss([[1.0, -1.0], [-1.0, 1.0]], nc.first_order(A, B))
    halved = nc.osni_max_delta(two_node)
    elapsed = time.perf_counter() - start
    ok = (abs(single - 0.1) <= 1e-6 and abs(halved - 0.05) <= 2e-6
          and elapsed < 1.0)
    _criterion(1, ok, f"max strictness {single:.7f} (0.1), two-node "
                      f"{halved:.7f} (0.05), {elapsed:.2f}s")


def test_criterion_2_state_space_certificate():
    start = time.perf_counter()
    sysm = nc.StateSpace([[-10.0]], [[10.0]], [[1.0]])
    good = nc.osni_certificate_check(sysm, [[1.0]], 0.1)
    bad = nc.osni_certificate_check(sysm, [[1.0]], 0.2)
    elapsed = time.perf_counter() - start
    ok = (good.passed and abs(good.inequality_residual) <= 1e-9
          and good.b_equation_residual <= 1e-9
          and not bad.passed and abs(bad.inequality_residual - 20.0) <= 1e-9
          and elapsed < 0.1)
    _criterion(2, ok, f"residuals {good.inequality_residual:.2e} / "
                      f"{bad.inequality_residual:.6f}, {elapsed:.3f}s")


def test_criterion_3_pendulum_losslessness(timed_network_traj, pendulum):
    traj, _ = timed_network_traj
    _, v1 = pendulum
    worst = np.abs(analysis.ni_dissipation_residuals(traj, v1)).max()
    _criterion(3, worst <= 1e-9, f"max |dV1/dt - u dy/dt| = {worst:.2e}")


def test_criterion_4_controller_residual_identity(timed_network_traj):
    traj, _ = timed_network_traj
    v2, _ = nc.first_order_certificate(A, B)
    worst = 0.0
    for delta in (0.05, 0.1):
        res = analysis.osni_dissipation_residuals(traj, v2, delta)
        for node in range(4):
            ycd = traj.ycdot[:, node]
            # res = dV2/dt - u dy/dt + delta dy^2 must equal -(1/a - delta) dy^2
            worst = max(worst, np.abs(res[:, node] + (1.0 / A - delta) * ycd ** 2).max())
    _criterion(4, worst <= 1e-9, f"identity gap {worst:.2e} over delta in "
                                 "{0.05, 0.1}")


def test_criterion_5_network_lyapunov_bound(timed_network_traj, pendulum):
    traj, _ = timed_network_traj
    _, v1 = pendulum
    cs = nc.CompositeStorage(traj.system, v1, nc.first_order_certificate(A, B)[0])
    rates = np.array([cs.rate(x, traj.system.evaluate(x)) for x in traj.states])
    bound = -0.5 * DELTA * edge_rate_sums(traj)
    rate_gap = float((rates - bound).max())
    values = np.array([cs.value(x) for x in traj.states])
    mono_gap = float(np.diff(values).max())
    ok = rate_gap <= 1e-6 and mono_gap <= 1e-6
    _criterion(5, ok, f"rate-bound gap {rate_gap:.2e}, largest increase "
                      f"{mono_gap:.2e}")


def test_criterion_6_output_consensus(timed_network_traj):
    traj, elapsed = timed_network_traj
    edge_max, _ = analysis.consensus_metric(traj)
    initial, final = float(edge_max[0]), float(edge_max[-1])
    ok = final <= 0.02 * initial and final <= 0.05 and elapsed < 10.0
    _criterion(6, ok, f"edge disagreement {initial:.2f} -> {final:.4f} rad "
                      f"({final / initial:.2%}), sim {elapsed:.1f}s")


def test_criterion_7_gamma_estimates(pendulum, four_node_graph):
    plant, _ = pendulum
    pair = nc.gamma_estimate(plant, nc.first_order(A, B),
                             nc.gamma_input_grid())
    small = nc.gamma_estimate(plant, nc.first_order(A, B),
                              [np.array([1e-3]), np.array([-1e-3])])
    rng = np.random.default_rng(12345)
    networked = nc.gamma_estimate(plant, nc.first_order(A, B),
                                  [rng.uniform(-25, 25, 4) for _ in range(100)],
                                  four_node_graph)
    ok = (pair.gamma_hat < 1.0
          and abs(small.gamma_hat - 0.1010) <= 1e-3
          and networked.gamma_hat < 1.0)
    _criterion(7, ok, f"pair gamma {pair.gamma_hat:.4f}, small-signal "
                      f"{small.gamma_hat:.6f}, network gamma "
                      f"{networked.gamma_hat:.4f}")


def test_criterion_8_steady_state_relation(four_node_graph):
    net = kron_ss(nc.laplacian(four_node_graph), nc.first_order(A, B))
    rng = np.random.default_rng(2024)
    random_report = steady_state_relation(net, rng.uniform(-2, 2, 4), tol=1e-6)
    ones_report = steady_state_relation(net, np.ones(4), tol=1e-9)
    ok = random_report.passed and ones_report.passed
    _criterion(8, ok, f"random input gap {random_report.max_violation:.2e}, "
                      f"consensus direction gap {ones_report.max_violation:.2e}")


def test_criterion_9_integrator_order(network_loop, network_x0):
    cfg = nc.IntegratorConfig(step_s=0.02, t_end_s=5.0)
    order = convergence_order(network_loop, network_x0, cfg)
    _criterion(9, abs(order - 4.0) <= 0.3, f"observed order {order:.3f}")


def test_criterion_10_graph_algebra(four_node_graph):
    L4 = nc.laplacian(four_node_graph)
    printed = np.array([[3, -1, -1, -1], [-1, 2, -1, 0],
                        [-1, -1, 2, 0], [-1, 0, 0, 1]], dtype=float)
    eigs = nc.laplacian_eigenvalues(four_node_graph)
    L2 = nc.laplacian(nc.Graph(2, frozenset({(0, 1)})))
    ok = (np.array_equal(L4, printed)
          and np.allclose(eigs, [0.0, 1.0, 3.0, 4.0], atol=1e-10)
          and np.array_equal(L2 @ L2, 2.0 * L2))
    _criterion(10, ok, f"four-node Laplacian exact, eigenvalues "
                       f"{np.round(eigs, 12).tolist()}")


def test_criterion_11_pair_stability(pair_traj, pendulum):
    _, v1 = pendulum
    final_norm = float(np.linalg.norm(pair_traj.states[-1]))
    cs = nc.CompositeStorage(pair_traj.system, v1,
                             nc.first_order_certificate(PAIR_A, PAIR_B)[0])
    values = np.array([cs.value(x) for x in pair_traj.states])
    mono_gap = float(np.diff(values).max())
    ok = final_norm <= 1e-2 and mono_gap <= 1e-6
    _criterion(11, ok, f"|x(20s)| = {final_norm:.2e}, largest W increase "
                       f"{mono_gap:.2e}")
