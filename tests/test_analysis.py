import dataclasses

import numpy as np
import pytest

import niconsensus as nc
from conftest import complete_graph, edge_rate_sums
from niconsensus import analysis

A = B = 10.0
Y, _ = nc.first_order_certificate(A, B)


@pytest.fixture(scope="module")
def two_node_traj(pendulum):
    plant, _ = pendulum
    loop = nc.network_interconnect(plant, nc.first_order(A, B),
                                   nc.Graph(2, frozenset({(0, 1)})))
    x0 = np.array([1.5, 0.0, -1.0, 0.0, 0.0, 0.0])
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=6.0, record_every=10)
    return nc.integrate(loop, x0, cfg)


def test_ni_dissipation_pendulum_lossless(network_traj, pendulum):
    _, v1 = pendulum
    residuals = analysis.ni_dissipation_residuals(network_traj, v1)
    assert residuals.shape == (network_traj.n_samples, 4)
    assert np.abs(residuals).max() < 1e-9
    reports = analysis.check_ni_dissipation(network_traj, v1)
    assert [r.name for r in reports] == [f"ni_dissipation_node_{i}" for i in range(4)]
    assert all(r.passed for r in reports)


def test_node_residuals_equal_single_node_oracle(network_traj, pendulum):
    """Column i of the (T, n) residuals is node i's residual computed from
    hand-sliced columns of the trajectory and its dstate, bit for bit."""
    _, v1 = pendulum
    traj = network_traj
    ni = analysis.ni_dissipation_residuals(traj, v1)
    osni = analysis.osni_dissipation_residuals(traj, Y, 0.05)
    Yinv = np.linalg.inv(Y)
    for i in range(4):
        xs = traj.states[:, 2 * i:2 * i + 2]
        xc = traj.states[:, 8 + i:9 + i]
        u1, y1dot = traj.u1[:, i:i + 1], traj.y1dot[:, i:i + 1]
        u2, ycdot = traj.y1[:, i:i + 1], traj.ycdot[:, i:i + 1]
        dx = traj.dstate[:, 2 * i:2 * i + 2]
        oracle = np.sum(v1.grad(xs) * dx, axis=1) - np.sum(u1 * y1dot, axis=1)
        assert np.array_equal(ni[:, i], oracle)
        dxc = traj.dstate[:, 8 + i:9 + i]
        oracle = (np.sum((xc @ Yinv) * dxc, axis=1) - np.sum(u2 * ycdot, axis=1)
                  + 0.05 * np.sum(ycdot * ycdot, axis=1))
        assert np.array_equal(osni[:, i], oracle)


def test_ni_dissipation_zero_trajectory(network_loop, pendulum):
    _, v1 = pendulum
    cfg = nc.IntegratorConfig(step_s=1e-2, t_end_s=1.0)
    traj = nc.integrate(network_loop, np.zeros(12), cfg)
    report = analysis.check_ni_dissipation(traj, v1)[0]
    assert report.max_violation == 0.0 and report.passed


def test_ni_dissipation_corrupted_storage_fails(network_traj):
    params = nc.PendulumParams()
    honest = nc.pendulum_storage(params)
    doubled_kinetic = nc.StorageFunction(
        V=lambda x: honest.V(x) + 0.5 * 0.25 * x[..., 1] ** 2,
        grad=lambda x: honest.grad(x) + np.stack([0.0 * x[..., 1], 0.25 * x[..., 1]],
                                                 axis=-1))
    report = analysis.check_ni_dissipation(network_traj, doubled_kinetic, tol=1e-6)[0]
    assert not report.passed


@pytest.mark.parametrize("delta,expect_pass", [(0.05, True), (0.1, True),
                                               (0.2, False)])
def test_osni_dissipation_levels(network_traj, delta, expect_pass):
    report = analysis.check_osni_dissipation(network_traj, Y, delta)[0]
    assert report.passed == expect_pass


def test_osni_dissipation_residual_identity(network_traj):
    """Residual is exactly -(1/a - delta) |dy/dt|^2 for the first-order lag."""
    for delta in (0.05, 0.1):
        res = analysis.osni_dissipation_residuals(network_traj, Y, delta)
        for node in range(4):
            ycd = network_traj.ycdot[:, node]
            gap = np.abs(res[:, node] + (1.0 / A - delta) * ycd ** 2).max()
            assert gap < 1e-9


def test_osni_like_network_levels(two_node_traj):
    assert analysis.check_osni_like_network(two_node_traj, Y, 0.05).passed
    assert analysis.check_osni_like_network(two_node_traj, Y, 0.1).passed
    assert not analysis.check_osni_like_network(two_node_traj, Y, 0.2).passed


def test_osni_like_network_consensus_manifold(network_loop, pendulum):
    _, v1 = pendulum
    x0 = np.concatenate([np.tile([0.7, 0.0], 4), np.zeros(4)])
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=2.0, record_every=10)
    traj = nc.integrate(network_loop, x0, cfg)
    report = analysis.check_osni_like_network(traj, Y, 0.05)
    assert report.max_violation < 1e-12
    assert np.abs(edge_rate_sums(traj)).max() < 1e-15


def test_osni_like_network_on_a_pair_is_the_controller_check(pair_traj):
    """With K = [[1]] the bank inequality is node 0's OSNI inequality."""
    Y_pair, _ = nc.first_order_certificate(20.0, 6.0)
    for delta in (0.02, 0.05, 0.2):
        bank = analysis.osni_like_network_residuals(pair_traj, Y_pair, delta)
        node = analysis.osni_dissipation_residuals(pair_traj, Y_pair, delta)[:, 0]
        assert np.allclose(bank, node, rtol=0.0, atol=1e-12)
        by_bank = analysis.check_osni_like_network(pair_traj, Y_pair, delta)
        by_node = analysis.check_osni_dissipation(pair_traj, Y_pair, delta)[0]
        assert by_bank.passed == by_node.passed
        assert by_bank.max_violation == pytest.approx(by_node.max_violation, abs=1e-12)
    assert not analysis.check_osni_like_network(pair_traj, Y_pair, 0.2).passed


def test_pair_identities(two_node_traj):
    report = analysis.check_pair_identities(two_node_traj)
    assert report.passed and report.tolerance == 1e-12


def test_pair_identities_zero_trajectory(pendulum):
    plant, _ = pendulum
    loop = nc.network_interconnect(plant, nc.first_order(A, B),
                                   nc.Graph(2, frozenset({(0, 1)})))
    traj = nc.integrate(loop, np.zeros(6), nc.IntegratorConfig(1e-2, 1.0))
    report = analysis.check_pair_identities(traj)
    assert report.max_violation == 0.0


def test_pair_identities_broken_antisymmetry(two_node_traj):
    tampered = dataclasses.replace(
        two_node_traj, y2dot=np.column_stack([two_node_traj.y2dot[:, 0],
                                              -two_node_traj.y2dot[:, 1]]))
    assert not analysis.check_pair_identities(tampered).passed


def test_pair_identities_need_two_nodes(network_traj):
    with pytest.raises(ValueError, match="2-node"):
        analysis.check_pair_identities(network_traj)


def test_lyapunov_monotone_network(network_traj, pendulum):
    _, v1 = pendulum
    cs = nc.CompositeStorage(network_traj.system, v1, Y)
    report = analysis.check_lyapunov_monotone(network_traj, cs, 0.05)
    assert report.passed


def test_lyapunov_monotone_reads_the_recorded_signals(network_traj, pendulum, monkeypatch):
    """The storage rate comes from the trajectory's signals: the check
    evaluates the loop no second time."""
    _, v1 = pendulum
    cs = nc.CompositeStorage(network_traj.system, v1, Y)
    expected = analysis.check_lyapunov_monotone(network_traj, cs, 0.05)

    def refuse(self, X):
        raise AssertionError("the loop was evaluated again")

    monkeypatch.setattr(nc.ClosedLoop, "evaluate", refuse)
    assert analysis.check_lyapunov_monotone(network_traj, cs, 0.05) == expected


def test_lyapunov_monotone_consensus_manifold(network_loop, pendulum):
    _, v1 = pendulum
    x0 = np.concatenate([np.tile([0.7, 0.0], 4), np.zeros(4)])
    traj = nc.integrate(network_loop, x0, nc.IntegratorConfig(1e-3, 2.0, 10))
    cs = nc.CompositeStorage(network_loop, v1, Y)
    report = analysis.check_lyapunov_monotone(traj, cs, 0.05)
    # the bound's right side is zero on the manifold and W stays constant
    assert report.passed
    assert np.abs(edge_rate_sums(traj)).max() < 1e-18


def test_lyapunov_monotone_sign_flipped_feedback_fails(pendulum, four_node_graph):
    plant, v1 = pendulum
    flipped = nc.NonlinearPlant(A=plant.A, B=-plant.B, C=plant.C, E=plant.E,
                                phi=plant.phi)
    loop = nc.network_interconnect(flipped, nc.first_order(A, B), four_node_graph)
    x0 = np.zeros(12)
    x0[0:8:2] = [2.0, 1.0, -2.0, -1.0]
    traj = nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 5.0, 10))
    cs = nc.CompositeStorage(loop, v1, Y)
    report = analysis.check_lyapunov_monotone(traj, cs, 0.05)
    assert not report.passed


def test_lyapunov_monotone_pair(pair_traj, pendulum):
    _, v1 = pendulum
    cs = nc.CompositeStorage(pair_traj.system, v1, nc.first_order_certificate(20.0, 6.0)[0])
    report = analysis.check_lyapunov_monotone(pair_traj, cs, 0.05)
    assert report.passed


def test_component_checks_imply_lyapunov_decay(network_traj, pendulum):
    """Meta-test: plant NI plus network output strictness forces the
    composite storage to decay at the claimed rate."""
    _, v1 = pendulum
    delta = 0.05
    ni_ok = all(r.passed for r in analysis.check_ni_dissipation(network_traj, v1))
    osni_ok = analysis.check_osni_like_network(network_traj, Y, delta).passed
    cs = nc.CompositeStorage(network_traj.system, v1, Y)
    lyap_ok = analysis.check_lyapunov_monotone(network_traj, cs, delta).passed
    assert not (ni_ok and osni_ok) or lyap_ok


def test_consensus_metric_static_example(network_loop):
    x0 = np.zeros(12)
    x0[0:8:2] = [1.0, 2.0, 3.0, 4.0]
    traj = nc.integrate(network_loop, x0, nc.IntegratorConfig(1e-3, 0.01))
    edge_max, all_pairs = analysis.consensus_metric(traj)
    assert edge_max[0] == pytest.approx(3.0)   # widest edge is (0, 3)
    assert all_pairs[0] == pytest.approx(3.0)


def test_consensus_metric_identical_outputs(network_loop):
    x0 = np.concatenate([np.tile([0.5, 0.1], 4), np.zeros(4)])
    traj = nc.integrate(network_loop, x0, nc.IntegratorConfig(1e-3, 0.5, 10))
    edge_max, all_pairs = analysis.consensus_metric(traj)
    assert np.abs(edge_max).max() < 1e-12
    assert np.abs(all_pairs).max() < 1e-12


def test_consensus_all_pairs_dominates_edges(network_traj, pendulum):
    edge_max, all_pairs = analysis.consensus_metric(network_traj)
    assert np.all(all_pairs >= edge_max - 1e-15)
    # equality holds on a complete graph
    plant, _ = pendulum
    loop = nc.network_interconnect(plant, nc.first_order(A, B), complete_graph(4))
    x0 = np.zeros(12)
    x0[0:8:2] = [2.0, 1.0, -2.0, -1.0]
    traj = nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 2.0, 10))
    em, ap = analysis.consensus_metric(traj)
    assert np.array_equal(em, ap)


def test_steady_state_relation_examples(four_node_graph):
    net = nc.kron_ss(nc.laplacian(four_node_graph), nc.first_order(A, B))
    ones = analysis.check_steady_state_relation(net, np.ones(4), tol=1e-9)
    assert ones.passed

    two = nc.kron_ss([[1.0, -1.0], [-1.0, 1.0]], nc.first_order(A, B))
    report = analysis.check_steady_state_relation(two, [1.0, 0.0])
    assert report.passed
    rng = np.random.default_rng(17)
    report = analysis.check_steady_state_relation(net, rng.uniform(-2, 2, 4))
    assert report.passed and report.max_violation <= 1e-6
    with pytest.raises(ValueError, match="length"):
        analysis.check_steady_state_relation(net, np.ones(3))


def test_reports_are_reproducible(network_traj, pendulum):
    _, v1 = pendulum
    first = analysis.check_ni_dissipation(network_traj, v1)
    second = analysis.check_ni_dissipation(network_traj, v1)
    assert first == second


def test_report_pass_invariant(network_traj, pendulum):
    _, v1 = pendulum
    reports = [*analysis.check_ni_dissipation(network_traj, v1),
               *analysis.check_osni_dissipation(network_traj, Y, 0.2),
               analysis.check_osni_like_network(network_traj, Y, 0.05)]
    for r in reports:
        assert r.passed == (r.max_violation <= r.tolerance)
