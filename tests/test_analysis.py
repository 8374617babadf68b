import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import niconsensus as nc
from conftest import complete_graph, dense_plant, edge_rate_sums
from niconsensus import analysis, network

A = B = 10.0
Y, _ = nc.first_order_certificate(A, B)


@pytest.fixture(scope="module")
def two_node_traj(pendulum):
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(A, B), nc.Graph(2, frozenset({(0, 1)})))
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
    _, honest = nc.pendulum()
    doubled_kinetic = nc.StorageFunction(
        V=lambda x: honest.V(x) + 0.5 * 0.25 * x[..., 1] ** 2,
        grad=lambda x: honest.grad(x) + np.stack([0.0 * x[..., 1], 0.25 * x[..., 1]],
                                                 axis=-1),
        Q=honest.Q + np.diag([0.0, 0.25]))
    report = analysis.check_ni_dissipation(network_traj, doubled_kinetic)[0]
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


def loop_at(loop, X):
    """The trajectory record of a loop at states X, one sample per row."""
    return nc.Trajectory(system=loop, times=np.arange(float(len(X))), states=X,
                         **vars(loop.evaluate(X)))


def test_lag_residual_is_exact_at_random_states(pendulum, four_node_graph):
    """Off any trajectory too: for the lag a/(s+b) the storage V2 = (1/2)
    (b/a) x^2 of Y = a/b gives each node the residual -(1/a - delta) ycdot^2
    to round-off, since dV2/dt - u ycdot = -(b x - a u)^2 / a."""
    a, b = 20.0, 6.0
    lag = nc.first_order(a, b)
    loop = nc.ClosedLoop(pendulum[0], lag, four_node_graph)
    X = np.random.default_rng(3).uniform(-2.0, 2.0, (300, loop.n_states))
    traj = loop_at(loop, X)
    Y_lag, _ = nc.first_order_certificate(a, b)
    v2 = network.controller_storage(lag, Y_lag)
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.allclose(v2.V(x), 0.5 * (b / a) * x[:, 0] ** 2, rtol=1e-15, atol=0.0)
    assert np.allclose(v2.grad(x), (b / a) * x, rtol=1e-15, atol=0.0)
    xc, dxc = loop.split(X)[1], loop.split(traj.dstate)[1]
    for delta in (0.01, 0.05):
        res = analysis.osni_dissipation_residuals(traj, Y_lag, delta)
        expected = -(1.0 / a - delta) * traj.ycdot ** 2
        scale = (b / a) * np.abs(xc * dxc) + np.abs(traj.y1 * traj.ycdot) + traj.ycdot ** 2
        assert (np.abs(res - expected) <= 8 * np.finfo(float).eps * scale).all()


def two_state_loop(pendulum):
    """A four-node path under a Hurwitz two-state controller, with an SPD Y
    that is only a storage matrix here, not an OSNI certificate."""
    ctrl = nc.StateSpace(A=[[-2.0, 1.0], [0.0, -3.0]], B=[[1.0], [2.0]], C=[[1.0, 0.5]])
    loop = nc.ClosedLoop(pendulum[0], ctrl, nc.path_graph(4))
    return loop, np.array([[2.0, 0.3], [0.3, 1.0]])


def test_two_state_controller_residual_is_the_inverse_form(pendulum):
    """For q = 2 each node's OSNI residual is xc Y^-1 . dxc - u ycdot +
    delta |ycdot|^2 formed from hand-reshaped blocks, to 1e-13; a Y of
    another shape is refused by the residual and by the composite storage."""
    loop, Y2 = two_state_loop(pendulum)
    X = np.random.default_rng(4).uniform(-1.0, 1.0, (200, loop.n_states))
    traj = loop_at(loop, X)
    xc = loop.split(X)[1].reshape(200, 4, 2)
    dxc = loop.split(traj.dstate)[1].reshape(200, 4, 2)
    u2, ycdot = traj.y1.reshape(200, 4, 1), traj.ycdot.reshape(200, 4, 1)
    oracle = (np.sum((xc @ np.linalg.inv(Y2)) * dxc, axis=-1) - np.sum(u2 * ycdot, axis=-1)
              + 0.05 * np.sum(ycdot * ycdot, axis=-1))
    res = analysis.osni_dissipation_residuals(traj, Y2, 0.05)
    assert res.shape == (200, 4) and np.abs(res - oracle).max() <= 1e-13
    for wrong in ([[1.0]], np.eye(3)):
        with pytest.raises(ValueError, match="controller certificate Y must be 2 x 2"):
            analysis.osni_dissipation_residuals(traj, wrong, 0.05)
        with pytest.raises(ValueError, match="controller certificate Y must be 2 x 2"):
            nc.CompositeStorage(loop, pendulum[1], wrong)


@pytest.mark.parametrize("case", ["flagship", "two_state"])
def test_composite_rate_is_the_plant_and_bank_residuals(pendulum, network_loop, case):
    """dW/dt at random states is the plant nodes' NI residuals summed plus
    the bank's residual at delta = 0, and both equal the rate of W formed
    term by term with dense Kronecker matrices, to round-off relative to
    the sum of the absolute terms. V1 is twice the pendulum's energy, so
    the plant residuals are u ydot rather than the lossless zero."""
    plant, energy = pendulum
    v1 = nc.StorageFunction(V=lambda x: 2.0 * energy.V(x), grad=lambda x: 2.0 * energy.grad(x),
                            Q=2.0 * energy.Q)
    loop, Yc = (network_loop, Y) if case == "flagship" else two_state_loop(pendulum)
    X = np.random.default_rng(5).uniform(-2.0, 2.0, (300, loop.n_states))
    traj, delta = loop_at(loop, X), 0.05
    rate = nc.CompositeStorage(loop, v1, Yc).rate(X, traj)
    parts = (analysis.ni_dissipation_residuals(traj, v1).sum(axis=1)
             + analysis.osni_like_network_residuals(traj, Yc, delta)
             - delta * analysis._strictness_form(traj))
    (xp, xc), (dxp, dxc) = loop.split(X), loop.split(traj.dstate)
    P, Kc = np.kron(loop.K, np.linalg.inv(Yc)), np.kron(loop.K, loop.controller.C)
    y1, y1dot = (xp @ plant.C.T)[..., 0], (dxp @ plant.C.T)[..., 0]
    terms = [v1.grad(xp) * dxp, (xc @ P) * dxc, -y1dot * (xc @ Kc.T), -y1 * (dxc @ Kc.T)]
    dense = sum(t.reshape(len(X), -1).sum(axis=1) for t in terms)
    abs_P = (np.abs(xc) @ np.abs(P)) * np.abs(dxc)
    abs_delta = delta * (np.abs(traj.ycdot) @ np.abs(loop.K)) * np.abs(traj.ycdot)
    scale = sum(np.abs(t).reshape(len(X), -1).sum(axis=1) for t in terms + [abs_P, abs_delta])
    assert (np.abs(rate - parts) <= 16 * np.finfo(float).eps * scale).all()
    assert (np.abs(rate - dense) <= 16 * np.finfo(float).eps * scale).all()


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
    loop = nc.ClosedLoop(plant, nc.first_order(A, B), nc.Graph(2, frozenset({(0, 1)})))
    traj = nc.integrate(loop, np.zeros(6), nc.IntegratorConfig(1e-2, 1.0))
    report = analysis.check_pair_identities(traj)
    assert report.max_violation == 0.0


def test_pair_identities_broken_antisymmetry(two_node_traj):
    tampered = nc.Trajectory(**{**vars(two_node_traj), "y2dot": np.column_stack(
        [two_node_traj.y2dot[:, 0], -two_node_traj.y2dot[:, 1]])})
    assert not analysis.check_pair_identities(tampered).passed


@pytest.mark.parametrize("refused,match", [
    (lambda traj: analysis.osni_dissipation_residuals(traj, Y, 0.0), "delta must be positive"),
    (lambda traj: analysis.osni_like_network_residuals(traj, Y, -0.05),
     "delta must be positive"),
    (analysis.consensus_metric, "at least two nodes"),
], ids=["osni_dissipation-delta-0", "osni_like_network-delta-negative", "consensus"])
def test_one_node_loop_refusals(pair_traj, refused, match):
    """A strictness level delta <= 0 is refused, and so is a consensus
    metric on the one-node loop, which has no pair of outputs."""
    with pytest.raises(ValueError, match=match):
        refused(pair_traj)


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
    loop = nc.ClosedLoop(flipped, nc.first_order(A, B), four_node_graph)
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
    loop = nc.ClosedLoop(plant, nc.first_order(A, B), complete_graph(4))
    x0 = np.zeros(12)
    x0[0:8:2] = [2.0, 1.0, -2.0, -1.0]
    traj = nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 2.0, 10))
    em, ap = analysis.consensus_metric(traj)
    assert np.array_equal(em, ap)


def test_consensus_metric_max_minus_min_is_the_pairwise_maximum(pendulum):
    """For scalar outputs the all-pairs series is max - min per sample, bit
    for bit the largest norm over all node pairs, on outputs spread over 200
    decades with ties and signed zeros."""
    plant, _ = pendulum
    loop = nc.ClosedLoop(plant, nc.first_order(A, B), nc.path_graph(7))
    rng = np.random.default_rng(11)
    X = rng.choice([-1.0, 1.0], (500, loop.n_states)) * 10.0 ** rng.uniform(-100, 100, (500, loop.n_states))
    X[:50, 0:14:2] = X[:50, :1]
    X[50:60, 0:14:2] = rng.choice([0.0, -0.0], (10, 7))
    traj = nc.Trajectory(system=loop, times=np.arange(500.0), states=X, **vars(loop.evaluate(X)))
    _, all_pairs = analysis.consensus_metric(traj)
    y1 = X[:, 0:14:2]
    pairwise = np.max([np.linalg.norm(y1[:, [i]] - y1[:, [j]], axis=1)
                       for i in range(7) for j in range(i + 1, 7)], axis=0)
    assert all_pairs.tobytes() == pairwise.tobytes()


def test_consensus_metric_for_vector_outputs_is_the_pairwise_maximum():
    """For m = 2 the all-pairs series, a running maximum over one node's
    pairs at a time, and the edge series read from K (x) [1] are bit for
    bit the maxima of the norms over every node pair and every graph edge."""
    loop = nc.ClosedLoop(*dense_plant(), nc.path_graph(7))
    rng = np.random.default_rng(12)
    X = rng.choice([-1.0, 1.0], (500, loop.n_states)) * 10.0 ** rng.uniform(-100, 100, (500, loop.n_states))
    traj = nc.Trajectory(system=loop, times=np.arange(500.0), states=X, **vars(loop.evaluate(X)))
    edge_max, all_pairs = analysis.consensus_metric(traj)
    y1 = traj.y1.reshape(500, 7, 2)
    norms = {(i, j): np.linalg.norm(y1[:, i] - y1[:, j], axis=1)
             for i in range(7) for j in range(i + 1, 7)}
    assert all_pairs.tobytes() == np.max(list(norms.values()), axis=0).tobytes()
    edges = [norms[i, i + 1] for i in range(6)]
    assert edge_max.tobytes() == np.max(edges, axis=0).tobytes()


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


def test_report_names_the_first_non_finite_violation():
    """np.argmax ranks NaN above +inf, so a run whose violation turns +inf
    before NaN would report its first NaN: the worst sample is the first
    non-finite one when there is one, else the first largest, column by column."""
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    violations = np.array([[0.0, 1.0, np.inf, np.nan, 2.0],
                           [0.0, np.nan, np.inf, 5.0, 2.0],
                           [0.0, 3.0, 1.0, 3.0, 2.0]]).T
    inf, nan, big = analysis._reports(["a", "b", "c"], violations, times, 1e-6)
    assert (inf.name, inf.max_violation, inf.time_of_max, inf.passed) == ("a", np.inf, 0.2, False)
    assert np.isnan(nan.max_violation) and nan.time_of_max == 0.1
    assert (big.max_violation, big.time_of_max) == (3.0, 0.1)


def column_report(name, v, times, tol):
    """The oracle: the report of one column of violations, found on that column alone."""
    bad = ~np.isfinite(v)
    k = int(np.argmin(np.where(bad, times, np.inf)) if bad.any() else np.argmax(v))
    return analysis.CheckReport(name=name, max_violation=float(v[k]),
                                time_of_max=float(times[k]), tolerance=tol,
                                passed=float(v[k]) <= tol)


#: Violations are nonnegative; the few fixed values make ties and the tolerance likely.
VIOLATION = st.sampled_from([0.0, 1e-6, 2.0, np.nan, np.inf]) | st.floats(0.0, 1e3)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_reports_reduce_every_column_by_the_per_column_rule(data):
    """_reports over a (T, n) array of violations, with NaN and +inf planted,
    gives each column the report the rule gives that column alone: every
    field, the time of a tied maximum and the type of each value included.
    Times may repeat and need not be sorted."""
    violations = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                                   max_side=6),
                                      elements=VIOLATION))
    times = data.draw(hnp.arrays(np.float64, violations.shape[0],
                                 elements=st.sampled_from([0.0, 0.1, 0.2]) | st.floats(0.0, 10.0)))
    names = [f"x_node_{i}" for i in range(violations.shape[1])]
    reports = analysis._reports(names, violations, times, 1e-6)
    oracle = [column_report(name, v, times, 1e-6) for name, v in zip(names, violations.T)]
    # repr shows every field exactly, NaN and each value's type included
    assert list(map(repr, reports)) == list(map(repr, oracle))
