from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import niconsensus as nc
from conftest import bisect_max_delta, kron_ss
from niconsensus.linsys import CERT_TOL, PSD_TOL

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_is_hurwitz():
    assert nc.is_hurwitz(nc.StateSpace([[-10.0]], [[10.0]], [[1.0]]))
    rotation = nc.StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
    assert not nc.is_hurwitz(rotation)
    assert not nc.is_hurwitz(nc.StateSpace([[0.0]], [[1.0]], [[1.0]]))


def test_dc_gain():
    assert nc.dc_gain(nc.first_order(10.0, 10.0))[0, 0] == pytest.approx(1.0)
    assert nc.dc_gain(nc.first_order(1.0, 5.0))[0, 0] == pytest.approx(0.2)
    no_input_path = nc.StateSpace([[-1.0]], [[0.0]], [[1.0]], [[7.0]])
    assert nc.dc_gain(no_input_path)[0, 0] == pytest.approx(7.0)
    with pytest.raises(ValueError, match="non-Hurwitz"):
        nc.dc_gain(nc.StateSpace([[0.0]], [[1.0]], [[1.0]]))


def test_freq_response():
    m = nc.first_order(10.0, 10.0)
    assert nc.freq_response(m, 10.0)[0, 0] == pytest.approx(0.5 - 0.5j)
    dc = nc.dc_gain(m)
    near_dc = nc.freq_response(m, 1e-6).real
    assert np.abs(near_dc - dc).max() <= 1e-6 * np.abs(dc).max()
    # continuity down at 1e-8 as well
    assert np.abs(nc.freq_response(m, 1e-8).real - dc).max() <= 1e-6 * np.abs(dc).max()
    oscillator = nc.StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="singular resolvent at w=1.0"):
        nc.freq_response(oscillator, 1.0)  # its poles are +-j


def test_ni_freq_test():
    assert nc.ni_freq_test(nc.first_order(10.0, 10.0))
    assert not nc.ni_freq_test(nc.first_order(-1.0, 1.0))
    static = nc.StateSpace([[-1.0]], [[0.0]], [[0.0]], [[2.0]])
    assert nc.ni_freq_test(static)
    with pytest.raises(ValueError, match="Hurwitz"):
        nc.ni_freq_test(nc.StateSpace([[1.0]], [[1.0]], [[1.0]]))


def test_osni_freq_test():
    m = nc.first_order(10.0, 10.0)
    assert nc.osni_freq_test(m, 0.05)
    assert not nc.osni_freq_test(m, 0.2)
    assert nc.osni_freq_test(m, 1e-9)  # tiny delta reduces to the NI test
    with pytest.raises(ValueError, match="delta"):
        nc.osni_freq_test(m, 0.0)
    with pytest.raises(ValueError, match="symmetric D"):
        nc.osni_freq_test(nc.StateSpace(-np.eye(2), np.eye(2), np.eye(2),
                                        [[0.0, 1.0], [0.0, 0.0]]), 0.1)


def test_osni_freq_test_monotone_in_delta():
    m = nc.first_order(10.0, 10.0)
    for hi, lo in [(0.1, 0.07), (0.09, 0.01), (0.099, 0.0005)]:
        assert nc.osni_freq_test(m, hi)
        assert nc.osni_freq_test(m, lo)
    assert not nc.osni_freq_test(m, 0.11)


def test_osni_max_delta_first_order():
    # analytic supremum 1/a: the test reduces to a - delta a^2 >= 0
    assert nc.osni_max_delta(nc.first_order(10.0, 10.0)) == pytest.approx(0.1, abs=1e-6)
    assert nc.osni_max_delta(nc.first_order(1.0, 5.0)) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="not NI"):
        nc.osni_max_delta(nc.first_order(-1.0, 1.0))


def test_osni_max_delta_two_node_network():
    m = nc.first_order(10.0, 10.0)
    assert nc.osni_max_delta(kron_ss(L2, m)) == pytest.approx(0.05, abs=2e-6)


def test_strictness_halves_for_two_node_networks():
    systems = [nc.first_order(10.0, 10.0), nc.first_order(1.0, 5.0),
               nc.first_order(2.0, 3.0),
               # two-mode SISO system, sum of positive lags
               nc.StateSpace([[-10.0, 0.0], [0.0, -2.0]], [[10.0], [5.0]],
                             [[1.0, 1.0]])]
    for sysm in systems:
        single = nc.osni_max_delta(sysm)
        networked = nc.osni_max_delta(kron_ss(L2, sysm))
        assert networked == pytest.approx(single / 2.0, abs=2e-6)


@pytest.mark.parametrize("graph", ["two_node", "flagship"])
@pytest.mark.parametrize("controller", ["lag_10_10", "lag_20_6", "two_state"])
def test_bank_level_block_by_block_matches_the_bank(graph, controller, four_node_graph):
    """osni_max_delta(M, graph=g) runs the grid test of kron_ss(L, M) on the
    eigenvalues of g's Laplacian L and M's own frequency response; it equals
    the level of the realised bank within 1e-12, and a controller that is not
    NI is refused in both forms."""
    g = nc.Graph(2, {(0, 1)}) if graph == "two_node" else four_node_graph
    L = nc.laplacian(g)
    M = {"lag_10_10": nc.first_order(10.0, 10.0), "lag_20_6": nc.first_order(20.0, 6.0),
         "two_state": nc.StateSpace([[-10.0, 0.0], [0.0, -2.0]], [[10.0], [5.0]],
                                    [[1.0, 1.0]])}[controller]
    bank = nc.osni_max_delta(kron_ss(L, M))
    assert abs(nc.osni_max_delta(M, graph=g) - bank) <= 1e-12
    assert bank == pytest.approx(nc.osni_max_delta(M) / np.linalg.eigvalsh(L).max(), abs=1e-9)
    not_ni = nc.first_order(-1.0, 1.0)
    for sys, bank_graph in ((kron_ss(L, not_ni), None), (not_ni, g)):
        with pytest.raises(ValueError, match="not NI"):
            nc.osni_max_delta(sys, graph=bank_graph)


def _random_connected_graph(rng, n):
    """A random spanning tree on n nodes, each other pair joined with probability 0.3."""
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    return nc.Graph(n, edges)


@pytest.mark.parametrize("controller", ["lag_10_10", "two_state"])
def test_bank_level_is_the_worst_eigenvalue_block(controller):
    """osni_max_delta(M, graph=g) reads the Laplacian's largest eigenvalue
    alone; it equals the smallest level of the eigenvalue blocks lam M, one
    per eigenvalue of g's Laplacian, on random connected graphs."""
    M = {"lag_10_10": nc.first_order(10.0, 10.0),
         "two_state": nc.StateSpace([[-10.0, 0.0], [0.0, -2.0]], [[10.0], [5.0]],
                                    [[1.0, 1.0]])}[controller]
    rng = np.random.default_rng(35)
    for n in rng.integers(2, 11, size=20):
        g = _random_connected_graph(rng, int(n))
        blocks = [nc.osni_max_delta(nc.StateSpace(M.A, lam * M.B, M.C))
                  for lam in nc.laplacian_eigenvalues(g)]
        assert nc.osni_max_delta(M, graph=g) == pytest.approx(min(blocks), rel=1e-12, abs=0.0)


#: One positive lag a/(s+b) as (log10 a, log10 b).
LOG_LAG = st.tuples(st.floats(-2.0, 1.5), st.floats(-1.5, 2.0))


@settings(max_examples=40, deadline=None, database=None)
@given(lags=st.lists(LOG_LAG, min_size=1, max_size=3), bank=st.booleans(),
       n=st.integers(2, 4))
def test_max_delta_is_the_supremum_osni_freq_test_accepts(lags, bank, n):
    """A sum of positive lags is NI, alone or as the bank kron_ss(L, M) over a
    path graph. osni_max_delta lies in the bracket a bisection on
    osni_freq_test finds, and at the edge of what that test accepts."""
    a, b = (10.0 ** np.array(v) for v in zip(*lags))
    sys = nc.StateSpace(np.diag(-b), a[:, None], np.ones((1, len(a))))
    if bank:
        M, path = sys, nc.path_graph(n)
        sys = kron_ss(nc.laplacian(path), M)
    delta = nc.osni_max_delta(sys)
    if bank:  # the same level block by block, from M's frequency response
        assert nc.osni_max_delta(M, graph=path) == pytest.approx(delta, rel=1e-12)
    oracle = bisect_max_delta(lambda d: nc.osni_freq_test(sys, d), 1e-6)
    assert oracle <= delta < oracle + 1e-6
    assert nc.osni_freq_test(sys, delta * (1.0 - 1e-9))
    assert not nc.osni_freq_test(sys, delta * (1.0 + 1e-6))


@settings(max_examples=100, deadline=None, database=None)
@given(a=st.floats(0.1, 100.0), b=st.floats(0.1, 100.0))
def test_max_delta_of_a_lag_is_set_by_the_high_frequency_limit(a, b):
    """For a/(s+b), P + PSD_TOL - delta R = 2 a w^2/(w^2 + b^2) (1 - delta a)
    + PSD_TOL is tightest at the w -> inf limit 2a (1 - delta a) + PSD_TOL."""
    assert nc.osni_max_delta(nc.first_order(a, b)) == pytest.approx(
        1.0 / a + PSD_TOL / (2.0 * a * a), rel=1e-12, abs=0.0)


def test_max_delta_is_zero_when_no_level_passes():
    """-8e-10/(s+1) passes the NI grid test above its eigenvalue floor, but
    its w -> inf term CB + (CB)^T = -1.6e-9 is below the floor at every delta."""
    sys = nc.first_order(-8e-10, 1.0)
    assert nc.ni_freq_test(sys)
    assert not nc.osni_freq_test(sys, 1e-12)
    assert nc.osni_max_delta(sys) == 0.0


def test_static_gain_unbounded_strictness():
    static = nc.StateSpace([[-1.0]], [[0.0]], [[0.0]], [[2.0]])
    assert nc.osni_max_delta(static) == np.inf


def test_certificate_examples():
    m = nc.StateSpace([[-10.0]], [[10.0]], [[1.0]])
    report = nc.osni_certificate_check(m, [[1.0]], 0.1)
    assert report["passed"]
    assert abs(report["inequality_residual"]) <= 1e-9
    assert report["b_equation_residual"] <= 1e-9

    report = nc.osni_certificate_check(m, [[1.0]], 0.2)
    assert not report["passed"]
    assert report["inequality_residual"] == pytest.approx(20.0, abs=1e-9)

    report = nc.osni_certificate_check(m, [[2.0]], 0.1)
    assert report["b_equation_residual"] > CERT_TOL
    assert report["b_equation_residual"] == pytest.approx(10.0, abs=1e-12)


def test_certificate_validation():
    m = nc.first_order(10.0, 10.0)
    with pytest.raises(ValueError, match="1 x 1"):
        nc.osni_certificate_check(m, np.eye(2), 0.1)
    two = kron_ss(L2, m)
    with pytest.raises(ValueError, match="symmetric"):
        nc.osni_certificate_check(two, [[1.0, 0.5], [0.0, 1.0]], 0.1)


@pytest.mark.parametrize("a", [1.0, 5.0, 10.0])
@pytest.mark.parametrize("b", [1.0, 5.0, 10.0])
def test_certificate_analytic_family(a, b):
    """The closed-form (Y, delta) = (a/b, 1/a) certifies the lag a/(s+b), and
    a passing certificate implies the frequency test at the same level."""
    Y, delta = nc.first_order_certificate(a, b)
    sysm = nc.first_order(a, b)
    report = nc.osni_certificate_check(sysm, Y, delta)
    assert report["passed"]
    assert abs(report["inequality_residual"]) < 1e-9
    assert nc.osni_freq_test(sysm, delta)


def test_kron_ss_matches_direct_frequency_response(four_node_graph):
    m = nc.first_order(10.0, 10.0)
    L = nc.laplacian(four_node_graph)
    netss = kron_ss(L, m)
    for w in (0.1, 1.0, 37.0):
        direct = np.kron(L, nc.freq_response(m, w))
        assert np.allclose(nc.freq_response(netss, w), direct, atol=1e-12)
    assert np.allclose(nc.dc_gain(netss), np.kron(L, nc.dc_gain(m)), atol=1e-12)


def test_the_grid_is_400_read_only_points_over_1e_3_to_1e4():
    grid = nc.linsys.GRID
    assert grid.shape == (400,) and not grid.flags.writeable
    assert np.array_equal(grid, np.logspace(-3.0, 4.0, 400))
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e4)


def test_statespace_validation():
    with pytest.raises(ValueError, match="square"):
        nc.StateSpace([[1.0, 2.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="B row"):
        nc.StateSpace([[-1.0]], [[1.0], [2.0]], [[1.0]])
    with pytest.raises(ValueError, match="C column"):
        nc.StateSpace([[-1.0]], [[1.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match=r"square \(C rows == B columns\)"):
        nc.StateSpace([[-1.0]], [[1.0]], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="D must be m x m"):
        nc.StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0, 0.0]])


@pytest.fixture
def freq_calls(monkeypatch):
    """The id of the realisation of every linsys.freq_response call, in order."""
    calls, original = [], nc.linsys.freq_response

    def counting(sys, w):
        calls.append(id(sys))
        return original(sys, w)

    monkeypatch.setattr(nc.linsys, "freq_response", counting)
    return calls


def test_grid_tests_of_one_realisation_share_one_frequency_response(freq_calls):
    m = nc.first_order(10.0, 10.0)
    assert nc.ni_freq_test(m) and nc.osni_freq_test(m, 0.05)
    assert nc.osni_max_delta(m) == pytest.approx(0.1)
    assert nc.osni_max_delta(m, graph=nc.Graph(2, {(0, 1)})) == pytest.approx(0.05)
    assert freq_calls == [id(m)]


def test_each_realisation_forms_its_own_response(freq_calls):
    first, second = nc.first_order(10.0, 10.0), nc.first_order(10.0, 10.0)
    nc.ni_freq_test(first)
    nc.ni_freq_test(second)
    assert freq_calls == [id(first), id(second)]


def test_two_loaded_configs_share_no_frequency_response(freq_calls):
    path = Path(__file__).resolve().parent.parent / "configs" / "pendulum_pair.json"
    for _ in range(2):
        assert nc.ni_freq_test(nc.load_config(path).controller_ss)
    assert len(freq_calls) == 2


def test_equal_realisations_form_equal_distinct_read_only_terms(freq_calls):
    """Two realisations with equal matrices form equal terms, each its own
    and read-only; one realisation reuses its own terms."""
    def make():
        return nc.StateSpace([[-1.0, 0.5], [0.0, -3.0]], [[1.0], [2.0]], [[1.0, 1.0]])

    first, second = make(), make()
    terms = first._terms
    for F, S in zip(terms, second._terms, strict=True):
        assert F is not S and np.array_equal(F, S)
        assert not F.flags.writeable and not S.flags.writeable
    assert first._terms is terms
    assert freq_calls == [id(first), id(second)]


def test_a_realisation_that_is_not_hurwitz_raises_on_every_call(freq_calls):
    m = nc.StateSpace([[0.0]], [[1.0]], [[1.0]])
    for test in (nc.ni_freq_test, lambda s: nc.osni_freq_test(s, 0.1), nc.osni_max_delta) * 2:
        with pytest.raises(ValueError, match="^frequency-domain NI tests require a Hurwitz A$"):
            test(m)
    assert freq_calls == []
