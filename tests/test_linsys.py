import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import niconsensus as nc
from conftest import bisect_max_delta
from niconsensus.linsys import PSD_TOL

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
    assert nc.osni_max_delta(nc.kron_ss(L2, m)) == pytest.approx(0.05, abs=2e-6)


def test_strictness_halves_for_two_node_networks():
    systems = [nc.first_order(10.0, 10.0), nc.first_order(1.0, 5.0),
               nc.first_order(2.0, 3.0),
               # two-mode SISO system, sum of positive lags
               nc.StateSpace([[-10.0, 0.0], [0.0, -2.0]], [[10.0], [5.0]],
                             [[1.0, 1.0]])]
    for sysm in systems:
        single = nc.osni_max_delta(sysm)
        networked = nc.osni_max_delta(nc.kron_ss(L2, sysm))
        assert networked == pytest.approx(single / 2.0, abs=2e-6)


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
        sys = nc.kron_ss(nc.laplacian(nc.path_graph(n)), sys)
    delta = nc.osni_max_delta(sys)
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
    assert report.passed
    assert abs(report.inequality_residual) <= 1e-9
    assert report.b_equation_residual <= 1e-9

    report = nc.osni_certificate_check(m, [[1.0]], 0.2)
    assert not report.passed
    assert report.inequality_residual == pytest.approx(20.0, abs=1e-9)

    report = nc.osni_certificate_check(m, [[2.0]], 0.1)
    assert not report.b_equation_ok
    assert report.b_equation_residual == pytest.approx(10.0, abs=1e-12)


def test_certificate_validation():
    m = nc.first_order(10.0, 10.0)
    with pytest.raises(ValueError, match="1 x 1"):
        nc.osni_certificate_check(m, np.eye(2), 0.1)
    two = nc.kron_ss(L2, m)
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
    assert report.passed
    assert abs(report.inequality_residual) < 1e-9
    assert nc.osni_freq_test(sysm, delta)


def test_kron_ss_matches_direct_frequency_response(four_node_graph):
    m = nc.first_order(10.0, 10.0)
    L = nc.laplacian(four_node_graph)
    netss = nc.kron_ss(L, m)
    for w in (0.1, 1.0, 37.0):
        direct = np.kron(L, nc.freq_response(m, w))
        assert np.allclose(nc.freq_response(netss, w), direct, atol=1e-12)
    assert np.allclose(nc.dc_gain(netss), np.kron(L, nc.dc_gain(m)), atol=1e-12)


def test_freq_grid_validation():
    with pytest.raises(ValueError):
        nc.FreqGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        nc.FreqGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        nc.FreqGrid(np.array([]))
    grid = nc.FreqGrid.default()
    assert grid.points.size == 400
    assert grid.points[0] == pytest.approx(1e-3)
    assert grid.points[-1] == pytest.approx(1e4)


def test_statespace_validation():
    with pytest.raises(ValueError, match="square"):
        nc.StateSpace([[1.0, 2.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="B row"):
        nc.StateSpace([[-1.0]], [[1.0], [2.0]], [[1.0]])
    with pytest.raises(ValueError, match="C column"):
        nc.StateSpace([[-1.0]], [[1.0]], [[1.0, 0.0]])
