import numpy as np
import pytest

import niconsensus as nc
from conftest import complete_graph


def random_graph(rng, n):
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return nc.Graph(n, frozenset(edges))


def reachable_from_zero(g):
    """Independent reachability oracle by fixpoint set expansion."""
    seen = {0}
    while True:
        grown = set(seen)
        for i, j in g.edges:
            if i in seen:
                grown.add(j)
            if j in seen:
                grown.add(i)
        if grown == seen:
            return seen
        seen = grown


def test_laplacian_two_node():
    g = nc.Graph(2, frozenset({(0, 1)}))
    assert np.array_equal(nc.laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_four_node_example(four_node_graph):
    expected = np.array([[3, -1, -1, -1],
                         [-1, 2, -1, 0],
                         [-1, -1, 2, 0],
                         [-1, 0, 0, 1]], dtype=float)
    assert np.array_equal(nc.laplacian(four_node_graph), expected)


def test_laplacian_single_node():
    assert np.array_equal(nc.laplacian(nc.Graph(1)), [[0.0]])


def test_laplacian_row_sums_symmetry_psd():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        for _ in range(5):
            L = nc.laplacian(random_graph(rng, n))
            assert np.array_equal(L, L.T)
            assert np.allclose(L @ np.ones(n), 0.0, atol=0)
            assert np.linalg.eigvalsh(L).min() >= -1e-10


def test_two_node_laplacian_squares():
    L2 = nc.laplacian(nc.Graph(2, frozenset({(0, 1)})))
    assert np.array_equal(L2 @ L2, 2.0 * L2)


def test_is_connected_examples(four_node_graph):
    assert nc.is_connected(four_node_graph)
    assert not nc.is_connected(nc.Graph(2))
    g = nc.Graph(3, frozenset({(0, 1)}))
    assert not nc.is_connected(g)
    assert reachable_from_zero(g) == {0, 1}


def test_fiedler_examples(four_node_graph):
    assert nc.fiedler_value(nc.Graph(2, frozenset({(0, 1)}))) == pytest.approx(2.0, abs=1e-10)
    assert nc.fiedler_value(nc.Graph(3)) == pytest.approx(0.0, abs=1e-10)
    assert nc.fiedler_value(four_node_graph) == pytest.approx(1.0, abs=1e-10)
    eigs = nc.laplacian_eigenvalues(four_node_graph)
    assert np.allclose(eigs, [0.0, 1.0, 3.0, 4.0], atol=1e-10)


def test_fiedler_iff_connected_random_graphs():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(20):
            g = random_graph(rng, n)
            oracle = len(reachable_from_zero(g)) == n
            assert nc.is_connected(g) == oracle
            assert (nc.fiedler_value(g) > 1e-10) == oracle


def test_degree_adjacency(four_node_graph):
    # the Laplacian's diagonal is the degree, its negated off-diagonal the adjacency
    L = nc.laplacian(four_node_graph)
    assert np.array_equal(np.diag(L), [3, 2, 2, 1])
    assert np.array_equal((np.diag(np.diag(L)) - L).sum(axis=0), [3, 2, 2, 1])


def test_graph_validation():
    with pytest.raises(ValueError):
        nc.Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        nc.Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        nc.Graph(0)
    g = nc.Graph(3, frozenset({(0, 1), (1, 0)}))
    assert g.edges == frozenset({(0, 1)})
    with pytest.raises(ValueError):
        nc.fiedler_value(nc.Graph(1))


def test_helper_graphs():
    assert nc.path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert len(complete_graph(4).edges) == 6
    assert nc.is_connected(nc.path_graph(8))
