import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import niconsensus as nc
from conftest import complete_graph
from niconsensus.graph import mixing_entries


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


def test_is_connected_rejects_too_few_edges_before_allocating():
    """10**6 nodes, one edge: False with no per-node list (the search took 64 MB)."""
    g = nc.Graph(10**6, {(0, 1)})
    tracemalloc.start()
    connected, peak = nc.is_connected(g), tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert not connected and peak < 1e6


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
    for one_node in (nc.Graph(1), None):  # no graph is the one-node loop
        with pytest.raises(ValueError, match="at least two nodes"):
            nc.fiedler_value(one_node)


def test_helper_graphs():
    assert nc.path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert len(complete_graph(4).edges) == 6
    assert nc.is_connected(nc.path_graph(8))


(PLANT, _), LAG = nc.pendulum(), nc.first_order(10.0, 10.0)


@st.composite
def graphs(draw):
    """Graphs on 1 to 12 nodes with any edge set: isolated nodes, n = 1 and
    disconnected graphs included."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return nc.Graph(n, frozenset(edges))


@settings(max_examples=200, deadline=None, database=None)
@given(g=graphs())
def test_mixing_entries_are_the_nonzeros_of_the_dense_laplacian(g):
    """The entries built from the edge list are np.nonzero of the dense
    D - A, in row-major order and bit for bit; laplacian(g) is that matrix
    bit for bit. ClosedLoop mixes by those entries and refuses a
    disconnected graph."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    dense = np.diag(a.sum(axis=1)) - a
    assert nc.laplacian(g).tobytes() == dense.tobytes()
    n, (rows, cols, vals) = mixing_entries(g)
    i, j = np.nonzero(dense)
    assert n == g.n and rows.dtype == i.dtype and cols.dtype == j.dtype
    assert np.array_equal(rows, i) and np.array_equal(cols, j)
    assert vals.tobytes() == dense[i, j].tobytes()
    if nc.is_connected(g):
        loop = nc.ClosedLoop(PLANT, LAG, g)
        assert all(map(np.array_equal, loop.mix, (rows, cols, vals)))
        assert loop.graph is g and loop.K.tobytes() == dense.tobytes()
    else:
        with pytest.raises(ValueError, match="consensus requires a connected graph"):
            nc.ClosedLoop(PLANT, LAG, g)


def test_no_graph_is_a_single_pair_mixed_by_one():
    """The pair is the one-node loop: K = [[1]] as entries, in dense form and
    as a spectrum, one node, connected; its loop keeps no graph."""
    n, (rows, cols, vals) = mixing_entries(None)
    assert (n, rows.tolist(), cols.tolist(), vals.tolist()) == (1, [0], [0], [1.0])
    assert nc.laplacian(None).tolist() == [[1.0]]
    assert nc.laplacian_eigenvalues(None).tolist() == [1.0]
    assert nc.is_connected(None)
    loop = nc.ClosedLoop(PLANT, LAG)
    assert loop.mix[2].tolist() == [1.0]
    assert loop.graph is None and loop.K.tolist() == [[1.0]]


@pytest.mark.parametrize("n, edges", [
    (3, {(0.5, 1.7)}),  # not node indices
    (3, {(0, 1, 2)}),  # an edge of three nodes
    (3, {(0,)}),
    (2.5, {(0, 1)}),  # a fractional node count
    (True, set()),  # bools are no counts or indices
    (3, {(True, 2)}),
    (3, {(0, "1")}),
    (float("inf"), set()),
    (float("nan"), set()),
    ("3", set()),
])
def test_graph_refuses_what_is_not_integer_nodes_in_pairs(n, edges):
    with pytest.raises(ValueError):
        nc.Graph(n, frozenset(edges))


def test_graph_takes_integral_floats_and_numpy_integers_as_ints():
    """1.0 is a JSON Schema integer, so a config may give one; it and numpy
    integers build the graph of the ints, whose loop builds."""
    g = nc.Graph(3.0, frozenset({(0.0, np.int64(2)), (np.int32(1), 2)}))
    assert type(g.n) is int and g == nc.Graph(3, frozenset({(0, 2), (1, 2)}))
    assert all(type(v) is int for e in g.edges for v in e)
    assert nc.ClosedLoop(PLANT, LAG, g).n_plants == 3


def test_graphs_equal_and_hash_alike_by_nodes_and_edges():
    """An edge is an unordered pair: a graph equals, and hashes like, the same
    graph given with its edges reversed, and no graph of other nodes or edges."""
    g, reversed_edges = nc.Graph(3, {(0, 2), (1, 2)}), nc.Graph(3, {(2, 0), (2, 1)})
    assert g == reversed_edges and hash(g) == hash(reversed_edges)
    assert len({g, reversed_edges}) == 1
    assert g != nc.Graph(3, {(0, 1), (1, 2)}) and g != nc.Graph(4, {(0, 2), (1, 2)})


def test_value_types_compare_and_hash_by_their_public_fields():
    """== returns a bool and hash a number for values holding arrays, and a
    cache a value fills on first use (StateSpace._terms) is no part of it."""
    lag, same = nc.first_order(1.0, 1.0), nc.first_order(1.0, 1.0)
    nc.ni_freq_test(lag)
    assert lag == same and hash(lag) == hash(same) and lag != nc.first_order(1.0, 2.0)
    two = nc.StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    assert two == nc.StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    assert two != nc.StateSpace(-2.0 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    assert nc.pendulum()[0] == nc.pendulum()[0]
    storage = nc.pendulum()[1]
    assert storage == storage and hash(storage) == hash(storage)


@pytest.mark.parametrize("make, field", [
    (lambda: nc.path_graph(3), "edges"),
    (lambda: nc.first_order(10.0, 10.0), "A"),
    (lambda: nc.pendulum()[0], "phi"),
    (lambda: nc.pendulum()[1], "Q"),
    (lambda: nc.IntegratorConfig(1e-3, 1.0), "record_every"),
], ids=["Graph", "StateSpace", "NonlinearPlant", "StorageFunction", "IntegratorConfig"])
def test_value_types_refuse_assigning_and_deleting_a_field(make, field):
    """Loops, caches and configs share these values, so none may change once built."""
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before
