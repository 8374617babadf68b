"""Undirected graphs and the Laplacian algebra used by the consensus protocol.

Matrices throughout the package are plain ``numpy.ndarray`` objects with
row-major semantics; no wrapper type is introduced.
"""

from __future__ import annotations

import numbers

import numpy as np


class Frozen:
    """A value: __init__ sets its fields once, in order, with _set, so vars()
    yields them; setting or deleting one afterwards raises AttributeError, and
    two values of one class are equal, and hash alike, when their public fields are."""

    def _set(self, **fields):
        # object.__setattr__ keeps the fields in the instance's inline values,
        # where attribute reads are fastest; a dict made by vars(self) slows them
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return _value(self) == _value(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(_value(self))

    def __repr__(self):
        fields = (f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({', '.join(fields)})"


def _value(field):
    """field as == and hash read it: a Frozen as the tuple of its public fields
    (a private one, such as StateSpace._terms, is a cache), an array by its
    shape, dtype and bytes."""
    if isinstance(field, Frozen):
        return tuple(_value(v) for k, v in vars(field).items() if not k.startswith("_"))
    return (field.shape, field.dtype.str, field.tobytes()) if isinstance(field, np.ndarray) else field


class Graph(Frozen):
    """Unweighted undirected graph on nodes ``0 .. n-1``.

    Edges are stored as a frozenset of ``(i, j)`` pairs normalised to
    ``i < j``. The node count and each edge's two nodes must be ``integral``;
    self-loops and out-of-range indices are rejected, duplicate edges collapse.
    """

    def __init__(self, n: int, edges: frozenset = frozenset()):
        if not integral(n) or n < 1:
            raise ValueError(f"graph needs a whole number of nodes, at least one, not {n!r}")
        n = int(n)
        norm = set()
        for e in edges:
            if len(e) != 2 or not all(map(integral, e)):
                raise ValueError(f"edge {tuple(e)} is not two integer node indices")
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        self._set(n=n, edges=frozenset(norm))

    @property
    def edge_list(self):
        """Edges as a sorted list of (i, j) with i < j."""
        return sorted(self.edges)


def integral(value) -> bool:
    """An integer as JSON Schema counts one: 3 or 3.0, but no bool."""
    return not isinstance(value, bool) and (isinstance(value, numbers.Integral)
                                            or isinstance(value, float) and value.is_integer())


def path_graph(n: int) -> Graph:
    """Chain 0-1-2-...-(n-1)."""
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def mixing_entries(g: Graph | None):
    """(n, (rows, cols, vals)): the order of the mixing matrix, [[1]] for a
    single pair (g None) or else g's Laplacian, and its nonzeros sorted by row
    and then column, built from the edges in O(edges) with degrees from
    np.bincount: symmetric by construction."""
    if g is None:
        return 1, (np.zeros(1, np.intp), np.zeros(1, np.intp), np.ones(1))
    i, j = np.array(list(g.edges), np.intp).reshape(-1, 2).T
    deg = np.bincount(np.concatenate((i, j)), minlength=g.n).astype(float)
    nodes = np.flatnonzero(deg)  # an isolated node's zero diagonal is no nonzero
    rows, cols = np.concatenate((i, j, nodes)), np.concatenate((j, i, nodes))
    vals = np.concatenate((np.full(2 * i.size, -1.0), deg[nodes]))
    order = np.lexsort((cols, rows))
    return g.n, (rows[order], cols[order], vals[order])


def laplacian(g: Graph | None) -> np.ndarray:
    """The mixing matrix K as the dense matrix of ``mixing_entries(g)``: the
    graph Laplacian D - A (symmetric, positive semi-definite, zero row sums),
    or [[1]] for a single pair (g None)."""
    n, (rows, cols, vals) = mixing_entries(g)
    L = np.zeros((n, n))
    L[rows, cols] = vals
    return L


def is_connected(g: Graph | None) -> bool:
    """Depth-first reachability of every node from node 0; no graph is one node."""
    if g is None or g.n == 1:
        return True
    if len(g.edges) < g.n - 1:  # too few to connect n nodes: no O(n) list
        return False
    adj = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def laplacian_eigenvalues(g: Graph | None) -> np.ndarray:
    """Ascending eigenvalues of ``laplacian(g)``: K's spectrum, [1] for no graph."""
    return np.linalg.eigvalsh(laplacian(g))


def fiedler_value(g: Graph | None) -> float:
    """Second-smallest Laplacian eigenvalue (algebraic connectivity).

    Positive iff the graph is connected, for n >= 2; no graph is one node.
    """
    lam = laplacian_eigenvalues(g)
    if lam.size < 2:
        raise ValueError("fiedler value needs at least two nodes")
    return float(lam[1])

