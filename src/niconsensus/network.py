"""Closed-loop interconnections and composite storage functions.

Every closed loop is n identical plants in positive feedback with one linear
controller bank: n identical strictly proper controllers M = (A, B, C) whose
outputs are mixed by the n x n matrix K that ``graph.mixing_entries`` gives
as nonzeros. The bank is (I (x) A, I (x) B, K (x) C): controller i integrates
dxc_i = A xc_i + B y1_i locally and plant i receives u1_i = sum_j K_ij C xc_j.
The two cases of the paper are

* a single plant/controller pair (no graph): n = 1 and K = [[1]];
* a network over a connected undirected graph: K is its Laplacian L, so the
  i-th input is sum_j a_ij (C xc_i - C xc_j) and the difference states
  xc_i - xc_j are literal copies of the single-controller dynamics.

Composite state layout: all plant states first, node by node, then all
controller states node by node. For plants dx/dt = A x + B u + E phi(x[...,
:r]), y = C x and controller (Ac, Bc, Cc), the integrator steps the extended
state Z = [xp; phi; xc] by dZ/dt = W Z with the square loop matrix
[[I (x) A, I (x) E, K (x) B Cc], [0, 0, 0], [I (x) Bc C, 0, I (x) Ac]] read
node by node. Z holds its plant and phi blocks coordinate by coordinate and
xc node by node, so phi's argument, the first r coordinates of all n plants,
and its output are each one contiguous run of Z; Z[..., _rows] = X reads the
composite state back, and W's entries are mapped through ``_rows``. Each RK4
stage first writes phi into its stage state's phi block (phi's ufunc-style
out); the field is then linear in Z, so the stages are products of stage
operators built from W for each step h, such as [I | h/2 W] on the stacked
stages (``rk4_stages``).

Every product the loop makes, in n or in a stage, is one ``KronOperator``:
the (row, column, value) triplets of Kronecker blocks K (x) M and I (x) M
and, in a stage, an identity entry per row, so its size follows the graph's
edges rather than n^2 (the loop keeps K only as its nonzeros). It takes one
of three forms at build: dense below EDGE_PRODUCT_MIN extended states, else
the ELLPACK or CSR form of a sparse product (Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., 3.4), padded slots or, past PADDING_MAX,
row segments. Both crossovers were timed on one pinned core, the first as
RK4 steps and the second as stage products (see each constant). Either way
a pendulum row of W Z sums spring, gravity and input terms in the
hand-written order.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .graph import Frozen, Graph, is_connected, laplacian, laplacian_eigenvalues, mixing_entries
from .linsys import StateSpace, is_hurwitz
from .plant import NonlinearPlant, StorageFunction

#: Extended-state size N' from which the loop's operators are sparse, timed
#: as RK4 steps on one pinned core, 40 interleaved rounds of paired 200-step
#: runs: the median sparse/dense step ratio on pendulum paths is 1.17 at
#: N' = 88, 1.01 at 96, 0.91 at 104 and 0.58 at 128; on stars, whose hub row
#: sends the stages to row segments, 1.27, 1.00, 0.95 and 0.77.
EDGE_PRODUCT_MIN = 96

#: Largest ratio of padded slots to entries at which a sparse operator sums
#: padded slots rather than row segments, timed as one stage product on
#: pendulum paths with a hub of growing degree (N' = 128, 256, 512, one pinned
#: core): slots win by 0.1-3 us up to a ratio of 2.7, the two are level at
#: 3.0-3.6, and np.add.reduceat wins from 4.2 on, by 125 us at 37 (a star).
PADDING_MAX = 3


def check_controller(controller: StateSpace, plant: NonlinearPlant):
    """Raise ValueError unless the controller is Hurwitz, strictly proper and
    of the plant's input/output dimension, the conditions every
    interconnection relies on."""
    if not is_hurwitz(controller):
        raise ValueError("the controller must be Hurwitz")
    if np.any(controller.D != 0):
        raise ValueError("the controller must be strictly proper (D = 0)")
    if controller.io_dim != plant.m:
        raise ValueError(f"input/output dimension {controller.io_dim} differs from "
                         f"the plant's {plant.m}")


class KronOperator:
    """A matrix of the given shape held as (row, column, value) triplets,
    ``entries``, sorted by row and then column, duplicates in the order given.
    Built dense or with no columns, ``dense`` is ``matrix()`` and products are
    BLAS's; else ``dense`` is None and each row adds its entries in column
    order, as padded slots or, past PADDING_MAX, as row segments. A row pads
    with zeros on its first entry's column, so a non-finite input spoils only
    the rows that read it, and a row with no entries is zero. A batch row of
    ``apply`` equals the vector ``product`` bit for bit up to a zero's sign."""

    def __init__(self, shape, entries, dense):
        rows, cols, vals = entries
        self.shape, order = shape, np.lexsort((cols, rows))
        self.entries = rows, cols, vals = rows[order], cols[order], vals[order]
        self.dense = self.matrix() if dense or not shape[1] else None
        if self.dense is not None:
            return
        counts = np.bincount(rows, minlength=shape[0])
        starts, empty = np.cumsum(counts) - counts, np.flatnonzero(counts == 0)
        self._empty = empty if empty.size else None
        width, filled = max(counts.max(initial=0), 1), np.maximum(counts, 1)
        if width * shape[0] > PADDING_MAX * filled.sum():  # segments, one zero per empty row
            at = np.searchsorted(rows, empty)
            self._cols, self._vals = np.insert(cols, at, 0), np.insert(vals, at, 0.0)
            self._starts = np.cumsum(filled) - filled
            return
        # slot k holds the k-th entry of every row, padded on the row's first column
        slot, pad = np.arange(rows.size) - starts[rows], np.append(cols, 0)[starts]
        self._cols, self._vals = np.tile(pad, (width, 1)), np.zeros((width, shape[0]))
        self._cols[slot, rows], self._vals[slot, rows] = cols, vals
        self._starts = None

    def matrix(self) -> np.ndarray:
        """The dense matrix: the entries added into zeros in entry order."""
        M = np.zeros(self.shape)
        np.add.at(M, self.entries[:2], self.entries[2])
        return M

    def apply(self, Z):
        """The product with each vector of Z, shape (..., columns): padded
        slots add one pass per slot into a zeroed result."""
        out = np.empty(Z.shape[:-1] + self.shape[:1])
        if self.dense is not None:
            return np.matmul(self.dense, Z[..., None], out=out[..., None])[..., 0]
        if self._starts is not None:
            terms = Z.take(self._cols, -1)
            terms *= self._vals
            np.add.reduceat(terms, self._starts, -1, None, out)
        else:
            out.fill(0.0)
            for cols, vals in zip(self._cols, self._vals):
                term = Z.take(cols, -1)
                term *= vals
                out += term
        if self._empty is not None:
            out[..., self._empty] = 0.0
        return out

    def product(self):
        """The vector product (z, out) for a 1-D z: dense, the matrix's own
        dot; else ``_gather_sum`` bound to a scratch array of its own."""
        if self.dense is not None:
            return self.dense.dot
        return partial(self._gather_sum, np.empty(self._cols.shape))

    def _gather_sum(self, terms, z, out):
        """A gather and a multiply into terms, then one sum into out."""
        z.take(self._cols, None, terms, "clip")
        np.multiply(terms, self._vals, out=terms)
        if self._starts is None:
            np.add.reduce(terms, 0, None, out)
        else:
            np.add.reduceat(terms, self._starts, 0, None, out)
        if self._empty is not None:
            out[self._empty] = 0.0


class LoopSignals(Frozen):
    """Every signal of a closed loop at composite states of shape (..., N).

    Arrays of shape (..., n*m): plant inputs u1 = y2 (positive feedback), plant
    outputs y1 and their exact rates, per-node controller output rates ycdot =
    (I (x) C) dxc/dt, and mixed controller outputs y2 = (K (x) C) xc and rates.
    """

    def __init__(self, dstate: np.ndarray, u1: np.ndarray, y1: np.ndarray, y1dot: np.ndarray,
                 ycdot: np.ndarray, y2: np.ndarray, y2dot: np.ndarray):
        self._set(dstate=dstate, u1=u1, y1=y1, y1dot=y1dot, ycdot=ycdot, y2=y2, y2dot=y2dot)


class ClosedLoop:
    """n copies of one plant in positive feedback with the controller bank
    (I (x) A, I (x) B, K (x) C): K = [[1]] for a single pair (graph None),
    else the Laplacian of the graph, which consensus requires connected.

    The composite vector field is a pure function of the composite state;
    instances hold no mutable simulation state and may be shared freely.
    """

    def __init__(self, plant: NonlinearPlant, controller: StateSpace, graph: Graph | None = None):
        check_controller(controller, plant)
        if not is_connected(graph):
            raise ValueError("consensus requires a connected graph")
        self.plant, self.controller, self.graph = plant, controller, graph
        #: K's nonzeros (rows, cols, vals), sorted by row; n is K's order
        n, self.mix = mixing_entries(graph)
        self.n_plants, self.io_dim = n, plant.m
        A, B, C, E = plant.A, plant.B, plant.C, plant.E
        Ac, Bc, Cc = controller.A, controller.B, controller.C
        split, nr, q = n * plant.p, n * plant.r, n * controller.state_dim
        self._split, self.n_states, size = split, split + q, split + nr + q
        self._arg, self._phi = slice(nr), slice(split, split + nr)
        # node-major index i w + k of node i's coordinate k -> coordinate-major k n + i
        major = lambda w: np.arange(n * w).reshape(w, n).T.ravel()
        perm = np.concatenate((major(plant.p), split + major(plant.r),
                               np.arange(split + nr, size)))
        #: Z[..., _rows] is the composite state of the extended states Z
        self._rows = np.delete(perm, self._phi)
        eye = np.arange(n), np.arange(n), np.ones(n)
        self._size, self._dense = size, size < EDGE_PRODUCT_MIN
        rows, cols, vals = _kron_entries(
            (eye, A, 0, 0), (eye, E, 0, split), (self.mix, B @ Cc, 0, split + nr),
            (eye, Bc @ C, split + nr, 0), (eye, Ac, split + nr, split + nr))
        self.W = KronOperator((size, size), (perm[rows], perm[cols], vals), self._dense)
        rows, _, vals = self.W.entries
        #: |W|, W's largest absolute row sum: |W Z| <= |W| max|Z| entry by entry
        self.field_norm = float(np.bincount(rows, np.abs(vals), size).max())
        self.mixed_C = self.mixed(Cc)
        self.node_C = KronOperator((n * plant.m, q), _kron_entries((eye, Cc, 0, 0)), self._dense)

    @property
    def K(self) -> np.ndarray:
        """The mixing matrix dense, ``laplacian(graph)``, built on each call."""
        return laplacian(self.graph)

    def mixed(self, M) -> KronOperator:
        """K (x) M as an operator, dense or sparse as the loop's W."""
        M = np.atleast_2d(np.asarray(M, dtype=float))
        shape = (self.n_plants * M.shape[0], self.n_plants * M.shape[1])
        return KronOperator(shape, _kron_entries((self.mix, M, 0, 0)), self._dense)

    def split(self, X):
        """(plant states as (..., n, p), controller states as (..., n*q))."""
        X = np.asarray(X, dtype=float)
        return self.nodes(X[..., :self._split]), X[..., self._split:]

    def nodes(self, a):
        """A signal or state block of shape (..., n*k) as (..., n, k), node by node."""
        return a.reshape(a.shape[:-1] + (self.n_plants, a.shape[-1] // self.n_plants))

    def extend(self, X):
        """The extended states Z = [xp, phi, xc] of composite states X of
        shape (N,) or (..., N): the column layout of the loop matrix W, with
        the plant and phi blocks coordinate by coordinate."""
        X = np.asarray(X, dtype=float)
        if X.shape[-1:] != (self.n_states,):
            raise ValueError(f"composite states must have length {self.n_states}")
        Z = np.empty(X.shape[:-1] + (self._size,))
        Z[..., self._rows] = X
        self.plant.phi(*self._views(Z))
        return Z

    def _views(self, Z):
        """(first r plant coordinates, phi block), both as (..., n, r): views
        of extended states Z, C-contiguous for a single state and r = 1."""
        shape = Z.shape[:-1] + (self.plant.r, self.n_plants)
        return (Z[..., self._arg].reshape(shape).swapaxes(-1, -2),
                Z[..., self._phi].reshape(shape).swapaxes(-1, -2))

    def rhs(self, Z, arg, ph, out, product):
        """One RK4 stage of ``rk4_stages``: phi writes, in place, the phi
        block (view ph) of a stage state from its first r plant coordinates
        (view arg), then product(Z, out) writes a stage operator on the
        stacked stage states Z into out."""
        self.plant.phi(arg, ph)
        product(Z, out)

    def rk4_stages(self, h):
        """The stages_at of ``sim.rk4_path`` for step h, with no slope formed:
        on the stage states z1..z4, the rows of the stage buffer P, z2 = (I +
        h/2 W) z1, z3 = [I | h/2 W] [z1; z2], z4 = [I | 0 | h W] [z1; z2; z3]
        and the new state is z1 + W (h/6 z1 + h/3 z2 + h/3 z3 + h/6 z4), each
        one ``rhs`` call with a stage operator on the first rows of P. Sparse,
        the last stage is the weighted sum into P[4], then [I | W] on z1, P[4]."""
        N, (rows, cols, vals), eye = self._size, self.W.entries, np.arange(self._size)
        weights = np.array((h / 6.0, h / 3.0, h / 3.0, h / 6.0))
        # per stage, the (column offset in the flattened stage buffer, scale) of each W block
        blocks = [[(0, 0.5 * h)], [(N, 0.5 * h)], [(2 * N, h)],
                  list(zip(N * np.arange(4), weights)) if self._dense else [(4 * N, 1.0)]]
        ops = []
        for stage in blocks:
            parts = zip((eye, eye, np.ones(N)), *((rows, at + cols, s * vals) for at, s in stage))
            entries = [np.concatenate(part) for part in parts]
            ops.append(KronOperator((N, stage[-1][0] + N), entries, self._dense))

        def stages_at(P, Q):  # stage k writes the next row of P, the last Q[0]
            products = [op.product() for op in ops]
            if not self._dense:
                products[3] = partial(_last_stage, weights, P[:4], P[4], products[3])
            return tuple(partial(self.rhs, P[:op.shape[1] // N].ravel(), *self._views(P[k]),
                                 out, product) for k, (op, out, product)
                         in enumerate(zip(ops, (P[1], P[2], P[3], Q[0]), products)))

        return stages_at

    def component(self, i: int) -> str:
        """The plant or controller coordinate at index i of a composite state,
        with nodes counted from 1 as in the trajectory CSV columns."""
        if i < self._split:
            kind, (node, k) = "plant", divmod(i, self.plant.p)
        else:
            kind, (node, k) = "controller", divmod(i - self._split, self.controller.state_dim)
        return f"{kind} {node + 1}, coordinate {k}"

    def evaluate(self, X) -> LoopSignals:
        """Derivative plus every loop signal at composite states X of shape
        (N,) or (..., N), all from exact chain rules."""
        xp, xc = self.split(X)
        dX = self.W.apply(self.extend(X))[..., self._rows]
        dxp, dxc = self.split(dX)
        y2 = self.mixed_C.apply(xc)
        flat = xp.shape[:-2] + (-1,)
        return LoopSignals(dstate=dX, u1=y2, y1=self.plant.h(xp).reshape(flat),
                           y1dot=self.plant.h(dxp).reshape(flat),
                           ycdot=self.node_C.apply(dxc), y2=y2, y2dot=self.mixed_C.apply(dxc))


def _last_stage(weights, stages, acc, product, Z, out):
    """The last sparse RK4 stage: acc = weights . stages, then [I | W] on z1, acc."""
    np.matmul(weights, stages, out=acc)
    product(Z, out)


def _kron_entries(*blocks):
    """(rows, columns, values) of the nonzeros of the Kronecker blocks
    (outer, M, row0, col0), each K (x) M placed at (row0, col0) with outer =
    (i, j, K[i, j]) the nonzeros of K: each value is the one product
    K[i, j] * M[k, l] that np.kron forms."""
    parts = []
    for (i, j, kij), M, row0, col0 in blocks:
        k, l = np.nonzero(M)
        p, q = M.shape
        parts.append(((row0 + p * i[:, None] + k).ravel(), (col0 + q * j[:, None] + l).ravel(),
                      (kij[:, None] * M[k, l]).ravel()))
    return tuple(np.concatenate(part) for part in zip(*parts))


def dissipation(grad, dx, u, ydot):
    """The residual of a dissipation inequality with supply rate u^T dy/dt,
    grad . dx - u . ydot over the last axis: at most 0 for an NI system and
    at most -delta |dy/dt|^2 for an OSNI one. Every storage check builds on it."""
    return np.sum(grad * dx, axis=-1) - np.sum(u * ydot, axis=-1)


def controller_storage(controller: StateSpace, Y) -> StorageFunction:
    """V2(x) = (1/2) x^T Y^-1 x with Q = Y^-1 and gradient x Y^-1 row by row,
    the controller storage of the OSNI certificate Y, symmetric positive definite."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    q = controller.state_dim
    if Y.shape != (q, q):
        raise ValueError(f"controller certificate Y must be {q} x {q}")
    if not (np.allclose(Y, Y.T, atol=1e-12) and np.linalg.eigvalsh(Y)[0] > 0):
        raise ValueError("controller certificate Y must be symmetric positive definite")
    Q = np.linalg.inv(Y)
    return StorageFunction(V=lambda x: 0.5 * np.sum((x @ Q) * x, axis=-1),
                           grad=lambda x: x @ Q, Q=Q)


class CompositeStorage:
    """Candidate Lyapunov function of a closed loop,

        W = sum_i V1(xp_i) + (1/2) xc^T (K (x) Y^-1) xc - Y1^T (K (x) C) xc,

    with V2 = ``controller_storage(controller, Y)`` the controller storage of
    the OSNI certificate Y. For a pair this is V1 + V2 - y1 . y2; for K = L
    the quadratic term equals the edge-wise (1/2) sum_ij a_ij V2(xc_i - xc_j).
    For K = L, W = 0 on the whole line xp = 0, xc = c 1 (L 1 = 0 kills the
    quadratic and the cross term): W can be positive only off the
    controller-consensus subspace; ``positivity_margin`` decides whether it is.
    """

    def __init__(self, loop: ClosedLoop, v1: StorageFunction, Y):
        self.loop, self.v1 = loop, v1
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        self._P = loop.mixed(controller_storage(loop.controller, self.Y).Q)

    def value(self, X):
        """W at composite states X of shape (N,) or (..., N)."""
        loop = self.loop
        xp, xc = loop.split(X)
        y1 = loop.plant.h(xp).reshape(xc.shape[:-1] + (-1,))
        return (self.v1.V(xp).sum(axis=-1) + 0.5 * np.sum(self._P.apply(xc) * xc, axis=-1)
                - np.sum(y1 * loop.mixed_C.apply(xc), axis=-1))

    def rate(self, X, sig: LoopSignals):
        """dW/dt at composite states X of shape (N,) or (..., N) with signals
        sig at X: the plant nodes' NI residuals summed plus the bank's, input
        y1 and output y2, whose supply rates add up to d(y1 . y2)/dt as u1 = y2."""
        loop = self.loop
        (xp, xc), (dxp, dxc) = loop.split(X), loop.split(sig.dstate)
        plants = dissipation(self.v1.grad(xp), dxp, loop.nodes(sig.u1), loop.nodes(sig.y1dot))
        return plants.sum(axis=-1) + dissipation(self._P.apply(xc), dxc, sig.y1, sig.y2dot)

    def positivity_margin(self) -> float:
        """lambda_min(Q - lambda_max(K) G Y G^T) with G = Cp^T Cc, for K positive
        semidefinite. V1 replaced by x^T Q x / 2 makes W a quadratic form within
        n c of W, and a Schur complement reduces its blocks, one per eigenvalue
        of K, to this matrix. A positive margin makes W positive off {xp = 0,
        xc in ker K (x) R^q}, a negative one unbounded below."""
        Y, loop = self.Y, self.loop
        G = loop.plant.C.T @ loop.controller.C
        lam = laplacian_eigenvalues(loop.graph)[-1]
        return float(np.linalg.eigvalsh(self.v1.Q - lam * G @ Y @ G.T)[0])
