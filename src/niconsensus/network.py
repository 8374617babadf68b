"""Closed-loop interconnections and composite storage functions.

Every closed loop is n identical plants in positive feedback with one linear
controller bank: n identical strictly proper controllers M = (A, B, C) whose
outputs are mixed by a constant symmetric n x n matrix K. The bank is
(I (x) A, I (x) B, K (x) C): controller i integrates dxc_i = A xc_i + B y1_i
locally and plant i receives u1_i = sum_j K_ij C xc_j. The two cases of the
paper are

* a single plant/controller pair: n = 1 and K = [[1]];
* a network over an undirected graph: K is the graph Laplacian L, so the
  i-th input is sum_j a_ij (C xc_i - C xc_j) and the difference states
  xc_i - xc_j are literal copies of the single-controller dynamics.

Every product in n is a ``KronOperator``, held as the nonzeros of its
Kronecker factors, so its size follows the graph's edges rather than n^2;
the loop keeps K itself only as its nonzeros. Composite state layout: all
plant states first, node by node, then all controller states node by node.
For plants dx/dt = A x + B u + E phi(x[..., :r]), y = C x and controller
(Ac, Bc, Cc), the integrator steps the extended state Z = [xp; phi; xc] by
dZ/dt = W Z with the square loop matrix [[I (x) A, I (x) E, K (x) B Cc],
[0, 0, 0], [I (x) Bc C, 0, I (x) Ac]] read node by node. Z itself holds its
plant and phi blocks coordinate by coordinate (coordinate 1 of every node,
then coordinate 2, ...) and xc node by node, so phi's argument, the first r
coordinates of all n plants, and its output are each one contiguous run of
Z; ``_rows`` is the permutation that reads the composite state back,
Z[..., _rows] = X, and W's entries are mapped through it. Below
EDGE_PRODUCT_MIN extended states every operator of the loop is dense; from
there on none forms its matrix. Either way a pendulum row of W Z sums
spring, gravity and input terms in the hand-written order. A field
evaluation first writes phi into Z's phi block through phi's ufunc-style out
argument.

With the phi block fresh the field is linear in Z, so the integrator's RK4
stages are products of stage operators built from W for each step h
(``rk4_stages``), such as [I | h/2 W] on the stacked stage states. Below
EDGE_PRODUCT_MIN they are dense; from there on they are W's entries plus an
identity entry per row, summed by a gather, a multiply and one reduction
into buffers allocated when the stages are bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import Graph, is_connected, laplacian
from .linsys import StateSpace, is_hurwitz
from .plant import NonlinearPlant, StorageFunction

#: Extended-state size N' from which the loop uses the edge products. Timed
#: as RK4 steps on one pinned core, 40 interleaved rounds of paired 200-step
#: runs: the median edge/dense step ratio on pendulum paths is 1.17 at
#: N' = 88, 1.01 at 96, 0.91 at 104 and 0.58 at 128; on stars, whose hub row
#: sends the edge stages to np.add.reduceat, 1.27, 1.00, 0.95 and 0.77 (see
#: CHANGES.md).
EDGE_PRODUCT_MIN = 96


def check_controller(sys: StateSpace):
    """Raise ValueError unless the controller is Hurwitz and strictly proper,
    the two conditions every interconnection relies on."""
    if not is_hurwitz(sys):
        raise ValueError("the controller must be Hurwitz")
    if np.any(sys.D != 0):
        raise ValueError("the controller must be strictly proper (D = 0)")


class KronOperator:
    """A matrix of the given shape summing Kronecker blocks (outer, M, row0,
    col0), K (x) M at (row0, col0) with outer = (i, j, K[i, j]) the nonzeros of K,
    indices mapped through perm if given, held as its row-sorted (row,
    column, value) triplets ``entries``. ``apply`` multiplies by the matrix
    ``dense`` when built dense (else None), or adds each row's entries in
    column order, one pass per place in the row: either way a batch row
    equals the result for its vector alone bit for bit."""

    def __init__(self, shape, blocks, dense, perm=None):
        rows, cols, vals = (np.concatenate(part)
                            for part in zip(*(_kron_entries(*block) for block in blocks)))
        if perm is not None:
            rows, cols = perm[rows], perm[cols]
        self.shape, order = shape, np.lexsort((cols, rows))
        self.entries = rows, cols, vals = rows[order], cols[order], vals[order]
        self.dense = self.matrix() if dense else None
        # the k-th entry of each row that has one: a batch sums slot after slot
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)
        self._slots = [(rows[m], cols[m], vals[m])
                       for m in (slot == k for k in range(slot.max(initial=-1) + 1))]

    def matrix(self) -> np.ndarray:
        """The dense matrix, scattered from the entries."""
        M = np.zeros(self.shape)
        M[self.entries[:2]] = self.entries[2]
        return M

    def apply(self, Z, out=None):
        """The product with each vector of Z, shape (..., columns), into out if given."""
        out = np.empty(Z.shape[:-1] + self.shape[:1]) if out is None else out
        if self.dense is not None:
            return np.matmul(self.dense, Z[..., None], out=out[..., None])[..., 0]
        out.fill(0.0)
        for rows, cols, vals in self._slots:
            term = Z.take(cols, -1)
            term *= vals
            out[..., rows] = out.take(rows, -1) + term
        return out


@dataclass(frozen=True)
class LoopSignals:
    """Every signal of a closed loop at composite states of shape (..., N).

    Arrays of shape (..., n*m): plant inputs u1, plant outputs y1 and their
    exact rates, per-node controller outputs yc = (I (x) C) xc and rates,
    mixed controller outputs y2 = (K (x) C) xc and rates. The plant input u1
    is y2 (positive feedback); for a pair K = [[1]] makes y2 equal to yc.
    """

    dstate: np.ndarray
    u1: np.ndarray
    y1: np.ndarray
    y1dot: np.ndarray
    yc: np.ndarray
    ycdot: np.ndarray
    y2: np.ndarray
    y2dot: np.ndarray


class ClosedLoop:
    """n copies of one plant in positive feedback with the controller bank
    (I (x) A, I (x) B, K (x) C), where n is the order of the mixing matrix K.

    The composite vector field is a pure function of the composite state;
    instances hold no mutable simulation state and may be shared freely.
    """

    def __init__(self, plant: NonlinearPlant, controller: StateSpace, K):
        check_controller(controller)
        if plant.m != controller.io_dim:
            raise ValueError("plant and controller input/output dimensions differ")
        self.plant, self.controller = plant, controller
        K = np.atleast_2d(np.asarray(K, dtype=float))
        self.n_plants = n = K.shape[0]
        self.io_dim = plant.m
        self._split = n * plant.p
        self.n_states = self._split + n * controller.state_dim
        A, B, C, E = plant.A, plant.B, plant.C, plant.E
        Ac, Bc, Cc = controller.A, controller.B, controller.C
        split, nr, q = self._split, n * plant.r, n * controller.state_dim
        size, nodes, (i, j) = split + nr + q, np.arange(n), np.nonzero(K)
        self._arg, self._phi = slice(nr), slice(split, split + nr)
        # node-major index i w + k of node i's coordinate k -> coordinate-major k n + i
        major = lambda w: np.arange(n * w).reshape(w, n).T.ravel()
        perm = np.concatenate((major(plant.p), split + major(plant.r),
                               np.arange(split + nr, size)))
        #: Z[..., _rows] is the composite state of the extended states Z
        self._rows = np.delete(perm, self._phi)
        eye, self._mix = (nodes, nodes, np.ones(n)), (i, j, K[i, j])
        self._size, self._dense = size, size < EDGE_PRODUCT_MIN
        self.W = KronOperator((size, size), [
            (eye, A, 0, 0), (eye, E, 0, split), (self._mix, B @ Cc, 0, split + nr),
            (eye, Bc @ C, split + nr, 0), (eye, Ac, split + nr, split + nr)], self._dense, perm)
        rows, _, vals = self.W.entries
        #: |W|, W's largest absolute row sum: |W Z| <= |W| max|Z| entry by entry
        self.field_norm = float(np.bincount(rows, np.abs(vals), size).max())
        self.mixed_C = self.mixed(Cc)
        self.node_C = KronOperator((n * plant.m, q), [(eye, Cc, 0, 0)], self._dense)

    @property
    def K(self) -> np.ndarray:
        """The mixing matrix, built from its nonzeros on each call."""
        return self.mixed([[1.0]]).matrix()

    def mixed(self, M) -> KronOperator:
        """K (x) M as an operator, dense or an edge list as the loop's W."""
        M = np.atleast_2d(np.asarray(M, dtype=float))
        shape = (self.n_plants * M.shape[0], self.n_plants * M.shape[1])
        return KronOperator(shape, [(self._mix, M, 0, 0)], self._dense)

    def split(self, X):
        """(plant states as (..., n, p), controller states as (..., n*q))."""
        X = np.asarray(X, dtype=float)
        xp = X[..., :self._split].reshape(X.shape[:-1] + (self.n_plants, self.plant.p))
        return xp, X[..., self._split:]

    def storage_matrices(self, Y):
        """(Y^-1, K (x) Y^-1): the matrix of the controller storage
        (1/2) x^T Y^-1 x of the OSNI certificate Y and the operator of the
        bank storage (1/2) xc^T (K (x) Y^-1) xc."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        q = self.controller.state_dim
        if Y.shape != (q, q):
            raise ValueError(f"controller certificate Y must be {q} x {q}")
        Yinv = np.linalg.inv(Y)
        return Yinv, self.mixed(Yinv)

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

    def field_at(self, Z):
        """The integrator's field bound to one extended state buffer Z: the
        views of phi's argument and of the phi block, both (n, r), are built
        once here, and the returned function of out runs ``rhs`` on them
        with the product W Z chosen at build."""
        return partial(self.rhs, Z, *self._views(Z), product=self.W.apply)

    def rhs(self, Z, arg, ph, out, product):
        """One evaluation: phi writes the phi block of the extended state
        whose views are arg and ph from its first r plant coordinates, in
        place, then product(Z, out) writes into out. For ``field_at`` Z is
        that state and the product is dZ/dt = W Z (W's phi rows are zero, so
        dZ/dt is 0 there); for ``rk4_stages`` Z holds the stacked stage
        states and the product is a stage operator."""
        self.plant.phi(arg, ph)
        product(Z, out)

    def rk4_stages(self, h):
        """The stages_at of ``sim.rk4_path`` for step h, with no slope formed:
        on the stage states z1..z4, the rows of the stage buffer P,
        z2 = (I + h/2 W) z1, z3 = [I | h/2 W] [z1; z2],
        z4 = [I | 0 | h W] [z1; z2; z3] and the new state is
        z1 + W (h/6 z1 + h/3 z2 + h/3 z3 + h/6 z4), each one ``rhs`` call.
        Above the crossover the last stage is the weighted sum into P[4] and
        one [I | W] product on z1 and P[4]."""
        N, W, half, third, sixth = self._size, self.W.dense, 0.5 * h, h / 3.0, h / 6.0
        if W is not None:
            eye = np.eye(N)
            ops = (eye + half * W, np.hstack((eye, half * W)),
                   np.hstack((eye, np.zeros((N, N)), h * W)),
                   np.hstack((eye + sixth * W, third * W, third * W, sixth * W)))
            return partial(self._bind_stages, lambda P: [
                (P[:k + 1].ravel(), S.dot) for k, S in enumerate(ops)])
        rows, cols, vals = self.W.entries
        # (column offset of the W block in the flattened (5, N) buffer, its scale)
        ops = [_stage_entries(N, rows, offset + cols, scale * vals)
               for offset, scale in ((0, half), (N, half), (2 * N, h), (4 * N, 1.0))]
        weights = np.array((sixth, third, third, sixth))

        def operands(P):  # every stage reads all of P, with a scratch array of its own
            products = [partial(_edge_stage, *op, np.empty(op[0].shape)) for op in ops]
            products[3] = partial(_edge_last, weights, P[:4], P[4], products[3])
            return [(P.ravel(), product) for product in products]

        return partial(self._bind_stages, operands)

    def _bind_stages(self, operands, P, Q):
        """Stage k: ``rhs`` with row k's views and (input, product) =
        operands(P)[k], writing the next row of P (the last stage: Q[0])."""
        outs = (P[1], P[2], P[3], Q[0])
        return tuple(partial(self.rhs, Z, *self._views(P[k]), out, product)
                     for k, ((Z, product), out) in enumerate(zip(operands(P), outs)))

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
                           yc=self.node_C.apply(xc), ycdot=self.node_C.apply(dxc),
                           y2=y2, y2dot=self.mixed_C.apply(dxc))


def _stage_entries(N, rows, cols, vals):
    """(columns, values, row starts) of the stage operator [I | ...] whose
    entries beyond the identity are (rows, cols, vals), each row's entries in
    column order. If padding every row to the longest at most triples the
    entries, they are (width, N) arrays whose slot k holds the k-th entry of
    every row, a shorter row padded with zeros on its own identity column,
    and the row starts are None; otherwise they run row after row from the
    row starts, and no row is empty, since every row holds its identity
    entry. The factor 3 is where the two reductions cross: timed as one
    stage product on pendulum paths with a hub of growing degree (N' = 128,
    256, 512, one pinned core), the slots win by 0.1-3 us up to a padding
    ratio of 2.7, the two are level within noise at 3.0-3.6, and
    np.add.reduceat wins from 4.2 on, by 125 us at ratio 37 (a star)."""
    eye = np.arange(N)
    rows, cols = np.concatenate((eye, rows)), np.concatenate((eye, cols))
    vals = np.concatenate((np.ones(N), vals))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.searchsorted(rows, eye)
    slot = np.arange(rows.size) - starts[rows]
    width = slot.max() + 1
    if width * N > 3 * rows.size:
        return cols, vals, starts
    slot_cols, slot_vals = np.tile(eye, (width, 1)), np.zeros((width, N))
    slot_cols[slot, rows], slot_vals[slot, rows] = cols, vals
    return slot_cols, slot_vals, None


def _edge_stage(cols, vals, starts, terms, Z, out):
    """out = S Z for a stage operator S given by ``_stage_entries``: a gather
    and a multiply into terms, then one sum over the slots, or over each
    row's segment with np.add.reduceat."""
    Z.take(cols, None, terms, "clip")
    np.multiply(terms, vals, out=terms)
    if starts is None:
        np.add.reduce(terms, 0, None, out)
    else:
        np.add.reduceat(terms, starts, 0, None, out)


def _edge_last(weights, stages, acc, product, Z, out):
    """The last RK4 stage above the crossover: acc = weights . stages, then
    the [I | W] product on z1 and acc."""
    np.matmul(weights, stages, out=acc)
    product(Z, out)


def _kron_entries(outer, M, row0, col0):
    """(rows, columns, values) of the nonzeros of K (x) M placed at (row0,
    col0), with outer = (i, j, K[i, j]) the nonzeros of K: each value is the
    one product K[i, j] * M[k, l] that np.kron forms."""
    i, j, kij = outer
    k, l = np.nonzero(M)
    p, q = M.shape
    return ((row0 + p * i[:, None] + k).ravel(), (col0 + q * j[:, None] + l).ravel(),
            (kij[:, None] * M[k, l]).ravel())


def pair_interconnect(plant: NonlinearPlant, controller: StateSpace) -> ClosedLoop:
    """Positive feedback pair u1 = y2, u2 = y1: the bank with K = [[1]]."""
    return ClosedLoop(plant, controller, [[1.0]])


def network_interconnect(plant: NonlinearPlant, controller: StateSpace,
                         graph: Graph) -> ClosedLoop:
    """n plant copies driven by the bank with K = L, the graph Laplacian."""
    if not is_connected(graph):
        raise ValueError("consensus requires a connected graph")
    return ClosedLoop(plant, controller, laplacian(graph))


class CompositeStorage:
    """Candidate Lyapunov function of a closed loop,

        W = sum_i V1(xp_i) + (1/2) xc^T (K (x) Y^-1) xc - Y1^T (K (x) C) xc,

    with V2(x) = (1/2) x^T Y^-1 x the controller storage of the OSNI
    certificate Y. For a pair this is V1 + V2 - y1 . y2; for K = L the
    quadratic term equals the edge-wise (1/2) sum_ij a_ij V2(xc_i - xc_j).
    ``rate`` differentiates W along the loop vector field with exact storage
    gradients and output chain rules. For K = L, W = 0 on the whole line
    xp = 0, xc = c 1 (L 1 = 0 kills the quadratic and the cross term): W can
    be positive only off the controller-consensus subspace;
    ``positivity_margin`` decides whether it is.
    """

    def __init__(self, loop: ClosedLoop, v1: StorageFunction, Y):
        self.loop = loop
        self.v1 = v1
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        _, self._P = loop.storage_matrices(self.Y)

    def value(self, X):
        """W at composite states X of shape (N,) or (..., N)."""
        loop = self.loop
        xp, xc = loop.split(X)
        y1 = loop.plant.h(xp).reshape(xc.shape[:-1] + (-1,))
        return (self.v1.V(xp).sum(axis=-1) + 0.5 * np.sum(self._P.apply(xc) * xc, axis=-1)
                - np.sum(y1 * loop.mixed_C.apply(xc), axis=-1))

    def rate(self, X, sig: LoopSignals):
        """dW/dt at composite states X of shape (N,) or (..., N) with signals sig at X."""
        loop = self.loop
        xp, xc = loop.split(X)
        dxp, dxc = loop.split(sig.dstate)
        return (np.sum(self.v1.grad(xp) * dxp, axis=(-2, -1))
                + np.sum(self._P.apply(xc) * dxc, axis=-1)
                - np.sum(sig.y1dot * sig.y2 + sig.y1 * sig.y2dot, axis=-1))

    def positivity_margin(self) -> float:
        """lambda_min(Q - lambda_max(K) G Y G^T) with G = Cp^T Cc, for K positive
        semidefinite. V1 replaced by x^T Q x / 2 makes W a quadratic form within
        n c of W, and a Schur complement reduces its blocks, one per eigenvalue
        of K, to this matrix. A positive margin makes W positive off {xp = 0,
        xc in ker K (x) R^q}, a negative one unbounded below. Raises ValueError
        unless Y is symmetric positive definite."""
        Y, loop = self.Y, self.loop
        if not (np.array_equal(Y, Y.T) and np.linalg.eigvalsh(Y)[0] > 0):
            raise ValueError("controller certificate Y must be symmetric positive definite")
        G = loop.plant.C.T @ loop.controller.C
        lam = np.linalg.eigvalsh(loop.K)[-1]
        return float(np.linalg.eigvalsh(self.v1.Q - lam * G @ Y @ G.T)[0])
