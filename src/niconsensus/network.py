"""Closed-loop interconnections and composite storage functions.

Every closed loop is n identical plants in positive feedback with one linear
controller bank: n identical strictly proper controllers M = (A, B, C) whose
outputs are mixed by a constant symmetric n x n matrix K. The bank is the
single realisation kron_ss(K, M) = (I (x) A, I (x) B, K (x) C): controller i
integrates dxc_i = A xc_i + B y1_i locally and plant i receives
u1_i = sum_j K_ij C xc_j. The two cases of the paper are

* a single plant/controller pair: n = 1 and K = [[1]];
* a network over an undirected graph: K is the graph Laplacian L, so the
  i-th input is sum_j a_ij (C xc_i - C xc_j) and the difference states
  xc_i - xc_j are literal copies of the single-controller dynamics.

Composite state layout: all plant states first, node by node, then all
controller states node by node. For plants dx/dt = A x + B u + E phi(x),
y = C x and controller (Ac, Bc, Cc), the integrator steps the extended state
Z = [xp; phi(xp); xc] by dZ/dt = W Z, with the square W built once:
[[I (x) A, I (x) E, K (x) B Cc], [0, 0, 0], [I (x) Bc C, 0, I (x) Ac]], so a
pendulum row sums spring, gravity and input terms in the hand-written order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, is_connected, laplacian
from .linsys import StateSpace, is_hurwitz, kron_ss, matvec
from .plant import NonlinearPlant, StorageFunction


def check_controller(sys: StateSpace):
    """Raise ValueError unless the controller is Hurwitz and strictly proper,
    the two conditions every interconnection relies on."""
    if not is_hurwitz(sys):
        raise ValueError("the controller must be Hurwitz")
    if np.any(sys.D != 0):
        raise ValueError("the controller must be strictly proper (D = 0)")


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
    kron_ss(K, controller), where n is the order of the mixing matrix K.

    The composite vector field is a pure function of the composite state;
    instances hold no mutable simulation state and may be shared freely.
    """

    def __init__(self, plant: NonlinearPlant, controller: StateSpace, K):
        check_controller(controller)
        if plant.m != controller.io_dim:
            raise ValueError("plant and controller input/output dimensions differ")
        self.plant, self.controller = plant, controller
        self.K = np.atleast_2d(np.asarray(K, dtype=float))
        self.bank = kron_ss(self.K, controller)
        self.n_plants = n = self.K.shape[0]
        self.io_dim = plant.m
        self._split = n * plant.p
        self.n_states = self._split + self.bank.state_dim
        eye, (A, B, C, E) = np.eye(n), (plant.A, plant.B, plant.C, plant.E)
        self._node_C = np.kron(eye, controller.C)
        split, nr, q = self._split, n * E.shape[1], self.bank.state_dim
        self._nodes, self._phi = (n, plant.p), slice(split, split + nr)
        self._rows = np.r_[:split, split + nr:split + nr + q]
        self._W = np.block([[np.kron(eye, A), np.kron(eye, E), np.kron(self.K, B @ controller.C)],
                            [np.zeros((nr, split + nr + q))],
                            [np.kron(eye, controller.B @ C), np.zeros((q, nr)), self.bank.A]])

    def split(self, X):
        """(plant states as (..., n, p), controller states as (..., n*q))."""
        X = np.asarray(X, dtype=float)
        xp = X[..., :self._split].reshape(X.shape[:-1] + (self.n_plants, self.plant.p))
        return xp, X[..., self._split:]

    def storage_matrices(self, Y):
        """(Y^-1, K (x) Y^-1): the matrices of the controller storage
        (1/2) x^T Y^-1 x of the OSNI certificate Y and of the bank storage
        (1/2) xc^T (K (x) Y^-1) xc."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        q = self.controller.state_dim
        if Y.shape != (q, q):
            raise ValueError(f"controller certificate Y must be {q} x {q}")
        Yinv = np.linalg.inv(Y)
        return Yinv, np.kron(self.K, Yinv)

    def extend(self, X):
        """The extended states Z = [xp, phi(xp), xc] of composite states X of
        shape (N,) or (..., N): the column layout of the loop matrix W."""
        xp, xc = self.split(X)
        flat = xp.shape[:-2] + (-1,)
        return np.concatenate((xp.reshape(flat), self.plant.phi(xp).reshape(flat), xc), axis=-1)

    def rhs(self, Z, out):
        """The integrator's field on one extended state Z: refills Z's phi
        block from its plant block, then writes dZ/dt = W Z into out with one
        product. W's phi rows are zero, so dZ/dt is 0 there."""
        Z[self._phi] = self.plant.phi(Z[:self._split].reshape(self._nodes)).ravel()
        np.dot(self._W, Z, out=out)

    def evaluate(self, X) -> LoopSignals:
        """Derivative plus every loop signal at composite states X of shape
        (N,) or (..., N), all from exact chain rules."""
        xp, xc = self.split(X)
        dX = matvec(self._W, self.extend(X))[..., self._rows]
        dxp, dxc = self.split(dX)
        y2 = matvec(self.bank.C, xc)
        flat = xp.shape[:-2] + (-1,)
        return LoopSignals(dstate=dX, u1=y2, y1=self.plant.h(xp).reshape(flat),
                           y1dot=self.plant.h(dxp).reshape(flat),
                           yc=matvec(self._node_C, xc), ycdot=matvec(self._node_C, dxc),
                           y2=y2, y2dot=matvec(self.bank.C, dxc))


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
    be positive only off the controller-consensus subspace.
    """

    def __init__(self, loop: ClosedLoop, v1: StorageFunction, Y):
        self.loop = loop
        self.v1 = v1
        _, self._P = loop.storage_matrices(Y)

    def value(self, X):
        """W at composite states X of shape (N,) or (..., N)."""
        loop = self.loop
        xp, xc = loop.split(X)
        y1 = loop.plant.h(xp).reshape(xc.shape[:-1] + (-1,))
        return (self.v1.V(xp).sum(axis=-1) + 0.5 * np.sum((xc @ self._P) * xc, axis=-1)
                - np.sum(y1 * (xc @ loop.bank.C.T), axis=-1))

    def rate(self, X, sig: LoopSignals):
        """dW/dt at composite states X of shape (N,) or (..., N) with signals sig at X."""
        loop = self.loop
        xp, xc = loop.split(X)
        dxp, dxc = loop.split(sig.dstate)
        return (np.sum(self.v1.grad(xp) * dxp, axis=(-2, -1))
                + np.sum((xc @ self._P) * dxc, axis=-1)
                - np.sum(sig.y1dot * sig.y2 + sig.y1 * sig.y2dot, axis=-1))


@dataclass(frozen=True)
class PositivityReport:
    """Sampled lower bound of a composite storage over a box."""

    min_value: float
    argmin: np.ndarray
    samples: int
    passed: bool


def storage_positivity_scan(cs: CompositeStorage, lo, hi, samples: int = 20000,
                            seed: int = 0) -> PositivityReport:
    """Evaluate the storage at uniform random points in the box [lo, hi].

    Passes when the sampled minimum is positive outside a 1e-8 ball around
    the origin. A pass means "positive at every sampled point": for K = L the
    samples miss, almost surely, the line on which W = 0 (see CompositeStorage).
    Sampling cannot prove positive definiteness; the report is advisory and
    callers are expected to proceed (with a warning) on failure.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = cs.loop.n_states
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError(f"box bounds must have length {dim}")
    if np.any(lo > 0) or np.any(hi < 0):
        raise ValueError("scan box must contain the origin")
    points = lo + np.random.default_rng(seed).random((samples, dim)) * (hi - lo)
    points = points[np.linalg.norm(points, axis=1) > 1e-8]
    if not len(points):
        return PositivityReport(min_value=np.inf, argmin=None, samples=0, passed=False)
    values = cs.value(points)
    best = int(np.argmin(values))
    return PositivityReport(min_value=float(values[best]), argmin=points[best],
                            samples=len(points), passed=bool(values[best] > 0))
