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
controller states node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .graph import Graph, is_connected, laplacian
from .linsys import StateSpace, is_hurwitz, kron_ss
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
    """Every signal of a closed loop evaluated at one composite state.

    Flat arrays of length n*m: plant inputs u1, plant outputs y1 and their
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
        self.plant = plant
        self.controller = controller
        self.K = np.atleast_2d(np.asarray(K, dtype=float))
        self.bank = kron_ss(self.K, controller)
        n, p, m = self.K.shape[0], plant.p, plant.m
        self.n_plants = n
        self.io_dim = m
        self._split = n * p
        self.n_states = self._split + self.bank.state_dim
        self._nodes = [(slice(i * p, (i + 1) * p), slice(i * m, (i + 1) * m))
                       for i in range(n)]
        self._node_C = np.kron(np.eye(n), controller.C)

    def plant_state_slice(self, i: int) -> slice:
        return self._nodes[i][0]

    def ctrl_state_slice(self, i: int) -> slice:
        q = self.controller.state_dim
        return slice(self._split + i * q, self._split + (i + 1) * q)

    def split(self, X):
        """(plant states as (n, p), controller states flat)."""
        X = np.asarray(X, dtype=float)
        return X[:self._split].reshape(self.n_plants, self.plant.p), X[self._split:]

    def rhs(self, X):
        """Composite derivative; the lean path used inside the integrator."""
        bank, f, h = self.bank, self.plant.f, self.plant.h
        xc = X[self._split:]
        y2 = bank.C @ xc
        y1 = np.empty(bank.io_dim)
        dX = np.empty(self.n_states)
        for sx, sy in self._nodes:
            x = X[sx]
            dX[sx] = f(x, y2[sy])
            y1[sy] = h(x)
        dX[self._split:] = bank.A @ xc + bank.B @ y1
        return dX

    def evaluate(self, X) -> LoopSignals:
        """Derivative plus every loop signal, all from exact chain rules."""
        X = np.asarray(X, dtype=float)
        bank, plant = self.bank, self.plant
        xc = X[self._split:]
        y2 = bank.C @ xc
        y1 = np.empty(bank.io_dim)
        y1dot = np.empty(bank.io_dim)
        dX = np.empty(self.n_states)
        for sx, sy in self._nodes:
            x = X[sx]
            dx = plant.f(x, y2[sy])
            dX[sx] = dx
            y1[sy] = plant.h(x)
            y1dot[sy] = plant.dh(x) @ dx
        dxc = bank.A @ xc + bank.B @ y1
        dX[self._split:] = dxc
        return LoopSignals(dstate=dX, u1=y2, y1=y1, y1dot=y1dot,
                           yc=self._node_C @ xc, ycdot=self._node_C @ dxc,
                           y2=y2, y2dot=bank.C @ dxc)


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
    gradients and output chain rules.
    """

    def __init__(self, loop: ClosedLoop, v1: StorageFunction, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        q = loop.controller.state_dim
        if Y.shape != (q, q):
            raise ValueError(f"controller certificate Y must be {q} x {q}")
        self.loop = loop
        self.v1 = v1
        self._P = np.kron(loop.K, np.linalg.inv(Y))

    def value(self, X) -> float:
        loop, V, h = self.loop, self.v1.V, self.loop.plant.h
        X = np.asarray(X, dtype=float)
        xc = X[loop._split:]
        y1 = np.empty(loop.bank.io_dim)
        total = 0.0
        for sx, sy in loop._nodes:
            total += V(X[sx])
            y1[sy] = h(X[sx])
        return float(total + 0.5 * (xc @ self._P @ xc) - y1 @ (loop.bank.C @ xc))

    def rate(self, X) -> float:
        loop, grad = self.loop, self.v1.grad
        X = np.asarray(X, dtype=float)
        sig = loop.evaluate(X)
        dX = sig.dstate
        total = sum(float(grad(X[sx]) @ dX[sx]) for sx, _ in loop._nodes)
        total += float(X[loop._split:] @ self._P @ dX[loop._split:])
        return total - float(sig.y1dot @ sig.y2 + sig.y1 @ sig.y2dot)


@dataclass(frozen=True)
class PositivityReport:
    """Sampled lower bound of a composite storage over a box."""

    min_value: float
    argmin: np.ndarray
    samples: int
    passed: bool


def storage_positivity_scan(cs: CompositeStorage, lo, hi, samples: int = 20000,
                            seed: int = 0) -> PositivityReport:
    """Evaluate the storage at Halton points in the box [lo, hi].

    Passes when the sampled minimum is positive outside a 1e-8 ball around
    the origin. Sampling cannot prove positive definiteness; the report is
    advisory and callers are expected to proceed (with a warning) on failure.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = cs.loop.n_states
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError(f"box bounds must have length {dim}")
    if np.any(lo > 0) or np.any(hi < 0):
        raise ValueError("scan box must contain the origin")
    points = lo + qmc.Halton(d=dim, seed=seed).random(samples) * (hi - lo)
    best_val, best_x, counted = math.inf, None, 0
    for x in points:
        if np.linalg.norm(x) <= 1e-8:
            continue
        counted += 1
        w = cs.value(x)
        if w < best_val:
            best_val, best_x = w, x
    return PositivityReport(min_value=float(best_val), argmin=best_x,
                            samples=counted, passed=best_val > 0)
