"""Nonlinear plants, storage functions, supply rates and equilibrium analysis.

A plant is dx/dt = f(x, u), y = h(x) with f Lipschitz continuous and h of
class C^1; both are documented preconditions and are not verified here. The
exact output Jacobian dh is carried alongside h so that output rates (and
with them every dissipation check) come from the chain rule rather than from
differencing sampled signals.

Plants used in the stability experiments additionally satisfy h(0) = 0 and
the implication "x(t) constant => u(t) constant" (for the pendulum this
follows from the second state equation); the latter is required by the
steady-state arguments and is likewise a documented precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linsys import StateSpace, dc_gain

#: Newton residual tolerance for equilibrium solving.
EQUILIBRIUM_TOL = 1e-10


@dataclass(frozen=True)
class NonlinearPlant:
    """State-space nonlinearity with state dim p and input/output dim m."""

    p: int
    m: int
    f: callable  # (x, u) -> dx/dt
    h: callable  # x -> y
    dh: callable  # x -> m x p output Jacobian


@dataclass(frozen=True)
class StorageFunction:
    """Positive definite energy function V with its exact gradient."""

    V: callable  # x -> float
    grad: callable  # x -> p-vector


@dataclass(frozen=True)
class PendulumParams:
    """Torsional-spring pendulum: bob mass (kg), rod length (m), spring
    constant (N m/rad), gravitational acceleration (m/s^2)."""

    m_kg: float = 1.0
    l_m: float = 0.5
    kappa: float = 5.0
    g_ms2: float = 9.8

    def __post_init__(self):
        if min(self.m_kg, self.l_m, self.kappa, self.g_ms2) <= 0:
            raise ValueError("pendulum parameters must be strictly positive")


def pendulum_plant(params: PendulumParams) -> NonlinearPlant:
    """Pendulum with angle x1 from the downward position and rate x2.

    dx1 = x2,  dx2 = (-kappa x1 - m g l sin x1 + u) / (m l^2),  y = x1.
    """
    ml2 = params.m_kg * params.l_m ** 2
    mgl = params.m_kg * params.g_ms2 * params.l_m
    kap = params.kappa

    def f(x, u):
        x1 = float(x[0])
        torque = float(u[0]) if np.ndim(u) else float(u)
        return np.array([float(x[1]), (-kap * x1 - mgl * math.sin(x1) + torque) / ml2])

    def h(x):
        return np.array([float(x[0])])

    def dh(x):
        return np.array([[1.0, 0.0]])

    return NonlinearPlant(p=2, m=1, f=f, h=h, dh=dh)


def pendulum_storage(params: PendulumParams) -> StorageFunction:
    """Total pendulum energy: spring + kinetic + gravitational terms."""
    ml2 = params.m_kg * params.l_m ** 2
    mgl = params.m_kg * params.g_ms2 * params.l_m
    kap = params.kappa

    def V(x):
        x1, x2 = float(x[0]), float(x[1])
        return 0.5 * kap * x1 * x1 + 0.5 * ml2 * x2 * x2 + mgl * (1.0 - math.cos(x1))

    def grad(x):
        x1, x2 = float(x[0]), float(x[1])
        return np.array([kap * x1 + mgl * math.sin(x1), ml2 * x2])

    return StorageFunction(V=V, grad=grad)


def output_rate(plant: NonlinearPlant, x, u) -> np.ndarray:
    """Exact dy/dt = dh(x) f(x, u)."""
    return plant.dh(x) @ plant.f(x, u)


def supply_ni(u, ydot) -> float:
    """Negative-imaginary supply rate u^T dy/dt."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ydot = np.atleast_1d(np.asarray(ydot, dtype=float))
    if u.shape != ydot.shape:
        raise ValueError("input and output-rate dimensions differ")
    return float(u @ ydot)


def supply_osni(u, ydot, delta: float) -> float:
    """Output-strict supply rate u^T dy/dt - delta |dy/dt|^2."""
    if delta <= 0:
        raise ValueError("strictness level delta must be positive")
    ydot = np.atleast_1d(np.asarray(ydot, dtype=float))
    return supply_ni(u, ydot) - delta * float(ydot @ ydot)


def equilibrium_solve(plant: NonlinearPlant, ubar, x0, max_iter: int = 100) -> np.ndarray:
    """Solve f(x, ubar) = 0 by damped Newton iteration from the guess x0.

    The Jacobian is a forward difference with step 1e-7 (1 + |x_j|); steps
    are halved until the residual decreases. Converged when the residual
    max-norm drops below 1e-10.
    """
    x = np.array(x0, dtype=float)
    ubar = np.atleast_1d(np.asarray(ubar, dtype=float))
    fx = plant.f(x, ubar)
    for _ in range(max_iter):
        if np.abs(fx).max() < EQUILIBRIUM_TOL:
            return x
        J = np.empty((plant.p, plant.p))
        for j in range(plant.p):
            step = 1e-7 * (1.0 + abs(x[j]))
            xp = x.copy()
            xp[j] += step
            J[:, j] = (plant.f(xp, ubar) - fx) / step
        try:
            d = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError as err:
            raise RuntimeError("no equilibrium found from this guess") from err
        t = 1.0
        base = np.abs(fx).max()
        while t > 1e-6:
            trial = x + t * d
            f_trial = plant.f(trial, ubar)
            if np.abs(f_trial).max() < base:
                x, fx = trial, f_trial
                break
            t *= 0.5
        else:
            raise RuntimeError("no equilibrium found from this guess")
    if np.abs(fx).max() < EQUILIBRIUM_TOL:
        return x
    raise RuntimeError("no equilibrium found from this guess")


@dataclass(frozen=True)
class GammaReport:
    """Largest steady-state ratio u^T ybar2 / |u|^2 over a grid of constant
    inputs, with the input attaining it."""

    gamma_hat: float
    worst_input: np.ndarray
    ratios: np.ndarray


def gamma_input_grid(lo: float = -25.0, hi: float = 25.0, count: int = 201):
    """Scalar constant-input grid (zero excluded) for the pair-chain ratio."""
    pts = np.linspace(lo, hi, count)
    return [np.array([u]) for u in pts if abs(u) > 1e-12]


def gamma_estimate(plant: NonlinearPlant, controller: StateSpace, inputs,
                   x0=None) -> GammaReport:
    """Steady-state gain ratio of the open chain plant -> controller.

    For each constant plant input the plant equilibrium is solved by Newton
    iteration, the equilibrium output is mapped through the controller's DC
    gain, and the ratio u^T ybar2 / |u|^2 is recorded. The controller feeds
    n = io_dim / plant.m plant copies: a single controller (n = 1) or a
    controller bank such as kron_ss(L, M) with DC map L (x) M(0). Inputs
    must be nonzero; an input whose equilibrium Newton solve fails is
    reported in the raised error.
    """
    n, rest = divmod(controller.io_dim, plant.m)
    if rest:
        raise ValueError("controller input/output dimension is not a multiple "
                         "of the plant's")
    dc_map = dc_gain(controller)
    inputs = [np.atleast_1d(np.asarray(u, dtype=float)) for u in inputs]
    if not inputs:
        raise ValueError("need at least one constant input")
    ratios = np.empty(len(inputs))
    best = (-math.inf, None)
    guesses = [np.zeros(plant.p) if x0 is None else np.array(x0, dtype=float)
               for _ in range(n)]
    for k, ubar in enumerate(inputs):
        if np.linalg.norm(ubar) <= 1e-300:
            raise ValueError("constant inputs must be nonzero")
        per_node = ubar.reshape(n, plant.m)
        ybar1 = np.empty((n, plant.m))
        for i in range(n):
            try:
                xbar = equilibrium_solve(plant, per_node[i], guesses[i])
            except RuntimeError as err:
                raise RuntimeError(
                    f"equilibrium solve failed for input {ubar} (node {i})") from err
            guesses[i] = xbar  # continuation along the input list
            ybar1[i] = plant.h(xbar)
        ybar2 = dc_map @ ybar1.reshape(-1)
        ratios[k] = float(ubar @ ybar2) / float(ubar @ ubar)
        if ratios[k] > best[0]:
            best = (ratios[k], ubar)
    return GammaReport(gamma_hat=float(best[0]), worst_input=best[1], ratios=ratios)
