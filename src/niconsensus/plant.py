"""Nonlinear plants, storage functions and equilibrium analysis.

A plant is dx/dt = f(x, u), y = h(x) with f Lipschitz continuous and h of
class C^1; both are documented preconditions and are not verified here. The
exact output Jacobian dh is carried alongside h so that output rates (and
with them every dissipation check) come from the chain rule rather than from
differencing sampled signals.

Plants and storage functions act row-wise on leading batch axes, so one call
evaluates n nodes or T samples at once.

Plants used in the stability experiments additionally satisfy h(0) = 0 and
the implication "x(t) constant => u(t) constant" (for the pendulum this
follows from the second state equation); the latter is required by the
steady-state arguments and is likewise a documented precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import StateSpace, dc_gain, matvec

#: Newton residual tolerance for equilibrium solving.
EQUILIBRIUM_TOL = 1e-10


@dataclass(frozen=True)
class NonlinearPlant:
    """State-space nonlinearity with state dim p and input/output dim m.

    The maps act row-wise on leading batch axes:
    f: (..., p), (..., m) -> (..., p); h: (..., p) -> (..., m);
    dh: (..., p) -> (..., m, p). A single state of shape (p,) is the batch
    of no leading axes.
    """

    p: int
    m: int
    f: callable  # (x, u) -> dx/dt
    h: callable  # x -> y
    dh: callable  # x -> m x p output Jacobian


@dataclass(frozen=True)
class StorageFunction:
    """Positive definite energy function V with its exact gradient, acting
    row-wise on leading batch axes: V: (..., p) -> (...) and
    grad: (..., p) -> (..., p)."""

    V: callable  # x -> energy
    grad: callable  # x -> gradient


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


def _pendulum_constants(params: PendulumParams):
    """(m l^2, m g l, kappa) as 0-d arrays: numpy multiplies these by array
    elements faster than it does Python floats."""
    return (np.array(params.m_kg * params.l_m ** 2),
            np.array(params.m_kg * params.g_ms2 * params.l_m), np.array(params.kappa))


def pendulum_plant(params: PendulumParams) -> NonlinearPlant:
    """Pendulum with angle x1 from the downward position and rate x2.

    dx1 = x2,  dx2 = (-kappa x1 - m g l sin x1 + u) / (m l^2),  y = x1.
    """
    ml2, mgl, kap = _pendulum_constants(params)
    neg_kap = -kap
    jac = np.array([[1.0, 0.0]])

    def f(x, u):
        x, u = np.asarray(x), np.asarray(u)
        x1 = x[..., 0]
        dx = np.array(x[..., ::-1], dtype=float)  # dx1 = x2; dx2 is set below
        dx[..., 1] = (neg_kap * x1 - mgl * np.sin(x1) + u[..., 0]) / ml2
        return dx

    def h(x):
        return np.asarray(x, dtype=float)[..., :1].copy()

    def dh(x):
        return np.broadcast_to(jac, np.shape(x)[:-1] + jac.shape)

    return NonlinearPlant(p=2, m=1, f=f, h=h, dh=dh)


def pendulum_storage(params: PendulumParams) -> StorageFunction:
    """Total pendulum energy: spring + kinetic + gravitational terms."""
    ml2, mgl, kap = _pendulum_constants(params)

    def V(x):
        x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return 0.5 * kap * x1 * x1 + 0.5 * ml2 * x2 * x2 + mgl * (1.0 - np.cos(x1))

    def grad(x):
        x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return np.stack([kap * x1 + mgl * np.sin(x1), ml2 * x2], axis=-1)

    return StorageFunction(V=V, grad=grad)


def output_rate(plant: NonlinearPlant, x, u) -> np.ndarray:
    """Exact dy/dt = dh(x) f(x, u), row-wise over leading batch axes."""
    return matvec(plant.dh(x), plant.f(x, u))


class EquilibriumError(RuntimeError):
    """Newton iteration found no equilibrium; ``member`` is the flat index of
    the first batch member that failed."""

    def __init__(self, member: int):
        super().__init__("no equilibrium found from this guess")
        self.member = member


def equilibrium_solve(plant: NonlinearPlant, ubar, x0, max_iter: int = 100) -> np.ndarray:
    """Solve f(x, ubar) = 0 by damped Newton iteration from the guess x0.

    x0 is one state (p,) with ubar (m,), or a batch (..., p) with ubar
    (..., m) whose members are solved independently: a returned member took
    the steps it would take alone. The Jacobian is a forward difference with step
    1e-7 (1 + |x_j|), its p columns from one plant call; steps are halved
    until the residual decreases. Converged when the residual max-norm drops
    below 1e-10. Raises EquilibriumError naming the first member that fails.
    """
    p = plant.p
    shape = np.shape(x0)
    x = np.array(x0, dtype=float).reshape(-1, p)
    u = np.asarray(ubar, dtype=float).reshape(x.shape[0], plant.m)
    fx = plant.f(x, u)
    res = np.abs(fx).max(axis=1)  # residual max-norm; NaN marks a failed member
    diag = np.arange(p)
    for _ in range(max_iter):
        todo = np.flatnonzero(res >= EQUILIBRIUM_TOL)
        if not todo.size:
            break
        xa, ua, fa = x[todo], u[todo], fx[todo]
        step = 1e-7 * (1.0 + np.abs(xa))
        probes = np.repeat(xa[:, None, :], p, axis=1)
        probes[:, diag, diag] += step
        J = ((plant.f(probes, ua[:, None, :]) - fa[:, None, :])
             / step[:, :, None]).swapaxes(1, 2)
        try:
            d = np.linalg.solve(J, -fa[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            res[todo[np.linalg.det(J) == 0]] = np.nan
            continue
        t, left = 1.0, np.arange(todo.size)
        while left.size and t > 1e-6:
            trial = xa[left] + t * d[left]
            f_trial = plant.f(trial, ua[left])
            r_trial = np.abs(f_trial).max(axis=1)
            ok = r_trial < res[todo[left]]
            won = todo[left[ok]]
            x[won], fx[won], res[won] = trial[ok], f_trial[ok], r_trial[ok]
            left = left[~ok]
            t *= 0.5
        res[todo[left]] = np.nan
    bad = np.flatnonzero(~(res < EQUILIBRIUM_TOL))
    if bad.size:
        raise EquilibriumError(int(bad[0]))
    return x.reshape(shape)


class GammaError(RuntimeError):
    """No equilibrium for one input of a gain estimate: ``input`` is that
    constant input and ``node`` its first node without one."""

    def __init__(self, u: np.ndarray, node: int):
        super().__init__(f"equilibrium solve failed for input {u} (node {node})")
        self.input, self.node = u, node


@dataclass(frozen=True)
class GammaReport:
    """Largest steady-state ratio u^T ybar2 / |u|^2 over a grid of constant
    inputs, with the input attaining it."""

    gamma_hat: float
    worst_input: np.ndarray
    ratios: np.ndarray


def gamma_input_grid(lo: float = -25.0, hi: float = 25.0, count: int = 201):
    """Scalar constant-input grid (zero excluded) for the pair-chain ratio,
    one input per row: a (k, 1) array."""
    pts = np.linspace(lo, hi, count)
    return pts[np.abs(pts) > 1e-12, None]


def gamma_estimate(plant: NonlinearPlant, controller: StateSpace, inputs,
                   x0=None) -> GammaReport:
    """Steady-state gain ratio of the open chain plant -> controller.

    For each constant plant input the plant equilibrium is solved by Newton
    iteration, the equilibrium output is mapped through the controller's DC
    gain, and the ratio u^T ybar2 / |u|^2 is recorded. The controller feeds
    n = io_dim / plant.m plant copies: a single controller (n = 1) or a
    controller bank such as kron_ss(L, M) with DC map L (x) M(0). ``inputs``
    is a (k, n m) array or a list of k nonzero input vectors. All k n node
    equilibria are one batched solve, each started from the plant state x0
    (default: rest), with no continuation from one input to the next. A
    failed solve raises GammaError with its input and first failing node.
    """
    n, rest = divmod(controller.io_dim, plant.m)
    if rest:
        raise ValueError("controller input/output dimension is not a multiple "
                         "of the plant's")
    U = np.asarray(inputs, dtype=float)
    if not U.size:
        raise ValueError("need at least one constant input")
    k = len(U)
    U = U.reshape(k, controller.io_dim)
    if np.any(np.linalg.norm(U, axis=1) <= 1e-300):
        raise ValueError("constant inputs must be nonzero")
    x0 = np.zeros(plant.p) if x0 is None else np.asarray(x0, dtype=float)
    try:
        xbar = equilibrium_solve(plant, U.reshape(k, n, plant.m),
                                 np.broadcast_to(x0, (k, n, plant.p)))
    except EquilibriumError as err:
        j, node = divmod(err.member, n)
        raise GammaError(U[j], node) from err
    ybar2 = matvec(dc_gain(controller), plant.h(xbar).reshape(k, -1))
    ratios = np.sum(U * ybar2, axis=1) / np.sum(U * U, axis=1)
    worst = int(np.argmax(ratios))
    return GammaReport(gamma_hat=float(ratios[worst]), worst_input=U[worst],
                       ratios=ratios)
