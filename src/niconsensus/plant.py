"""Nonlinear plants, storage functions and equilibrium analysis.

Every plant is a linear part plus a static nonlinearity of its first r state
coordinates, dx/dt = A x + B u + E phi(x[..., :r]), y = C x (the Lur'e form),
with phi Lipschitz continuous (a documented precondition, not verified
here). A nonlinearity of other coordinates is phi on all r = p of them, with
zero columns in E where needed. The output map is linear, so an output rate
is exactly h(f(x, u)) = C dx/dt rather than a difference of sampled signals.

Plants and storage functions act row-wise on leading batch axes, so one call
evaluates n nodes or T samples at once; phi(v, out=None) also writes into
out like a numpy ufunc, so the integrator refills its buffer in place, and
a ufunc such as np.sin is a phi as it stands.
Plants used in the stability experiments additionally satisfy "x(t)
constant => u(t) constant" (for the pendulum this follows from the second
state equation), a documented precondition of the steady-state arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import StateSpace, dc_gain, matvec, mixing_matrix

#: Newton residual tolerance and iteration limit of equilibrium solving.
EQUILIBRIUM_TOL = 1e-10
EQUILIBRIUM_MAX_ITER = 100
#: Range and point count of the scalar constant-input grid of gamma_input_grid.
GAMMA_INPUT_LO, GAMMA_INPUT_HI, GAMMA_INPUT_COUNT = -25.0, 25.0, 201


@dataclass(frozen=True)
class NonlinearPlant:
    """dx/dt = A x + B u + E phi(x[..., :r]), y = C x with A p x p, B p x m,
    C m x p, E p x r and r <= p: phi maps the first r state coordinates,
    phi: (..., r) -> (..., r), and f: (..., p), (..., m) -> (..., p) and
    h: (..., p) -> (..., m) act row-wise on leading batch axes. phi(x, out)
    writes phi(x) into out like a ufunc; one probe at construction checks it."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    phi: callable  # (..., r), out=None -> (..., r)

    def __post_init__(self):
        for name in "ABCE":
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        p, m = self.B.shape
        r = self.E.shape[1]
        if (self.A.shape, self.C.shape, self.E.shape[0]) != ((p, p), (m, p), p) or r > p:
            raise ValueError("plant matrices must be A p x p, B p x m, C m x p, "
                             "E p x r with r <= p")
        # a phi that ignored out would leave a stale phi block in every RK4 stage
        x = np.linspace(0.25, 0.75, 2 * r).reshape(2, r)
        out = np.full((2, r), np.nan)
        self.phi(x, out)
        if not np.array_equal(out, self.phi(x)):
            raise ValueError("phi(x, out) must write phi(x), of shape (..., r), into out")
        rows = np.hstack((self.A, self.E, self.B)).tolist()
        object.__setattr__(self, "_terms", [(i, j, w) for i, row in enumerate(rows)
                                            for j, w in enumerate(row) if w])

    p = property(lambda self: self.A.shape[0], doc="state dimension")
    m = property(lambda self: self.B.shape[1], doc="input/output dimension")
    r = property(lambda self: self.E.shape[1], doc="dimension of phi, on x[..., :r]")

    def f(self, x, u):
        """A x + E phi(x[..., :r]) + B u summed entry by entry in that column
        order, zero entries skipped: exact per batch row, with no per-row product."""
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        cols = [v[..., j] for v in (x, self.phi(x[..., :self.r]), u)
                for j in range(v.shape[-1])]
        dx = np.zeros_like(x)
        for i, j, w in self._terms:
            dx[..., i] += w * cols[j]
        return dx

    def h(self, x):
        return matvec(self.C, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class StorageFunction:
    """Positive definite energy function V with its exact gradient, acting
    row-wise on leading batch axes: V: (..., p) -> (...) and
    grad: (..., p) -> (..., p). Q is a symmetric p x p matrix such that
    V(x) - (1/2) x^T Q x lies in [0, c] for some constant c."""

    V: callable  # x -> energy
    grad: callable  # x -> gradient
    Q: np.ndarray


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
    """(m l^2, m g l, kappa) as 0-d arrays, which numpy multiplies fastest."""
    return (np.array(params.m_kg * params.l_m ** 2),
            np.array(params.m_kg * params.g_ms2 * params.l_m), np.array(params.kappa))


def pendulum_plant(params: PendulumParams) -> NonlinearPlant:
    """Pendulum with angle x1 from the downward position and rate x2: dx1 = x2,
    dx2 = (-kappa x1 - m g l sin x1 + u) / (m l^2), y = x1; r = 1 and phi = sin,
    the ufunc itself."""
    ml2, mgl, kap = _pendulum_constants(params)
    return NonlinearPlant(A=[[0.0, 1.0], [-kap / ml2, 0.0]], B=[[0.0], [1.0 / ml2]],
                          C=[[1.0, 0.0]], E=[[0.0], [-mgl / ml2]],
                          phi=np.sin)


def pendulum_storage(params: PendulumParams) -> StorageFunction:
    """Total pendulum energy: spring + kinetic + gravitational terms, with
    Q = diag(kappa, m l^2) and c = 2 m g l."""
    ml2, mgl, kap = _pendulum_constants(params)

    def V(x):
        x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return 0.5 * kap * x1 * x1 + 0.5 * ml2 * x2 * x2 + mgl * (1.0 - np.cos(x1))

    def grad(x):
        x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return np.stack([kap * x1 + mgl * np.sin(x1), ml2 * x2], axis=-1)

    return StorageFunction(V=V, grad=grad, Q=np.diag([kap, ml2]))


class EquilibriumError(RuntimeError):
    """Newton iteration found no equilibrium: ``member`` is the flat index of
    the first failed batch member, ``x`` the batch with NaN at each failure."""

    def __init__(self, member: int, x: np.ndarray):
        super().__init__("no equilibrium found from this guess")
        self.member, self.x = member, x


def equilibrium_solve(plant: NonlinearPlant, ubar, x0) -> np.ndarray:
    """Solve f(x, ubar) = 0 by damped Newton iteration from the guess x0.

    x0 is one state (p,) with ubar (m,), or a batch (..., p) with ubar
    (..., m) whose members are solved independently: a returned member took
    the steps it would take alone. The Jacobian is a forward difference with step
    1e-7 (1 + |x_j|), its p columns from one plant call; steps are halved
    until the residual decreases. Converged when the residual max-norm drops
    below 1e-10 within 100 steps. Raises EquilibriumError naming the first
    member that fails.
    """
    p = plant.p
    shape = np.shape(x0)
    x = np.array(x0, dtype=float).reshape(-1, p)
    u = np.asarray(ubar, dtype=float).reshape(x.shape[0], plant.m)
    fx = plant.f(x, u)
    res = np.abs(fx).max(axis=1)  # residual max-norm; NaN marks a failed member
    diag = np.arange(p)
    for _ in range(EQUILIBRIUM_MAX_ITER):
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
    x[bad] = np.nan
    if bad.size:
        raise EquilibriumError(int(bad[0]), x.reshape(shape))
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


def gamma_input_grid():
    """Scalar constant-input grid (zero excluded) for the pair-chain ratio,
    one input per row: a (k, 1) array."""
    pts = np.linspace(GAMMA_INPUT_LO, GAMMA_INPUT_HI, GAMMA_INPUT_COUNT)
    return pts[np.abs(pts) > 1e-12, None]


def gamma_estimate(plant: NonlinearPlant, M: StateSpace, inputs, K=((1.0,),)) -> GammaReport:
    """Steady-state gain ratio of the open chain from n plant copies to the
    bank K (x) M(s), K = [[1]] (the default) for a pair and L for a network:
    gamma_estimates on this one case, raising its GammaError."""
    (est,) = gamma_estimates(plant, M, [(inputs, K)])
    if isinstance(est, GammaError):
        raise est
    return est


def gamma_estimates(plant: NonlinearPlant, M: StateSpace, cases) -> list:
    """Gain ratios u^T ybar2 / |u|^2 of the chains into K (x) M(s), one per
    (inputs, K) case, K square and symmetric and inputs a (k, n m) array or a
    list of k nonzero vectors: each node's equilibrium solved from rest, those
    of all cases in one batch, its output mapped through K (x) M(0) on the
    nonzeros of K. Per case a GammaReport, or a GammaError naming the input and
    first node that failed."""
    if M.io_dim != plant.m:
        raise ValueError("controller input/output dimension must equal the plant's")
    Ks = [mixing_matrix(K) for _, K in cases]
    Us = [np.asarray(inputs, dtype=float) for inputs, _ in cases]
    if not all(U.size for U in Us):
        raise ValueError("need at least one constant input")
    Us = [U.reshape(len(U), len(K) * plant.m) for U, K in zip(Us, Ks)]
    if any(np.any(np.linalg.norm(U, axis=1) <= 1e-300) for U in Us):
        raise ValueError("constant inputs must be nonzero")
    nodes = np.concatenate([U.reshape(-1, plant.m) for U in Us])
    try:
        xbar = equilibrium_solve(plant, nodes, np.zeros((len(nodes), plant.p)))
    except EquilibriumError as err:
        xbar = err.x
    ends, D, out = np.cumsum([len(U) * len(K) for U, K in zip(Us, Ks)]), dc_gain(M), []
    for U, K, x in zip(Us, Ks, np.split(xbar, ends[:-1])):
        k, n = len(U), len(K)
        x = x.reshape(k, n, plant.p)
        failed = np.flatnonzero(np.isnan(x).any(axis=2))
        if failed.size:
            out.append(GammaError(U[failed[0] // n], int(failed[0] % n)))
            continue
        rows, cols, mixed = *np.nonzero(K), np.zeros((k, n, plant.m))
        np.add.at(mixed, (slice(None), rows), K[rows, cols, None] * plant.h(x)[:, cols])
        ratios = np.sum(U * matvec(D, mixed).reshape(k, -1), axis=1) / np.sum(U * U, axis=1)
        worst = int(np.argmax(ratios))
        out.append(GammaReport(float(ratios[worst]), U[worst], ratios))
    return out
