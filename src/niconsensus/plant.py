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

import numpy as np

from .graph import Frozen, mixing_entries
from .linsys import StateSpace, dc_gain, matvec

#: Newton residual tolerance and iteration limit of equilibrium solving.
EQUILIBRIUM_TOL = 1e-10
EQUILIBRIUM_MAX_ITER = 100
#: Range and point count of the scalar constant-input grid of gamma_input_grid.
GAMMA_INPUT_LO, GAMMA_INPUT_HI, GAMMA_INPUT_COUNT = -25.0, 25.0, 201


def _nonzeros(M):
    """The nonzero entries (i, j, M[i, j]) of a matrix, row by row."""
    return [(i, j, w) for i, row in enumerate(np.asarray(M).tolist())
            for j, w in enumerate(row) if w]


def _sum_terms(terms, cols, out):
    """out[..., i] += w * cols[j] over terms (i, j, w) in their order: exact
    per batch row, with no per-row product."""
    for i, j, w in terms:
        out[..., i] += w * cols[j]
    return out


class NonlinearPlant(Frozen):
    """dx/dt = A x + B u + E phi(x[..., :r]), y = C x with A p x p, B p x m,
    C m x p, E p x r and r <= p: phi maps the first r state coordinates,
    phi: (..., r) -> (..., r), and f: (..., p), (..., m) -> (..., p) and
    h: (..., p) -> (..., m) act row-wise on leading batch axes. phi(x, out)
    writes phi(x) into out like a ufunc; one probe at construction checks it.
    A linear plant has r = 0, E = np.zeros((p, 0)) and any ufunc as phi."""

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, E: np.ndarray,
                 phi: callable):  # phi: (..., r), out=None -> (..., r)
        A, B, C, E = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C, E))
        for M in (A, B, C, E):
            if not np.isfinite(M).all():
                raise ValueError("plant matrices must be finite")
            M.setflags(write=False)
        self._set(A=A, B=B, C=C, E=E, phi=phi)
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
        self._set(_terms=_nonzeros(np.hstack((self.A, self.E, self.B))))

    p = property(lambda self: self.A.shape[0], doc="state dimension")
    m = property(lambda self: self.B.shape[1], doc="input/output dimension")
    r = property(lambda self: self.E.shape[1], doc="dimension of phi, on x[..., :r]")

    def f(self, x, u):
        """A x + E phi(x[..., :r]) + B u summed entry by entry in that column
        order, zero entries skipped: exact per batch row, with no per-row product."""
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        cols = [v[..., j] for v in (x, self.phi(x[..., :self.r]), u)
                for j in range(v.shape[-1])]
        return _sum_terms(self._terms, cols, np.zeros_like(x))

    def h(self, x):
        return matvec(self.C, np.asarray(x, dtype=float))


class StorageFunction(Frozen):
    """Positive definite energy function V with its exact gradient, acting
    row-wise on leading batch axes: V: (..., p) -> (...) and
    grad: (..., p) -> (..., p). Q is a symmetric p x p matrix such that
    V(x) - (1/2) x^T Q x lies in [0, c] for some constant c."""

    def __init__(self, V: callable, grad: callable, Q: np.ndarray):  # x -> energy, gradient
        self._set(V=V, grad=grad, Q=Q)


def pendulum(m_kg: float = 1.0, l_m: float = 0.5, kappa: float = 5.0,
             g_ms2: float = 9.8) -> tuple:
    """(plant, storage) of the torsional-spring pendulum of bob mass m_kg (kg), rod
    length l_m (m), spring constant kappa (N m/rad) and gravity g_ms2 (m/s^2),
    each positive and finite. The plant has angle x1 from the downward position
    and rate x2: dx1 = x2, dx2 = (-kappa x1 - m g l sin x1 + u) / (m l^2),
    y = x1; r = 1 and phi = sin, the ufunc itself. The storage is its total
    energy, spring + kinetic + gravitational, with Q = diag(kappa, m l^2) and c = 2 m g l."""
    if not all(0 < v < np.inf for v in (m_kg, l_m, kappa, g_ms2)):
        raise ValueError("pendulum parameters must be positive and finite")
    ml2, mgl = m_kg * l_m ** 2, m_kg * g_ms2 * l_m

    def V(x):
        x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return 0.5 * kappa * x1 * x1 + 0.5 * ml2 * x2 * x2 + mgl * (1.0 - np.cos(x1))

    def grad(x):
        x1, x2 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return np.stack([kappa * x1 + mgl * np.sin(x1), ml2 * x2], axis=-1)

    return (NonlinearPlant(A=[[0.0, 1.0], [-kappa / ml2, 0.0]], B=[[0.0], [1.0 / ml2]],
                           C=[[1.0, 0.0]], E=[[0.0], [-mgl / ml2]], phi=np.sin),
            StorageFunction(V=V, grad=grad, Q=np.diag([kappa, ml2])))


class EquilibriumError(RuntimeError):
    """Newton iteration found no equilibrium: ``member`` is the flat index of
    the first failed batch member, ``x`` the batch with NaN at each failure."""

    def __init__(self, member: int, x: np.ndarray):
        super().__init__("no equilibrium found from this guess")
        self.member, self.x = member, x


def equilibrium_solve(plant: NonlinearPlant, ubar, x0) -> np.ndarray:
    """Solve f(x, ubar) = 0 by damped Newton iteration in theta = x[..., :r],
    the coordinates phi reads, from the guess x0.

    x0 is one state (p,) with ubar (m,), or a batch (..., p) with ubar
    (..., m) whose members are solved independently: a returned member took
    the steps it would take alone. The other coordinates w = x[..., r:] enter
    f = g(theta) + A[:, r:] w, g(theta) = A[:, :r] theta + E phi(theta) + B ubar,
    only linearly. With A[:, r:] = [Q1 Q2] [R1; 0] (one QR per call), f = 0
    is G(theta) = Q2^T g(theta) = 0 with w = -R1^-1 Q1^T g(theta), and there
    f(x) = Q2 G(theta). Newton runs on G from theta0 = x0[..., :r]: the r x r
    Jacobian is a forward difference with step 1e-7 (1 + |theta_j|), its r
    columns from one phi call, and steps are halved, down to 1e-6, until the
    residual max|Q2 G| decreases. Converged when it drops below 1e-10 within
    100 steps. Raises EquilibriumError naming the first member that fails;
    when A[:, r:] is rank-deficient no equilibrium is isolated and every
    member fails. Raises ValueError when the shapes of x0 and ubar disagree.
    """
    p, r, m = plant.p, plant.r, plant.m
    shape, ushape = np.shape(x0), np.shape(ubar)
    if shape[-1:] != (p,) or ushape != shape[:-1] + (m,):
        raise ValueError(f"x0 of shape {shape} and ubar of shape {ushape} do not match: "
                         f"need (..., {p}) and (..., {m}) on the same leading axes")
    x = np.array(x0, dtype=float).reshape(-1, p)
    u = np.asarray(ubar, dtype=float).reshape(-1, m)
    res = np.full(len(x), np.nan)  # residual max|f(x)|; NaN marks a failed member
    if r == p or np.linalg.matrix_rank(plant.A[:, r:]) == p - r:
        Q, R = np.linalg.qr(plant.A[:, r:], mode="complete")
        Q1, Q2 = Q[:, :p - r], Q[:, p - r:]
        Z = np.hstack((plant.A[:, :r], plant.E, plant.B))
        g_terms = _nonzeros(Q2.T @ Z[:, :2 * r])
        q_nonzero = Q2[Q2.any(axis=1)]  # a zero row of Q2 adds |0| to max|Q2 g|
        q_terms, k = _nonzeros(q_nonzero), len(q_nonzero)

        def G(th, c):
            """Q2^T g(theta), summed in f's column order theta, phi(theta), u;
            c holds the u part Q2^T B ubar, which no step changes."""
            ph = plant.phi(th)
            cols = [th[..., j] for j in range(r)] + [ph[..., j] for j in range(r)]
            return _sum_terms(g_terms, cols, np.zeros_like(th)) + c

        def residual(g):
            return np.abs(_sum_terms(q_terms, [g[..., j] for j in range(r)],
                                     np.zeros(g.shape[:-1] + (k,)))).max(axis=-1, initial=0.0)

        c = _sum_terms(_nonzeros(Q2.T @ plant.B), u.T, np.zeros((len(x), r)))
        x[:, :r], res[:] = _damped_newton(G, residual, x[:, :r], c)
        cols = [*x[:, :r].T, *plant.phi(x[:, :r]).T, *u.T]
        x[:, r:] = _sum_terms(_nonzeros(-np.linalg.solve(R[:p - r], Q1.T @ Z)), cols,
                              np.zeros((len(x), p - r)))
    bad = np.flatnonzero(~(res < EQUILIBRIUM_TOL))
    x[bad] = np.nan
    if bad.size:
        raise EquilibriumError(int(bad[0]), x.reshape(shape))
    return x.reshape(shape)


def _damped_newton(G, residual, th, c):
    """(theta, residual) after damped Newton iteration on G(theta, c) = 0 from
    theta, one member per row, with residual(G) the norm it decreases; the
    residual is NaN where a member failed."""
    r = th.shape[1]
    th, res = th.copy(), np.full(len(th), np.nan)
    # the members still iterating, compacted: their indices, theta, c, G and residual
    idx, ta, ca = np.arange(len(th)), th.copy(), c
    ga = G(ta, ca)
    ra = residual(ga)
    for it in range(EQUILIBRIUM_MAX_ITER + 1):
        # retire the converged members and those that failed (NaN)
        done = ~(ra >= EQUILIBRIUM_TOL)
        if done.any():
            i = np.flatnonzero(done)
            th[idx[i]], res[idx[i]] = ta[i], ra[i]
            i = np.flatnonzero(~done)
            idx, ta, ca, ga, ra = (v.take(i, axis=0) for v in (idx, ta, ca, ga, ra))
        if not idx.size or it == EQUILIBRIUM_MAX_ITER:
            return th, res
        step = 1e-7 * (1.0 + np.abs(ta))
        probes = np.empty((len(idx), r, r))
        probes[...] = ta[:, None, :]
        probes.reshape(len(idx), r * r)[:, ::r + 1] += step
        J = ((G(probes, ca[:, None, :]) - ga[:, None, :]) / step[:, :, None]).swapaxes(1, 2)
        d = _newton_steps(J, ga)
        finite = np.isfinite(d).all(axis=1)
        if not finite.all():  # a singular Jacobian: that member fails
            d[~finite], ra[~finite] = 0.0, np.nan
        # every member tries its full step at once; those it leaves no better halve it
        trial = ta + d
        g_trial = G(trial, ca)
        r_trial = residual(g_trial)
        ok = r_trial < ra
        np.copyto(ta, trial, where=ok[:, None])
        np.copyto(ga, g_trial, where=ok[:, None])
        np.copyto(ra, r_trial, where=ok)
        left, t = np.flatnonzero(~ok & finite), 0.5
        while left.size and t > 1e-6:
            trial = ta[left] + t * d[left]
            g_trial = G(trial, ca[left])
            r_trial = residual(g_trial)
            ok = r_trial < ra[left]
            won = left[ok]
            ta[won], ga[won], ra[won] = trial[ok], g_trial[ok], r_trial[ok]
            left = left[~ok]
            t *= 0.5
        ra[left] = np.nan


def _newton_steps(J, g):
    """Newton steps -J^-1 g of a (k, r, r) stack of Jacobians, NaN or infinite
    where one is singular: where slogdet's sign is 0, as det's product can underflow."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if J.shape[-1] == 1:
            return -g / J[:, :, 0]
        d, ok = np.full_like(g, np.nan), np.linalg.slogdet(J)[0] != 0  # NaN J: NaN step, unwarned
    d[ok] = np.linalg.solve(J[ok], -g[ok, :, None])[:, :, 0]
    return d


class GammaError(RuntimeError):
    """No equilibrium for one input of a gain estimate: ``input`` is that
    constant input and ``node`` its first node without one."""

    def __init__(self, u: np.ndarray, node: int):
        super().__init__(f"equilibrium solve failed for input {u} (node {node})")
        self.input, self.node = u, node


class GammaReport(Frozen):
    """Largest steady-state ratio u^T ybar2 / |u|^2 over a grid of constant
    inputs, with the input attaining it."""

    def __init__(self, gamma_hat: float, worst_input: np.ndarray, ratios: np.ndarray):
        self._set(gamma_hat=gamma_hat, worst_input=worst_input, ratios=ratios)


def gamma_input_grid():
    """Scalar constant-input grid (zero excluded) for the pair-chain ratio,
    one input per row: a (k, 1) array."""
    pts = np.linspace(GAMMA_INPUT_LO, GAMMA_INPUT_HI, GAMMA_INPUT_COUNT)
    return pts[np.abs(pts) > 1e-12, None]


def gamma_estimate(plant: NonlinearPlant, M: StateSpace, inputs, graph=None) -> GammaReport:
    """Steady-state gain ratio of the open chain from n plant copies to the
    bank K (x) M(s), K = [[1]] for a pair (no graph) and the graph's Laplacian
    L for a network: gamma_estimates on this one case, raising its GammaError."""
    (est,) = gamma_estimates(plant, M, [(inputs, graph)])
    if isinstance(est, GammaError):
        raise est
    return est


def gamma_estimates(plant: NonlinearPlant, M: StateSpace, cases) -> list:
    """Gain ratios u^T ybar2 / |u|^2 of the chains into K (x) M(s), one per
    (inputs, graph) case, K the mixing matrix of ``mixing_entries(graph)`` of
    order n and inputs a (k, n m) array or a list of k finite nonzero vectors:
    each node's equilibrium solved from rest, those of all cases in one batch,
    its output mapped through K (x) M(0) on the nonzeros of K. Per case a
    GammaReport, or a GammaError naming the input and first node that failed."""
    if M.io_dim != plant.m:
        raise ValueError("controller input/output dimension must equal the plant's")
    mixes = [mixing_entries(graph) for _, graph in cases]
    Us = [np.asarray(inputs, dtype=float) for inputs, _ in cases]
    if not all(U.size for U in Us):
        raise ValueError("need at least one constant input")
    Us = [U.reshape(len(U), n * plant.m) for U, (n, _) in zip(Us, mixes)]
    if not all(np.isfinite(U).all() for U in Us):
        raise ValueError("constant inputs must be finite")
    if any(np.any(np.linalg.norm(U, axis=1) <= 1e-300) for U in Us):
        raise ValueError("constant inputs must be nonzero")
    nodes = np.concatenate([U.reshape(-1, plant.m) for U in Us])
    try:
        xbar = equilibrium_solve(plant, nodes, np.zeros((len(nodes), plant.p)))
    except EquilibriumError as err:
        xbar = err.x
    ends, D, out = np.cumsum([len(U) * n for U, (n, _) in zip(Us, mixes)]), dc_gain(M), []
    for U, (n, (rows, cols, vals)), x in zip(Us, mixes, np.split(xbar, ends[:-1])):
        k = len(U)
        x = x.reshape(k, n, plant.p)
        failed = np.flatnonzero(np.isnan(x).any(axis=2))
        if failed.size:
            out.append(GammaError(U[failed[0] // n], int(failed[0] % n)))
            continue
        mixed = np.zeros((k, n, plant.m))
        np.add.at(mixed, (slice(None), rows), vals[:, None] * plant.h(x)[:, cols])
        ratios = np.sum(U * matvec(D, mixed).reshape(k, -1), axis=1) / np.sum(U * U, axis=1)
        worst = int(np.argmax(ratios))
        out.append(GammaReport(float(ratios[worst]), U[worst], ratios))
    return out
