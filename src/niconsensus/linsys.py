"""Linear state-space systems and negative-imaginary frequency-domain tests.

A square transfer matrix M(s) = C (sI - A)^-1 B + D realised by a Hurwitz A is

* negative-imaginary (NI) when j[M(jw) - M(jw)*] >= 0 for all w > 0;
* output strictly negative-imaginary (OSNI) with strictness level delta > 0
  when jw [M(jw) - M(jw)*] - 2 delta w^2 Mc(jw)* Mc(jw) >= 0 for all
  w in (0, inf], where Mc(jw) = M(jw) - D is the strictly proper part.

Both tests are evaluated on one fixed frequency grid, GRID, plus the
analytic w -> inf limit; positive semi-definiteness is accepted down to an
eigenvalue floor of -1e-9. The grid ends at 1e4 rad/s, so a resonance above
it is not seen: a lightly damped mode that breaks NI only there passes.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .graph import Frozen, laplacian_eigenvalues

#: Eigenvalue floor for the positive semi-definiteness tests.
PSD_TOL = 1e-9
#: Residual tolerance for the state-space OSNI certificate.
CERT_TOL = 1e-9
#: Frequencies (rad/s) of the NI/OSNI tests: 400 log-spaced points over
#: [1e-3, 1e4], read-only; the w -> inf limit is handled analytically.
GRID = np.logspace(-3.0, 4.0, 400)
GRID.setflags(write=False)


class StateSpace(Frozen):
    """Real state-space realisation (A, B, C, D) with square input/output."""

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray = None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        q = A.shape[0]
        if B.shape[0] != q:
            raise ValueError("B row count must match A")
        if C.shape[1] != q:
            raise ValueError("C column count must match A")
        m = B.shape[1]
        if C.shape[0] != m:
            raise ValueError("system must be square (C rows == B columns)")
        D = np.zeros((m, m)) if D is None else np.atleast_2d(np.asarray(D, dtype=float))
        if D.shape != (m, m):
            raise ValueError("D must be m x m")
        for M in (A, B, C, D):
            if not np.isfinite(M).all():
                raise ValueError("state-space matrices must be finite")
            M.setflags(write=False)
        self._set(A=A, B=B, C=C, D=D)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def io_dim(self) -> int:
        return self.B.shape[1]

    @cached_property
    def _terms(self):
        """Stacks (N, P, R) of one frequency response on GRID, formed at first
        use and read-only: N = j [M - M*], P = jw N and R = 2 w^2 Mc* Mc per
        grid frequency, P and R with a last entry holding the analytic
        w -> inf limits P = CB + (CB)^T, R = 2 (CB)^T (CB)."""
        if not is_hurwitz(self):
            raise ValueError("frequency-domain NI tests require a Hurwitz A")
        if not np.allclose(self.D, self.D.T, atol=1e-12):
            raise ValueError("OSNI tests require symmetric D")
        w = GRID[:, None, None]
        M = freq_response(self, GRID)
        skew, Mc = M - M.conj().swapaxes(1, 2), M - self.D
        CB = self.C @ self.B
        terms = (1j * skew,
                 np.concatenate([1j * w * skew, [CB + CB.T + 0j]]),
                 np.concatenate([2.0 * w * w * (Mc.conj().swapaxes(1, 2) @ Mc),
                                 [2.0 * (CB.T @ CB) + 0j]]))
        for T in terms:
            T.setflags(write=False)
        return terms


def require_level(delta: float):
    """Raise ValueError unless the strictness level delta is positive and finite."""
    if not 0 < delta < math.inf:
        raise ValueError("strictness level delta must be positive and finite")


def first_order(a: float, b: float) -> StateSpace:
    """SISO lag a/(s+b) realised as (A, B, C, D) = (-b, a, 1, 0)."""
    return StateSpace([[-b]], [[a]], [[1.0]], [[0.0]])


def is_hurwitz(sys: StateSpace) -> bool:
    """True iff every eigenvalue of A has strictly negative real part."""
    return bool(np.all(np.linalg.eigvals(sys.A).real < 0))


def dc_gain(sys: StateSpace) -> np.ndarray:
    """Steady-state gain M(0) = -C A^-1 B + D of a Hurwitz system."""
    if not is_hurwitz(sys):
        raise ValueError("dc-gain undefined for non-Hurwitz A")
    return -sys.C @ np.linalg.solve(sys.A, sys.B) + sys.D


def matvec(M, x) -> np.ndarray:
    """M x for each vector of the stack x (M one matrix or a stack), one
    product per vector: a batch row equals the single-vector result exactly."""
    return (M @ x[..., None])[..., 0]


def freq_response(sys: StateSpace, w) -> np.ndarray:
    """M(jw) = C (jwI - A)^-1 B + D at frequencies w > 0: an m x m matrix for
    a scalar w, a stack of shape w.shape + (m, m) for an array."""
    w = np.asarray(w, dtype=float)
    B = np.broadcast_to(sys.B, w.shape + sys.B.shape)
    try:
        resolvent = np.linalg.solve(1j * w[..., None, None] * np.eye(sys.state_dim) - sys.A, B)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"singular resolvent at w={w}") from err
    return sys.C @ resolvent + sys.D


def _psd(H: np.ndarray) -> bool:
    """True when every Hermitian matrix of the stack H is positive
    semi-definite down to the eigenvalue floor; one stacked eigvalsh call."""
    return bool(np.all(np.linalg.eigvalsh(H) >= -PSD_TOL))


def ni_freq_test(sys: StateSpace) -> bool:
    """Negative-imaginary test: j [M(jw) - M(jw)*] >= 0 on the whole grid."""
    N, _, _ = sys._terms
    return _psd(N)


def osni_freq_test(sys: StateSpace, delta: float) -> bool:
    """Output-strictness test at level delta > 0.

    Requires jw [M - M*] - 2 delta w^2 Mc* Mc >= 0 at every grid point and at
    the analytic w -> inf limit.
    """
    require_level(delta)
    _, P, R = sys._terms
    return _psd(P - delta * R)


def osni_max_delta(sys: StateSpace, graph=None) -> float:
    """Largest strictness level delta for which the OSNI test passes.

    With P + PSD_TOL I = L L*, P - delta R >= -PSD_TOL at one point exactly
    when delta lambda_max(L^-1 R L^-*) <= 1, so the supremum over the grid
    and the w -> inf limit is 1 / the largest such eigenvalue. Returns inf
    when R vanishes (the test is then delta-independent) and 0.0 when P
    already breaks the floor somewhere. The lag a/(s+b) has 1/a + PSD_TOL/(2 a^2).

    The level of the bank K (x) M(s), K = laplacian(graph) = U diag(lam) U^T
    ([[1]] with no graph), from one frequency response of M: its NI matrices
    and grid terms are M's scaled block by block, lam N, lam P and lam^2 R,
    and lam_max(K)'s block alone decides: the NI floor and the Cholesky are
    hardest there, lam^2 v*Rv / v*(lam P + PSD_TOL I)v grows with lam where
    v*Rv > 0, and lam = 0 gives the block 0.
    """
    N, P, R = sys._terms
    lam = laplacian_eigenvalues(graph)[-1]
    if not _psd(lam * N):
        raise ValueError("not NI, no strictness level exists")
    try:
        L = np.linalg.cholesky(lam * P + PSD_TOL * np.eye(sys.io_dim))
    except np.linalg.LinAlgError:
        return 0.0
    S = np.linalg.solve(L, np.linalg.solve(L, lam * lam * R).conj().swapaxes(-1, -2))
    top = np.linalg.eigvalsh(S).max()
    return float(1.0 / top) if top > 0 else math.inf


def osni_certificate_check(sys: StateSpace, Y: np.ndarray, delta: float) -> dict:
    """verify's entry {passed, inequality_residual, b_equation_residual} of a given Y.

    The certificate requires Y > 0 together with

        A Y + Y A^T + 2 delta (C A Y)^T (C A Y) <= 0   and   B = -A Y C^T.

    It checks the given Y and searches for none. The inequality residual is the
    largest eigenvalue of the left-hand side, the B-equation residual the
    max-abs entry of B + A Y C^T; both must be below 1e-9 to pass.
    """
    require_level(delta)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    q = sys.state_dim
    if Y.shape != (q, q):
        raise ValueError(f"Y must be {q} x {q}")
    if not (np.isfinite(Y).all() and np.allclose(Y, Y.T, atol=1e-12)):
        raise ValueError("Y must be finite and symmetric")
    y_pd = bool(np.linalg.eigvalsh(Y).min() > 0)
    CAY = sys.C @ sys.A @ Y
    lhs = sys.A @ Y + Y @ sys.A.T + 2.0 * delta * (CAY.T @ CAY)
    ineq_residual = float(np.linalg.eigvalsh(lhs).max())
    beq_residual = float(np.abs(sys.B + sys.A @ Y @ sys.C.T).max())
    return {"passed": y_pd and ineq_residual <= CERT_TOL and beq_residual <= CERT_TOL,
            "inequality_residual": ineq_residual, "b_equation_residual": beq_residual}


def first_order_certificate(a: float, b: float):
    """Analytic certificate (Y, delta) = (a/b, 1/a) for the lag a/(s+b).

    Y solves the B-equation exactly and the inequality residual vanishes at
    delta = 1/a, the supremal strictness level of this family.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("a and b must be positive and finite")
    return np.array([[a / b]]), 1.0 / a

