"""Linear state-space systems and negative-imaginary frequency-domain tests.

A square transfer matrix M(s) = C (sI - A)^-1 B + D realised by a Hurwitz A is

* negative-imaginary (NI) when j[M(jw) - M(jw)*] >= 0 for all w > 0;
* output strictly negative-imaginary (OSNI) with strictness level delta > 0
  when jw [M(jw) - M(jw)*] - 2 delta w^2 Mc(jw)* Mc(jw) >= 0 for all
  w in (0, inf], where Mc(jw) = M(jw) - D is the strictly proper part.

Both tests are evaluated on a finite frequency grid plus the analytic
w -> inf limit; positive semi-definiteness is accepted down to an eigenvalue
floor of -1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Eigenvalue floor for the positive semi-definiteness tests.
PSD_TOL = 1e-9
#: Residual tolerance for the state-space OSNI certificate.
CERT_TOL = 1e-9


@dataclass(frozen=True)
class StateSpace:
    """Real state-space realisation (A, B, C, D) with square input/output."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
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
        D = np.zeros((m, m)) if self.D is None else np.atleast_2d(np.asarray(self.D, dtype=float))
        if D.shape != (m, m):
            raise ValueError("D must be m x m")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def io_dim(self) -> int:
        return self.B.shape[1]


def first_order(a: float, b: float) -> StateSpace:
    """SISO lag a/(s+b) realised as (A, B, C, D) = (-b, a, 1, 0)."""
    return StateSpace([[-b]], [[a]], [[1.0]], [[0.0]])


@dataclass(frozen=True)
class FreqGrid:
    """Strictly increasing positive angular frequencies (rad/s)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(pts)) or np.any(pts <= 0):
            raise ValueError("grid points must be finite and positive")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def default(cls) -> "FreqGrid":
        """400 log-spaced points over [1e-3, 1e4] rad/s; the w -> inf limit is
        handled analytically by the tests themselves."""
        return cls(np.logspace(-3.0, 4.0, 400))


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


def _check_osni_preconditions(sys: StateSpace):
    if not is_hurwitz(sys):
        raise ValueError("frequency-domain NI tests require a Hurwitz A")
    if not np.allclose(sys.D, sys.D.T, atol=1e-12):
        raise ValueError("OSNI tests require symmetric D")


def _psd(H: np.ndarray) -> bool:
    """True when every Hermitian matrix of the stack H is positive
    semi-definite down to the eigenvalue floor; one stacked eigvalsh call."""
    return bool(np.all(np.linalg.eigvalsh(H) >= -PSD_TOL))


def _osni_terms(sys: StateSpace, grid: FreqGrid):
    """Stacks (P, R), one matrix per grid frequency, with P = jw [M - M*] and
    R = 2 w^2 Mc* Mc, plus a last entry holding the analytic w -> inf limits
    P = CB + (CB)^T, R = 2 (CB)^T (CB)."""
    w = grid.points[:, None, None]
    M = freq_response(sys, grid.points)
    Mc = M - sys.D
    CB = sys.C @ sys.B
    P = np.concatenate([1j * w * (M - M.conj().swapaxes(1, 2)), [CB + CB.T + 0j]])
    R = np.concatenate([2.0 * w * w * (Mc.conj().swapaxes(1, 2) @ Mc),
                        [2.0 * (CB.T @ CB) + 0j]])
    return P, R


def ni_freq_test(sys: StateSpace, grid: FreqGrid | None = None) -> bool:
    """Negative-imaginary test: j [M(jw) - M(jw)*] >= 0 on the whole grid."""
    _check_osni_preconditions(sys)
    M = freq_response(sys, (grid or FreqGrid.default()).points)
    return _psd(1j * (M - M.conj().swapaxes(1, 2)))


def osni_freq_test(sys: StateSpace, delta: float, grid: FreqGrid | None = None) -> bool:
    """Output-strictness test at level delta > 0.

    Requires jw [M - M*] - 2 delta w^2 Mc* Mc >= 0 at every grid point and at
    the analytic w -> inf limit.
    """
    if delta <= 0:
        raise ValueError("strictness level delta must be positive")
    _check_osni_preconditions(sys)
    P, R = _osni_terms(sys, grid or FreqGrid.default())
    return _psd(P - delta * R)


def osni_max_delta(sys: StateSpace, grid: FreqGrid | None = None) -> float:
    """Largest strictness level delta for which the OSNI test passes.

    With P + PSD_TOL I = L L*, P - delta R >= -PSD_TOL at one point exactly
    when delta lambda_max(L^-1 R L^-*) <= 1, so the supremum over the grid
    and the w -> inf limit is 1 / the largest such eigenvalue. Returns inf
    when R vanishes (the test is then delta-independent) and 0.0 when P
    already breaks the floor somewhere.
    """
    grid = grid or FreqGrid.default()
    if not ni_freq_test(sys, grid):
        raise ValueError("not NI, no strictness level exists")
    P, R = _osni_terms(sys, grid)
    try:
        L = np.linalg.cholesky(P + PSD_TOL * np.eye(sys.io_dim))
    except np.linalg.LinAlgError:
        return 0.0
    S = np.linalg.solve(L, np.linalg.solve(L, R).conj().swapaxes(1, 2))
    lam = np.linalg.eigvalsh(S).max()
    return float(1.0 / lam) if lam > 0 else math.inf


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the state-space OSNI certificate check."""

    y_positive_definite: bool
    inequality_ok: bool
    b_equation_ok: bool
    inequality_residual: float
    b_equation_residual: float

    @property
    def passed(self) -> bool:
        return self.y_positive_definite and self.inequality_ok and self.b_equation_ok


def osni_certificate_check(sys: StateSpace, Y: np.ndarray, delta: float) -> CertificateReport:
    """Check the algebraic OSNI certificate for a supplied symmetric Y.

    The certificate requires Y > 0 together with

        A Y + Y A^T + 2 delta (C A Y)^T (C A Y) <= 0   and   B = -A Y C^T.

    This is a verification of a given Y, not a feasibility search. The
    inequality residual is the largest eigenvalue of the left-hand side; the
    B-equation residual is the max-abs entry of B + A Y C^T. Both must be
    below 1e-9 to pass.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    q = sys.state_dim
    if Y.shape != (q, q):
        raise ValueError(f"Y must be {q} x {q}")
    if not np.allclose(Y, Y.T, atol=1e-12):
        raise ValueError("Y must be symmetric")
    y_pd = bool(np.linalg.eigvalsh(Y).min() > 0)
    CAY = sys.C @ sys.A @ Y
    lhs = sys.A @ Y + Y @ sys.A.T + 2.0 * delta * (CAY.T @ CAY)
    ineq_residual = float(np.linalg.eigvalsh(lhs).max())
    beq_residual = float(np.abs(sys.B + sys.A @ Y @ sys.C.T).max())
    return CertificateReport(
        y_positive_definite=y_pd,
        inequality_ok=ineq_residual <= CERT_TOL,
        b_equation_ok=beq_residual <= CERT_TOL,
        inequality_residual=ineq_residual,
        b_equation_residual=beq_residual,
    )


def first_order_certificate(a: float, b: float):
    """Analytic certificate (Y, delta) = (a/b, 1/a) for the lag a/(s+b).

    Y solves the B-equation exactly and the inequality residual vanishes at
    delta = 1/a, the supremal strictness level of this family.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    return np.array([[a / b]]), 1.0 / a


def kron_ss(K: np.ndarray, sys: StateSpace) -> StateSpace:
    """State-space realisation of the transfer matrix K (x) M(s).

    Uses (I (x) A, I (x) B, K (x) C, K (x) D): n identical copies of the
    system with outputs mixed by the constant matrix K. Not minimal in
    general (directions in the kernel of K are unobservable), which is
    irrelevant for the frequency-domain tests.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = K.shape[0]
    eye = np.eye(n)
    return StateSpace(np.kron(eye, sys.A), np.kron(eye, sys.B),
                      np.kron(K, sys.C), np.kron(K, sys.D))

