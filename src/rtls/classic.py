"""Classic unweighted total least squares via the SVD of (A|b).

The finite-dimensional baseline: with v the right singular vector of the
augmented matrix (A|b) for its smallest singular value, and v_{n+1} != 0,

    x = -(v_1, ..., v_n) / v_{n+1},
    (X|y) = (A|b) - sigma_min u v^T,      X x = y,

and the optimal correction has Frobenius norm sigma_min.  Nongeneric inputs
(v_{n+1} ~ 0, or a tied smallest singular value) are reported as errors, not
silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TIE_REL = 1e-10
_LAST_COORD_TOL = 1e-10


class NongenericTlsError(RuntimeError):
    """The smallest right singular vector has (numerically) zero last coordinate."""


class RepeatedSingularValueError(RuntimeError):
    """sigma_min of (A|b) is not simple; both candidate solutions attached."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True)
class ClassicTlsSolution:
    X: np.ndarray
    x: np.ndarray
    sigma_min: float
    residual: float


def solve_classic_tls(A, b):
    """Solve min |(A|b) - (X|Xx)|_F^2 for unweighted data."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    augmented = np.column_stack([A, b])
    u_mat, s, vt = np.linalg.svd(augmented, full_matrices=True)
    sigmas = np.zeros(n + 1)
    sigmas[: s.shape[0]] = s

    # relative to sigma_max, so that (A, b) and (sA, sb) tie alike
    if sigmas[-2] - sigmas[-1] <= _TIE_REL * sigmas[0]:
        candidates = []
        for v in (vt[-2], vt[-1]) if vt.shape[0] >= 2 else (vt[-1],):
            if abs(v[-1]) > _LAST_COORD_TOL:
                candidates.append(-v[:n] / v[-1])
        raise RepeatedSingularValueError(
            f"classic TLS degenerate: smallest singular value {float(sigmas[-1])!r} "
            f"is repeated (next {float(sigmas[-2])!r})",
            candidates,
        )

    v = vt[-1]
    if abs(v[-1]) <= _LAST_COORD_TOL:
        raise NongenericTlsError(
            "classic TLS nongeneric: right singular vector for sigma_min has "
            f"last coordinate {float(v[-1])!r}"
        )
    x = -v[:n] / v[-1]

    corrected = augmented.copy()
    if s.shape[0] == n + 1 and sigmas[-1] > 0.0:
        corrected -= sigmas[-1] * np.outer(u_mat[:, n], v)
    X = corrected[:, :n]
    y = corrected[:, n]
    residual = float(np.linalg.norm(X @ x - y))
    return ClassicTlsSolution(X, x, float(sigmas[-1]), residual)


def min_direction(M):
    """Unit eigenvector of the smallest eigenvalue of a symmetric PSD M.

    Returns (x, value) with value = |M^{1/2} x| = sqrt(lambda_min); tiny
    negative eigenvalues are clamped to zero.  The sign is fixed so the
    first nonzero coordinate is positive.
    """
    M = np.asarray(M, dtype=float)
    lam, q = np.linalg.eigh(M)
    x = q[:, 0]
    nonzero = np.nonzero(np.abs(x) > 1e-14)[0]
    if nonzero.size and x[nonzero[0]] < 0:
        x = -x
    x = x / np.linalg.norm(x)
    return x, float(np.sqrt(max(lam[0], 0.0)))
