"""Problem data, weighted seminorms, objectives and triviality tests.

A problem instance bundles a dense operator ``A``, data vector ``b``, a
positive semidefinite weight ``W`` (inducing the seminorms ``|z|_W =
|W^{1/2} z|`` and ``|X|_{2,W} = |W^{1/2} X|_F``) and a regularizer ``T``.
The two objectives implemented here are

    tls :   |A - X|_{2,W}^2 + |X x - b|_W^2
    rtls:   |T x|^2 + |A - X|_{2,W}^2 + |X x - b|_W^2

over matrix/vector pairs (X, x).  An instance is called trivial when the
infimum is zero and attained: b in R(A) + N(W) for the unregularized
objective, b in A(N(T)) + N(W) for the regularized one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trs import eigen_split


class ProblemFormatError(ValueError):
    """Invalid problem or model data (bad shape, non-finite entry, ...)."""


def _check_finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"non-finite value in field '{name}'")


def _as_vector(data, name):
    arr = np.atleast_1d(np.asarray(data, dtype=float))
    if arr.ndim != 1:
        raise ProblemFormatError(f"field '{name}' must be a 1-d vector")
    _check_finite(arr, name)
    return arr


def _as_matrix(data, name):
    arr = np.atleast_2d(np.asarray(data, dtype=float))
    if arr.ndim != 2:
        raise ProblemFormatError(f"field '{name}' must be a 2-d matrix")
    _check_finite(arr, name)
    return arr


# W passes when W + _EIG_FLOOR |W|_inf I has a Cholesky factor: an eigenvalue
# of W below about -_EIG_FLOOR |W|_inf is rejected, and smaller negative
# eigenvalues are clamped to zero where W^{1/2} is formed
_EIG_FLOOR = 1e-12
# relative tolerance of the triviality tests, and the null rule of a dense T:
# a singular value at most this times |T|_2 counts as zero
TRIVIAL_TOL = 1e-10


@dataclass(frozen=True)
class WeightOperator:
    """PSD weight; its square root is built on first use.

    ``data`` is a nonnegative vector for kind ``"diagonal"`` or a symmetric
    PSD matrix for kind ``"dense"``; ``norm_inf`` is |W|_inf, the largest
    absolute row sum, which bounds lambda_max(W) and equals max w for a
    diagonal W.  Both checks are relative to W's own scale, so W and cW
    pass or fail together: an entry of W - W^T beyond 1e-12 max|W| is
    asymmetric, and a dense W is PSD when W + 1e-12 |W|_inf I has a
    Cholesky factor (a diagonal entry must be at least -1e-12 max w).
    Only ``apply_sqrt`` needs the root: seminorms are taken as ``<W z, z>``.
    """

    kind: str
    data: np.ndarray
    norm_inf: float = 0.0

    @classmethod
    def diagonal(cls, values, field="W.data"):
        w = _as_vector(values, field)
        norm_inf = float(np.max(w, initial=0.0))
        if np.any(w < -_EIG_FLOOR * norm_inf):
            raise ProblemFormatError(f"field '{field}' has a negative diagonal weight")
        return cls("diagonal", np.clip(w, 0.0, None), norm_inf)

    @classmethod
    def dense(cls, matrix):
        w = _as_matrix(matrix, "W.data")
        m = w.shape[0]
        if m != w.shape[1]:
            raise ProblemFormatError("field 'W.data' must be square")
        scale = float(np.max(np.abs(w), initial=0.0))
        if scale == 0.0:
            return cls("dense", w, 0.0)
        # W / max|W| has entries in [-1, 1], so neither it, its asymmetry
        # nor its norm overflows
        shifted = w / scale
        if not (w == w.T).all():
            if np.max(np.abs(shifted - shifted.T)) > 1e-12:
                raise ProblemFormatError("field 'W.data' is not symmetric")
            w = 0.5 * w + 0.5 * w.T
            shifted = w / scale
        norm_inf = float(np.max(np.sum(np.abs(shifted), axis=1)))
        shifted.flat[:: m + 1] += _EIG_FLOOR * norm_inf
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ProblemFormatError("field 'W.data' is not positive semidefinite") from None
        return cls("dense", w, scale * norm_inf)

    @cached_property
    def sqrt_data(self):
        """sqrt of the diagonal, or the symmetric root W^{1/2}."""
        if self.kind == "diagonal":
            return np.sqrt(self.data)
        lam, q = np.linalg.eigh(self.data)
        root = (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.T
        # self-check: the root must reproduce W
        err = np.linalg.norm(root @ root - self.data)
        if err > 1e-10 * max(np.linalg.norm(self.data), 1e-30):
            raise ProblemFormatError("square root of 'W' failed to reproduce it")
        return root

    @property
    def dim(self):
        return self.data.shape[0]

    def as_matrix(self):
        if self.kind == "diagonal":
            return np.diag(self.data)
        return self.data

    def apply(self, z):
        """W z for a vector or W Z columnwise for a matrix."""
        if self.kind == "diagonal":
            z = np.asarray(z)
            w = self.data[:, None] if z.ndim == 2 else self.data
            return w * z
        return self.data @ z

    def apply_sqrt(self, z):
        """W^{1/2} z, vector or matrix."""
        if self.kind == "diagonal":
            z = np.asarray(z)
            w = self.sqrt_data[:, None] if z.ndim == 2 else self.sqrt_data
            return w * z
        return self.sqrt_data @ z


@dataclass(frozen=True)
class RegularizerSpec:
    """Regularizer, either sqrt(rho) * I or an explicit dense matrix.

    For the scaled identity the stored ``rho`` is the squared scale:
    |T x|^2 = rho |x|^2.
    """

    kind: str
    rho: float | None = None
    matrix: np.ndarray | None = None

    @classmethod
    def identity_scaled(cls, rho):
        rho = float(rho)
        if not np.isfinite(rho) or rho <= 0.0:
            raise ProblemFormatError("field 'T.rho' must be a positive real")
        return cls("identity_scaled", rho=rho)

    @classmethod
    def dense(cls, matrix):
        return cls("dense", matrix=_as_matrix(matrix, "T.data"))

    def in_dim(self):
        """Number of columns; None when the scaled identity fits any n."""
        return None if self.kind == "identity_scaled" else self.matrix.shape[1]

    def apply(self, x):
        if self.kind == "identity_scaled":
            return np.sqrt(self.rho) * x
        return self.matrix @ x

    def value(self, x):
        """|T x|^2."""
        if self.kind == "identity_scaled":
            return self.rho * float(x @ x)
        tx = self.matrix @ x
        return float(tx @ tx)

    def gram(self, n):
        """T^T T as an n x n matrix; a dense T forms it once."""
        if self.kind == "identity_scaled":
            return self.rho * np.eye(n)
        return self._dense_gram

    @cached_property
    def _dense_gram(self):
        return self.matrix.T @ self.matrix

    @cached_property
    def svd(self):
        """(sigma, V^T, null) of a dense T, from one SVD.

        sigma holds its singular values, descending and padded with zeros to
        n, V^T its n right singular vectors as rows, and null marks those
        with sigma <= TRIVIAL_TOL |T|_2: the one rule by which a direction
        counts as null in T, for the triviality test and the alpha search.
        """
        _, s, vt = np.linalg.svd(self.matrix, full_matrices=True)
        sigma = np.zeros(vt.shape[0])
        sigma[: s.shape[0]] = s
        return sigma, vt, sigma <= TRIVIAL_TOL * sigma[0]  # |T|_2, 0 for a T without rows

    def gram_dot(self, x):
        """T^T T x."""
        if self.kind == "identity_scaled":
            return self.rho * x
        return self.matrix.T @ (self.matrix @ x)


@dataclass
class ProblemSpec:
    """One finite-dimensional instance (A, b, W, T).

    ``origin`` optionally records which parametric family and truncation
    order produced the instance, e.g. ``{"model_kind": "diagonal",
    "truncation_order": 40}``.
    """

    A: np.ndarray
    b: np.ndarray
    W: WeightOperator
    T: RegularizerSpec
    origin: dict | None = None

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        self.b = _as_vector(self.b, "b")
        m, n = self.A.shape
        if m < 1 or n < 1:
            raise ProblemFormatError("'A' must have at least one row and column")
        if self.b.shape[0] != m:
            raise ProblemFormatError(
                f"'b' has {self.b.shape[0]} entries, expected {m}"
            )
        if self.W.dim != m:
            raise ProblemFormatError(
                f"'W' acts on dimension {self.W.dim}, expected {m}"
            )
        t_dim = self.T.in_dim()
        if t_dim is not None and t_dim != n:
            raise ProblemFormatError(
                f"'T' has {t_dim} columns, expected {n}"
            )

    @property
    def shape(self):
        return self.A.shape

    @cached_property
    def gram_matrix(self):
        """A^T W A."""
        return self.A.T @ self.W.apply(self.A)

    @cached_property
    def gram_rhs(self):
        """A^T W b."""
        return self.A.T @ self.W.apply(self.b)

    @cached_property
    def gram_eig(self):
        """Eigendecomposition (ascending) of A^T W A, shared by solvers."""
        lam, q = np.linalg.eigh(self.gram_matrix)
        return np.clip(lam, 0.0, None), q

    @cached_property
    def gram_split(self):
        """:func:`rtls.trs.eigen_split` of ``gram_eig`` and A^T W b, for every phi(t)."""
        return eigen_split(self.gram_eig, self.gram_rhs)

    @cached_property
    def b_norm_w_sq(self):
        """|b|_W^2 = <W b, b>."""
        return max(float(self.W.apply(self.b) @ self.b), 0.0)


# status of a candidate pair
STATUS_SOLVED = "solved"
STATUS_TRIVIAL = "trivial"
STATUS_HEURISTIC = "heuristic"


@dataclass
class PairReport:
    """A candidate pair (A_x, x), A_x = A + c x^T, with objective value and residuals.

    The residuals are necessary-condition certificates only: a zero normal
    equation residual does not by itself certify global optimality.
    """

    x: np.ndarray
    correction_vector: np.ndarray  # c
    objective: float
    data_term: float
    reg_term: float
    residual_normal_eq: float
    residual_rank_one: float
    status: str


def _check_weight_dim(W, z, op):
    if W.dim != np.shape(z)[0]:
        raise ValueError(f"{op}: weight dimension {W.dim} does not match {np.shape(z)[0]}")


def w_vec_seminorm(W, z):
    """|z|_W = <W z, z>^{1/2}."""
    z = np.asarray(z, dtype=float)
    _check_weight_dim(W, z, "w_vec_seminorm")
    return math.sqrt(max(float(W.apply(z) @ z), 0.0))


def w_vec_seminorm_sq(W, z):
    """|z|_W^2 as the product |z|_W |z|_W, which scales exactly with W.

    Python's float ** 2 goes through the C pow, which is not correctly
    rounded on every platform.
    """
    r = w_vec_seminorm(W, z)
    return r * r


def w_hs_seminorm(W, X):
    """|X|_{2,W} = Frobenius norm of W^{1/2} X."""
    X = np.asarray(X, dtype=float)
    _check_weight_dim(W, X, "w_hs_seminorm")
    return float(np.linalg.norm(W.apply_sqrt(X)))


def _check_pair_dims(p, X, x):
    X = np.asarray(X, dtype=float)
    x = np.asarray(x, dtype=float)
    m, n = p.shape
    if X.shape != (m, n):
        raise ValueError(f"operator candidate has shape {X.shape}, expected {(m, n)}")
    if x.shape != (n,):
        raise ValueError(f"vector candidate has shape {x.shape}, expected ({n},)")
    return X, x


def objective_tls(p, X, x):
    """|A - X|_{2,W}^2 + |X x - b|_W^2."""
    X, x = _check_pair_dims(p, X, x)
    op_norm = w_hs_seminorm(p.W, p.A - X)
    return op_norm * op_norm + w_vec_seminorm_sq(p.W, X @ x - p.b)


def objective_rtls(p, X, x):
    """|T x|^2 + |A - X|_{2,W}^2 + |X x - b|_W^2."""
    X, x = _check_pair_dims(p, X, x)
    return p.T.value(x) + objective_tls(p, X, x)


def _w_span_coefficients(p, M, tol):
    """c minimizing |W^{1/2} (M c - b)|, or None when that residual exceeds tol |W^{1/2} b|."""
    wm, wb = p.W.apply_sqrt(M), p.W.apply_sqrt(p.b)
    c, *_ = np.linalg.lstsq(wm, wb, rcond=None)
    return c if np.linalg.norm(wm @ c - wb) <= tol * np.linalg.norm(wb) else None


def is_trivial_tls(p, tol=TRIVIAL_TOL):
    """Test b in R(A) + N(W); returns (flag, witness x or None).

    Membership is decided by the least squares residual of W^{1/2} b against
    the columns of W^{1/2} A: at most tol |W^{1/2} b|, a bound relative to
    the data, so that (A, b) and (sA, sb) are decided alike.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = _w_span_coefficients(p, p.A, tol)
    return x is not None, x


def is_trivial_rtls(p):
    """Test b in A(N(T)) + N(W); returns (flag, witness x or None).

    N(T) is spanned by the right singular vectors of T that
    :attr:`RegularizerSpec.svd` marks null (sigma <= 1e-10 |T|_2), and b is
    a member when the least squares residual of W^{1/2} b against
    W^{1/2} A N(T) is at most 1e-10 |W^{1/2} b|.  Both are relative to the
    data, as in :func:`is_trivial_tls`.  A cutoff relative to |T|_2 can
    count a direction of a badly scaled T as null, so the witness w counts
    only where G(w) <= 1e-10 |b|_W^2: then G(w) is inf G up to that
    tolerance.  |b|_W^2 = 0 is trivial for every T, with witness x = 0,
    however W^{1/2} b rounds.
    """
    n = p.shape[1]
    if p.b_norm_w_sq == 0.0:  # G(0) = 0 whatever T is
        return True, np.zeros(n)
    if p.T.kind == "identity_scaled":  # N(T) = {0}
        return False, None
    _, vt, null = p.T.svd
    if not null.any():  # N(T) = {0}, and |b|_W^2 > 0
        return False, None
    basis = vt[null].T
    coeffs = _w_span_coefficients(p, p.A @ basis, TRIVIAL_TOL)
    if coeffs is None:
        return False, None
    w = basis @ coeffs
    g = w_vec_seminorm_sq(p.W, p.A @ w - p.b) / (1.0 + float(w @ w)) + p.T.value(w)
    return (True, w) if g <= TRIVIAL_TOL * p.b_norm_w_sq else (False, None)


def frechet_check(W1, W2, x0, X, Y, h):
    """Central-difference check of the two derivative formulas

        D |W1^{1/2} X|_F^2 (Y)      = 2 tr(X^T W1 Y)
        D <W2 X x0, X x0> (Y)       = 2 <W2 X x0, Y x0>

    Returns the pair of errors, relative to the analytic value when it
    exceeds 1e-8 in magnitude, absolute otherwise.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    x0 = np.asarray(x0, dtype=float)

    def big_k(M):
        norm = w_hs_seminorm(W1, M)
        return norm * norm

    def small_k(M):
        mx = M @ x0
        return float(W2.apply(mx) @ mx)

    diff_k = (big_k(X + h * Y) - big_k(X - h * Y)) / (2.0 * h)
    analytic_k = 2.0 * float(np.tensordot(W1.as_matrix() @ Y, X, axes=2))
    diff_l = (small_k(X + h * Y) - small_k(X - h * Y)) / (2.0 * h)
    analytic_l = 2.0 * float(W2.apply(X @ x0) @ (Y @ x0))

    def rel(diff, analytic):
        gap = abs(diff - analytic)
        if abs(analytic) < 1e-8:
            return gap
        return gap / abs(analytic)

    return rel(diff_k, analytic_k), rel(diff_l, analytic_l)
