"""Paper-identity oracles and seeded fixtures, used by the tests alone.

No ``rtls`` command, demo or benchmark runs any of this, so it lives next
to the tests rather than in the package:

* seeded random instances and the closed-form ``A = 0`` instance;
* the writing half of the problem file format (``rtls.io`` reads it);
* the default truncation families of the lab demos;
* checks of the paper's identities: the rank-one lift of the reduction to
  G(x), the Frechet derivative formulas and the analytic gradient of G.

Import it as ``oracles`` from a test module (pytest puts ``tests/`` on the
path), or with ``PYTHONPATH=src:tests`` from a script.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rtls.io import write_json
from rtls.lab import DiagonalModel
from rtls.model import (
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
    w_hs_seminorm,
    w_vec_seminorm_sq,
)
from rtls.reduction import correction_vector
from rtls.solver import _gradient_parts

# ---------------------------------------------------------------------------
# reference fixtures and seeded random instances
# ---------------------------------------------------------------------------


def closed_form_problem(rho=1.0):
    """A = 0 (2x2), W = I, b = (3, 4).

    With the scaled identity the reduced objective depends on u = |x|^2 only:
    f(u) = |b|^2/(1+u) + rho u, minimized at u = |b|/sqrt(rho) - 1 with value
    2 sqrt(rho) |b| - rho whenever |b|^2 >= rho.  For rho = 1 the infimum is
    9, attained at |x|^2 = 4.
    """
    return ProblemSpec(
        np.zeros((2, 2)),
        np.array([3.0, 4.0]),
        WeightOperator.diagonal(np.ones(2)),
        RegularizerSpec.identity_scaled(rho),
    )


def random_weight(rng, m, kind="dense", lo=0.2, hi=2.0):
    """Random PSD weight with spectrum in [lo, hi]."""
    lam = rng.uniform(lo, hi, size=m)
    if kind == "diagonal":
        return WeightOperator.diagonal(lam)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return WeightOperator.dense((q * lam) @ q.T)


def random_problem(rng, n, m=None, rho_factor=1.5, weight_kind=None):
    """Seeded dense instance; rho = rho_factor * |b|_W^2.

    rho_factor >= 1 puts the instance in the certified-uniqueness regime.
    """
    m = n if m is None else m
    kind = weight_kind or ("diagonal" if rng.uniform() < 0.5 else "dense")
    a_mat = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    weight = random_weight(rng, m, kind=kind)
    wb = weight.apply_sqrt(b)
    b_sq = float(wb @ wb)
    rho = rho_factor * max(b_sq, 1e-6)
    return ProblemSpec(a_mat, b, weight, RegularizerSpec.identity_scaled(rho))


# ---------------------------------------------------------------------------
# problem files: the writing half of the format that rtls.io reads
# ---------------------------------------------------------------------------


def _matrix_to_spec(mat):
    """The {"rows", "cols", "data"} object that ``rtls.io`` reads as a matrix."""
    rows, cols = mat.shape
    return {"rows": rows, "cols": cols, "data": mat.ravel().tolist()}


def problem_to_dict(p):
    if p.W.kind == "diagonal":
        w_obj = {"kind": "diagonal", "data": p.W.data.tolist()}
    else:
        w_obj = {"kind": "dense", **_matrix_to_spec(p.W.data)}
    if p.T.kind == "identity_scaled":
        t_obj = {"kind": "identity_scaled", "rho": float(p.T.rho)}
    else:
        t_obj = {"kind": "dense", **_matrix_to_spec(p.T.matrix)}
    out = {
        "A": _matrix_to_spec(p.A),
        "b": p.b.tolist(),
        "W": w_obj,
        "T": t_obj,
    }
    if p.origin is not None:
        out["origin"] = p.origin
    return out


def save_problem(path, p):
    return write_json(path, problem_to_dict(p))


# ---------------------------------------------------------------------------
# default lab models
# ---------------------------------------------------------------------------


def default_diagonal_model(rho=1.0):
    """Default decaying family a_k = 1/k, w_k = 1/k^2, b = e1.

    The weights are square-summable, so the limit weight has a Hilbert-
    Schmidt square root; the minimal direction value of A^T W A decays like
    k^-2 with the truncation order.
    """
    return DiagonalModel("1/k", "1/k^2", (1.0,), rho=rho)


def default_tls_nonexistence_model(rho=1.0):
    """Default family for the unregularized unattained-infimum demo.

    Same decay as :func:`default_diagonal_model` but with a_1 = 0, so that
    b = e1 stays outside R(A) + N(W) at every truncation; an invertible
    diagonal A would make every truncated instance trivial and the
    construction would correctly refuse to run.
    """
    return DiagonalModel({"formula": "1/k", "zeros": 1}, "1/k^2", (1.0,), rho=rho)


def default_rtls_nonexistence_model():
    """Decaying diagonal regularizer t_k = 1/k^2, so T^T T = diag(1/k^4).

    The regularizer is injective, hence the instance is nontrivial at every
    truncation (b = e1 never lies in N(W)), while the combined form
    T^T T + A^T W A = diag(2/k^4) has minimal direction value sqrt(2)/n^2.
    """
    return DiagonalModel("1/k", "1/k^2", (1.0,), t="1/k^2")


# ---------------------------------------------------------------------------
# the paper's identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftIdentityReport:
    """Relative gaps in the algebraic identities satisfied by the lift.

    contraction: (1+|x|^2)^2 |A_x x - b|_W^2 = |Ax - b|_W^2
    correction:  |A - A_x|_{2,W}^2 = |x|^2 |A_x x - b|_W^2
    vector:      A_x x - b = (Ax - b) / (1+|x|^2), componentwise
    """

    contraction_lhs: float
    contraction_rhs: float
    contraction_gap: float
    correction_lhs: float
    correction_rhs: float
    correction_gap: float
    vector_gap: float


def lift_operator(p, x):
    """The rank-one lift A_x = A + c x^T as a matrix, c of ``rtls.reduction.correction_vector``."""
    return p.A + np.outer(correction_vector(p, x), x)


def verify_lift_identities(p, x):
    """Evaluate both lift identities and return their relative gaps."""
    x = np.asarray(x, dtype=float)
    ax = lift_operator(p, x)  # checks the shape of x
    r2 = float(x @ x)
    axx_b = ax @ x - p.b
    misfit_lift = w_vec_seminorm_sq(p.W, axx_b)
    misfit = w_vec_seminorm_sq(p.W, p.A @ x - p.b)

    contraction_lhs = (1.0 + r2) ** 2 * misfit_lift
    contraction_rhs = misfit
    correction_norm = w_hs_seminorm(p.W, p.A - ax)
    correction_lhs = correction_norm * correction_norm
    correction_rhs = r2 * misfit_lift

    def rel_gap(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)

    predicted = (p.A @ x - p.b) / (1.0 + r2)
    vector_gap = float(np.max(np.abs(axx_b - predicted), initial=0.0))
    vector_gap /= 1.0 + float(np.max(np.abs(predicted), initial=0.0))

    return LiftIdentityReport(
        contraction_lhs,
        contraction_rhs,
        rel_gap(contraction_lhs, contraction_rhs),
        correction_lhs,
        correction_rhs,
        rel_gap(correction_lhs, correction_rhs),
        vector_gap,
    )


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


def grad_g(p, x):
    """Analytic gradient of G for any regularizer:

        grad G = [2 A^T W (Ax-b) (1+|x|^2) - 2 |Ax-b|_W^2 x] / (1+|x|^2)^2
                 + 2 T^T T x.

    The gradient that ``rtls.solver``'s Newton steps use, so a test can hold
    the Hessian and the step against it bit for bit.
    """
    return _gradient_parts(p, np.asarray(x, dtype=float))[0]
