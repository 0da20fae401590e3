"""Reduction of the regularized problem to a one-variable objective.

For a fixed coefficient vector x the operator variable can be eliminated in
closed form: the minimizer of X -> |Tx|^2 + |A-X|_{2,W}^2 + |Xx-b|_W^2 is the
rank-one update

    A_x = A + <., x> (b - A x) / (1 + |x|^2),

and the attained value is

    G(x) = |A x - b|_W^2 / (1 + |x|^2) + |T x|^2.

A pair (A_0, x_0) solves the full problem exactly when x_0 minimizes G and
A_0 = A_{x_0}.  This module evaluates G, builds the lift from its one
correction vector c = (b - A x)/(1 + |x|^2), and measures the identities
and first-order conditions that a candidate minimizer must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    PairReport,
    STATUS_HEURISTIC,
    w_hs_seminorm,
    w_vec_seminorm_sq,
)


@dataclass(frozen=True)
class GValue:
    """Value of the reduced objective split into its two terms."""

    g: float
    data_term: float
    reg_term: float


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


def _check_x(p, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (p.shape[1],):
        raise ValueError(f"x has shape {x.shape}, expected ({p.shape[1]},)")
    return x


def eval_g(p, x):
    """Evaluate G(x) = |Ax-b|_W^2/(1+|x|^2) + |Tx|^2."""
    x = _check_x(p, x)
    data_term = w_vec_seminorm_sq(p.W, p.A @ x - p.b) / (1.0 + float(x @ x))
    reg_term = p.T.value(x)
    return GValue(data_term + reg_term, data_term, reg_term)


def correction_vector(p, x):
    """c = (b - Ax)/(1 + |x|^2), the lift's update: A_x = A + <., x> c."""
    x = _check_x(p, x)
    return (p.b - p.A @ x) / (1.0 + float(x @ x))


def lift_operator(p, x):
    """The rank-one lift A_x = A + c x^T as a matrix, c of :func:`correction_vector`."""
    return p.A + np.outer(correction_vector(p, x), x)


def verify_lift_identities(p, x):
    """Evaluate both lift identities and return their relative gaps."""
    x = _check_x(p, x)
    ax = lift_operator(p, x)
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


def normal_residual(p, x):
    """Scaled residual of the stationarity equation for G:

        (1+|x|^2) T^T T x + A^T W (Ax - b) = (|Ax-b|_W^2 / (1+|x|^2)) x.

    The Euclidean norm of LHS - RHS is divided by 1 + |x| + |A^T W b| so the
    returned number is comparable across instances.  It vanishes at critical
    points of G; it is a necessary condition only.
    """
    x = _check_x(p, x)
    r2 = float(x @ x)
    residual_vec = p.A @ x - p.b
    w_resid = p.W.apply(residual_vec)
    lhs = (1.0 + r2) * p.T.gram_dot(x) + p.A.T @ w_resid
    resid_norm = math.sqrt(max(float(w_resid @ residual_vec), 0.0))
    rhs = resid_norm * resid_norm / (1.0 + r2) * x
    scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(p.gram_rhs)
    return float(np.linalg.norm(lhs - rhs)) / scale


def _report_scale(p):
    """1 + |W|_inf |A|_F + |b|_W^2, the divisor of the matrix residuals."""
    return 1.0 + p.W.norm_inf * np.linalg.norm(p.A) + p.b_norm_w_sq


def recover_pair(p, x, status=STATUS_HEURISTIC):
    """Bundle x with its lift, objective value and first-order residuals.

    The identity A_x^T W (A_x - A) = (T^T T x) x^T at a critical point of G
    is not reported: the normal-equation and rank-one residuals imply it.
    """
    x = _check_x(p, x)
    c = correction_vector(p, x)
    gval = eval_g(p, x)
    # W(A_x - A) + W(A_x x - b) x^T = W(c + A_x x - b) x^T for A_x = A + c x^T
    rank_one = p.W.apply(c + (p.A @ x + c * float(x @ x)) - p.b)
    return PairReport(
        x=x,
        correction_vector=c,
        objective=gval.g,
        data_term=gval.data_term,
        reg_term=gval.reg_term,
        residual_normal_eq=normal_residual(p, x),
        residual_rank_one=float(np.linalg.norm(rank_one) * np.linalg.norm(x)) / _report_scale(p),
        status=status,
    )
