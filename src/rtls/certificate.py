"""Semidefinite characterization of the infimum t* for T = sqrt(rho) I.

t* equals the largest t for which multipliers alpha >= 0 and
beta >= -lambda_min(A^T W A) exist making the symmetric operator
C(t, alpha, beta) on R^{n+3} positive semidefinite, where in coordinates
(x, z1, z2, tau):

    x block      alpha A^T W A + beta I
    (x, tau)     -alpha A^T W b
    (z1, tau)    (1 - alpha) / 2
    (z2, z2)     rho
    (z2, tau)    (rho - t - beta) / 2
    (tau, tau)   alpha |b|_W^2 - t

The defining computation is the scalar expansion, for y = (x, z1, z2, 1):

    <C y, y> = z1 + rho z2^2 + (rho - t) z2 - t
               + alpha (|Ax-b|_W^2 - z1) + beta (|x|^2 - z2).

With z1 = |Ax-b|_W^2 and z2 = |x|^2 it reads (1 + |x|^2)(G(x) - t), so a
PSD C makes t a lower bound on G whatever the sign of beta.

The (z1, z1) entry is zero, so a PSD C has a zero z1 row: alpha = 1 is
forced.  In the eigenbasis A^T W A = Q diag(lam) Q^T, d = Q^T A^T W b, the
Schur complement of C(t, 1, beta) is the concave scalar function

    h_t(beta) = m(beta) - t - (rho - t - beta)^2 / (4 rho),
    m(beta)   = |b|_W^2 - sum_i d_i^2 / (lam_i + beta)
              = min_x |Ax - b|_W^2 + beta |x|^2,

attained at x(beta) = Q d / (lam + beta).  The largest t with
h_t(beta) >= 0 is the dual function

    tau(beta) = 2 sqrt(rho F(beta)) - rho - beta,   F(beta) = beta + m(beta),

and t* = max tau (Beck, Ben-Tal & Teboulle, SIAM J. Matrix Anal. Appl. 28
(2006) 425-445).  tau is concave with decreasing derivative
tau'(beta) = rho (1 + |x(beta)|^2) / sqrt(rho F(beta)) - 1, so its maximizer
beta* is one bracketed scalar root, at O(n) per step after a single eigh.
x(beta*) is a primal point, and the duality gap G(x*) - tau(beta*) >= 0
bounds how far G(x*) lies above t*.  :func:`certify_tstar` checks that gap
at x(beta*) itself and Newton-polishes only where it misses;
:func:`dual_tstar`, the solve route, always polishes.

Each "proven" rule here is relative to the problem's own scale, so no
result depends on the units of (A, b, rho) or of (W, rho): the gap proves
t* when it is at most 1e-10 |b|_W^2 (:func:`default_tol_t`), C counts as
PSD when lambda_min >= -1e-9 |C|_F, and :func:`classify_existence` turns
a proven t* into the status ``trivial``, ``solved`` or ``heuristic``.

The Dinkelbach reference of ``rtls certify`` shares the one eigh of
A^T W A with this module and no other computed value: it starts at the
ridge point and takes each phi(t) from its own slope root in
:mod:`rtls.trs`, without tau or _Spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import STATUS_HEURISTIC, STATUS_SOLVED, STATUS_TRIVIAL, w_vec_seminorm_sq
from .reduction import eval_g
from . import solver
from .solver import require_identity_scaled
from .trs import min_space, trs_equality

_PSD_FLOOR_REL = 1e-9
_ROOT_STEPS = 200
_EPS = np.finfo(float).eps


@dataclass
class Certificate:
    """A witness (t, alpha, beta), its matrix C and the smallest eigenvalue of C."""

    t: float
    alpha: float
    beta: float
    lambda_min: float
    C: np.ndarray


@dataclass(frozen=True)
class DualSolution:
    """The maximizer beta of tau and the primal point it yields.

    ``t_star`` = G(x_star) bounds t* from above and ``t_dual`` = tau(beta)
    from below.  ``steps`` counts evaluations of the scalar dual.
    """

    t_star: float
    x_star: np.ndarray
    t_dual: float
    beta: float
    steps: int

    @property
    def gap(self):
        return self.t_star - self.t_dual


class _Spectrum:
    """Eigenbasis data lam, Q of A^T W A and d = Q^T A^T W b.

    In the hard case (d has no component in the minimal eigenspace) that
    component of d is dropped and beta = -lam_min becomes admissible.
    """

    def __init__(self, p):
        self.lam, self.q = p.gram_eig
        d = self.q.T @ p.gram_rhs
        _, _, d_eff, gaps, self.limit_sq, self.hard = min_space(self.lam, d)
        self.lam_min = float(self.lam[0])
        self.d = d_eff if self.hard else d
        self.gaps = gaps if self.hard else self.lam - self.lam_min
        self.b_sq = p.b_norm_w_sq
        if self.lam_min > 0.0:
            self.m0 = self.b_sq - float(self.d @ (self.d / self.lam))

    def _moments(self, v, from_zero):
        """(z, s, s3, m) at beta = v (from_zero) or beta = v - lam_min; x = Q z."""
        base = self.lam if from_zero else self.gaps
        den = base + v
        z = self.d / den
        zz = z * z
        if from_zero and v <= self.lam_min:
            # m(beta) = m(0) + beta sum d_i^2 / (lam_i (lam_i + beta)) keeps
            # its dependence on beta when beta is far below |b|_W^2; with
            # |beta| <= lam_min each d_i^2 / lam_i is within a factor 2 of
            # d_i^2 / (lam_i + beta), so m(0) adds no cancellation
            m = self.m0 + v * float(self.d @ (z / base))
        else:
            m = self.b_sq - float(self.d @ z)
        return z, float(zz.sum()), float((zz / den).sum()), m

    def root(self, fn, beta_hi):
        """The beta in [-lam_min, beta_hi] where a decreasing fn vanishes.

        fn(beta, s, s3, m) -> (value, slope) is given s = |x(beta)|^2,
        s3 = sum d_i^2 / (lam_i + beta)^3 and m(beta).  beta is carried
        from the origin 0 when beta > -lam_min / 2 and from the pole
        -lam_min otherwise, so that it keeps its relative precision and
        lam + beta does not cancel.  Returns (beta, z, m, evaluations of fn)
        with x(beta) = Q z.
        """

        def at(from_zero):
            origin = 0.0 if from_zero else -self.lam_min

            def g(v):
                _, s, s3, m = self._moments(v, from_zero)
                return fn(origin + v, s, s3, m)

            return g

        split = -0.5 * self.lam_min
        steps = 0
        if self.lam_min > 0.0:
            steps = 1
            if at(True)(split)[0] > 0.0:
                v, more = _decreasing_root(at(True), split, beta_hi, False)
                z, _, _, m = self._moments(v, True)
                return v, z, m, steps + more
        hi = -split if self.lam_min > 0.0 else beta_hi
        v, more = _decreasing_root(at(False), 0.0, hi, self.hard)
        z, _, _, m = self._moments(v, False)
        return v - self.lam_min, z, m, steps + more


def _decreasing_root(fn, lo, hi, closed):
    """Root in (lo, hi] of a decreasing function fn(v) -> (value, slope).

    The root is lo when ``closed`` and fn(lo) <= 0, and hi when fn(hi) >= 0.
    Newton steps are taken while they stay inside the sign bracket and
    shrink faster than bisection would; otherwise the bracket is bisected.
    Returns (root, evaluations of fn).
    """
    steps = 1
    if closed:
        if fn(lo)[0] <= 0.0:
            return lo, steps
        steps += 1
    y = hi
    value, slope = fn(y)
    if not value < 0.0:
        return hi, steps
    dx = dx_old = hi - lo
    for _ in range(_ROOT_STEPS):
        step = value / slope if slope < 0.0 else math.nan
        if abs(step) <= 4.0 * _EPS * abs(y):
            return y - step, steps
        newton = y - step
        if lo < newton < hi and abs(2.0 * value) <= abs(dx_old * slope):
            dx_old, dx = dx, step
            y = newton
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            y = lo + dx
        if abs(dx) <= 4.0 * _EPS * abs(y):
            break
        value, slope = fn(y)
        steps += 1
        if value > 0.0:
            lo = y
        elif value < 0.0:
            hi = y
        else:
            break
    return y, steps


def _tau(p, rho, beta, x):
    """tau(beta) from the minimizer x = x(beta) inside m(beta).

    m is taken as |Ax - b|_W^2 + beta |x|^2 rather than by the sum over the
    spectrum, and tau as gamma + 2 (m - gamma) / (1 + sqrt(F / rho)) with
    gamma = rho - beta, so that neither |b|_W^2 nor rho cancels.
    """
    m = w_vec_seminorm_sq(p.W, p.A @ x - p.b) + beta * float(x @ x)
    gamma = rho - beta
    return gamma + 2.0 * (m - gamma) / (1.0 + math.sqrt(max(beta + m, 0.0)) / math.sqrt(rho))


def _dual_point(p, rho):
    """The maximizer beta* of tau and its own primal point x*, unpolished.

    x* = Q d / (lam + beta*); in the hard case beta* = -lam_min and x* is
    completed inside the minimal eigenspace by :func:`trs_equality` at
    |x*|^2 = (t* + beta* - rho) / (2 rho).  No radius enters otherwise.
    Returns (x*, tau(beta*), beta*, evaluations of the scalar dual), the
    fields of :class:`DualSolution` after ``t_star``; |b|_W^2 > 0.
    """
    b_sq = p.b_norm_w_sq
    spec = _Spectrum(p)

    def psi(beta, s, s3, m):  # rho (1 + |x|^2)^2 - F: the sign of tau'
        return rho * (1.0 + s) ** 2 - (beta + m), -(1.0 + s) * (1.0 + 4.0 * rho * s3)

    # beta* <= rho + 2 |b|_W^2, from t* = rho + 2 rho |x*|^2 - beta* >= 0
    # and rho |x*|^2 <= G(x*) <= G(0) = |b|_W^2
    beta, z, m, steps = spec.root(psi, rho + 2.0 * b_sq)
    x = spec.q @ z
    if spec.hard and beta == -spec.lam_min:
        r_sq = math.sqrt(max(beta + m, 0.0)) / math.sqrt(rho) - 1.0
        x = trs_equality(None, p.gram_rhs, math.sqrt(max(r_sq, spec.limit_sq)),
                         eig=p.gram_eig).x
    return x, _tau(p, rho, beta, x), beta, steps


def _polished(p, x, t_dual, beta, steps):
    """The :class:`DualSolution` at the Newton polish of the dual's point x."""
    x, _ = solver.newton_polish(p, x)  # module attribute: wrappers on it apply
    return DualSolution(eval_g(p, x).g, x, t_dual, beta, steps)


def dual_tstar(p):
    """Maximize tau, recover and Newton-polish x*, and report the gap.

    The point is :func:`_dual_point`'s; the polish
    (:func:`rtls.solver.newton_polish`) takes O(n^2) steps from the same
    eigendecomposition and is kept by its own rule.
    """
    rho = require_identity_scaled(p, "dual_tstar")
    if p.b_norm_w_sq == 0.0:
        return DualSolution(0.0, np.zeros(p.shape[1]), 0.0, rho, 0)
    return _polished(p, *_dual_point(p, rho))


def assemble_c(p, t, alpha, beta):
    """Assemble C(t, alpha, beta); alpha >= 0 and beta >= -lambda_min(A^T W A)."""
    rho = require_identity_scaled(p, "assemble_c")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    lam_min = float(p.gram_eig[0][0])
    if beta < -lam_min:
        raise ValueError(
            f"beta + lambda_min(A^T W A) must be nonnegative; beta={beta!r}, "
            f"lambda_min={lam_min!r}"
        )
    n = p.shape[1]
    c_mat = np.zeros((n + 3, n + 3))
    c_mat[:n, :n] = alpha * p.gram_matrix + beta * np.eye(n)
    c_mat[:n, -1] = c_mat[-1, :n] = -alpha * p.gram_rhs
    c_mat[n, -1] = c_mat[-1, n] = (1.0 - alpha) / 2.0
    c_mat[n + 1, n + 1] = rho
    c_mat[n + 1, -1] = c_mat[-1, n + 1] = (rho - t - beta) / 2.0
    c_mat[-1, -1] = alpha * p.b_norm_w_sq - t
    return c_mat


def _certificate(p, t, beta):
    """(PSD, Certificate) for C(t, 1, beta), from one eigvalsh.

    C counts as PSD when lambda_min >= -1e-9 |C|_F, a floor relative to C's
    own scale.  |C|_F is taken of C / s, s the power of two at or below its
    largest entry: that scaling is exact, and the squares cannot overflow.
    """
    c_mat = assemble_c(p, t, 1.0, beta)
    val = float(np.linalg.eigvalsh(c_mat)[0])
    s = 2.0 ** (math.frexp(float(np.max(np.abs(c_mat))))[1] - 1)
    tol_psd = _PSD_FLOOR_REL * float(np.linalg.norm(c_mat / s)) * s
    return val >= -tol_psd, Certificate(t, 1.0, beta, val, c_mat)


def feasible_at_t(p, t):
    """Decide whether some C(t, 1, beta) is PSD; returns (feasible, certificate).

    h_t is concave with decreasing derivative
    h_t'(beta) = |x(beta)|^2 + (rho - t - beta) / (2 rho), so its maximizer
    is one bracketed scalar root; one eigvalsh of C there decides.
    """
    rho = require_identity_scaled(p, "feasible_at_t")
    spec = _Spectrum(p)

    def slope(beta, s, s3, m):
        return s + (rho - t - beta) / (2.0 * rho), -2.0 * s3 - 0.5 / rho

    # h_t' <= 0 there, since |x(beta)|^2 <= |b|_W^2 / beta for beta > 0
    beta, _, _, _ = spec.root(slope, max(rho - t, 0.0) + math.sqrt(2.0 * rho * p.b_norm_w_sq))
    return _certificate(p, t, beta)


def default_tol_t(p):
    """1e-10 |b|_W^2, relative to G(0): it scales with t* under A, b -> sA, sb,
    rho -> s^2 rho, where an absolute floor would not."""
    return 1e-10 * p.b_norm_w_sq


def _require_gap(p, sol):
    """Raise RuntimeError unless the duality gap of ``sol`` is at most default_tol_t(p)."""
    tol_t = default_tol_t(p)
    if not sol.gap <= tol_t:
        raise RuntimeError(f"duality gap {sol.gap!r} exceeds tol_t {tol_t!r}")


def classify_existence(p, sol):
    """The status that the :class:`DualSolution` ``sol`` of p proves.

    trivial    |b|_W^2 = 0: G(0) = 0 (T = sqrt(rho) I is injective, so
               b in N(W));
    solved     rho >= t* (1 - 1e-8): the inner problem at t* is convex, so
               a minimizer exists and is unique;
    heuristic  rho < t*: a best point exists at finite dimension, but no
               attainment is claimed.

    Both rules are relative to the problem's own scale, so the status is
    invariant under (A, b, rho) -> (sA, sb, s^2 rho) and (W, rho) ->
    (cW, c rho).  Raises RuntimeError when the duality gap exceeds
    :func:`default_tol_t`: then t* itself is not proven.
    """
    rho = require_identity_scaled(p, "classify_existence")
    _require_gap(p, sol)
    if p.b_norm_w_sq == 0.0:
        return STATUS_TRIVIAL
    if rho >= sol.t_star * (1.0 - 1e-8):
        return STATUS_SOLVED
    return STATUS_HEURISTIC


def certify_tstar(p):
    """Certificate at t = tau(beta*), the maximum of the scalar dual.

    G must come within :func:`default_tol_t` of t at the dual's own point
    x(beta*), or else at its Newton polish, taken only there; C(t, 1, beta*)
    must be PSD.  Otherwise RuntimeError names the failed check.  t and
    beta are fixed before any polish.  The polish keeps a point only where
    G rises by at most 1e-14 relative, so the unpolished check can be
    looser than the polished one by at most that much; it can be stricter
    by any amount, which the polish taken where it misses covers.
    """
    rho = require_identity_scaled(p, "certify_tstar")
    if p.b_norm_w_sq == 0.0:
        sol = dual_tstar(p)
    else:
        point = _dual_point(p, rho)
        sol = DualSolution(eval_g(p, point[0]).g, *point)
        if not sol.gap <= default_tol_t(p):
            sol = _polished(p, *point)
    _require_gap(p, sol)
    psd, cert = _certificate(p, sol.t_dual, sol.beta)
    if not psd:
        raise RuntimeError(
            f"C(t, 1, beta) is not PSD at t={sol.t_dual!r}: lambda_min {cert.lambda_min!r}"
        )
    return cert
