"""Global solvers for the reduced objective G, plus helpers.

With T = sqrt(rho) I the reduced objective is

    G(x) = |Ax - b|_W^2 / (1 + |x|^2) + rho |x|^2,

a ratio-like program whose infimum t* is the unique root of the decreasing
parametric function

    phi(t) = inf_x { |Ax - b|_W^2 + rho |x|^4 + (rho - t)|x|^2 - t }
           = inf_x (1 + |x|^2)(G(x) - t).

phi(t) is evaluated globally through a spherical reduction: the inner
minimum over each sphere |x| = r is an equality trust-region subproblem, and
the remaining one-dimensional problem in r is scanned on a dense grid and
refined by golden section.  The classical Dinkelbach update t <- G(x_t)
(started at t0 = G(0) = |b|_W^2, which is always >= t*) then converges
monotonically to t*; a bisection fallback on [0, |b|_W^2] guards against
stagnation.  If rho >= t* the inner problem at t* is strictly convex, the
minimizer of G is unique and the recovered pair is certified; for rho < t*
the best point found is reported without an attainment claim.

A general dense T fixes alpha = |x|^2 instead, and the same grid and
golden-section driver searches alpha (:func:`solve_rtls_general_t`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    STATUS_HEURISTIC,
    STATUS_SOLVED,
    STATUS_TRIVIAL,
    is_trivial_rtls,
    w_vec_seminorm,
)
from .reduction import eval_g, recover_pair
from .trs import radial_solutions, radial_values, trs_equality

logger = logging.getLogger("rtls.solver")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# dense-T search: grid points in u = log1p(|x|^2); largest |x|^2 it scans
# when T^T T is singular
_ALPHA_GRID = 128
_ALPHA_CAP = 1e8

# existence classification labels
EXISTENCE_UNIQUE = "unique_solution"
EXISTENCE_TRIVIAL = "trivial"
EXISTENCE_NOT_CERTIFIED = "not_certified"

# pair-report status claimed for each existence verdict
PAIR_STATUS = {
    EXISTENCE_UNIQUE: STATUS_SOLVED,
    EXISTENCE_TRIVIAL: STATUS_TRIVIAL,
    EXISTENCE_NOT_CERTIFIED: STATUS_HEURISTIC,
}

VERDICT_CONVERGED = "converged"
VERDICT_MAX_ITER = "max_iter"
VERDICT_INNER_FLAGGED = "nonconvex_inner_flagged"


@dataclass(frozen=True)
class DinkelbachIterate:
    t: float
    r: float
    x: np.ndarray
    phi: float


@dataclass
class DinkelbachTrace:
    iterates: list[DinkelbachIterate] = field(default_factory=list)
    t_star: float = float("nan")
    x_star: np.ndarray | None = None
    verdict: str = VERDICT_MAX_ITER


def require_identity_scaled(p, op):
    """Return rho of a scaled-identity regularizer; raise for any other."""
    if p.T.kind != "identity_scaled":
        raise ValueError(f"{op} requires the scaled-identity regularizer")
    return p.T.rho


def _golden_min(f, a, b, tol):
    """Golden-section minimum of a unimodal f on [a, b]; returns (x, f(x))."""
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _GOLDEN * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _GOLDEN * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _local_min_brackets(rs, vals):
    """Index brackets around every discrete local minimum, endpoints included."""
    k = len(vals)
    brackets = []
    for i in range(k):
        left = vals[i - 1] if i > 0 else np.inf
        right = vals[i + 1] if i < k - 1 else np.inf
        if vals[i] <= left and vals[i] <= right:
            brackets.append((max(i - 1, 0), min(i + 1, k - 1)))
    return brackets


def _global_min(values, scalar, s_max, s_cap, grid):
    """Globally minimize a function of s >= 0 by grid scan + refinement.

    ``values`` maps an array of points to their values, ``scalar`` one point
    to its value.  The scan interval [0, s_max] doubles whenever the grid
    minimizer lands within 1% of its upper end, up to ``s_cap``.  Returns
    (s, value, hit_cap) where hit_cap reports that the minimizer still sat
    at the upper end of the interval [0, s_cap].
    """
    hit_cap = False
    for _ in range(64):
        ss = np.linspace(0.0, s_max, grid)
        vals = values(ss)
        i_best = int(np.argmin(vals))
        if ss[i_best] <= 0.99 * s_max:
            break
        if s_max >= s_cap:
            hit_cap = True
            break
        s_max = min(2.0 * s_max, s_cap)

    # coarse refinement of every grid-local minimum, then full precision on
    # the winner only
    best_s, best_val = ss[i_best], vals[i_best]
    coarse = max(1e-6 * s_max, 1e-300)
    candidates = []
    for lo_i, hi_i in _local_min_brackets(ss, vals):
        s_ref, v_ref = _golden_min(scalar, ss[lo_i], ss[hi_i], coarse)
        candidates.append((v_ref, s_ref, ss[lo_i], ss[hi_i]))
    if candidates:
        v_ref, s_ref, lo, hi = min(candidates)
        s_fine, v_fine = _golden_min(scalar, lo, hi, max(1e-12 * s_max, 1e-300))
        if v_fine < best_val:
            best_s, best_val = s_fine, v_fine
        if v_ref < best_val:
            best_s, best_val = s_ref, v_ref
    return float(best_s), float(best_val), hit_cap


def _minimize_radial(p, weight_fn, r_max0, grid):
    """(r, value, hit_cap) of min_r m(r) + weight_fn(r), m(r) = min_{|x|=r} |Ax-b|_W^2."""
    lam, q = p.gram_eig
    d = q.T @ p.gram_rhs
    b_sq = p.b_norm_w_sq

    def values(rs):
        return radial_values(lam, d, rs) + b_sq + weight_fn(rs)

    def scalar(r):
        x = trs_equality(None, p.gram_rhs, r, eig=p.gram_eig).x
        m = float(x @ p.gram_matrix @ x - 2.0 * p.gram_rhs @ x) + b_sq
        return m + float(weight_fn(np.array([r]))[0])

    return _global_min(values, scalar, r_max0, 1e15 * (r_max0 + 1.0), grid)


def eval_phi(p, t, grid=512):
    """Evaluate phi(t) globally; returns (phi, argmin x).

    The spherical reduction makes the evaluation exact up to the resolution
    of the one-dimensional search even in the regime t > rho where the inner
    expression is nonconvex.
    """
    rho = require_identity_scaled(p, "eval_phi")
    r_max0 = math.sqrt(p.b_norm_w_sq / rho) * 1.05 + 1e-9

    def weight(rs):
        return rho * rs**4 + (rho - t) * rs**2 - t

    r_star, _, hit_cap = _minimize_radial(p, weight, r_max0, grid)
    if hit_cap:
        raise RuntimeError(f"radial search for phi({t}) diverged; instance unbounded?")
    lam, q = p.gram_eig
    sol = trs_equality(None, p.gram_rhs, r_star, eig=(lam, q))
    x = sol.x
    r2 = float(x @ x)
    phi = (
        w_vec_seminorm(p.W, p.A @ x - p.b) ** 2
        + rho * r2 * r2
        + (rho - t) * r2
        - t
    )
    return float(phi), x


def solve_tstar(p, tol_phi=None, max_iter=60, grid=512):
    """Find t* = inf G and a minimizer via Dinkelbach iteration on phi.

    Starts at t0 = G(0) = |b|_W^2, iterates t <- G(x_t) where x_t is the
    global inner minimizer at t, and stops once |phi(t)| <= tol_phi (default
    1e-9 (1 + |b|_W^2)); one extra update is then taken to polish x*.  Three
    non-improving steps switch to bisection on the maintained sign bracket.
    """
    rho = require_identity_scaled(p, "solve_tstar")
    b_sq = p.b_norm_w_sq
    if tol_phi is None:
        tol_phi = 1e-9 * (1.0 + b_sq)
    trace = DinkelbachTrace()

    n = p.shape[1]
    best_x = np.zeros(n)
    best_g = b_sq  # G(0)
    if b_sq == 0.0:
        trace.iterates.append(DinkelbachIterate(0.0, 0.0, best_x, 0.0))
        trace.t_star, trace.x_star, trace.verdict = 0.0, best_x, VERDICT_CONVERGED
        return trace

    t = b_sq
    lo, hi = 0.0, b_sq  # phi(0) >= 0 and phi(|b|_W^2) <= 0 always
    stall = 0
    prev_abs_phi = np.inf
    polish_left = 2
    bisecting = False

    for _ in range(max_iter):
        try:
            phi, x = eval_phi(p, t, grid=grid)
        except RuntimeError as exc:
            logger.warning("inner minimization flagged: %s", exc)
            trace.t_star, trace.x_star = best_g, best_x
            trace.verdict = VERDICT_INNER_FLAGGED
            return trace
        trace.iterates.append(DinkelbachIterate(t, float(np.linalg.norm(x)), x, phi))
        g = eval_g(p, x).g
        if g < best_g:
            best_g, best_x = g, x
        if phi > 0:
            lo = max(lo, t)
        elif phi < 0:
            hi = min(hi, t)

        if abs(phi) <= tol_phi:
            if polish_left > 0 and abs(best_g - t) > 1e-15 * (1.0 + abs(t)):
                polish_left -= 1
                t = best_g
                continue
            trace.verdict = VERDICT_CONVERGED
            break

        if abs(phi) >= prev_abs_phi:
            stall += 1
        prev_abs_phi = abs(phi)
        if stall >= 3:
            bisecting = True
        if bisecting:
            if hi - lo <= 1e-15 * (1.0 + hi):
                trace.verdict = VERDICT_CONVERGED
                break
            t = 0.5 * (lo + hi)
        else:
            # classical update; g <= t with equality only at the root
            t = min(g, t)
    else:
        trace.verdict = VERDICT_MAX_ITER

    if trace.verdict == VERDICT_CONVERGED:
        x_polished = newton_polish(p, best_x)
        g_polished = eval_g(p, x_polished).g
        if g_polished <= best_g + 1e-14 * (1.0 + abs(best_g)):
            best_x, best_g = x_polished, g_polished
    trace.t_star, trace.x_star = best_g, best_x
    return trace


def classify_existence(p, trace, tol=None):
    """Existence verdict for the scaled-identity problem.

    ``trace`` is a solve result with ``t_star`` and ``verdict``: a
    :class:`DinkelbachTrace` or a :class:`rtls.certificate.DualSolution`.

    trivial            b in N(W) (the regularizer is injective);
    unique_solution    rho >= t*, the convexity certificate applies;
    not_certified      rho < t*: a best point exists at finite dimension but
                       no attainment guarantee is claimed.
    """
    rho = require_identity_scaled(p, "classify_existence")
    if trace.verdict != VERDICT_CONVERGED:
        raise ValueError(
            "existence classification requires a converged solve, not verdict "
            f"{trace.verdict!r} at t* = {trace.t_star!r}"
        )
    if tol is None:
        tol = 1e-8 * (1.0 + abs(trace.t_star))
    trivial, _ = is_trivial_rtls(p, 1e-10)
    if trivial:
        return EXISTENCE_TRIVIAL
    if rho >= trace.t_star - tol:
        return EXISTENCE_UNIQUE
    return EXISTENCE_NOT_CERTIFIED


@dataclass(frozen=True)
class QuarticSolution:
    """Minimum of |Ax-b|_W^2 + rho |x|^4; certifies uniqueness when <= rho."""

    a_star: float
    x: np.ndarray
    rho_used: float = 0.0

    @property
    def certifies_unique(self):
        return self.a_star <= self.rho_used


def solve_rls_quartic(p, grid=512):
    """Solve min_x |Ax - b|_W^2 + rho |x|^4 by the spherical reduction.

    The objective is convex and coercive, so the minimum always exists; when
    it is <= rho the scaled-identity problem is guaranteed a unique solution.
    """
    rho = require_identity_scaled(p, "solve_rls_quartic")
    r_max0 = (p.b_norm_w_sq / rho) ** 0.25 * 1.05 + 1e-9

    def weight(rs):
        return rho * rs**4

    r_star, _, hit_cap = _minimize_radial(p, weight, r_max0, grid)
    if hit_cap:
        raise RuntimeError("radial search for the quartic problem diverged")
    lam, q = p.gram_eig
    x = trs_equality(None, p.gram_rhs, r_star, eig=(lam, q)).x
    r2 = float(x @ x)
    a_star = w_vec_seminorm(p.W, p.A @ x - p.b) ** 2 + rho * r2 * r2
    return QuarticSolution(float(a_star), x, rho_used=rho)


def grad_g(p, x):
    """Analytic gradient of G for any regularizer:

        grad G = [2 A^T W (Ax-b) (1+|x|^2) - 2 |Ax-b|_W^2 x] / (1+|x|^2)^2
                 + 2 T^T T x.
    """
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    resid = p.A @ x - p.b
    misfit = w_vec_seminorm(p.W, resid) ** 2
    quotient = (
        2.0 * (p.A.T @ p.W.apply(resid)) * (1.0 + r2) - 2.0 * misfit * x
    ) / (1.0 + r2) ** 2
    return quotient + 2.0 * p.T.gram_dot(x)


def hess_g(p, x):
    """Analytic Hessian of G (quotient rule on |Ax-b|_W^2 / (1+|x|^2))."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    v = 1.0 + float(x @ x)
    resid = p.A @ x - p.b
    u = w_vec_seminorm(p.W, resid) ** 2
    grad_u = 2.0 * (p.A.T @ p.W.apply(resid))
    grad_v = 2.0 * x
    hess_u = 2.0 * p.gram_matrix
    cross = np.outer(grad_u, grad_v)
    quotient = (
        hess_u / v
        - (cross + cross.T) / v**2
        - u * 2.0 * np.eye(n) / v**2
        + 2.0 * u * np.outer(grad_v, grad_v) / v**3
    )
    return quotient + 2.0 * p.T.gram(n)


def newton_polish(p, x, iters=8):
    """Guarded Newton refinement of a near-critical point of G.

    Each step is accepted only if it shrinks the gradient norm; the analytic
    gradient/Hessian push the first-order residual to machine precision,
    which grid-plus-golden searches cannot reach through the fp noise floor
    of objective differences.
    """
    x = np.asarray(x, dtype=float).copy()
    gnorm = float(np.linalg.norm(grad_g(p, x)))
    for _ in range(iters):
        if gnorm == 0.0:
            break
        grad = grad_g(p, x)
        try:
            step = np.linalg.solve(hess_g(p, x), grad)
        except np.linalg.LinAlgError:
            break
        accepted = False
        scale = 1.0
        for _ in range(12):
            x_new = x - scale * step
            gnorm_new = float(np.linalg.norm(grad_g(p, x_new)))
            if gnorm_new < gnorm:
                x, gnorm, accepted = x_new, gnorm_new, True
                break
            scale *= 0.5
        if not accepted:
            break
    return x


def minimize(fun, x0, **kw):
    """scipy.optimize.minimize, imported on the first call.

    No solver in rtls calls it; ``perfbench/tracing.py`` wraps it by this
    name.  ``import rtls`` stays numpy-only.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kw)


def solve_rtls_general_t(p):
    """Global 1-D search over alpha = |x|^2 for a general (dense) regularizer.

    On the sphere |x|^2 = alpha, min G is an equality trust-region
    subproblem with S = A^T W A + (1 + alpha) T^T T and c = A^T W b (Beck &
    Ben-Tal, SIAM J. Optim. 17 (2006) 98-118).  G at its minimizers is
    scanned on a grid in u = log1p(alpha) from one batched eigh, refined by
    golden section (one eigh and one TRS solve per step) and Newton-polished.
    G(x) >= |Tx|^2 and G(x*) <= G(0) bound alpha* by |b|_W^2 /
    lambda_min(T^T T); for a singular T^T T that bounds only the part of x*
    in its range, and the scan grows up to |x|^2 = 1e8.  A grid proves
    no global minimum, so the pair is flagged heuristic.
    """
    n = p.shape[1]
    b_sq = p.b_norm_w_sq
    if b_sq == 0.0:  # G >= 0 = G(0)
        return recover_pair(p, np.zeros(n), status=STATUS_HEURISTIC)
    gram, c = p.gram_matrix, p.gram_rhs
    t_gram = p.T.gram(n)

    def stack(alpha):
        return gram + np.multiply.outer(1.0 + alpha, t_gram)

    def values(us):
        alpha = np.expm1(us)
        lam, q = np.linalg.eigh(stack(alpha))
        _, z = radial_solutions(np.clip(lam, 0.0, None), c @ q, np.sqrt(alpha))
        # G at the minimizers (columns) as eval_g forms it: the TRS values
        # carry the eigenvalue error of S, which grows with alpha
        xs = (q @ z[..., None])[..., 0].T
        wr, tx = p.W.apply_sqrt(p.A @ xs - p.b[:, None]), p.T.apply(xs)
        return (wr * wr).sum(0) / (1.0 + (xs * xs).sum(0)) + (tx * tx).sum(0)

    def trs_x(u):
        alpha = math.expm1(u)
        return trs_equality(stack(alpha), c, math.sqrt(alpha)).x

    lam_t = np.linalg.eigvalsh(t_gram)
    positive = lam_t[lam_t > n * np.finfo(float).eps * lam_t[-1]]
    u_max = math.log1p(b_sq / positive[0] if positive.size else 1.0)
    u_cap = u_max if positive.size == n else max(u_max, math.log1p(_ALPHA_CAP))
    u, g_best, hit_cap = _global_min(
        values, lambda u: eval_g(p, trs_x(u)).g, u_max, u_cap, _ALPHA_GRID
    )
    if hit_cap:
        logger.info("alpha search stopped at |x|^2 = %g", math.expm1(u_cap))
    x = trs_x(u)
    x_polished = newton_polish(p, x)
    if eval_g(p, x_polished).g <= g_best + 1e-14 * (1.0 + abs(g_best)):
        x = x_polished
    return recover_pair(p, x, status=STATUS_HEURISTIC)
