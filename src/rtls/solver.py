"""Global solvers for the reduced objective G, plus helpers.

With T = sqrt(rho) I the reduced objective is

    G(x) = |Ax - b|_W^2 / (1 + |x|^2) + rho |x|^2,

a ratio-like program whose infimum t* is the unique root of the decreasing
parametric function

    phi(t) = inf_x { |Ax - b|_W^2 + rho |x|^4 + (rho - t)|x|^2 - t }
           = inf_x (1 + |x|^2)(G(x) - t).

phi(t) is evaluated globally through a spherical reduction: the inner
minimum m(s) over each sphere |x|^2 = s is an equality trust-region
subproblem, convex in s by strong duality, so the remaining problem in s
has one stationary point, a single monotone secular root in the TRS
multiplier (:func:`rtls.trs.quartic_minimizer`).  Since phi'(t) = -(1 +
|x_t|^2) at the inner minimizer x_t, the classical Dinkelbach update t <-
G(x_t) is exactly Newton's step on phi; :func:`solve_tstar` starts it at
the ridge point's G, takes it inside the sign bracket [0, t], bisects
where it would leave the bracket or shrink it more slowly than bisection,
and returns its last inner minimizer x_t unpolished.  If rho >= t* the
inner problem at t* is strictly convex and the minimizer of G is unique;
:func:`rtls.certificate.classify_existence` turns that, and the duality
gap that proves t*, into the pair status.

A general dense T fixes alpha = |x|^2 instead: a grid scan over u =
log1p(alpha) gives g(u) = min G over the sphere and its closed-form slope
dg/du = |Tx|^2 - mu - g at every grid point (:func:`sphere_scan`), on 16
points.  Each cell where the slope rises through zero brackets a basin,
solved once at the minimizer of the cubic Hermite interpolant of g on the
cell (:func:`hermite_argmin`, :func:`sphere_min`), taken in sqrt(u) on the
first cell, where g falls like sqrt(u); the least G seen is handed to the
Newton polish, which sets the reported bits.  Only where the polish does
not converge does the search scan 16 more points inside the two cells
beside the least G and solve the merged grid the same way
(:func:`solve_rtls_general_t`).  A grid proves no global minimum, so those
pairs are ``heuristic`` unless the instance is trivial.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import STATUS_HEURISTIC, STATUS_TRIVIAL, is_trivial_rtls
from .reduction import eval_g
from .trs import quartic_minimizer, radial_values, trs_equality

logger = logging.getLogger("rtls.solver")

# dense-T search: grid points of the scan in u = log1p(|x|^2) and of its
# refinement; largest |x|^2 it scans when T^T T is singular
_ALPHA_GRID = 16
_ALPHA_CAP = 1e8

_TOL_PHI_REL = 1e-9  # Dinkelbach stops once |phi(t)| <= this times |b|_W^2
_MAX_ITER = 60  # and fails after this many phi values
# the polished point is kept unless G rises above this relative margin
_POLISH_REL = 1e-14
_POLISH_ITERS = 8  # Newton steps of one polish, at most
# a polish step no longer than 4 _EPS |x| is its last
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DinkelbachSolution:
    """G(x_star) >= t* at the last, unpolished x_t of :func:`solve_tstar`, after
    ``iterations`` phi values."""

    t_star: float
    x_star: np.ndarray
    iterations: int


def require_identity_scaled(p, op):
    """Return rho of a scaled-identity regularizer; raise for any other."""
    if p.T.kind != "identity_scaled":
        raise ValueError(f"{op} requires the scaled-identity regularizer")
    return p.T.rho


def eval_phi(p, t):
    """Evaluate phi(t) globally; returns (phi, argmin x).

    Up to constants the inner objective is <Sx,x> - 2<c,x> + rho |x|^4 +
    (rho - t)|x|^2 with S = A^T W A = Q diag(lam) Q^T, c = A^T W b; its one
    stationary point is global also for t > rho, where it is nonconvex in x.
    phi is summed in the eigenbasis, z = Q^T x, with the |x|^2 terms grouped
    as (lam + rho - t) z^2: apart, |Ax - b|_W^2 and -t |x|^2 cancel where
    |x| is large.  phi(rho) + rho is min |Ax - b|_W^2 + rho |x|^4, so phi(rho)
    <= 0 proves a unique minimizer of G.  Every t shares ``p.gram_split``.
    """
    rho = require_identity_scaled(p, "eval_phi")
    lam, q = p.gram_eig
    x = quartic_minimizer(p.gram_split, rho, rho - t)
    z = q.T @ x
    r2 = float(x @ x)
    quad = float((lam + (rho - t)) @ (z * z)) - 2.0 * float(p.gram_rhs @ x)
    return quad + rho * r2 * r2 + (p.b_norm_w_sq - t), x


def solve_tstar(p):
    """Find t* = inf G and a minimizer by a safeguarded Dinkelbach iteration.

    phi is decreasing with phi(0) >= 0 >= phi(t) for every t = G(x), and its
    Newton step from t is the Dinkelbach update G(x_t).  The iteration starts
    at t_0 = min(|b|_W^2, G(x_rho)), with x_rho = Q d / (lam + rho) the ridge
    point min |Ax - b|_W^2 + rho |x|^2 from the shared eigenbasis, and opens
    its sign bracket at [0, t_0].  The update is taken when it lands
    strictly inside the bracket and shrinks it at least as fast as
    bisection would: by the rtsafe test, it is at most half the step before
    last, so the first two always pass.  Otherwise the bracket is bisected.
    G(x_t) can round to t far above t*, where only bisection moves on.  The
    iteration stops when |phi(t)| <= 1e-9 |b|_W^2 (which scales with phi)
    or the bracket is narrower than 1e-15 of its upper end; x_t there is not
    polished, and G(x_t) >= t*.  Raises RuntimeError after 60 phi values.
    """
    rho = require_identity_scaled(p, "solve_tstar")
    b_sq = p.b_norm_w_sq
    if b_sq == 0.0:
        return DinkelbachSolution(0.0, np.zeros(p.shape[1]), 0)
    lam, q = p.gram_eig
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G bounds nothing
        ridge = eval_g(p, q @ (p.gram_split[2] / (lam + rho))).g
    lo, hi = 0.0, ridge if ridge < b_sq else b_sq
    t = hi
    step = step_old = math.inf
    for k in range(1, _MAX_ITER + 1):
        phi, x = eval_phi(p, t)
        if abs(phi) <= _TOL_PHI_REL * b_sq:
            break
        if phi > 0.0:
            lo = t
        else:
            hi = t
        if hi - lo <= 1e-15 * hi:
            break
        g = eval_g(p, x).g
        if lo < g < hi and 2.0 * abs(g - t) <= step_old:
            step_old, step = step, abs(g - t)
            t = g
        else:
            step_old, step = step, 0.5 * (hi - lo)
            t = lo + step
    else:
        raise RuntimeError(f"Dinkelbach iteration did not converge in {_MAX_ITER} steps")
    return DinkelbachSolution(eval_g(p, x).g, x, k)


def _power(v, k):
    """The float v ** k, or inf where it overflows: a float ** raises OverflowError."""
    try:
        return v**k
    except OverflowError:
        return math.inf


def _gradient_parts(p, x):
    """(grad G, grad u, u, v) at x, for G = u / v + |Tx|^2.

    u = |Ax - b|_W^2 and v = 1 + |x|^2; the Newton step reuses all four.
    """
    v = 1.0 + float(x @ x)
    resid = p.A @ x - p.b
    w_resid = p.W.apply(resid)
    root = math.sqrt(max(float(w_resid @ resid), 0.0))
    u = root * root  # as w_vec_seminorm_sq(W, r)
    grad_u = 2.0 * (p.A.T @ w_resid)
    grad = (grad_u * v - 2.0 * u * x) / _power(v, 2) + 2.0 * p.T.gram_dot(x)
    return grad, grad_u, u, v


def hess_g(p, x, parts=None):
    """Analytic Hessian of G (quotient rule); ``parts`` as in :func:`newton_step`."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    _, grad_u, u, v = _gradient_parts(p, x) if parts is None else parts
    grad_v = 2.0 * x
    hess_u = 2.0 * p.gram_matrix
    cross = np.outer(grad_u, grad_v)
    v2 = _power(v, 2)
    quotient = (
        hess_u / v
        - (cross + cross.T) / v2
        - u * 2.0 * np.eye(n) / v2
        + 2.0 * u * np.outer(grad_v, grad_v) / _power(v, 3)
    )
    return quotient + 2.0 * p.T.gram(n)


def newton_step(p, x, parts=None):
    """The Newton step hess_g(p, x)^{-1} grad G(x).

    For T = sqrt(rho) I, with A^T W A = Q diag(lam) Q^T, grad_u = 2 A^T W
    (Ax - b) and grad_v = 2x, the Hessian is diagonal in Q up to rank two:

        hess_g = Q D Q^T + U C U^T,   D = diag(2 lam / v + 2 rho - 2 u / v^2),
        U = [grad_u, grad_v],         C = [[0, -1/v^2], [-1/v^2, 2 u / v^3]],

    so the step costs one n x 3 and one n x 1 product with the shared
    ``p.gram_eig`` plus a 2 x 2 Woodbury solve in closed form: O(n^2).  D
    equals (2/v)(lam + rho v - u/v), positive near a minimizer except in the
    hard case; where an entry vanishes, or a huge |x| overflows a product, the
    step comes out non-finite.  A dense T solves with the assembled Hessian in
    O(n^3).  ``parts`` is ``_gradient_parts(p, x)`` when the caller has it.
    Raises LinAlgError or ZeroDivisionError when a solve meets an exactly
    singular matrix.
    """
    x = np.asarray(x, dtype=float)
    grad, grad_u, u, v = parts = _gradient_parts(p, x) if parts is None else parts
    if p.T.kind != "identity_scaled":
        return np.linalg.solve(hess_g(p, x, parts), grad)
    lam, q = p.gram_eig
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # D singular or tiny
        proj = q.T @ np.column_stack((grad, grad_u, 2.0 * x))
        v2 = _power(v, 2)
        y = proj / ((2.0 / v) * lam + (2.0 * p.T.rho - 2.0 * u / v2))[:, None]
        # r_i = <U_i, D^-1 grad> and m_ij = <U_i, D^-1 U_j> in the eigenbasis
        (r1, m11, m12), (r2, m21, m22) = (proj[:, 1:].T @ y).tolist()
        c12, c22 = -1.0 / v2, 2.0 * u / _power(v, 3)
        # w = (I + C M)^-1 C r; the step is D^-1 grad - D^-1 U w
        k11, k12 = 1.0 + c12 * m21, c12 * m22
        k21, k22 = c12 * m11 + c22 * m21, 1.0 + c12 * m12 + c22 * m22
        s1, s2 = c12 * r2, c12 * r1 + c22 * r2
        det = k11 * k22 - k12 * k21
        w1, w2 = (k22 * s1 - k12 * s2) / det, (k11 * s2 - k21 * s1) / det
        return q @ (y[:, 0] - w1 * y[:, 1] - w2 * y[:, 2])


def newton_polish(p, x):
    """Guarded Newton refinement of a near-critical point of G, at most 8 steps.

    Each step is accepted only if it shrinks the gradient norm, after up to
    12 halvings; the analytic gradient/Hessian push the first-order residual
    to machine precision, which a search on values alone cannot reach
    through the fp noise floor of objective differences.  Halving stops once
    x - s step rounds to x: so does every shorter step, and the gradient at
    x cannot shrink its own norm, so no result changes.  A step s with
    |s| <= 4 eps |x| only reshuffles the last bits of x: it is tried under
    the same rule, and then the polish stops.  Steps come from
    :func:`newton_step`: O(n^2) from the shared eigendecomposition of
    A^T W A for the scaled identity, a dense O(n^3) solve for a general T.
    A non-finite step (hard case) ends it: each halving has a NaN gradient.
    Returns (the polished point, converged) when G there is at most G(x) (1
    + 1e-14), and (x, False) otherwise: the one rule by which every route
    keeps a polish.  ``converged`` says that the polish was kept and ended
    at a zero gradient or on a tried step of at most 4 eps |x|: Newton had
    nothing left above the rounding level of x.
    """
    x0 = np.asarray(x, dtype=float)
    x = x0.copy()
    parts = _gradient_parts(p, x)
    g0 = parts[2] / parts[3] + p.T.value(x)  # G(x), as eval_g forms it
    gnorm = math.sqrt(float(parts[0] @ parts[0]))  # the bits of np.linalg.norm
    last = False
    for _ in range(_POLISH_ITERS):
        if gnorm == 0.0:
            break
        try:
            step = newton_step(p, x, parts)
        except (np.linalg.LinAlgError, ZeroDivisionError):
            break
        if not np.isfinite(step).all():
            break
        last = math.sqrt(float(step @ step)) <= 4.0 * _EPS * math.sqrt(float(x @ x))
        for k in range(12):
            x_new = x - step / 2**k
            if (x_new == x).all():
                break
            parts_new = _gradient_parts(p, x_new)
            gnorm_new = math.sqrt(float(parts_new[0] @ parts_new[0]))
            if gnorm_new < gnorm:
                x, parts, gnorm = x_new, parts_new, gnorm_new
                break
        if last or x is not x_new:  # at the rounding level of x, or no step accepted
            break
    if parts[2] / parts[3] + p.T.value(x) > g0 + _POLISH_REL * abs(g0):
        return x0, False
    return x, gnorm == 0.0 or last


def minimize(fun, x0, **kw):
    """scipy.optimize.minimize, imported on the first call.

    No solver in rtls calls it; ``perfbench/tracing.py`` wraps it by this
    name.  ``import rtls`` stays numpy-only.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kw)


@dataclass(frozen=True)
class AlphaSearch:
    """What one dense-T alpha search did; deterministic, for the report meta.

    doublings    rescans after the scan interval doubled
    trs_solves   scalar equality-TRS solves off the grid: one at each
                 bracket cell's Hermite point, over both passes
    hit_cap      the least G of the last coarse scan sat at its largest |x|^2
    alpha        |x|^2 of the point handed to the last Newton polish: the
                 least G over its grid and the Hermite points
    refined      the polish from the coarse scan did not converge, so the
                 search scanned again beside the least coarse G
    """

    doublings: int
    trs_solves: int
    hit_cap: bool
    alpha: float
    refined: bool


def sphere_min(p, u):
    """Minimize G over the sphere |x|^2 = alpha = expm1(u); returns (x, g, dg/du).

    On the sphere (1 + alpha) G(x) = <Sx,x> - 2<c,x> + |b|_W^2 with S = A^T
    W A + (1 + alpha) T^T T and c = A^T W b, an equality trust-region
    subproblem.  With mu its multiplier and x its minimizer, the envelope
    theorem gives the slope of g(u) = min G in closed form:

        dg/du = |T x|^2 - mu - g,

    NaN at u = 0, where mu is undefined.
    """
    n = p.shape[1]
    alpha = math.expm1(u)
    sol = trs_equality(
        p.gram_matrix + (1.0 + alpha) * p.T.gram(n), p.gram_rhs, math.sqrt(alpha)
    )
    value = eval_g(p, sol.x)
    return sol.x, value.g, value.reg_term - sol.lam - value.g


def sphere_scan(p, us):
    """:func:`sphere_min` at every u of the array us, from one batched eigh.

    Returns (G, dg/du, x columns).  G is formed from x as eval_g forms it,
    not from the TRS values, which carry the eigenvalue error of S, growing
    with alpha; the slope takes mu from :func:`rtls.trs.radial_values`.
    """
    n = p.shape[1]
    alpha = np.expm1(us)
    lam, q = np.linalg.eigh(p.gram_matrix + np.multiply.outer(1.0 + alpha, p.T.gram(n)))
    _, z, mu = radial_values(np.clip(lam, 0.0, None), p.gram_rhs @ q, np.sqrt(alpha))
    xs = (q @ z[..., None])[..., 0].T
    r, tx = p.A @ xs - p.b[:, None], p.T.apply(xs)
    reg = (tx * tx).sum(0)
    g = (r * p.W.apply(r)).sum(0) / (1.0 + (xs * xs).sum(0)) + reg
    return g, reg - mu - g, xs


def hermite_argmin(lo, hi, g_lo, g_hi, slope_lo, slope_hi):
    """The minimizer in (lo, hi) of the cubic Hermite interpolant of g.

    g and its slope are given at both ends, with slope_lo < 0 < slope_hi.
    On t = (u - lo) / h, h = hi - lo, the cubic has p'(t) = a t^2 + b t + c
    with c = h slope_lo < 0 < p'(1) = h slope_hi, so exactly one root of p'
    lies in (0, 1): t = -2c / (b + sqrt(b^2 - 4ac)), written as (sqrt(b^2 -
    4ac) - b) / 2a where b < 0 would cancel.  A cubic that rounding (or a
    non-finite g) leaves without a root in (0, 1) falls back to the secant
    root of the two slopes.
    """
    h = hi - lo
    c, d = h * slope_lo, h * slope_hi
    a = 3.0 * (2.0 * (g_lo - g_hi) + c + d)
    b = 2.0 * (3.0 * (g_hi - g_lo) - 2.0 * c - d)
    root = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    num, den = (-2.0 * c, b + root) if b >= 0.0 else (root - b, 2.0 * a)
    t = num / den if den > 0.0 else math.nan
    if not 0.0 < t < 1.0:
        t = slope_lo / (slope_lo - slope_hi)
    return lo + t * h


def solve_rtls_general_t(p):
    """Global 1-D search over alpha = |x|^2 for a general (dense) regularizer.

    On the sphere |x|^2 = alpha, min G is an equality trust-region
    subproblem (:func:`sphere_min`; Beck & Ben-Tal, SIAM J. Optim. 17
    (2006) 98-118).  G at its minimizers and the slope dg/du are scanned on
    16 points in u = log1p(alpha) from one batched eigh
    (:func:`sphere_scan`), the first at u = 1e-12 of the scan interval,
    where the slope is defined, in place of u = 0.  G(x) >= |Tx|^2 and
    G(x*) <= G(0) bound alpha* by |b|_W^2 / sigma_min(T)^2, and the scan
    ends there.  When T has a null direction (:attr:`RegularizerSpec.svd`,
    the rule of :func:`rtls.model.is_trivial_rtls`) that bounds only the
    part of x* in the range of T, and where sigma_min^2 underflows or the
    bound overflows there is none: the scan ends at |x|^2 >= 1 and doubles
    in u while its least G sits at its upper end, up to |x|^2 = 1e8, where
    it stops with ``hit_cap``.  Each cell of the grid whose slope rises
    from negative to positive brackets a basin, and the grid's exact g and
    dg/du at its ends give one TRS solve at the minimizer of their cubic
    Hermite interpolant (:func:`hermite_argmin`).  On the first cell g
    falls like g(0) - 2 |A^T W b| sqrt(u), its slope at 1e-12 u_max is of
    order -1e6, and the cubic is taken in r = sqrt(u), where g is smooth,
    with dg/dr = 2 r dg/du.  No root is refined further: the least G seen,
    over the grid and those points, is Newton-polished in the full space
    from its own x, which sets every reported bit.  Where that polish does
    not converge (no rounding-level step), resolution goes where the
    winning basin is: a second batched scan puts 16 points strictly inside
    the cells on either side of the least coarse G (one cell at an end of
    the grid), the two merge into one sorted grid, and its cells, Hermite
    solves and polish give the result; where its least G is the coarse
    start, that start's polish stands.
    A grid proves no global minimum, so the pair is flagged heuristic.
    Returns (x, status, :class:`AlphaSearch`), or (witness,
    trivial, None) without a search when b lies in A(N(T)) + N(W) with a
    witness whose G is at most 1e-10 |b|_W^2
    (:func:`rtls.model.is_trivial_rtls`).
    """
    trivial, witness = is_trivial_rtls(p)
    if trivial:
        return witness, STATUS_TRIVIAL, None
    sigma, _, null = p.T.svd
    s_min = float(sigma[~null][-1]) if not null.all() else 0.0
    lam_min = s_min * s_min  # 0 also where it underflows, as in T^T T
    # inf, no bound, where lam_min is 0 or the quotient overflows
    alpha_max = p.b_norm_w_sq / lam_min if lam_min > 0.0 else math.inf
    if alpha_max < math.inf and not null.any():
        u_max = u_cap = math.log1p(alpha_max)
    else:  # the bound covers only the range of T, or nothing: scan |x|^2 up to 1 at least
        u_max = math.log1p(alpha_max if 1.0 < alpha_max < math.inf else 1.0)
        u_cap = max(u_max, math.log1p(_ALPHA_CAP))
    doublings = 0
    while True:
        us = np.linspace(0.0, u_max, _ALPHA_GRID)
        us[0] = 1e-12 * u_max  # the slope is NaN at u = 0
        vals, slopes, xs = sphere_scan(p, us)
        i_best = int(np.argmin(vals))
        if us[i_best] <= 0.99 * u_max or u_max >= u_cap:
            break
        u_max = min(2.0 * u_max, u_cap)
        doublings += 1
    hit_cap = bool(us[i_best] > 0.99 * u_max)
    if hit_cap:
        logger.info("alpha search stopped at |x|^2 = %g", math.expm1(u_cap))
    start, u, trs_solves = _least_seen(p, us, vals, slopes, xs)
    x, converged = newton_polish(p, start)
    if not converged:
        # a second scan of as many points strictly inside the one or two
        # cells beside the least coarse G, merged with the first into one
        # sorted grid
        lo, hi = us[max(i_best - 1, 0)], us[min(i_best + 1, _ALPHA_GRID - 1)]
        fine = np.linspace(lo, hi, _ALPHA_GRID + 2)[1:-1]
        order = np.argsort(np.concatenate((us, fine)))
        fine_start, u, solves = _least_seen(p, *(
            np.concatenate(pair, axis=-1)[..., order]
            for pair in zip((us, vals, slopes, xs), (fine, *sphere_scan(p, fine)))
        ))
        trs_solves += solves
        if not np.array_equal(fine_start, start):  # else x is already its polish
            x, _ = newton_polish(p, fine_start)
    search = AlphaSearch(doublings=doublings, trs_solves=trs_solves, hit_cap=hit_cap,
                         alpha=math.expm1(u), refined=not converged)
    return x, STATUS_HEURISTIC, search


def _least_seen(p, us, vals, slopes, xs):
    """One Hermite TRS solve per bracket cell of a scanned grid; returns the x
    and u of the least G seen, ties to the grid, and the number of solves."""
    i_best = int(np.argmin(vals))
    cells = np.flatnonzero((slopes[:-1] < 0.0) & (slopes[1:] > 0.0)).tolist()
    us, vals, slopes = us.tolist(), vals.tolist(), slopes.tolist()
    seen = [(vals[i_best], us[i_best], xs[:, i_best])]  # (G, u, x)
    for i in cells:
        if i == 0:  # g ~ g(0) - 2 |A^T W b| sqrt(u) near u = 0: a cubic in r = sqrt(u)
            r0, r1 = math.sqrt(us[0]), math.sqrt(us[1])
            u = hermite_argmin(r0, r1, vals[0], vals[1], 2.0 * r0 * slopes[0],
                               2.0 * r1 * slopes[1]) ** 2
        else:
            u = hermite_argmin(us[i], us[i + 1], vals[i], vals[i + 1], slopes[i], slopes[i + 1])
        x, g, _ = sphere_min(p, u)
        seen.append((g, u, x))
    _, u, x = min(seen, key=lambda point: point[0])
    return x, u, len(seen) - 1
