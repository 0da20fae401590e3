"""Equality-constrained trust-region subproblem via the secular equation.

Solves min <S x, x> - 2 <c, x> over the sphere |x| = r for a symmetric PSD
matrix S.  In the eigenbasis S = Q diag(lam) Q^T with d = Q^T c the global
minimizer is x(mu) = Q (d / (lam + mu)) where mu >= -lam_min solves the
secular equation

    sum_i d_i^2 / (lam_i + mu)^2 = r^2.

When d has no component in the minimal eigenspace the secular curve may top
out below r (the hard case); the solution is then completed with a component
inside that eigenspace at mu = -lam_min.  :func:`secular_setup` holds that
test, the completion and the secular bracket, and :func:`secular_root` the
root, by Newton's method on 1/|z(mu)| - 1/r (J. J. More and D. C. Sorensen,
SIAM J. Sci. Stat. Comput. 4 (1983) 553-572), for one S or a batch: the
scalar :func:`trs_equality` and the batched :func:`radial_values` share both.

:func:`brentq` (R. P. Brent, Algorithms for Minimization without Derivatives,
1973, ch. 4) finds only the slope root of :func:`quartic_minimizer`, the
Dinkelbach inner problem; a pure-Python port step for step as in scipy's
``brentq.c``, its roots are bit-identical to ``scipy.optimize.brentq``
without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EIGENGAP_REL = 1e-12  # relative width of the minimal eigenspace
_HARD_CASE_REL = 1e-13  # d's minimal-eigenspace part below this times |d| counts as zero
_SWEEPS = 70  # cap on the Newton sweeps of secular_root, for every TRS


@dataclass(frozen=True)
class TrsSolution:
    x: np.ndarray
    lam: float
    hard_case: bool


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """A root of f in the bracket [a, b] by Brent's method.

    Each step takes the inverse-quadratic (or secant) step when it is short
    enough and bisects otherwise; it stops once the bracket is narrower than
    2 delta with delta = (xtol + rtol |x|) / 2.  Raises ValueError when f(a)
    and f(b) have the same sign or f returns NaN, and RuntimeError after
    ``maxiter`` steps without convergence.
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


def min_space(lam, d):
    """Split eigenbasis data (lam ascending, d = Q^T c) at the minimal eigenspace.

    Returns (in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate): the mask
    of the minimal eigenspace, the norm of d inside it, d with that part
    zeroed, the gaps lam - lam_min with ones inside it, the squared norm
    |d_eff / gaps|^2 reached as mu -> -lam_min, and whether d has no
    component in the minimal eigenspace (the precondition of the hard case).
    ``lam`` and ``d`` may carry leading batch axes, one S per entry.
    """
    low = lam - lam[..., :1]
    spread = np.maximum(lam[..., -1:] - lam[..., :1], np.abs(lam[..., :1]))
    in_min = low <= _EIGENGAP_REL * spread
    d_min_norm = np.linalg.norm(np.where(in_min, d, 0.0), axis=-1)
    d_eff = np.where(in_min, 0.0, d)
    gaps = np.where(in_min, 1.0, low)
    limit_sq = np.sum((d_eff / gaps) ** 2, axis=-1)
    degenerate = d_min_norm <= _HARD_CASE_REL * np.linalg.norm(d, axis=-1)
    return in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate


def secular_setup(lam, d, r):
    """Everything of the equality TRS at radius r > 0 but the secular root.

    ``lam`` (ascending) and ``d`` = Q^T c may carry leading batch axes, one
    S per entry; ``r`` broadcasts against them.  Returns (hard, z, lo, hi):
    whether the hard case holds (d misses the minimal eigenspace and the
    secular curve tops out at or below r), z = Q^T x of its minimizer,
    completed inside that eigenspace and meaningful only where ``hard``,
    and a bracket lo <= hi of the secular root mu.  secular(lo) >= 0 from
    the minimal block alone and secular(hi) <= 0, up to rounding.  Both
    ends stay above the pole -lam_min, where lam + mu would divide by zero;
    -lam_min + |d| / r alone rounds onto it when |d| / r is below an ulp of
    lam_min.
    """
    in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate = min_space(lam, d)
    hard = degenerate & (limit_sq <= r * r * (1.0 + 1e-12))
    z = d_eff / gaps  # zero on the minimal eigenspace
    z[..., 0] = np.sqrt(np.maximum(r * r - limit_sq, 0.0))
    pole = -lam[..., 0]
    spread = np.maximum(lam[..., -1] + pole, np.abs(pole))
    lo = pole + np.where(degenerate, 1e-15 * spread, d_min_norm / r)
    lo = np.maximum(lo, np.nextafter(pole, np.inf))
    hi = np.maximum(pole + np.linalg.norm(d, axis=-1) / r, lo)
    return hard, z, lo, hi


def secular_root(lam, d, r, lo, hi):
    """The secular root mu in the bracket [lo, hi] of :func:`secular_setup`.

    Newton's method on psi(mu) = 1/|z| - 1/r, z = d / (lam + mu), from lo:
    psi is concave and increasing right of the pole, so no iterate passes
    the root, and an end that rounding puts past it is taken as the root.
    Batch axes as in :func:`secular_setup`; a row stops once mu stops rising.
    """
    for _ in range(_SWEEPS):
        shifted = lam + lo[..., None]
        z_sq = (d / shifted) ** 2
        norm_sq = z_sq.sum(axis=-1)
        step = (np.sqrt(norm_sq) - r) / r * norm_sq / (z_sq / shifted).sum(axis=-1)
        lo, last = np.fmax(lo, np.minimum(lo + step, hi)), lo  # a stopped row stays
        if (lo == last).all():
            break
    return lo


def trs_equality(S, c, r, eig=None):
    """Minimize <Sx,x> - 2<c,x> subject to |x| = r.

    ``eig`` may pass a precomputed ``(eigenvalues, eigenvectors)`` pair of S
    (ascending); S itself is then ignored.  r = 0 returns x = 0 with the
    multiplier undefined (NaN).  The multiplier is :func:`secular_root`'s,
    as in :func:`radial_values`, but x = Q z is rescaled onto |x| = r in
    x-coordinates.  Both solve at the radius in [1/2, 1) that a power of
    two takes r to, with d scaled alike: |d / (lam + mu)| = r is homogeneous
    in (d, r), so mu is unchanged, and no square of a tiny or huge z leaves
    the double range.  The power of two scales x back exactly.
    """
    if eig is None:
        lam, q = np.linalg.eigh(np.asarray(S, dtype=float))
        eig = np.clip(lam, 0.0, None), q
    lam, q = eig
    d = q.T @ np.asarray(c, dtype=float)
    r = float(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return TrsSolution(np.zeros(lam.shape[0]), float("nan"), False)

    r, e = math.frexp(r)
    d = np.ldexp(d, -e)
    hard, z, lo, hi = secular_setup(lam, d, r)
    if hard:
        mu = -lam[0]
    else:
        mu = secular_root(lam, d, r, lo, hi)
        z = d / (lam + mu)
    x = q @ z
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x *= r / nrm
    return TrsSolution(np.ldexp(x, e), float(mu), bool(hard))


def eigen_split(eig, c):
    """(eig, c, d = Q^T c, min_space(lam, d)): what :func:`quartic_minimizer` reads."""
    d = eig[1].T @ np.asarray(c, dtype=float)
    return eig, c, d, min_space(eig[0], d)


def quartic_minimizer(split, rho, shift=0.0):
    """Global minimizer of <Sx,x> - 2<c,x> + rho |x|^4 + shift |x|^2, rho > 0.

    ``split`` is :func:`eigen_split` of S and c.  The TRS minimum m(s) over
    |x|^2 = s is convex in s (strong duality), so there is one stationary
    point: x = Q d / (lam - lam_min + nu) at the root of the increasing
    nu - lam_min - shift - 2 rho |x|^2, with the minimal eigenspace lumped
    into one eigenvalue.  In the hard case (d misses that eigenspace and
    the root lies below nu = 0) x is completed there at nu = 0.
    """
    (lam, q), c, d, (in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate) = split
    floor = float(lam[0]) + shift
    if degenerate:
        s_hard = -floor / (2.0 * rho)
        if s_hard >= limit_sq:
            return trs_equality(None, c, math.sqrt(s_hard), eig=(lam, q)).x
        d = d_eff
    else:
        gaps = np.where(in_min, 0.0, gaps)

    def slope(nu):
        z = d / (gaps + nu)
        return nu - floor - 2.0 * rho * float(z @ z)

    # |x|^2 <= |d|^2 / nu^2 makes slope >= 0 here, up to rounding, and the
    # minimal block alone makes slope(lo) <= 0
    nu = max(floor, 0.0) + (2.0 * rho) ** (1 / 3) * float(np.linalg.norm(d)) ** (2 / 3)
    if slope(nu) > 0.0:
        lo = 0.0 if degenerate else d_min_norm * math.sqrt(2.0 * rho / (nu - floor))
        if slope(lo) < 0.0:
            nu = brentq(slope, lo, nu, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        else:
            nu = lo
    return q @ (d / (gaps + nu))


def radial_values(lam, d, rs):
    """Vectorized min_{|x|=r} <Sx,x> - 2<c,x> over an array of radii.

    Same reduction and root as :func:`trs_equality`, all rows at once, but
    x, hard rows too, is rescaled onto the sphere in eigen-coordinates
    before the values are formed.  ``lam`` and ``d`` may carry leading batch
    axes, one S per entry, and ``rs`` broadcasts against them (one S at many
    radii, or each S at its own).  Returns (values, z, mu), x = Q z, with mu
    the multiplier of :func:`trs_equality`: the secular root, -lam_min on
    hard rows and NaN where r = 0.  Each row is solved in the scaled units
    of :func:`trs_equality`; z is scaled back once and the values twice.
    """
    lam = np.asarray(lam, dtype=float)
    d = np.asarray(d, dtype=float)
    n = lam.shape[-1]
    shape = np.broadcast_shapes(lam.shape[:-1], d.shape[:-1], np.shape(rs))
    rs = np.broadcast_to(np.asarray(rs, dtype=float), shape)
    pos = rs > 0.0
    lam = np.broadcast_to(lam, shape + (n,))[pos]
    r, e = np.frexp(rs[pos])
    d = np.ldexp(np.broadcast_to(d, shape + (n,))[pos], -e[:, None])

    hard, x, lo, hi = secular_setup(lam, d, r)
    solve = ~hard
    mu = -lam[:, 0]
    if np.any(solve):
        lam_s, d_s = lam[solve], d[solve]
        mu[solve] = secular_root(lam_s, d_s, r[solve], lo[solve], hi[solve])
        x[solve] = d_s / (lam_s + mu[solve, None])
    x *= (r / np.linalg.norm(x, axis=1))[:, None]
    out = np.zeros(shape)
    z = np.zeros(shape + (n,))
    mus = np.full(shape, np.nan)
    out[pos] = np.ldexp(np.sum(lam * x * x, axis=1) - 2.0 * np.sum(d * x, axis=1), 2 * e)
    z[pos] = np.ldexp(x, e[:, None])
    mus[pos] = mu
    return out, z, mus
