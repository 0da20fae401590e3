"""Equality-constrained trust-region subproblem via the secular equation.

Solves min <S x, x> - 2 <c, x> over the sphere |x| = r for a symmetric PSD
matrix S.  In the eigenbasis S = Q diag(lam) Q^T with d = Q^T c the global
minimizer is x(mu) = Q (d / (lam + mu)) where mu >= -lam_min solves the
secular equation

    sum_i d_i^2 / (lam_i + mu)^2 = r^2.

When d has no component in the minimal eigenspace the secular curve may top
out below r (the hard case); the solution is then completed with a component
inside that eigenspace at mu = -lam_min.

The secular root is found by :func:`brentq`, a pure-Python port of the
Brent-Dekker method (R. P. Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4) step for step as in scipy's ``brentq.c``, so the
roots are bit-identical to ``scipy.optimize.brentq`` without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EIGENGAP_REL = 1e-12  # relative width of the minimal eigenspace
_HARD_CASE_REL = 1e-13  # |d| components below this are treated as zero


class SecularBracketError(RuntimeError):
    """The secular root could not be bracketed (diagnostics in message)."""


@dataclass(frozen=True)
class TrsSolution:
    r: float
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


def _decompose(S, c, eig):
    if eig is None:
        lam, q = np.linalg.eigh(np.asarray(S, dtype=float))
        lam = np.clip(lam, 0.0, None)
    else:
        lam, q = eig
    d = q.T @ np.asarray(c, dtype=float)
    return lam, q, d


def min_space(lam, d):
    """Split eigenbasis data (lam ascending, d = Q^T c) at the minimal eigenspace.

    Returns (in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate): the mask
    of the minimal eigenspace, the norm of d inside it, d with that part
    zeroed, the gaps lam - lam_min with ones inside it, the squared norm
    |d_eff / gaps|^2 reached as mu -> -lam_min, and whether d has no
    component in the minimal eigenspace (the precondition of the hard case).
    """
    spread = max(lam[-1] - lam[0], abs(lam[0]), 1.0)
    in_min = lam - lam[0] <= _EIGENGAP_REL * spread
    d_min_norm = float(np.linalg.norm(d[in_min]))
    d_eff = np.where(in_min, 0.0, d)
    gaps = np.where(in_min, 1.0, lam - lam[0])
    limit_sq = float(np.sum((d_eff / gaps) ** 2))
    degenerate = d_min_norm <= _HARD_CASE_REL * max(1.0, float(np.linalg.norm(d)))
    return in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate


def trs_equality(S, c, r, eig=None):
    """Minimize <Sx,x> - 2<c,x> subject to |x| = r.

    ``eig`` may pass a precomputed ``(eigenvalues, eigenvectors)`` pair of S
    (ascending); S itself is then ignored.  r = 0 returns x = 0 with the
    multiplier undefined (NaN).
    """
    lam, q, d = _decompose(S, c, eig)
    n = lam.shape[0]
    r = float(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return TrsSolution(0.0, np.zeros(n), float("nan"), False)

    in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate = min_space(lam, d)
    lam_min = float(lam[0])

    if degenerate and limit_sq <= r * r * (1.0 + 1e-12):
        # hard case: complete with a minimal-eigenspace component
        x_eig = d_eff / gaps
        x_eig[in_min] = 0.0
        tau = np.sqrt(max(r * r - limit_sq, 0.0))
        k = int(np.argmax(in_min))
        x_eig[k] = tau
        x = q @ x_eig
        nrm = np.linalg.norm(x)
        if nrm > 0:
            x *= r / nrm
        return TrsSolution(r, x, -lam_min, True)

    def secular(mu):
        return float(np.sum((d / (lam + mu)) ** 2)) - r * r

    if not degenerate:
        lo = -lam_min + d_min_norm / r  # secular(lo) >= 0 from the minimal block alone
    else:
        spread = max(lam[-1] - lam[0], abs(lam_min), 1.0)
        lo = -lam_min + 1e-15 * spread
    hi = -lam_min + float(np.linalg.norm(d)) / r  # secular(hi) <= 0
    f_lo, f_hi = secular(lo), secular(hi)
    if f_lo == 0.0:
        mu = lo
    elif f_hi == 0.0:
        mu = hi
    elif f_lo < 0.0 or f_hi > 0.0:
        if abs(f_lo) <= 1e-10 * r * r:
            mu = lo
        elif abs(f_hi) <= 1e-10 * r * r:
            mu = hi
        else:
            raise SecularBracketError(
                "secular equation not bracketed: "
                f"r={r!r}, lam_min={lam_min!r}, |d|={np.linalg.norm(d)!r}, "
                f"limit={np.sqrt(limit_sq)!r}, f(lo)={f_lo!r}, f(hi)={f_hi!r}"
            )
    else:
        mu = brentq(secular, lo, hi, xtol=1e-30, rtol=8.9e-16, maxiter=200)

    x = q @ (d / (lam + mu))
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x *= r / nrm
    return TrsSolution(r, x, float(mu), False)


def radial_values(lam, d, rs, iters=70):
    """Vectorized values of min_{|x|=r} <Sx,x> - 2<c,x> over an array of radii.

    Same reduction as :func:`trs_equality` (eigenbasis data lam, d), solved by
    bisection on the secular equation simultaneously for all radii.  Radii in
    the hard-case regime use the closed form with a minimal-eigenspace
    completion.
    """
    lam = np.asarray(lam, dtype=float)
    d = np.asarray(d, dtype=float)
    rs = np.asarray(rs, dtype=float)
    in_min, d_min_norm, d_eff, gaps, limit_sq, degenerate = min_space(lam, d)
    lam_min = float(lam[0])
    d_norm = float(np.linalg.norm(d))

    out = np.zeros_like(rs)
    pos = rs > 0.0

    hard = pos & ((rs * rs >= limit_sq) if degenerate else np.zeros_like(pos))
    if np.any(hard):
        x_bar = d_eff / gaps
        x_bar[in_min] = 0.0
        base = float(np.sum(lam * x_bar**2) - 2.0 * np.sum(d * x_bar))
        out[hard] = base + lam_min * (rs[hard] ** 2 - limit_sq)

    solve = pos & ~hard
    if np.any(solve):
        r = rs[solve]
        if degenerate:
            spread = max(lam[-1] - lam[0], abs(lam_min), 1.0)
            lo = np.full(r.shape, -lam_min + 1e-15 * spread)
        else:
            lo = -lam_min + d_min_norm / r
        hi = -lam_min + d_norm / r
        lam_row = lam[None, :]
        d_sq = (d * d)[None, :]
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            g = np.sum(d_sq / (lam_row + mid[:, None]) ** 2, axis=1)
            too_big = g > r * r
            lo = np.where(too_big, mid, lo)
            hi = np.where(too_big, hi, mid)
        mu = 0.5 * (lo + hi)
        x = d[None, :] / (lam_row + mu[:, None])
        # rescale onto the sphere exactly before evaluating
        norms = np.linalg.norm(x, axis=1)
        x *= (r / norms)[:, None]
        out[solve] = np.sum(lam_row * x * x, axis=1) - 2.0 * np.sum(d[None, :] * x, axis=1)
    return out
