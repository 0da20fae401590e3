import math

import numpy as np
import pytest

from rtls.instances import random_problem


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def elementwise_objective(p, X, x, regularized=True):
    """Independent <Wz, z>-form evaluation of the objectives."""
    diff = p.A - X
    op_term = float(np.sum(p.W.apply(diff) * diff))
    fit = X @ x - p.b
    fit_term = float(np.sum(p.W.apply(fit) * fit))
    total = op_term + fit_term
    if regularized:
        tx = p.T.apply(x)
        total += float(np.sum(tx * tx))
    return total


def _radial_misfit(p, rs, iters=60):
    """m(r) = min_{|x| = r} |Ax - b|_W^2 at each radius r > 0 in rs.

    Plain bisection on the secular equation, vectorized over the radii.
    Generic instances only (no minimal-eigenspace degeneracy handling).
    """
    lam, q = np.linalg.eigh(p.gram_matrix)
    lam = np.clip(lam, 0.0, None)
    d = q.T @ p.gram_rhs
    lam_min = lam[0]
    d_norm = np.linalg.norm(d)
    lo = -lam_min + max(abs(d[0]), 1e-300) / rs
    hi = -lam_min + d_norm / rs
    d_sq = (d * d)[None, :]
    lam_row = lam[None, :]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = np.sum(d_sq / (lam_row + mid[:, None]) ** 2, axis=1)
        big = val > rs * rs
        lo = np.where(big, mid, lo)
        hi = np.where(big, hi, mid)
    mu = 0.5 * (lo + hi)
    x = d[None, :] / (lam_row + mu[:, None])
    x *= (rs / np.linalg.norm(x, axis=1))[:, None]
    return np.sum(lam_row * x * x, axis=1) - 2.0 * x @ d + p.b_norm_w_sq


def grid_tstar_oracle(p, points=100_000, iters=60):
    """Brute-force minimum of G over the spherical reduction.

    Independent of the solver path: its own bisection on the secular
    equation, on a dense radial grid.
    """
    rho = p.T.rho
    b_sq = p.b_norm_w_sq
    r_max = math.sqrt(b_sq / rho) * 1.05 + 1e-9
    rs = np.linspace(0.0, r_max, points)[1:]
    g_vals = _radial_misfit(p, rs, iters) / (1.0 + rs * rs) + rho * rs * rs
    return min(float(np.min(g_vals)), b_sq)  # include r = 0


def grid_phi_oracle(p, t, points=100_000, iters=60):
    """Brute-force phi(t) = min_r m(r) + rho r^4 + (rho - t) r^2 - t on a radial grid.

    The minimizer has rho s^2 - t s <= |b|_W^2 for s = r^2 (the value at
    r = 0 bounds it and m >= 0), which bounds the grid.
    """
    rho = p.T.rho
    b_sq = p.b_norm_w_sq
    s_max = (t + math.sqrt(t * t + 4.0 * rho * b_sq)) / (2.0 * rho)
    rs = np.linspace(0.0, math.sqrt(s_max) * 1.05 + 1e-9, points)[1:]
    vals = _radial_misfit(p, rs, iters) + rho * rs**4 + (rho - t) * rs**2 - t
    return min(float(np.min(vals)), b_sq - t)  # include r = 0


def certified_instances(count, dims=(2, 3, 4, 5, 6), seed=20240404):
    """Seeded random instances with rho >= |b|_W^2 (certified regime)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(dims[i % len(dims)])
        out.append(random_problem(rng, n, rho_factor=float(rng.uniform(1.0, 3.0))))
    return out
