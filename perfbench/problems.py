"""Seeded problem files for the benchmark workloads, and their reference values.

Inputs are built here with numpy alone, never through ``rtls.instances`` or
``rtls.lab``, so a change to those modules cannot shift a workload.  Each
instance carries the reference values the correctness gates need; they are
computed from the input alone, before any op runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# factors f in rho = f * |b|_W^2; f >= 1 puts t* <= rho (status solved).
# Pool sizes make one pass over a pool take several seconds, so a run holds a
# whole number of passes and many instances share each latency quantile.
SMALL_FACTORS = (1.5, 0.2, 0.02)
SMALL_COPIES = 2
CLOSED_FORM_FACTORS = (0.5, 0.2, 0.05, 0.02)
LARGE_SIZES = (200, 233, 267, 300, 333, 367, 400)
LARGE_FACTORS = (1.5, 0.05)
CERTIFY_FACTORS = (1.5, 0.2)
CERTIFY_COPIES = 2
DENSE_T_FACTORS = (1.5, 0.2)
DENSE_T_COPIES = 3
LAB_ORDERS = (8, 16, 32)


@dataclass
class Instance:
    """One problem file plus what the gates compare the program against.

    ``t_upper`` is min G over a brute-force radial grid (any x gives
    G(x) >= t*, so it is a one-sided bound); ``t_closed`` is the exact t*
    of the A = 0 instance.
    """

    name: str
    command: str  # "solve" or "certify"
    A: np.ndarray
    b: np.ndarray
    w_kind: str  # "diagonal" or "dense"
    W: np.ndarray  # diagonal entries or the full matrix
    rho: float | None = None  # scaled identity T = sqrt(rho) I
    T: np.ndarray | None = None  # dense regularizer
    t_upper: float | None = None
    t_closed: float | None = None
    path: str = ""

    def misfit(self, x):
        """|Ax - b|_W^2."""
        r = self.A @ x - self.b
        if self.w_kind == "diagonal":
            return float(np.sum(self.W * r * r))
        return float(r @ (self.W @ r))

    def g_value(self, x):
        """G(x) = |Ax - b|_W^2 / (1 + |x|^2) + |Tx|^2."""
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        if self.T is None:
            reg = self.rho * r2
        else:
            tx = self.T @ x
            reg = float(tx @ tx)
        return self.misfit(x) / (1.0 + r2) + reg

    @property
    def b_norm_w_sq(self):
        return self.misfit(np.zeros(self.A.shape[1]))

    def to_json(self):
        """The problem file text; 17 significant digits round-trip every float."""
        m, n = self.A.shape
        if self.w_kind == "diagonal":
            w_obj = f'{{"kind": "diagonal", "data": {_array(self.W)}}}'
        else:
            w_obj = f'{{"kind": "dense", "rows": {m}, "cols": {m}, "data": {_array(self.W)}}}'
        if self.T is None:
            t_obj = f'{{"kind": "identity_scaled", "rho": {self.rho!r}}}'
        else:
            p, q = self.T.shape
            t_obj = f'{{"kind": "dense", "rows": {p}, "cols": {q}, "data": {_array(self.T)}}}'
        a_obj = f'{{"rows": {m}, "cols": {n}, "data": {_array(self.A)}}}'
        return f'{{"A": {a_obj}, "b": {_array(self.b)}, "W": {w_obj}, "T": {t_obj}}}'

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        self.path = str(path)


def _array(values):
    flat = np.ravel(values).tolist()
    return "[" + ",".join(["%.17g"] * len(flat)) % tuple(flat) + "]"


def _weight(rng, m, kind):
    lam = rng.uniform(0.2, 2.0, size=m)
    if kind == "diagonal":
        return lam
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    w = (q * lam) @ q.T
    return 0.5 * (w + w.T)


def _random(rng, name, command, n, m, f, kind):
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    inst = Instance(name, command, A, b, kind, _weight(rng, m, kind), rho=1.0)
    inst.rho = f * inst.b_norm_w_sq
    return inst


def radial_upper_bound(inst, grid=200, zooms=4, iters=64):
    """min G over a brute-force radial grid, an upper bound on t*.

    For each radius r the minimizer of |Ax - b|_W^2 on |x| = r is
    x = Q d / (lam + mu) with mu from the secular equation, found here by
    plain bisection.  The grid is zoomed around its best point, and the
    final candidates are scored with the direct formula for G.
    """
    if inst.w_kind == "diagonal":
        wa = inst.W[:, None] * inst.A
    else:
        wa = inst.W @ inst.A
    lam, q = np.linalg.eigh(inst.A.T @ wa)
    lam = np.clip(lam, 0.0, None)
    d = q.T @ (wa.T @ inst.b)
    b_sq = inst.b_norm_w_sq
    rho = inst.rho
    d_norm = float(np.linalg.norm(d))

    def solve(rs):
        lo = np.full(rs.shape, -lam[0])
        hi = -lam[0] + d_norm / rs
        d_sq = (d * d)[None, :]
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            big = np.sum(d_sq / (lam[None, :] + mid[:, None]) ** 2, axis=1) > rs * rs
            lo = np.where(big, mid, lo)
            hi = np.where(big, hi, mid)
        y = d[None, :] / (lam[None, :] + 0.5 * (lo + hi)[:, None])
        y *= (rs / np.linalg.norm(y, axis=1))[:, None]
        misfit = np.sum(lam * y * y, axis=1) - 2.0 * (y @ d) + b_sq
        return y, misfit / (1.0 + rs * rs) + rho * rs * rs

    lo_r, hi_r = 0.0, math.sqrt(b_sq / rho) * 1.05
    for _ in range(zooms + 1):
        rs = np.linspace(lo_r, hi_r, grid)[1:]
        y, vals = solve(rs)
        k = int(np.argmin(vals))
        step = rs[1] - rs[0]
        lo_r, hi_r = max(rs[k] - 2.0 * step, 0.0), rs[k] + 2.0 * step
    best = np.argsort(vals)[:5]
    return min([b_sq] + [inst.g_value(q @ y[i]) for i in best])


def solve_small(rng):
    """Random small instances in every (n, m, rho factor, W kind) plus A = 0."""
    pool = []
    for copy in range(SMALL_COPIES):
        for n in (3, 8, 20):
            for m in (n, 2 * n):
                for f in SMALL_FACTORS:
                    for kind in ("diagonal", "dense"):
                        name = f"small{copy}-n{n}-m{m}-f{f}-{kind}"
                        pool.append(_random(rng, name, "solve", n, m, f, kind))
    for f in CLOSED_FORM_FACTORS:
        b = rng.normal(size=2)
        rho = f * float(b @ b)
        inst = Instance(f"closed-f{f}", "solve", np.zeros((2, 2)), b, "diagonal",
                        np.ones(2), rho=rho)
        inst.t_closed = 2.0 * math.sqrt(rho) * float(np.linalg.norm(b)) - rho
        pool.append(inst)
    return pool


def solve_large(rng):
    """Dense-W instances on a ladder of sizes, so the median op is not a gap between sizes."""
    pool = []
    for n in LARGE_SIZES:
        for f in LARGE_FACTORS:
            pool.append(_random(rng, f"large-n{n}-f{f}", "solve", n, n, f, "dense"))
    return pool


def certify(rng):
    pool = []
    for copy in range(CERTIFY_COPIES):
        for n in (3, 6):
            for f in CERTIFY_FACTORS:
                for kind in ("diagonal", "dense"):
                    name = f"cert{copy}-n{n}-f{f}-{kind}"
                    pool.append(_random(rng, name, "certify", n, n, f, kind))
    return pool


def dense_t(rng):
    """Random dense T at n = 20 and the decaying diagonal family at N = 8, 16, 32.

    The diagonal family (a = 1/k, w = 1/k^2, t = 1/k^2, b = e1) has no seed.
    """
    n = 20
    pool = []
    for copy in range(DENSE_T_COPIES):
        for f in DENSE_T_FACTORS:
            inst = _random(rng, f"denseT{copy}-n{n}-f{f}", "solve", n, n, f, "diagonal")
            inst.T = rng.normal(size=(n, n)) * math.sqrt(inst.rho / n)
            inst.rho = None
            pool.append(inst)
    for order in LAB_ORDERS:
        k = np.arange(1, order + 1, dtype=float)
        b = np.zeros(order)
        b[0] = 1.0
        pool.append(Instance(f"diag-N{order}", "solve", np.diag(1.0 / k), b, "diagonal",
                             k**-2.0, T=np.diag(k**-2.0)))
    return pool


WORKLOADS = {
    "solve-small": solve_small,
    "solve-large": solve_large,
    "certify": certify,
    "dense-T": dense_t,
}


def build(workload, seed, workdir):
    """Generate the workload's pool from ``seed`` and write its problem files."""
    rng = np.random.default_rng(seed)
    pool = WORKLOADS[workload](rng)
    for i, inst in enumerate(pool):
        inst.write(f"{workdir}/p{i:03d}.json")
        if inst.T is None and inst.t_closed is None:
            inst.t_upper = radial_upper_bound(inst)
    return pool
