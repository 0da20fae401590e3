import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import certified_instances, grid_phi_oracle, grid_tstar_oracle
from rtls import (
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
    classify_existence,
    eval_g,
    eval_phi,
    grad_g,
    normal_residual,
    recover_pair,
    solve_tstar,
)
from rtls.certificate import dual_tstar
from rtls.cli import main, solve_problem
from rtls.instances import closed_form_problem, random_problem, random_weight
from rtls.lab import default_rtls_nonexistence_model
from rtls import certificate, solver, trs
from rtls import io as rio
from rtls.certificate import DualSolution
from rtls.model import w_vec_seminorm
from rtls.solver import (
    hermite_argmin,
    hess_g,
    newton_polish,
    newton_step,
    sphere_min,
    sphere_scan,
)
from rtls.trs import trs_equality


class TestEvalPhi:
    def test_closed_form_root(self):
        # 25 + r^4 + (1-9) r^2 - 9 is minimized to 0 at r^2 = 4
        p = closed_form_problem()
        phi, x = eval_phi(p, 9.0)
        assert abs(phi) <= 1e-9
        assert float(x @ x) == pytest.approx(4.0, abs=1e-6)

    def test_vanishes_at_tstar(self, rng):
        p = random_problem(rng, 4)
        trace = solve_tstar(p)
        phi, _ = eval_phi(p, trace.t_star)
        assert abs(phi) <= 1e-8 * (1.0 + p.b_norm_w_sq)

    def test_monotone_decreasing_in_t(self, rng):
        p = random_problem(rng, 3)
        ts = np.linspace(0.0, p.b_norm_w_sq, 50)
        values = [eval_phi(p, t)[0] for t in ts]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-10

    def test_never_above_brute_force(self, rng):
        # any radial grid bounds phi(t) from above, so the root may not exceed it
        for i in range(8):
            n = int(rng.integers(2, 7))
            p = random_problem(rng, n, rho_factor=(0.02, 0.3, 1.5)[i % 3])
            scale = 1.0 + p.b_norm_w_sq
            for t in np.linspace(0.0, p.b_norm_w_sq, 4):
                phi, _ = eval_phi(p, t)
                oracle = grid_phi_oracle(p, t)
                assert phi <= oracle + 1e-12 * scale
                assert phi >= oracle - 1e-6 * scale

    @pytest.mark.parametrize("s", [1e-3, 1e-8])
    def test_sign_at_the_bracket_end(self, s):
        # A = b = s, W = 1, rho = 1e-306: the inner minimizer at t = |b|^2
        # is huge, where |Ax - b|^2 and -t |x|^2 cancel unless grouped
        p = ProblemSpec(
            np.full((1, 1), s), np.full(1, s),
            WeightOperator.diagonal([1.0]), RegularizerSpec.identity_scaled(1e-306),
        )
        phi, x = eval_phi(p, p.b_norm_w_sq)
        assert phi < 0.0
        assert abs(x[0]) > 1e90

    def test_requires_identity_scaled(self, rng):
        p = ProblemSpec(
            np.eye(2), np.ones(2),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.dense(np.eye(2)),
        )
        with pytest.raises(ValueError, match="scaled-identity"):
            eval_phi(p, 1.0)

    def test_convexity_in_certified_regime(self, rng):
        # for t <= rho the inner objective restricted to a radial line has
        # nonnegative second differences
        p = random_problem(rng, 3, rho_factor=2.0)
        rho = p.T.rho
        t = 0.5 * rho
        _, x_star = eval_phi(p, t)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)

        def inner(s):
            z = x_star + s * direction
            r2 = float(z @ z)
            misfit = float(
                np.sum(p.W.apply(p.A @ z - p.b) * (p.A @ z - p.b))
            )
            return misfit + rho * r2 * r2 + (rho - t) * r2 - t

        ss = np.linspace(-1.0, 1.0, 21)
        vals = np.array([inner(s) for s in ss])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second >= -1e-10)


def _recorded_ts(monkeypatch):
    """A list to which every later call of solver.eval_phi appends its t."""
    ts = []
    eval_phi = solver.eval_phi
    monkeypatch.setattr(solver, "eval_phi", lambda p, t: ts.append(t) or eval_phi(p, t))
    return ts


class TestSolveTstar:
    def test_zero_data(self):
        p = ProblemSpec(
            np.eye(2), np.zeros(2),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(1.0),
        )
        trace = solve_tstar(p)
        assert trace.t_star == 0.0
        assert_allclose(trace.x_star, np.zeros(2))
        assert trace.iterations == 0

    def test_closed_form(self):
        p = closed_form_problem()
        trace = solve_tstar(p)
        assert trace.t_star == pytest.approx(9.0, abs=1e-6)
        assert float(trace.x_star @ trace.x_star) == pytest.approx(4.0, abs=1e-6)

    def test_t_sequence_monotone_and_bounded(self, rng, monkeypatch):
        ts = _recorded_ts(monkeypatch)
        for p in certified_instances(10, seed=11):
            ts.clear()
            trace = solve_tstar(p)
            assert len(ts) == trace.iterations
            assert all(b <= a + 1e-12 for a, b in zip(ts, ts[1:]))
            assert ts[0] == pytest.approx(p.b_norm_w_sq, rel=1e-12)
            assert -1e-12 <= trace.t_star <= p.b_norm_w_sq + 1e-9

    def test_root_identity(self, rng):
        p = random_problem(rng, 5)
        tol_phi = 1e-9 * p.b_norm_w_sq  # solve_tstar's own stopping rule
        trace = solve_tstar(p)
        phi, _ = eval_phi(p, trace.t_star)
        assert abs(phi) <= 10 * tol_phi
        assert eval_g(p, trace.x_star).g == pytest.approx(trace.t_star, abs=10 * tol_phi)

    def test_agrees_with_grid_oracle(self, rng):
        for p in certified_instances(8, seed=5):
            trace = solve_tstar(p)
            oracle = grid_tstar_oracle(p, points=200_001)
            assert abs(trace.t_star - oracle) <= 1e-6 * (1.0 + oracle)

    def test_independent_runs_agree(self, rng):
        for p in certified_instances(6, seed=77):
            trace = solve_tstar(p)
            dual = dual_tstar(p)
            assert np.linalg.norm(trace.x_star - dual.x_star) <= 1e-6
            assert abs(trace.t_star - dual.t_star) <= 1e-9 * (1 + trace.t_star)

    def test_bisection_fallback_fires_when_g_rounds_to_t(self, monkeypatch):
        # A = b = W = 1, rho = 1e-300: at t = 1 the inner minimizer sits at
        # |x| ~ 1e100, where G(x) = 1 - 2/|x| + ... rounds to 1, so the
        # classical update lands on the bracket's end and bisection on
        # [0, 1] takes the next step
        p = ProblemSpec(
            np.ones((1, 1)), np.ones(1),
            WeightOperator.diagonal([1.0]),
            RegularizerSpec.identity_scaled(1e-300),
        )
        ts = _recorded_ts(monkeypatch)
        trace = solve_tstar(p)
        assert ts[:2] == [1.0, 0.5]
        assert trace.t_star == pytest.approx(1e-300, rel=1e-12)

    def test_argmin_equivalence_at_tstar(self, rng):
        # the inner argmin at t* matches the direct minimizer of G
        p = random_problem(rng, 4, rho_factor=1.8)
        trace = solve_tstar(p)
        _, x_inner = eval_phi(p, trace.t_star)
        assert eval_g(p, x_inner).g == pytest.approx(trace.t_star, abs=1e-6)


def _hard_case_family(order, rho):
    """b = e1, A = diag(1/k) with its smallest entry repeated, W = diag(1/k^2).

    c = A^T W b misses the two-dimensional minimal eigenspace of A^T W A.
    """
    k = np.arange(1.0, order + 1.0)
    a = 1.0 / k
    a[-1] = a[-2]
    b = np.zeros(order)
    b[0] = 1.0
    return ProblemSpec(
        np.diag(a), b, WeightOperator.diagonal(k**-2.0),
        RegularizerSpec.identity_scaled(rho),
    )


class TestHardCase:
    @pytest.mark.parametrize("order", [4, 8, 16, 32])
    @pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 5.0])
    def test_matches_dual(self, order, rho):
        p = _hard_case_family(order, rho)
        trace = solve_tstar(p)
        assert abs(trace.t_star - dual_tstar(p).t_star) <= 1e-12 * trace.t_star

    @pytest.mark.parametrize("rho", [1e-3, 0.1])
    def test_phi_completes_in_minimal_eigenspace(self, rho):
        # at t = |b|_W^2, s = (t - rho - lam_min) / (2 rho) exceeds the
        # secular limit, so the minimizer has a part that c cannot produce
        p = _hard_case_family(8, rho)
        t = p.b_norm_w_sq
        phi, x = eval_phi(p, t)
        s = (t - rho - p.gram_eig[0][0]) / (2.0 * rho)
        assert float(x @ x) == pytest.approx(s, rel=1e-12)
        assert np.linalg.norm(x[-2:]) >= 0.3
        assert phi <= grid_phi_oracle(p, t) + 1e-12 * (1.0 + t)

    @pytest.mark.parametrize("order", [4, 8, 16, 32])
    @pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 5.0])
    def test_polish_never_raises_or_climbs(self, order, rho):
        # the spectral step divides by lam + beta, which the minimal
        # eigenspace can bring to zero; the guard must reject such steps
        p = _hard_case_family(order, rho)
        rng = np.random.default_rng(order)
        x_dual = dual_tstar(p).x_star
        starts = [x_dual, solve_tstar(p).x_star]
        starts += [x_dual + eps * rng.normal(size=order) for eps in (1e-8, 1e-4, 1e-2)]
        for x0 in starts:
            g0 = eval_g(p, x0).g
            assert eval_g(p, newton_polish(p, x0)[0]).g <= g0


class TestClassification:
    def test_certified_regime(self, rng):
        p = random_problem(rng, 3, rho_factor=1.5)
        assert classify_existence(p, dual_tstar(p)) == "solved"

    def test_trivial(self):
        p = ProblemSpec(
            np.zeros((2, 2)), np.array([0.0, 3.0]),
            WeightOperator.diagonal(np.array([1.0, 0.0])),
            RegularizerSpec.identity_scaled(1.0),
        )
        assert classify_existence(p, dual_tstar(p)) == "trivial"

    def test_low_rho_not_certified(self):
        p = closed_form_problem(rho=1.0)
        sol = dual_tstar(p)
        assert sol.t_star == pytest.approx(9.0, rel=1e-14)
        assert classify_existence(p, sol) == "heuristic"

    def test_rho_above_bound_always_certified(self, rng):
        # rho >= |b|_W^2 >= t* certifies without reading t*
        for _ in range(5):
            p = random_problem(rng, 3, rho_factor=float(rng.uniform(1.0, 4.0)))
            assert p.T.rho >= p.b_norm_w_sq - 1e-12
            assert classify_existence(p, dual_tstar(p)) == "solved"

    @pytest.mark.parametrize("t_star", [1e-300, 2e-12, 1.0, 1e12])
    def test_rule_is_relative_to_t_star(self, t_star):
        # solved iff rho >= t* (1 - 1e-8), whatever the scale of t*
        x = np.zeros(2)
        for margin, status in ((0.5e-8, "solved"), (2e-8, "heuristic")):
            p = closed_form_problem(rho=t_star * (1.0 - margin))
            assert classify_existence(p, DualSolution(t_star, x, t_star, 0.0, 1)) == status

    def test_subnormal_rho_is_not_trivial(self):
        # G(x*) = rho |x*|^2 rounds to 0 although b is not in N(W)
        p = ProblemSpec(
            np.ones((1, 1)), np.array([0.5]),
            WeightOperator.diagonal([1.0]), RegularizerSpec.identity_scaled(5e-324),
        )
        sol = dual_tstar(p)
        assert sol.t_star == 0.0
        assert classify_existence(p, sol) == "solved"


class TestQuartic:
    # phi(rho) + rho = min |Ax - b|_W^2 + rho |x|^4; phi(rho) <= 0 certifies uniqueness

    def test_zero_data(self):
        p = ProblemSpec(
            np.eye(2), np.zeros(2),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(1.0),
        )
        phi, x = eval_phi(p, p.T.rho)
        assert phi + p.T.rho == 0.0
        assert_allclose(x, np.zeros(2))

    def test_closed_form_all_mass_at_zero(self):
        # A = 0: 25 + r^4 has its minimum 25 at r = 0
        p = closed_form_problem()
        phi, x = eval_phi(p, p.T.rho)
        assert phi + p.T.rho == pytest.approx(25.0, rel=1e-9)
        assert np.linalg.norm(x) <= 1e-6
        assert phi > 0.0

    def test_certificate_fires(self):
        p = ProblemSpec(
            np.eye(2), np.array([1.0, 0.0]),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(100.0),
        )
        phi, _ = eval_phi(p, p.T.rho)
        a_star = phi + p.T.rho
        # evaluating at x = 0 bounds the minimum by |b|^2 = 1 <= rho
        assert a_star <= 1.0 + 1e-12
        assert phi <= 0.0
        # dense grid oracle for the exact value
        rs = np.linspace(0.0, 1.0, 200001)
        vals = (1.0 - rs) ** 2 + 100.0 * rs**4
        assert a_star == pytest.approx(float(np.min(vals)), abs=1e-7)


class TestGeneralT:
    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            p = random_problem(rng, n, m=m)
            if rng.uniform() < 0.5:
                p = ProblemSpec(
                    p.A, p.b, p.W, RegularizerSpec.dense(rng.normal(size=(n, n)))
                )
            x = rng.normal(size=n)
            grad = grad_g(p, x)
            fd = np.zeros(n)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (eval_g(p, x + e).g - eval_g(p, x - e).g) / (2 * h)
            scale = max(np.linalg.norm(grad), 1e-8)
            assert np.linalg.norm(grad - fd) / scale <= 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        p = random_problem(rng, 3)
        x = rng.normal(size=3)
        hess = hess_g(p, x)
        h = 1e-5
        fd = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[:, i] = (grad_g(p, x + e) - grad_g(p, x - e)) / (2 * h)
        assert np.linalg.norm(hess - fd) <= 1e-5 * (1 + np.linalg.norm(hess))

    def test_zero_data_returns_origin(self):
        p = ProblemSpec(
            np.eye(2), np.zeros(2),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.dense(np.eye(2)),
        )
        report, _ = solve_problem(p)
        assert report.objective <= 1e-20
        assert np.linalg.norm(report.x) <= 1e-10

    def test_agrees_with_certified_solver(self, rng):
        # cast sqrt(rho) I as a dense matrix and compare objectives
        for seed in range(5):
            inner = np.random.default_rng(seed + 100)
            p = random_problem(inner, 4, rho_factor=1.7)
            trace = solve_tstar(p)
            dual = dual_tstar(p)
            dense = ProblemSpec(
                p.A, p.b, p.W,
                RegularizerSpec.dense(math.sqrt(p.T.rho) * np.eye(4)),
            )
            report, _ = solve_problem(dense)
            assert report.objective == pytest.approx(dual.t_star, rel=1e-12)
            assert report.objective == pytest.approx(trace.t_star, rel=1e-12)
            assert report.residual_normal_eq <= 1e-7
            assert report.status == "heuristic"


def _multistart_reference(p, starts=8, seed=0):
    """min G by scipy L-BFGS from seeded starts, each Newton-polished."""
    from scipy.optimize import minimize

    n = p.shape[1]
    rng = np.random.default_rng(seed)
    scale = 1.0 + math.sqrt(p.b_norm_w_sq)
    best = math.inf
    for i in range(starts):
        x0 = np.zeros(n) if i == 0 else rng.normal(size=n) * scale * 2.0 ** (i % 4 - 2)
        res = minimize(
            lambda z: eval_g(p, z).g, x0, jac=lambda z: grad_g(p, z),
            method="L-BFGS-B", options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-14},
        )
        best = min(best, eval_g(p, newton_polish(p, res.x)[0]).g)
    return best


def _dense_t_family(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "hard_case":
        # b = e1 diagonal family: c = A^T W b misses the minimal eigenspace
        order = 4 * 2 ** (seed % 4)
        k = np.arange(1.0, order + 1.0)
        b = np.zeros(order)
        b[0] = 1.0
        return ProblemSpec(
            np.diag(1.0 / k), b, WeightOperator.diagonal(k**-2.0),
            RegularizerSpec.dense(np.diag(k**-2.0)),
        )
    n = int(rng.integers(3, 21))
    # m > n: generic data admit no exact fit Ax = b, Tx = 0, so G* > 0 and
    # the relative comparison with the reference is meaningful
    m = int(rng.integers(n + 1, n + 5))
    a_mat, b = rng.normal(size=(m, n)), rng.normal(size=m)
    weight = random_weight(rng, m)
    if kind == "orthogonal_b":
        # W b in N(A^T): A^T W b is zero up to rounding
        q, _ = np.linalg.qr(a_mat, mode="complete")
        b = np.linalg.solve(weight.data, q[:, n:] @ rng.normal(size=m - n))
    t_mat = rng.normal(size=(n, n)) * rng.uniform(0.1, 2.0)
    if kind == "rank_deficient":
        t_mat[int(rng.integers(1, n)):] = 0.0
    if kind == "singular_w":
        w_diag = rng.uniform(0.2, 2.0, size=m)
        w_diag[: max(1, m // 3)] = 0.0
        weight = WeightOperator.diagonal(w_diag)
    if kind == "strong_t":
        # the minimizer sits inside the first grid cell
        t_mat *= 10.0 ** rng.uniform(1.0, 4.0)
    return ProblemSpec(a_mat, b, weight, RegularizerSpec.dense(t_mat))


def _report_and_search(p):
    """The pair report of a dense-T problem and its alpha search record, as ``rtls solve``."""
    report, meta = solve_problem(p)
    return report, meta.get("alpha_search")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_reference(p):
    """min G over a 128-point grid, refined by values alone.

    A scan like that of :func:`solve_rtls_general_t`, on 128 points taken
    one by one with :func:`sphere_min`; each grid-local minimum is refined
    by golden section on the values to 1e-12 of the scan interval.  Returns
    (the least G seen, the least G on the grid, the number of values taken
    off it).
    """
    sigma, _, null = p.T.svd  # the null rule of the search
    full = not null.any()
    u_max = math.log1p(p.b_norm_w_sq / (sigma[-1] * sigma[-1]) if full else 1.0)
    u_cap = u_max if full else max(u_max, math.log1p(1e8))
    while True:
        us = np.linspace(0.0, u_max, 128)
        vals = np.array([sphere_min(p, u)[1] for u in us])
        if us[np.argmin(vals)] <= 0.99 * u_max or u_max >= u_cap:
            break
        u_max = min(2.0 * u_max, u_cap)
    seen = [float(vals.min())]

    def g(u):
        seen.append(sphere_min(p, u)[1])
        return seen[-1]

    padded = np.concatenate(([np.inf], vals, [np.inf]))
    for i in np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:])):
        a, b = us[max(i - 1, 0)], us[min(i + 1, 127)]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = g(c), g(d)
        while b - a > 1e-12 * u_max:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = g(d)
    return min(seen), seen[0], len(seen) - 1


class TestHermiteArgmin:
    @pytest.mark.parametrize("seed", range(20))
    def test_exact_on_a_cubic(self, seed):
        # g' = k (u - m)(u - s) with m in the cell and s outside it, where
        # g'' > 0 at m; k = 0 leaves the quadratic k2 (u - m)^2 / 2
        rng = np.random.default_rng(seed)
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        m = rng.uniform(lo, hi)
        s = rng.choice([lo - rng.uniform(0.1, 5.0), hi + rng.uniform(0.1, 5.0)])
        k = (0.0 if seed % 4 == 0 else 10.0 ** rng.uniform(-2.0, 2.0)) * np.sign(m - s)
        k2 = 10.0 ** rng.uniform(-2.0, 2.0)

        def g(u):
            return k * (u**3 / 3.0 - (m + s) * u**2 / 2.0 + m * s * u) + k2 * (u - m) ** 2 / 2.0

        def slope(u):
            return k * (u - m) * (u - s) + k2 * (u - m)

        u = hermite_argmin(lo, hi, g(lo), g(hi), slope(lo), slope(hi))
        assert abs(u - m) <= 1e-9 * (hi - lo)

    def test_strictly_inside_its_cell(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + 10.0 ** rng.uniform(-3.0, 3.0)
            g_lo, g_hi = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
            slope_lo, slope_hi = -(10.0 ** rng.uniform(-6.0, 6.0)), 10.0 ** rng.uniform(-6.0, 6.0)
            assert lo < hermite_argmin(lo, hi, g_lo, g_hi, slope_lo, slope_hi) < hi

    def test_secant_root_where_the_cubic_is_not_finite(self):
        assert hermite_argmin(0.0, 1.0, math.nan, 0.0, -1.0, 3.0) == 0.25
        assert hermite_argmin(0.0, 2.0, math.inf, 1.0, -1.0, 3.0) == 0.5


class TestGeneralTGlobal:
    @pytest.mark.parametrize(
        "kind", ["dense", "rank_deficient", "singular_w", "hard_case", "orthogonal_b", "strong_t"]
    )
    def test_never_worse_than_multistart(self, kind):
        for seed in range(4):
            p = _dense_t_family(kind, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report, _ = solve_problem(p)
            reference = _multistart_reference(p)
            assert report.objective <= reference * (1.0 + 1e-12)
            assert report.objective == pytest.approx(eval_g(p, report.x).g, rel=1e-12)
            assert report.status == "heuristic"

    def test_unattained_infimum_stops_at_cap(self):
        # T^T T misses e8, where G -> a_8^2 w_8 = 1/4096 only as |x| -> inf
        k = np.arange(1.0, 9.0)
        b = np.zeros(8)
        b[0] = 1.0
        t_diag = k**-2.0
        t_diag[-1] = 0.0
        p = ProblemSpec(
            np.diag(1.0 / k), b, WeightOperator.diagonal(k**-2.0),
            RegularizerSpec.dense(np.diag(t_diag)),
        )
        report, search = _report_and_search(p)
        assert 1.0 / 4096.0 < report.objective <= (1.0 + 1e-4) / 4096.0
        assert float(report.x @ report.x) <= 2e8
        assert report.status == "heuristic"
        # the slope stays negative up to the cap
        assert search.hit_cap

    def test_diagonal_family_makes_few_trs_solves(self, monkeypatch):
        # the dense-T benchmark's diag-N32 instance
        k = np.arange(1.0, 33.0)
        b = np.zeros(32)
        b[0] = 1.0
        p = ProblemSpec(
            np.diag(1.0 / k), b, WeightOperator.diagonal(k**-2.0),
            RegularizerSpec.dense(np.diag(k**-2.0)),
        )
        calls = []
        trs_equality = solver.trs_equality
        monkeypatch.setattr(
            solver, "trs_equality", lambda *a, **kw: calls.append(a) or trs_equality(*a, **kw)
        )
        report, search = _report_and_search(p)
        assert len(calls) == search.trs_solves <= 2
        assert not search.hit_cap
        assert report.residual_normal_eq <= 1e-12

    @pytest.mark.parametrize("kind", ["dense", "rank_deficient", "hard_case"])
    def test_slope_matches_central_differences(self, kind):
        for seed in range(4):
            p = _dense_t_family(kind, seed)
            n = p.shape[1]
            lam_t = np.linalg.eigvalsh(p.T.gram(n))
            assert (lam_t[0] <= 1e-12 * lam_t[-1]) == (kind == "rank_deficient")
            u_max = math.log1p(p.b_norm_w_sq / max(lam_t[0], 1e-3 * lam_t[-1]))
            hard = 0
            for u in np.linspace(0.05, 1.5, 7) * u_max:
                x, g, slope = sphere_min(p, u)
                # the terms of the slope set the scale of its rounding
                mu = p.T.value(x) - g - slope
                scale = p.T.value(x) + abs(mu) + g
                h = 1e-5 * u
                fd = (sphere_min(p, u + h)[1] - sphere_min(p, u - h)[1]) / (2.0 * h)
                assert abs(fd - slope) <= 1e-7 * scale
                alpha = math.expm1(u)
                s_mat = p.gram_matrix + (1.0 + alpha) * p.T.gram(n)
                hard += trs_equality(s_mat, p.gram_rhs, math.sqrt(alpha)).hard_case
            assert (hard > 0) == (kind == "hard_case")
        assert math.isnan(sphere_min(p, 0.0)[2])

    @pytest.mark.parametrize("kind", ["dense", "rank_deficient", "singular_w", "hard_case",
                                      "strong_t"])
    def test_scan_matches_sphere_min(self, kind):
        # the grid takes mu from the batched secular root and x from the eigen
        # coordinates; sphere_min takes both from trs_equality.  |Tx|^2 is
        # formed from terms of size |T|^2 |x|^2, which set its rounding
        us = np.sort(np.concatenate((np.linspace(0.0, 3.0, 32), np.log1p(np.logspace(-8, 8, 32)))))
        for seed in range(4):
            p = _dense_t_family(kind, seed)
            t_sq = np.linalg.norm(p.T.matrix, 2) ** 2
            g, slope, xs = sphere_scan(p, us)
            assert xs.shape == (p.shape[1], us.size)
            assert math.isnan(slope[0]) and math.isnan(sphere_min(p, 0.0)[2])
            for k in range(1, us.size):
                x, g_one, slope_one = sphere_min(p, us[k])
                mu = p.T.value(x) - g_one - slope_one
                scale = t_sq * math.expm1(us[k]) + abs(mu) + g_one
                assert abs(slope[k] - slope_one) <= 1e-12 * scale
                assert g[k] == pytest.approx(g_one, rel=1e-12)

    def test_trs_solves_counts_every_solve_off_the_grid(self, monkeypatch):
        calls = []
        trs_equality = solver.trs_equality
        monkeypatch.setattr(
            solver, "trs_equality", lambda *a, **kw: calls.append(a) or trs_equality(*a, **kw)
        )
        for kind in ("dense", "rank_deficient", "singular_w", "hard_case", "orthogonal_b",
                     "strong_t"):
            for seed in range(4):
                calls.clear()
                _, search = _report_and_search(_dense_t_family(kind, seed))
                assert len(calls) == search.trs_solves

    def test_one_solve_per_bracket_cell(self, monkeypatch):
        # the slopes of the last coarse scan, whose first point is u = 1e-12
        # u_max, give the bracket cells, and where the search refines, so do
        # those of the coarse scan and its refinement merged into one sorted
        # grid: each cell gets one Hermite solve strictly inside it
        scans, solves = [], []
        scan, one = solver.sphere_scan, solver.sphere_min
        monkeypatch.setattr(solver, "sphere_scan", lambda p, us: scans.append(
            (us, *scan(p, us))) or scans[-1][1:])
        monkeypatch.setattr(solver, "sphere_min", lambda p, u: solves.append(
            (u, *one(p, u))) or solves[-1][1:])
        strong_first = 0
        for kind in ("dense", "rank_deficient", "singular_w", "hard_case", "orthogonal_b",
                     "strong_t"):
            for seed in range(4):
                scans.clear()
                solves.clear()
                _, search = _report_and_search(_dense_t_family(kind, seed))
                coarse_us, _, coarse_slopes, _ = scans[-1 - search.refined]
                assert coarse_us[0] == 1e-12 * coarse_us[-1]
                grids = [(coarse_us, coarse_slopes)]
                if search.refined:
                    fine_us, _, fine_slopes, _ = scans[-1]
                    order = np.argsort(np.concatenate((coarse_us, fine_us)))
                    grids.append((np.concatenate((coarse_us, fine_us))[order],
                                  np.concatenate((coarse_slopes, fine_slopes))[order]))
                bounds = []
                for us, slopes in grids:
                    assert not np.isnan(slopes).any()
                    cells = np.flatnonzero((slopes[:-1] < 0.0) & (slopes[1:] > 0.0)).tolist()
                    bounds += [(us[i], us[i + 1]) for i in cells]
                assert search.trs_solves == len(solves) == len(bounds)
                for (u, *_), (lo, hi) in zip(solves, bounds):
                    assert lo < u < hi
                # cells: those of the grid the search used last
                strong_first += kind == "strong_t" and 0 in cells
        assert strong_first > 0

    @pytest.mark.parametrize("e, b2, objective", [
        (6, 1.0, 0.8287861732806872), (6, 2.0, 1.62378379441569),
        (7, 1.0, 0.8287861732809052), (7, 2.0, 1.6237837944157567),
        (8, 1.0, 0.8287861732809073), (8, 2.0, 1.6237837944157576),
        (9, 1.0, 0.8287861732809074), (9, 2.0, 1.6237837944157576),
        (10, 1.0, 0.8287861732809074), (10, 2.0, 1.6237837944157576),
        (11, 1.0, 0.8287861732809074), (11, 2.0, 1.6237837944157576),
        (12, 1.0, 0.8287861732809074), (12, 2.0, 1.6237837944157576),
    ])
    def test_anisotropic_rows_pin_the_null_rule(self, e, b2, objective):
        # T = diag(10^e, 1): below e = 10 no singular value is within 1e-10
        # |T|_2, so T has no null direction and the scan is bounded by
        # |b|_W^2 / sigma_min^2 without doubling; from e = 10 e2 is null in
        # T, for the triviality test and the scan alike.  The objectives are
        # the bits of the search whose scan took its null rule from the
        # eigenvalues of T^T T (lam <= n eps lam_max), except that from e = 8
        # with b = (1, 2) the polish from the coarse scan settles one ulp
        # higher, on the scipy reference of test_cli's test_anisotropic_dense_t
        p = ProblemSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, b2]),
                        WeightOperator.diagonal(np.ones(2)),
                        RegularizerSpec.dense(np.diag([10.0**e, 1.0])))
        assert p.T.svd[2].tolist() == [False, e >= 10]
        report, search = _report_and_search(p)
        assert report.objective == objective
        assert report.status == "heuristic" and search.hit_cap is False
        if e < 10:
            assert search.doublings == 0

    def test_first_grid_point_below_a_subnormal_scan_end(self, monkeypatch, tmp_path):
        # |b|_W^2 = 5e-320, so u_max is subnormal and 1e-12 u_max rounds to
        # 0: the first point stays at or below the second, and the report is
        # finite, under warnings as errors
        scans, scan = [], solver.sphere_scan
        monkeypatch.setattr(solver, "sphere_scan", lambda p, us: scans.append(us) or scan(p, us))
        p = ProblemSpec(np.eye(2), np.array([1e-160, 2e-160]), WeightOperator.diagonal(np.ones(2)),
                        RegularizerSpec.dense(np.eye(2)))
        rio.save_problem(tmp_path / "p.json", p)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--problem", str(tmp_path / "p.json"), "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert all(math.isfinite(v) for v in (*report["x"], report["objective"]))
        u_max = scans[0][-1]
        assert 0.0 < u_max < np.finfo(float).tiny
        for us in scans:
            assert (np.diff(us) >= 0.0).all()

    def test_slope_root_matches_golden_reference(self, monkeypatch):
        # golden section on the values of a 128-point grid against the
        # search's Hermite point and its polished report
        scans, scan = [], solver.sphere_scan
        monkeypatch.setattr(solver, "sphere_scan", lambda p, us: scans.append(
            scan(p, us)) or scans[-1])
        for seed in range(44):
            p = _dense_t_family(("dense", "rank_deficient", "singular_w", "hard_case")[seed % 4],
                                seed)
            scans.clear()
            report, search = _report_and_search(p)
            g_hermite = sphere_min(p, math.log1p(search.alpha))[1]
            # the least G of the grid the search solved on: the last coarse
            # scan, and its refinement where the search refined
            g_grid = min(float(s[0].min()) for s in scans[-1 - search.refined:])
            g_golden, _, evaluations = _golden_reference(p)
            # the Hermite point moved off the grid, in fewer solves than golden
            assert g_hermite < g_grid
            assert search.trs_solves < evaluations
            assert report.objective <= g_golden * (1.0 + 1e-12)

    @pytest.mark.parametrize("kind", ["dense", "rank_deficient", "singular_w", "hard_case"])
    def test_sphere_min_is_finite_at_large_alpha(self, kind):
        # the secular root can sit within an ulp of the pole -lam_min, or
        # rounding can put a bracket end on the wrong side of it
        for seed in range(40):
            p = _dense_t_family(kind, seed)
            for alpha in np.logspace(6.0, 10.0, 17):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x, g, slope = sphere_min(p, math.log1p(alpha))
                assert np.all(np.isfinite(x)) and math.isfinite(g) and math.isfinite(slope)
                assert float(x @ x) == pytest.approx(alpha, rel=1e-12)

    @pytest.mark.parametrize("order", [32, 64])
    def test_nonexistence_model_is_stationary(self, order):
        p = default_rtls_nonexistence_model().build(order)
        report, _ = solve_problem(p)
        assert report.residual_normal_eq <= 1e-12


def _symmetric_problem(seed, order):
    rng = np.random.default_rng(seed)
    m = order + 2
    a_mat, b = rng.normal(size=(m, order)), rng.normal(size=m)
    return ProblemSpec(
        a_mat, b, random_weight(rng, m), RegularizerSpec.dense(rng.normal(size=(order, order)))
    )


def _solve_on_cpus(cpus, paths):
    """Exit codes of ``rtls solve`` on each (problem, out) pair, in a fresh interpreter on ``cpus``.

    Its BLAS starts one thread per CPU it may use, as under ``taskset``.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys; from rtls.cli import main; "
        "print([main(['solve', '--problem', p, '--out', o]) "
        "for p, o in zip(sys.argv[1::2], sys.argv[2::2])])"
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *(str(f) for pair in paths for f in pair)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestSplitEigh:
    """The dense-T scan's batched eigh: a sphere's answer does not hang on its batch or CPUs."""

    @pytest.mark.parametrize("order", [1, 6, 32])
    @pytest.mark.parametrize("length", [1, 2, 7, 64, 129])
    def test_halves_equal_one_call(self, monkeypatch, order, length):
        # each matrix is decomposed alone, so the minimizers carry the bits
        # of one call; G and its slope are summed by BLAS, whose blocking
        # follows the batch, so they agree to rounding
        p = _symmetric_problem(order * 1000 + length, order)
        us = np.linspace(0.0, 3.0, length)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        g, slope, xs = sphere_scan(p, us)
        halves = [sphere_scan(p, half) for half in np.array_split(us, 2)]
        assert calls == [length, length - length // 2, length // 2]
        xs_split = np.concatenate([h[2] for h in halves], axis=1)
        assert xs_split.shape == xs.shape == (order, length)
        assert xs_split.tobytes() == xs.tobytes()
        assert_allclose(np.concatenate([h[0] for h in halves]), g, rtol=1e-12)
        assert_allclose(
            np.concatenate([h[1] for h in halves]), slope, rtol=1e-12,
            atol=1e-12 * np.abs(g).max(), equal_nan=True,
        )

    @pytest.mark.parametrize(
        "kind", ["dense", "rank_deficient", "singular_w", "hard_case", "orthogonal_b", "strong_t"]
    )
    def test_reports_equal_with_one_and_two_cpus(self, tmp_path, kind):
        problems = [tmp_path / f"p{seed}.json" for seed in range(3)]
        for seed, path in enumerate(problems):
            rio.save_problem(path, _dense_t_family(kind, seed))
        usable = sorted(os.sched_getaffinity(0))
        reports = []
        for count in (1, 2):
            outs = [tmp_path / f"r{seed}-{count}.json" for seed in range(3)]
            assert _solve_on_cpus(usable[:count], list(zip(problems, outs))) == [2, 2, 2]
            reports.append([out.read_bytes() for out in outs])
        assert reports[0] == reports[1]


class TestRefinedScan:
    """The dense-T search decomposes 16 spheres, and 16 more beside the least
    G only where the polish from the first scan does not converge."""

    @pytest.mark.parametrize(
        "kind", ["dense", "singular_w", "hard_case", "orthogonal_b", "strong_t"]
    )
    def test_two_batches_then_one_eigh_per_solve(self, monkeypatch, kind):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape[:-2]) or eigh(a))
        scans, scan = [], solver.sphere_scan
        monkeypatch.setattr(solver, "sphere_scan", lambda p, us: scans.append(
            (us, *scan(p, us))) or scans[-1][1:])
        refined = 0
        for seed in range(4):
            calls.clear()
            scans.clear()
            _, search = _report_and_search(_dense_t_family(kind, seed))
            assert search.doublings == 0
            # one batch, one unbatched eigh per Hermite solve of its bracket
            # cells, and where the polish did not converge the same again
            coarse, g, slopes, _ = scans[0]
            first = int(((slopes[:-1] < 0.0) & (slopes[1:] > 0.0)).sum())
            expected = [(16,)] + [()] * first
            if search.refined:
                expected += [(16,)] + [()] * (search.trs_solves - first)
            assert len(scans) == 1 + search.refined
            assert calls == expected and calls.count(()) == search.trs_solves
            if search.refined:
                fine = scans[1][0]
                i = int(np.argmin(g))
                lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, 15)]
                assert fine.size == 16 and ((lo < fine) & (fine < hi)).all()
                assert not np.isin(fine, coarse).any()
            refined += search.refined
        # the refinement runs on some seeds of these kinds and none of the others
        assert (refined > 0) == (kind in ("orthogonal_b", "strong_t"))

    @pytest.mark.parametrize("kind", ["dense", "singular_w", "hard_case"])
    def test_converged_search_decomposes_one_batch(self, monkeypatch, kind):
        # a polish that settles at the rounding level of x ends the search
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape[:-2]) or eigh(a))
        for seed in range(4):
            calls.clear()
            _, search = _report_and_search(_dense_t_family(kind, seed))
            assert search.refined is False
            assert calls == [(16,)] * (1 + search.doublings) + [()] * search.trs_solves

    def test_each_start_is_polished_once(self, monkeypatch):
        # orthogonal_b's minimizer is the origin, where no step of the
        # polish is within 4 eps |x|: the search refines, and where the
        # merged grid hands back the coarse start its polish is not rerun
        starts, polish = [], solver.newton_polish
        monkeypatch.setattr(solver, "newton_polish", lambda p, x: starts.append(x.copy())
                            or polish(p, x))
        once = 0
        for seed in range(8):
            starts.clear()
            _, search = _report_and_search(_dense_t_family("orthogonal_b", seed))
            assert 1 <= len(starts) <= 1 + search.refined
            assert not (len(starts) == 2 and np.array_equal(*starts))
            once += search.refined and len(starts) == 1
        assert once > 0

    def test_flat_valley_refines_to_the_same_bits(self):
        # rank_deficient seed 1 (|x|^2 ~ 1.6e7): the polish from the coarse
        # scan does not settle, and the refined search keeps the objective
        # of the search that always refined
        report, search = _report_and_search(_dense_t_family("rank_deficient", 1))
        assert search.refined is True
        assert report.objective == 3.375554370812603


class TestDegenerateInstances:
    def test_singular_weight_and_rank_deficient_operator(self, rng):
        # singular W, wide/tall A: A^T W b is always orthogonal to the
        # nullspace of A^T W A, so the spherical reduction stays consistent
        from rtls.instances import random_weight

        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a_mat = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            if trial % 3 == 0:
                w_diag = rng.uniform(0.2, 2.0, size=m)
                w_diag[0] = 0.0
                weight = WeightOperator.diagonal(w_diag)
            else:
                weight = random_weight(rng, m)
            wb = weight.apply_sqrt(b)
            rho = 1.5 * max(float(wb @ wb), 1e-6)
            p = ProblemSpec(a_mat, b, weight, RegularizerSpec.identity_scaled(rho))
            trace = solve_tstar(p)
            rep = recover_pair(p, trace.x_star)
            worst = max(worst, rep.residual_normal_eq)
            assert trace.t_star <= p.b_norm_w_sq + 1e-9
        assert worst <= 1e-10


class TestSpectralStep:
    def test_matches_dense_solve(self, rng):
        # near the minimizer, where the polish runs, and at random points
        for k in range(60):
            n = int(rng.integers(2, 61))
            kind = ("diagonal", "dense")[k % 2]
            p = random_problem(rng, n, rho_factor=float(rng.uniform(0.01, 2.0)), weight_kind=kind)
            x_star = dual_tstar(p).x_star
            near = x_star + 1e-3 * (1.0 + np.linalg.norm(x_star)) * rng.normal(size=n)
            for x in (x_star, near, rng.normal(size=n)):
                dense = np.linalg.solve(hess_g(p, x), grad_g(p, x))
                step = newton_step(p, x)
                assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_singular_diagonal_step_is_rejected_by_the_guard(self, monkeypatch):
        # lam = (0, 1), x = e1: rho v^2 = u exactly, so D has a zero entry
        # and the step is not finite; the polish keeps x and stays silent,
        # with no gradient at a halving of that step
        p = ProblemSpec(
            np.diag([0.0, 1.0]), np.array([3.0, 4.0]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.identity_scaled(6.25),
        )
        x = np.array([1.0, 0.0])
        assert not np.all(np.isfinite(newton_step(p, x)))
        seen = _counted_gradients(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_polished, converged = newton_polish(p, x)
            assert np.array_equal(x_polished, x) and not converged
        assert len(seen) == 1


class TestNewtonPolish:
    def test_reaches_machine_stationarity(self, rng):
        p = random_problem(rng, 4, rho_factor=2.0)
        trace = solve_tstar(p)
        assert normal_residual(p, trace.x_star) <= 1e-12

    def test_does_not_leave_basin(self, rng):
        p = random_problem(rng, 3, rho_factor=1.5)
        trace = solve_tstar(p)
        x, _ = newton_polish(p, trace.x_star + 1e-3 * rng.normal(size=3))
        assert eval_g(p, x).g <= trace.t_star + 1e-8


def _reference_polish(p, x, iters=8):
    """newton_polish before its halving could stop early, with its gradient.

    Every rejected step is halved 12 times, whether or not the trial point
    still moves or is finite, and |Ax - b|_W^2 is taken through
    w_vec_seminorm.  A step no longer than 4 eps |x| is the last one
    tried.  Returns (the polished point, the gradients evaluated, how many
    of them were at a trial point equal to the current x in every entry,
    how many at a trial point with a non-finite entry, whether the polish
    stopped after accepting such a step, whether it converged: the point
    is kept and the gradient there is zero or such a step was tried).
    """
    def parts_at(z):
        v = 1.0 + float(z @ z)
        resid = p.A @ z - p.b
        u = w_vec_seminorm(p.W, resid) ** 2
        grad_u = 2.0 * (p.A.T @ p.W.apply(resid))
        grad = (grad_u * v - 2.0 * u * z) / v**2 + 2.0 * p.T.gram_dot(z)
        return grad, grad_u, u, v

    x0 = np.asarray(x, dtype=float)
    x = x0.copy()
    parts = parts_at(x)
    evals, at_x, nonfinite, last, accepted = 1, 0, 0, False, False
    g0 = parts[2] / parts[3] + p.T.value(x)
    gnorm = float(np.linalg.norm(parts[0]))
    for _ in range(iters):
        if gnorm == 0.0:
            break
        try:
            step = newton_step(p, x, parts)
        except (np.linalg.LinAlgError, ZeroDivisionError):
            break
        accepted = False
        last = np.linalg.norm(step) <= 4.0 * np.finfo(float).eps * np.linalg.norm(x)
        scale = 1.0
        for _ in range(12):
            x_new = x - scale * step
            parts_new = parts_at(x_new)
            evals, at_x = evals + 1, at_x + bool((x_new == x).all())
            nonfinite += not np.isfinite(x_new).all()
            gnorm_new = float(np.linalg.norm(parts_new[0]))
            if gnorm_new < gnorm:
                x, parts, gnorm, accepted = x_new, parts_new, gnorm_new, True
                break
            scale *= 0.5
        if last or not accepted:
            break
    keep = parts[2] / parts[3] + p.T.value(x) <= g0 + 1e-14 * abs(g0)
    converged = keep and (gnorm == 0.0 or last)
    return (x if keep else x0), evals, at_x, nonfinite, last and accepted, converged


def _polish_starts():
    """(problem, start) pairs for the polish: 229 seeded starts.

    Diagonal and dense W at n = 3, 8, 20, at a polished minimizer, near it
    and far from it; every dense-T family kind near its search's result;
    the hard case; and the singular spectral step.
    """
    rng = np.random.default_rng(16)
    starts = []
    for n in (3, 8, 20):
        for kind in ("diagonal", "dense"):
            for f in (0.05, 1.5):
                p = random_problem(rng, n, rho_factor=f, weight_kind=kind)
                x_star = dual_tstar(p).x_star
                scale = 1.0 + np.linalg.norm(x_star)
                starts += [(p, x_star), (p, scale * rng.normal(size=n))]
                starts += [(p, x_star + eps * scale * rng.normal(size=n))
                           for eps in (1e-12, 1e-8, 1e-4, 1e-2)]
    for kind in ("dense", "rank_deficient", "singular_w", "hard_case", "orthogonal_b", "strong_t"):
        for seed in range(4):
            p = _dense_t_family(kind, seed)
            x_found = solve_problem(p)[0].x
            n = p.shape[1]
            scale = 1.0 + np.linalg.norm(x_found)
            starts += [(p, x_found), (p, scale * rng.normal(size=n))]
            starts += [(p, x_found + eps * scale * rng.normal(size=n)) for eps in (1e-10, 1e-6, 1e-3)]
    for order in (4, 8, 16):
        for rho in (1e-3, 0.1, 5.0):
            p = _hard_case_family(order, rho)
            x_dual = dual_tstar(p).x_star
            starts += [(p, x_dual)]
            starts += [(p, x_dual + eps * rng.normal(size=order)) for eps in (1e-8, 1e-4, 1e-2)]
    singular = ProblemSpec(
        np.diag([0.0, 1.0]), np.array([3.0, 4.0]),
        WeightOperator.diagonal(np.ones(2)), RegularizerSpec.identity_scaled(6.25),
    )
    return starts + [(singular, np.array([1.0, 0.0]))]


def _counted_gradients(monkeypatch):
    """A list to which every later call of solver._gradient_parts appends its x."""
    seen = []
    parts = solver._gradient_parts
    monkeypatch.setattr(solver, "_gradient_parts", lambda p, x: seen.append(x) or parts(p, x))
    return seen


class TestPolishMatchesReference:
    def test_same_point_without_gradients_at_x(self, monkeypatch):
        # a trial point that rounds to x has the gradient of x, so it is
        # never accepted: the polish skips it and every shorter step.  A
        # non-finite step has a NaN gradient at each halving: it is skipped
        starts = _polish_starts()
        assert len(starts) >= 200
        want = [_reference_polish(p, x0) for p, x0 in starts]
        seen = _counted_gradients(monkeypatch)
        skipped = skipped_nonfinite = at_floor = settled = 0
        for (p, x0), (x_ref, evals, at_x, nonfinite, last, converged) in zip(starts, want):
            seen.clear()
            x, flag = newton_polish(p, x0)
            assert x.tobytes() == x_ref.tobytes() and flag == converged
            assert len(seen) == evals - at_x - nonfinite
            skipped += at_x
            skipped_nonfinite += nonfinite
            at_floor += last
            settled += flag
        assert skipped > len(starts)
        assert 0 < settled < len(starts)
        assert skipped_nonfinite >= 12
        assert at_floor >= 100

    def test_dual_point_takes_few_gradients(self, monkeypatch):
        # the dual's point is a step or two from the rounding level of x,
        # where the polish stops; a rejected last step is still halved until
        # it rounds to x, so a polish may take more than 4 on its own
        problems = [
            random_problem(np.random.default_rng(seed), n, rho_factor=f, weight_kind=kind)
            for n in (3, 8, 20) for kind in ("diagonal", "dense") for f in (0.05, 1.5)
            for seed in range(5)
        ]
        problems.append(random_problem(np.random.default_rng(0), 300, weight_kind="dense"))
        seen = _counted_gradients(monkeypatch)
        counts = []
        for p in problems:
            seen.clear()
            dual_tstar(p)
            counts.append(len(seen))
        assert sum(counts) <= 4 * len(counts)
        assert counts[-1] <= 4

    def test_dense_t_step_takes_one_gradient(self, monkeypatch):
        p = _dense_t_family("dense", 0)
        x = np.random.default_rng(0).normal(size=p.shape[1])
        seen = _counted_gradients(monkeypatch)
        step = newton_step(p, x)
        assert len(seen) == 1
        assert np.array_equal(step, np.linalg.solve(hess_g(p, x), grad_g(p, x)))


class TestSplitOnce:
    def test_one_split_per_problem(self, monkeypatch):
        # the hard case completes x by a TRS solve, which splits on its own
        splits, completions = [], []
        min_space, trs_eq = trs.min_space, trs.trs_equality
        monkeypatch.setattr(trs, "min_space", lambda lam, d: splits.append(d) or min_space(lam, d))
        monkeypatch.setattr(
            trs, "trs_equality", lambda *a, **k: completions.append(a) or trs_eq(*a, **k))
        problems = certified_instances(6) + [_hard_case_family(8, rho) for rho in (1e-3, 0.1)]
        problems += [random_problem(np.random.default_rng(n), n, rho_factor=0.05) for n in (3, 8)]
        hard = 0
        for p in problems:
            splits.clear()
            completions.clear()
            trace = solve_tstar(p)
            assert trace.iterations >= 2
            assert len(splits) == 1 + len(completions)
            hard += len(completions)
        assert hard > 0

    def test_dual_forms_its_own_split(self, monkeypatch):
        p = random_problem(np.random.default_rng(3), 5, rho_factor=0.2)
        solve_tstar(p)
        splits = []
        min_space = certificate.min_space
        monkeypatch.setattr(certificate, "min_space",
                            lambda lam, d: splits.append(d) or min_space(lam, d))
        dual_tstar(p)
        assert len(splits) == 1
        assert splits[0] is not p.gram_split[2]
