import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import certified_instances, grid_tstar_oracle
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
    solve_rls_quartic,
    solve_rtls_general_t,
    solve_tstar,
)
from rtls.certificate import dual_tstar
from rtls.instances import closed_form_problem, random_problem, random_weight
from rtls.lab import default_rtls_nonexistence_model
from rtls.solver import (
    EXISTENCE_NOT_CERTIFIED,
    EXISTENCE_TRIVIAL,
    EXISTENCE_UNIQUE,
    VERDICT_CONVERGED,
    hess_g,
    newton_polish,
)


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
        assert trace.verdict == VERDICT_CONVERGED

    def test_closed_form(self):
        p = closed_form_problem()
        trace = solve_tstar(p)
        assert trace.verdict == VERDICT_CONVERGED
        assert trace.t_star == pytest.approx(9.0, abs=1e-6)
        assert float(trace.x_star @ trace.x_star) == pytest.approx(4.0, abs=1e-6)

    def test_t_sequence_monotone_and_bounded(self, rng):
        for p in certified_instances(10, seed=11):
            trace = solve_tstar(p)
            assert trace.verdict == VERDICT_CONVERGED
            ts = [it.t for it in trace.iterates]
            assert all(b <= a + 1e-12 for a, b in zip(ts, ts[1:]))
            assert ts[0] == pytest.approx(p.b_norm_w_sq, rel=1e-12)
            assert -1e-12 <= trace.t_star <= p.b_norm_w_sq + 1e-9

    def test_root_identity(self, rng):
        p = random_problem(rng, 5)
        tol_phi = 1e-9 * (1.0 + p.b_norm_w_sq)
        trace = solve_tstar(p, tol_phi=tol_phi)
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
            first = solve_tstar(p, grid=512)
            second = solve_tstar(p, grid=701)
            assert np.linalg.norm(first.x_star - second.x_star) <= 1e-6
            assert abs(first.t_star - second.t_star) <= 1e-9 * (1 + first.t_star)

    def test_argmin_equivalence_at_tstar(self, rng):
        # the inner argmin at t* matches the direct minimizer of G
        p = random_problem(rng, 4, rho_factor=1.8)
        trace = solve_tstar(p)
        _, x_inner = eval_phi(p, trace.t_star)
        assert eval_g(p, x_inner).g == pytest.approx(trace.t_star, abs=1e-6)


class TestClassification:
    def test_certified_regime(self, rng):
        p = random_problem(rng, 3, rho_factor=1.5)
        trace = solve_tstar(p)
        assert classify_existence(p, trace) == EXISTENCE_UNIQUE

    def test_trivial(self):
        p = ProblemSpec(
            np.zeros((2, 2)), np.array([0.0, 3.0]),
            WeightOperator.diagonal(np.array([1.0, 0.0])),
            RegularizerSpec.identity_scaled(1.0),
        )
        trace = solve_tstar(p)
        assert classify_existence(p, trace) == EXISTENCE_TRIVIAL

    def test_low_rho_not_certified(self):
        p = closed_form_problem(rho=1.0)
        trace = solve_tstar(p)
        assert trace.t_star == pytest.approx(9.0, abs=1e-6)
        assert classify_existence(p, trace) == EXISTENCE_NOT_CERTIFIED

    def test_rho_above_bound_always_certified(self, rng):
        # rho >= |b|_W^2 >= t* certifies without reading t*
        for _ in range(5):
            p = random_problem(rng, 3, rho_factor=float(rng.uniform(1.0, 4.0)))
            trace = solve_tstar(p)
            assert p.T.rho >= p.b_norm_w_sq - 1e-12
            assert classify_existence(p, trace) == EXISTENCE_UNIQUE


class TestQuartic:
    def test_zero_data(self):
        p = ProblemSpec(
            np.eye(2), np.zeros(2),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(1.0),
        )
        sol = solve_rls_quartic(p)
        assert sol.a_star == 0.0
        assert_allclose(sol.x, np.zeros(2))

    def test_closed_form_all_mass_at_zero(self):
        # A = 0: 25 + r^4 has its minimum 25 at r = 0
        p = closed_form_problem()
        sol = solve_rls_quartic(p)
        assert sol.a_star == pytest.approx(25.0, rel=1e-9)
        assert np.linalg.norm(sol.x) <= 1e-6
        assert not sol.certifies_unique

    def test_certificate_fires(self):
        p = ProblemSpec(
            np.eye(2), np.array([1.0, 0.0]),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(100.0),
        )
        sol = solve_rls_quartic(p)
        # evaluating at x = 0 bounds the minimum by |b|^2 = 1 <= rho
        assert sol.a_star <= 1.0 + 1e-12
        assert sol.certifies_unique
        # dense grid oracle for the exact value
        rs = np.linspace(0.0, 1.0, 200001)
        vals = (1.0 - rs) ** 2 + 100.0 * rs**4
        assert sol.a_star == pytest.approx(float(np.min(vals)), abs=1e-7)


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
        report = solve_rtls_general_t(p)
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
            report = solve_rtls_general_t(dense)
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
        best = min(best, eval_g(p, newton_polish(p, res.x)).g)
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
    t_mat = rng.normal(size=(n, n)) * rng.uniform(0.1, 2.0)
    if kind == "rank_deficient":
        t_mat[int(rng.integers(1, n)):] = 0.0
    if kind == "singular_w":
        w_diag = rng.uniform(0.2, 2.0, size=m)
        w_diag[: max(1, m // 3)] = 0.0
        weight = WeightOperator.diagonal(w_diag)
    return ProblemSpec(a_mat, b, weight, RegularizerSpec.dense(t_mat))


class TestGeneralTGlobal:
    @pytest.mark.parametrize("kind", ["dense", "rank_deficient", "singular_w", "hard_case"])
    def test_never_worse_than_multistart(self, kind):
        for seed in range(4):
            p = _dense_t_family(kind, seed)
            report = solve_rtls_general_t(p)
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
        report = solve_rtls_general_t(p)
        assert 1.0 / 4096.0 < report.objective <= (1.0 + 1e-4) / 4096.0
        assert float(report.x @ report.x) <= 2e8
        assert report.status == "heuristic"

    @pytest.mark.parametrize("order", [32, 64])
    def test_nonexistence_model_is_stationary(self, order):
        p = default_rtls_nonexistence_model().build(order)
        report = solve_rtls_general_t(p)
        assert report.residual_normal_eq <= 1e-12


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
            assert trace.verdict == VERDICT_CONVERGED
            rep = recover_pair(p, trace.x_star)
            worst = max(worst, rep.residual_normal_eq)
            assert trace.t_star <= p.b_norm_w_sq + 1e-9
        assert worst <= 1e-10


class TestNewtonPolish:
    def test_reaches_machine_stationarity(self, rng):
        p = random_problem(rng, 4, rho_factor=2.0)
        trace = solve_tstar(p)
        assert normal_residual(p, trace.x_star) <= 1e-12

    def test_does_not_leave_basin(self, rng):
        p = random_problem(rng, 3, rho_factor=1.5)
        trace = solve_tstar(p)
        x = newton_polish(p, trace.x_star + 1e-3 * rng.normal(size=3))
        assert eval_g(p, x).g <= trace.t_star + 1e-8
