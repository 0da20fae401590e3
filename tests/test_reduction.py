import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import elementwise_objective
from rtls import (
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
    correction_vector,
    eval_g,
    lift_operator,
    normal_residual,
    objective_rtls,
    recover_pair,
    verify_lift_identities,
    w_vec_seminorm,
)
from rtls.instances import closed_form_problem, random_problem
from rtls.lab import DiagonalModel
from rtls.reduction import _report_scale


def one_variable_oracle(b_norm_sq, rho, u_max=100.0, points=2_000_001):
    """Minimize f(u) = b_norm_sq/(1+u) + rho*u over u >= 0 on a dense grid."""
    u = np.linspace(0.0, u_max, points)
    vals = b_norm_sq / (1.0 + u) + rho * u
    i = int(np.argmin(vals))
    return float(u[i]), float(vals[i])


class TestEvalG:
    def test_at_zero_equals_weighted_b_norm(self, rng):
        p = random_problem(rng, 3)
        val = eval_g(p, np.zeros(3))
        assert val.g == pytest.approx(p.b_norm_w_sq, rel=1e-14)
        assert val.reg_term == 0.0

    def test_closed_form_instance(self):
        # A = 0: G depends on u = |x|^2 only; oracle minimum is 9 at u = 4
        p = closed_form_problem()
        u_star, g_star = one_variable_oracle(25.0, 1.0)
        assert g_star == pytest.approx(9.0, abs=1e-8)
        assert u_star == pytest.approx(4.0, abs=1e-4)
        x = np.array([2.0, 0.0])
        val = eval_g(p, x)
        assert val.g == pytest.approx(9.0, rel=1e-14)
        assert val.data_term == pytest.approx(5.0, rel=1e-14)
        assert val.reg_term == pytest.approx(4.0, rel=1e-14)

    def test_matches_diagonal_display(self, rng):
        # split x into head alpha and tail s on a diagonal instance and
        # compare against the explicit two-block formula
        n, head = 7, 3
        a = rng.uniform(0.5, 2.0, size=n)
        w = rng.uniform(0.1, 1.5, size=n)
        b_head = rng.normal(size=head)
        rho = 0.7
        p = DiagonalModel(a, w, b_head, rho=rho).build(n)
        x = rng.normal(size=n)
        alpha, tail = x[:head], x[head:]
        num = float(np.sum(w[:head] * (a[:head] * alpha - b_head) ** 2))
        num += float(np.sum(w[head:] * a[head:] ** 2 * tail**2))
        norm_sq = float(alpha @ alpha + tail @ tail)
        expected = num / (1.0 + norm_sq) + rho * norm_sq
        assert_allclose(eval_g(p, x).g, expected, rtol=1e-12)

    def test_terms_sum(self, rng):
        for _ in range(20):
            p = random_problem(rng, 4)
            x = rng.normal(size=4)
            val = eval_g(p, x)
            assert_allclose(val.g, val.data_term + val.reg_term, rtol=1e-12)

    def test_scaling_in_weight(self, rng):
        p = random_problem(rng, 3, weight_kind="diagonal")
        x = rng.normal(size=3)
        scaled = ProblemSpec(
            p.A, p.b, WeightOperator.diagonal(3.0 * p.W.data), p.T
        )
        assert_allclose(
            eval_g(scaled, x).data_term, 3.0 * eval_g(p, x).data_term, rtol=1e-12
        )
        assert_allclose(eval_g(scaled, x).reg_term, eval_g(p, x).reg_term, rtol=1e-12)


class TestLiftOperator:
    def test_x_zero_returns_base(self, rng):
        p = random_problem(rng, 3)
        assert_allclose(lift_operator(p, np.zeros(3)), p.A, rtol=0, atol=0)

    def test_consistent_x_returns_base(self, rng):
        a_mat = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        x = rng.normal(size=3)
        p = ProblemSpec(
            a_mat, a_mat @ x,
            WeightOperator.diagonal(np.ones(3)),
            RegularizerSpec.identity_scaled(1.0),
        )
        assert np.max(np.abs(correction_vector(p, x))) <= 1e-12

    def test_stationarity_equation(self, rng):
        # W(X - A) + <., x> W(Xx - b) = 0 holds for the lift at every x
        for _ in range(30):
            p = random_problem(rng, 2, m=3)
            x = rng.normal(size=2)
            ax = lift_operator(p, x)
            resid = p.W.apply(ax - p.A) + np.outer(p.W.apply(ax @ x - p.b), x)
            lam_max = np.linalg.eigvalsh(p.W.as_matrix())[-1]
            scale = lam_max * np.linalg.norm(p.A) + p.b_norm_w_sq
            assert np.linalg.norm(resid) <= 1e-10 * scale


class TestLiftIdentities:
    def test_x_zero(self, rng):
        p = random_problem(rng, 3)
        report = verify_lift_identities(p, np.zeros(3))
        assert report.contraction_lhs == pytest.approx(p.b_norm_w_sq, rel=1e-14)
        assert report.correction_lhs == 0.0
        assert report.vector_gap <= 1e-15

    def test_random_instances(self, rng):
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            p = random_problem(rng, n, m=m)
            x = rng.normal(size=n) * float(rng.uniform(0.1, 3.0))
            report = verify_lift_identities(p, x)
            worst = max(report.contraction_gap, report.correction_gap, worst)
            assert report.vector_gap <= 1e-12
        assert worst <= 1e-10

    def test_g_equals_objective_at_lift(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p = random_problem(rng, n, m=int(rng.integers(1, 6)))
            x = rng.normal(size=n)
            lifted = lift_operator(p, x)
            assert_allclose(
                objective_rtls(p, lifted, x), eval_g(p, x).g, rtol=1e-10
            )
            # independent elementwise evaluation closes the loop
            assert_allclose(
                elementwise_objective(p, lifted, x), eval_g(p, x).g, rtol=1e-10
            )

    def test_lift_optimality_against_perturbations(self, rng):
        # F_x(X) = F_x(A_x) + |A_x - X|_{2,W}^2 + |Xx - A_x x|_W^2
        p = random_problem(rng, 3, m=4)
        x = rng.normal(size=3)
        ax = lift_operator(p, x)
        base = objective_rtls(p, ax, x)
        for _ in range(100):
            y_mat = rng.normal(size=(4, 3)) * float(rng.uniform(0.01, 2.0))
            competitor = ax + y_mat
            val = objective_rtls(p, competitor, x)
            assert val >= base - 1e-12
            expansion = (
                base
                + np.sum(p.W.apply(y_mat) * y_mat)
                + float(p.W.apply(y_mat @ x) @ (y_mat @ x))
            )
            assert_allclose(val, expansion, rtol=1e-10)


class TestNormalResidual:
    def test_trivial_witness_vanishes(self):
        # T x = 0 and W(Ax - b) = 0 kill every term
        t_mat = np.array([[0.0, 1.0]])
        p = ProblemSpec(
            np.array([[2.0, 1.0], [0.0, 3.0]]),
            np.array([2.0, 0.0]),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.dense(t_mat),
        )
        assert normal_residual(p, np.array([1.0, 0.0])) <= 1e-15

    def test_closed_form_minimizer(self):
        # any |x| = 2 along b scaled: residual 0 at the oracle minimizer
        p = closed_form_problem()
        x = np.array([6.0 / 5.0, 8.0 / 5.0])
        assert np.linalg.norm(x) == pytest.approx(2.0)
        assert normal_residual(p, x) <= 1e-8
        # grid + refinement oracle on the radius confirms u* = 4
        u = np.linspace(3.9, 4.1, 400001)
        vals = 25.0 / (1.0 + u) + u
        assert abs(u[np.argmin(vals)] - 4.0) <= 1e-6

    def test_nonstationary_point_is_flagged(self, rng):
        p = closed_form_problem()
        assert normal_residual(p, np.array([1.0, 0.0])) > 1e-3


class TestRecoverPair:
    def test_bundles_consistent_values(self, rng):
        p = random_problem(rng, 3)
        x = rng.normal(size=3)
        report = recover_pair(p, x)
        assert report.objective == pytest.approx(eval_g(p, x).g, rel=1e-14)
        assert report.objective == pytest.approx(
            report.data_term + report.reg_term, rel=1e-12
        )
        assert report.residual_rank_one <= 1e-12
        assert report.status == "heuristic"

    def test_orthogonality_identity_at_critical_point(self):
        # at a minimizer, A0^T W (A0 - A) equals (T^T T x) x^T
        p = closed_form_problem()
        x = np.array([2.0, 0.0])
        ax = lift_operator(p, x)
        raw = ax.T @ p.W.apply(ax - p.A)
        assert_allclose(raw, np.outer(p.T.gram_dot(x), x), atol=1e-12)

    @staticmethod
    def _materialized_cases(rng):
        """(p, x, A_x) over diagonal/dense W and scaled/dense T."""
        for k in range(40):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 12))
            p = random_problem(rng, n, m=m, weight_kind=("diagonal", "dense")[k % 2])
            if k % 4 >= 2:
                p = ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(rng.normal(size=(n, n))))
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
            yield p, x, lift_operator(p, x)

    def test_rank_one_matches_materialized_formula(self, rng):
        # the O(m^2 + mn) form against W(A_x - A) + W(A_x x - b) x^T
        for p, x, ax in self._materialized_cases(rng):
            raw = p.W.apply(ax - p.A) + np.outer(p.W.apply(ax @ x - p.b), x)
            expected = np.linalg.norm(raw) / _report_scale(p)
            assert abs(recover_pair(p, x).residual_rank_one - expected) <= 1e-12

    def test_shared_product_keeps_every_bit(self, rng):
        # the report's numbers equal the reference's, which forms A x - b per term
        cases = [(p, x) for p, x, _ in self._materialized_cases(rng)]
        for k in range(8):
            n = int(rng.integers(10, 40))
            p = random_problem(rng, n, m=n + int(rng.integers(0, 20)), weight_kind="dense")
            if k % 2:
                p = ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(rng.normal(size=(n, n))))
            cases.append((p, rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)))
        for p, x in cases:
            report = recover_pair(p, x)
            got = (report.correction_vector.tobytes(), report.objective, report.data_term,
                   report.reg_term, report.residual_normal_eq, report.residual_rank_one)
            assert got == _reference_report_numbers(p, x)

    def test_nonminimizing_x_reports_residual(self, rng):
        p = closed_form_problem()
        report = recover_pair(p, np.zeros(2))
        assert report.objective == pytest.approx(25.0)
        assert report.residual_normal_eq == 0.0  # x = 0 is a critical point here
        report2 = recover_pair(p, np.array([1.0, 1.0]))
        assert report2.residual_normal_eq > 1e-3


def _reference_report_numbers(p, x):
    """recover_pair's serialized numbers, written out term by term.

    Each term forms A x - b (or b - A x) on its own.  Returns the bytes of
    the lift's correction vector, G, its two terms and the two residuals.
    """
    r2 = float(x @ x)
    c = (p.b - p.A @ x) / (1.0 + r2)
    data_term = w_vec_seminorm(p.W, p.A @ x - p.b) ** 2 / (1.0 + r2)
    reg_term = p.T.value(x)
    residual_vec = p.A @ x - p.b
    w_resid = p.W.apply(residual_vec)
    lhs = (1.0 + r2) * p.T.gram_dot(x) + p.A.T @ w_resid
    rhs = math.sqrt(max(float(w_resid @ residual_vec), 0.0)) ** 2 / (1.0 + r2) * x
    normal = float(np.linalg.norm(lhs - rhs))
    normal /= 1.0 + np.linalg.norm(x) + np.linalg.norm(p.gram_rhs)
    lift_c = (p.b - p.A @ x) / (1.0 + float(x @ x))
    rank_one = p.W.apply(lift_c + (p.A @ x + lift_c * float(x @ x)) - p.b)
    return (
        c.tobytes(), data_term + reg_term, data_term, reg_term, normal,
        float(np.linalg.norm(rank_one) * np.linalg.norm(x)) / _report_scale(p),
    )
