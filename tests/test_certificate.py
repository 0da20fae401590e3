import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import certified_instances, hard_case_family
from oracles import closed_form_problem, random_problem, random_weight
from rtls import certificate, solver
from rtls.certificate import (
    DualSolution,
    assemble_c,
    certify_tstar,
    classify_existence,
    default_tol_t,
    dual_tstar,
    feasible_at_t,
)
from rtls.model import ProblemSpec, RegularizerSpec, WeightOperator
from rtls.reduction import eval_g
from rtls.solver import solve_tstar

# derandomized so that the suite is reproducible; each example runs Dinkelbach
dual_settings = settings(max_examples=12, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def scalar_expansion(p, t, alpha, beta, x, z1, z2):
    """The defining scalar identity for <Cy, y> with y = (x, z1, z2, 1)."""
    rho = p.T.rho
    misfit = float(np.sum(p.W.apply(p.A @ x - p.b) * (p.A @ x - p.b)))
    return (
        z1
        + rho * z2**2
        + (rho - t) * z2
        - t
        + alpha * (misfit - z1)
        + beta * (float(x @ x) - z2)
    )


class TestAssembleC:
    def test_quadratic_form_identity(self, rng):
        for _ in range(3):
            p = random_problem(rng, 3)
            t = float(rng.uniform(0.0, p.b_norm_w_sq))
            alpha = float(rng.uniform(0.0, 3.0))
            beta = float(rng.uniform(0.0, 3.0))
            c_mat = assemble_c(p, t, alpha, beta)
            assert_allclose(c_mat, c_mat.T, atol=0)
            for _ in range(100):
                x = rng.normal(size=3)
                z1, z2 = rng.normal(size=2)
                y = np.concatenate([x, [z1, z2, 1.0]])
                expected = scalar_expansion(p, t, alpha, beta, x, z1, z2)
                got = float(y @ c_mat @ y)
                assert abs(got - expected) <= 1e-10 * (1.0 + abs(expected))

    def test_homogeneous_part_nonnegative(self, rng):
        p = random_problem(rng, 3)
        c_mat = assemble_c(p, 2.0, 1.3, 0.7)
        for _ in range(100):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=2), [0.0]])
            x, z2 = y[:3], y[4]
            misfit = float(np.sum(p.W.apply(p.A @ x) * (p.A @ x)))
            expected = 1.3 * misfit + 0.7 * float(x @ x) + p.T.rho * z2**2
            got = float(y @ c_mat @ y)
            assert got >= -1e-12
            assert abs(got - expected) <= 1e-10 * (1.0 + abs(expected))

    def test_decoupled_fixture_eigenvalue(self):
        # A = 0, rho = 1, (alpha, beta, t) = (0, 1, 0): the z2 row decouples
        # (rho - t - beta = 0) and the z1/tau block [[0, 1/2], [1/2, 0]]
        # contributes eigenvalues +-1/2 exactly
        p = closed_form_problem()
        c_mat = assemble_c(p, 0.0, 0.0, 1.0)
        lam = np.linalg.eigvalsh(c_mat)
        assert lam[0] == pytest.approx(-0.5, abs=1e-14)

    def test_negative_multipliers_rejected(self):
        p = closed_form_problem()
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_c(p, 0.0, -0.1, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_c(p, 0.0, 0.0, -0.1)

    def test_lambda_min_concave_in_multipliers(self, rng):
        p = random_problem(rng, 3)

        def lam_min(a, b):
            return np.linalg.eigvalsh(assemble_c(p, 1.0, a, b))[0]

        for _ in range(50):
            a1, a2 = rng.uniform(0.0, 5.0, size=2)
            b1, b2 = rng.uniform(0.0, 5.0, size=2)
            mid = lam_min(0.5 * (a1 + a2), 0.5 * (b1 + b2))
            assert mid >= min(lam_min(a1, b1), lam_min(a2, b2)) - 1e-10


class TestFeasibility:
    def test_negative_t_feasible(self, rng):
        # alpha = 1, beta = rho - t makes the form bounded by min(f + beta g) - t > 0
        for _ in range(3):
            p = random_problem(rng, 2)
            feasible, cert = feasible_at_t(p, -1.0)
            assert feasible
            ref = assemble_c(p, -1.0, 1.0, min(p.T.rho + 1.0, 1e6))
            assert np.linalg.eigvalsh(ref)[0] >= -1e-9 * (1 + np.linalg.norm(ref))

    def test_above_bound_infeasible(self, rng):
        p = random_problem(rng, 2)
        feasible, cert = feasible_at_t(p, p.b_norm_w_sq + 1.0)
        assert not feasible
        assert cert.lambda_min < 0

    def test_closed_form_bracket(self):
        p = closed_form_problem()
        assert feasible_at_t(p, 8.9)[0]
        assert not feasible_at_t(p, 9.1)[0]

    def test_monotone_feasibility(self, rng):
        p = random_problem(rng, 2)
        trace = solve_tstar(p)
        ts = np.linspace(0.0, p.b_norm_w_sq, 7)
        flags = [feasible_at_t(p, t)[0] for t in ts]
        # once infeasible, stays infeasible
        first_infeasible = next((i for i, f in enumerate(flags) if not f), len(flags))
        assert all(not f for f in flags[first_infeasible:])
        # and the flip happens at t*
        for t, f in zip(ts, flags):
            if t < trace.t_star - 1e-4:
                assert f
            if t > trace.t_star + 1e-4:
                assert not f


class TestCertifyTstar:
    def test_zero_data(self):
        p = ProblemSpec(
            np.eye(2), np.zeros(2),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(1.0),
        )
        cert = certify_tstar(p)
        assert cert.t == 0.0
        assert cert.lambda_min >= 0.0

    def test_closed_form(self):
        p = closed_form_problem()
        cert = certify_tstar(p)
        assert cert.t == pytest.approx(9.0, abs=1e-4)
        assert cert.alpha >= 0 and cert.beta >= 0

    def test_unpolished_point_gives_the_polished_certificate(self, monkeypatch):
        # t = tau(beta*) and beta* are fixed before any polish, so (t, beta,
        # lambda_min, C) are bitwise those of dual_tstar's polished point;
        # certify_tstar checks the gap at x(beta*) and polishes only where
        # it misses default_tol_t, which none of these problems does
        problems = [random_problem(np.random.default_rng(seed), n, rho_factor=f)
                    for seed in range(8) for n in (2, 3, 6, 12, 24)
                    for f in (1e-4, 0.02, 0.2, 1.5, 10.0)]
        problems += [hard_case_family(order, rho)
                     for order in (4, 8, 16, 32) for rho in (1e-3, 1e-2, 0.1, 1.0, 5.0)]
        # A = 0 with |b|^2 = 25 > rho: beta* = -lambda_min, the hard case
        problems += [closed_form_problem(rho) for rho in (1e-3, 0.01, 0.1, 1.0, 5.0, 30.0)]
        wants = []
        for p in problems:
            sol = dual_tstar(p)
            assert sol.gap <= default_tol_t(p)
            wants.append(certificate._certificate(p, sol.t_dual, sol.beta)[1])
        polishes = []
        polish = solver.newton_polish
        monkeypatch.setattr(solver, "newton_polish", lambda p, x: polishes.append(x) or polish(p, x))
        hard = 0
        for p, want in zip(problems, wants):
            cert = certify_tstar(p)
            got = [float(v).hex() for v in (cert.t, cert.beta, cert.lambda_min)]
            assert got == [float(v).hex() for v in (want.t, want.beta, want.lambda_min)]
            assert cert.C.tobytes() == want.C.tobytes()
            hard += cert.beta == -p.gram_eig[0][0]
        assert len(problems) >= 200 and hard >= 5
        assert polishes == []

    def test_polishes_where_the_dual_point_misses(self, monkeypatch):
        # sigma(A) = (0.068, 2.3e-8) and rho = 1.6e-29: x(beta*) misses
        # default_tol_t, so certify_tstar polishes it and fails as the
        # polished point of dual_tstar does
        p = ProblemSpec(
            np.array([[0.06293765866560957, 0.019653069692738966],
                      [0.01423674941826218, 0.004445627732411156]]),
            np.array([-4.826974011419779e-05, 0.00021339020735964588]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.identity_scaled(1.5662067897076584e-29),
        )
        x = certificate._dual_point(p, p.T.rho)[0]
        assert eval_g(p, x).g - dual_tstar(p).t_dual > default_tol_t(p)
        with pytest.raises(RuntimeError) as want:
            certificate._require_gap(p, dual_tstar(p))
        polishes = []
        polish = solver.newton_polish
        monkeypatch.setattr(solver, "newton_polish", lambda p, x: polishes.append(x) or polish(p, x))
        with pytest.raises(RuntimeError) as got:
            certify_tstar(p)
        assert str(got.value) == str(want.value)
        assert len(polishes) == 1 and polishes[0].tobytes() == x.tobytes()

    def test_agrees_with_dinkelbach(self):
        for p in certified_instances(20, dims=(3,), seed=31):
            trace = solve_tstar(p)
            cert = certify_tstar(p)
            assert abs(cert.t - trace.t_star) <= 1e-10

    def test_keep_c_retains_matrix(self):
        # every certificate holds its C(t, 1, beta); --keep-C only decides whether it is written
        p = closed_form_problem()
        cert = certify_tstar(p)
        assert cert.C.shape == (5, 5)
        assert np.array_equal(cert.C, assemble_c(p, cert.t, cert.alpha, cert.beta))
        assert np.linalg.eigvalsh(cert.C)[0] == cert.lambda_min


def assert_dual_matches_dinkelbach(p):
    """dual_tstar agrees with solve_tstar to 1e-12 relative, with a tight gap."""
    sol = dual_tstar(p)
    trace = solve_tstar(p)
    scale = max(abs(trace.t_star), 1e-300)
    assert abs(sol.t_star - trace.t_star) <= 1e-12 * scale
    assert sol.t_star == eval_g(p, sol.x_star).g
    assert abs(sol.gap) <= 1e-12 * (1.0 + abs(sol.t_star))
    return sol


class TestDualTstar:
    @dual_settings
    @given(seeds, st.sampled_from([2, 3, 5]))
    def test_negative_multiplier(self, seed, n):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n, m=3 * n, rho_factor=0.02)
        sol = assert_dual_matches_dinkelbach(p)
        assert -p.gram_eig[0][0] <= sol.beta < 0.0

    @dual_settings
    @given(seeds, st.sampled_from([0.02, 0.3, 1.5]))
    def test_rank_deficient_a(self, seed, rho_factor):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, 4, m=5, rho_factor=rho_factor)
        p = ProblemSpec(
            rng.normal(size=(5, 2)) @ rng.normal(size=(2, 4)), p.b, p.W, p.T
        )
        assert p.gram_eig[0][0] <= 1e-12 * p.gram_eig[0][-1]
        assert_dual_matches_dinkelbach(p)

    @dual_settings
    @given(seeds, st.sampled_from([0.02, 0.3, 1.5]), st.sampled_from(["diagonal", "dense"]))
    def test_singular_weight(self, seed, rho_factor, kind):
        rng = np.random.default_rng(seed)
        weights = random_weight(rng, 5, kind="diagonal").data
        weights[:2] = 0.0
        if kind == "dense":
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            weight = WeightOperator.dense((q * weights) @ q.T)
        else:
            weight = WeightOperator.diagonal(weights)
        wb = weight.apply_sqrt(b := rng.normal(size=5))
        p = ProblemSpec(
            rng.normal(size=(5, 3)), b, weight,
            RegularizerSpec.identity_scaled(rho_factor * float(wb @ wb)),
        )
        assert_dual_matches_dinkelbach(p)

    @dual_settings
    @given(seeds, st.sampled_from([1e-6, 1e6]), st.sampled_from([0.02, 1.5]))
    def test_scaled_a(self, seed, scale, rho_factor):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, 3, m=4, rho_factor=rho_factor)
        p = ProblemSpec(scale * p.A, p.b, p.W, p.T)
        assert_dual_matches_dinkelbach(p)

    @pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-7])
    def test_scale_invariance(self, scale):
        # A, b -> sA, sb and rho -> s^2 rho scale t* and tau by s^2; the
        # hard-case test on d and the minimal eigenspace must not see s
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p = random_problem(rng, 2, m=3, rho_factor=float(rng.uniform(0.02, 2.0)))
            p_s = ProblemSpec(
                scale * p.A, scale * p.b, p.W, RegularizerSpec.identity_scaled(scale**2 * p.T.rho)
            )
            sol, sol_s = dual_tstar(p), dual_tstar(p_s)
            assert sol_s.t_star / scale**2 == pytest.approx(sol.t_star, rel=1e-12)
            assert sol_s.t_dual / scale**2 == pytest.approx(sol.t_dual, rel=1e-12)
            assert solve_tstar(p_s).t_star / scale**2 == pytest.approx(sol.t_star, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, 2), (5, 3), (8, 8)])
    def test_default_tolerances_scale_with_b(self, shape):
        # |b|_W^2 << 1: an absolute floor in tol_phi stops Dinkelbach early
        # (seed 6 at 3x2 gave t*/s^2 = 0.729 where the dual gives 0.188)
        m, n = shape
        for seed in range(30):
            rng = np.random.default_rng(seed)
            p = random_problem(rng, n, m=m, rho_factor=0.02)
            for s in (1e-5, 1e-6, 3e-7):
                p_s = ProblemSpec(
                    s * p.A, s * p.b, p.W, RegularizerSpec.identity_scaled(s**2 * p.T.rho)
                )
                t_dual = dual_tstar(p_s).t_star
                assert solve_tstar(p_s).t_star == pytest.approx(t_dual, rel=1e-12, abs=0.0)

    @dual_settings
    @given(seeds, st.sampled_from([5, 7, 9]), st.sampled_from([0.02, 1.5]))
    def test_ill_conditioned_a(self, seed, decades, rho_factor):
        # lambda_min(A^T W A) > 0 but tiny: beta* sits next to the pole
        rng = np.random.default_rng(seed)
        p = random_problem(rng, 4, m=6, rho_factor=rho_factor)
        u, _ = np.linalg.qr(rng.normal(size=(6, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a_mat = (u * np.logspace(0.0, -decades, 4)) @ v.T
        assert_dual_matches_dinkelbach(ProblemSpec(a_mat, p.b, p.W, p.T))

    @pytest.mark.parametrize("rho", [0.25, 1.0, 9.0, 24.0, 25.0, 30.0])
    def test_zero_operator_closed_form(self, rho):
        # A = 0: t* = 2 sqrt(rho) |b| - rho when |b|^2 >= rho, else |b|^2
        p = closed_form_problem(rho=rho)
        expected = 2.0 * np.sqrt(rho) * 5.0 - rho if rho <= 25.0 else 25.0
        sol = assert_dual_matches_dinkelbach(p)
        assert sol.t_star == pytest.approx(expected, rel=1e-14)
        assert sol.t_dual == pytest.approx(expected, rel=1e-14)

    def test_wide_gap_is_not_classified(self):
        # |b|_W^2 = 25: a gap above 2.5e-9 proves no t*
        p = closed_form_problem()
        x = np.array([2.0, 0.0])
        for t_dual in (8.0, 9.0 - 3e-9):
            with pytest.raises(RuntimeError, match="duality gap .* exceeds tol_t 2.5e-09"):
                classify_existence(p, DualSolution(9.0, x, t_dual, 0.0, 1))
        assert classify_existence(p, DualSolution(9.0, x, 9.0 - 2e-9, 0.0, 1)) == "heuristic"
        sol = dual_tstar(p)
        assert 0.0 <= sol.gap <= 1e-10 * p.b_norm_w_sq
        assert classify_existence(p, sol) == "heuristic"

    def test_zero_data_exact(self):
        p = random_problem(np.random.default_rng(0), 3)
        p = ProblemSpec(p.A, np.zeros(3), p.W, p.T)
        sol = dual_tstar(p)
        assert (sol.t_star, sol.t_dual, sol.gap) == (0.0, 0.0, 0.0)
        assert not np.any(sol.x_star)
