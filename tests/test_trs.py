import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rtls import trs_equality
from rtls.trs import brentq, radial_solutions, radial_values


class TestTrsEquality:
    def test_zero_radius(self):
        sol = trs_equality(np.eye(3), np.ones(3), 0.0)
        assert_allclose(sol.x, np.zeros(3))
        assert not sol.hard_case

    def test_identity_closed_form(self):
        # (1 + mu) x = e1 with |x| = 2 gives x = 2 e1, mu = -1/2
        sol = trs_equality(np.eye(2), np.array([1.0, 0.0]), 2.0)
        assert_allclose(sol.x, np.array([2.0, 0.0]), atol=1e-12)
        assert sol.lam == pytest.approx(-0.5, rel=1e-12)
        assert not sol.hard_case

    def test_pure_eigenvector_hard_case(self):
        sol = trs_equality(np.diag([1.0, 2.0]), np.zeros(2), 1.0)
        assert sol.hard_case
        assert_allclose(np.abs(sol.x), np.array([1.0, 0.0]), atol=1e-14)
        assert sol.lam == pytest.approx(-1.0)

    def test_hard_case_with_orthogonal_rhs(self):
        # c orthogonal to the lambda_min eigenspace and r beyond the secular
        # limit: the solution picks up a minimal-eigenspace component
        s_mat = np.diag([1.0, 4.0])
        c = np.array([0.0, 2.0])
        r = 3.0
        sol = trs_equality(s_mat, c, r)
        assert sol.hard_case
        assert np.linalg.norm(sol.x) == pytest.approx(r, rel=1e-12)
        # stationarity with the augmented multiplier
        assert_allclose((s_mat + sol.lam * np.eye(2)) @ sol.x, c, atol=1e-10)

    def test_norm_constraint_and_stationarity(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            basis = rng.normal(size=(n, n))
            s_mat = basis.T @ basis
            c = rng.normal(size=n)
            r = float(rng.uniform(0.01, 10.0))
            sol = trs_equality(s_mat, c, r)
            assert abs(np.linalg.norm(sol.x) - r) <= 1e-10 * (1.0 + r)
            resid = (s_mat + sol.lam * np.eye(n)) @ sol.x - c
            assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(c))
            lam_min = np.linalg.eigvalsh(s_mat)[0]
            assert sol.lam >= -lam_min - 1e-9 * (1.0 + abs(lam_min))

    def test_global_optimality_against_sphere_samples(self, rng):
        # no sampled point on the sphere beats the returned solution
        for _ in range(20):
            n = 4
            basis = rng.normal(size=(n, n))
            s_mat = basis.T @ basis
            c = rng.normal(size=n)
            r = float(rng.uniform(0.1, 5.0))
            sol = trs_equality(s_mat, c, r)
            value = sol.x @ s_mat @ sol.x - 2 * c @ sol.x
            for _ in range(200):
                z = rng.normal(size=n)
                z *= r / np.linalg.norm(z)
                assert z @ s_mat @ z - 2 * c @ z >= value - 1e-9 * (1 + abs(value))


class TestRadialValues:
    def test_matches_scalar_solver(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            basis = rng.normal(size=(n, n))
            s_mat = basis.T @ basis
            c = rng.normal(size=n)
            lam, q = np.linalg.eigh(s_mat)
            lam = np.clip(lam, 0.0, None)
            d = q.T @ c
            rs = np.concatenate([[0.0], rng.uniform(0.01, 8.0, size=40)])
            vals = radial_values(lam, d, rs)
            for r, val in zip(rs, vals):
                sol = trs_equality(s_mat, c, r, eig=(lam, q))
                direct = sol.x @ s_mat @ sol.x - 2 * c @ sol.x
                assert_allclose(val, direct, rtol=1e-8, atol=1e-10)

    def test_hard_case_branch(self):
        lam = np.array([1.0, 4.0])
        d = np.array([0.0, 2.0])
        rs = np.array([0.5, 3.0])  # secular regime, then hard case
        vals = radial_values(lam, d, rs)
        sol0 = trs_equality(np.diag(lam), np.diag([1.0, 1.0]) @ np.array([0.0, 2.0]), 0.5)
        direct0 = sol0.x @ np.diag(lam) @ sol0.x - 2 * np.array([0.0, 2.0]) @ sol0.x
        assert_allclose(vals[0], direct0, rtol=1e-9)
        sol1 = trs_equality(np.diag(lam), np.array([0.0, 2.0]), 3.0)
        direct1 = sol1.x @ np.diag(lam) @ sol1.x - 2 * np.array([0.0, 2.0]) @ sol1.x
        assert_allclose(vals[1], direct1, rtol=1e-9)

    def test_zero_rhs(self):
        lam = np.array([0.5, 2.0])
        vals = radial_values(lam, np.zeros(2), np.array([0.0, 1.0, 2.0]))
        assert_allclose(vals, [0.0, 0.5, 2.0], rtol=1e-12)

    def test_batch_matches_one_at_a_time(self, rng):
        # a stack of S, each at its own radius; every third misses the
        # minimal eigenspace, so large radii take the hard-case branch
        lam = np.sort(rng.uniform(0.0, 5.0, size=(30, 5)), axis=1)
        d = rng.normal(size=(30, 5))
        d[::3, 0] = 0.0
        rs = rng.uniform(0.0, 6.0, size=30)
        rs[0] = 0.0
        vals, z = radial_solutions(lam, d, rs)
        for k in range(30):
            one, z_one = radial_solutions(lam[k], d[k], rs[k : k + 1])
            assert vals[k] == one[0]
            assert_array_equal(z[k], z_one[0])
            sol = trs_equality(None, d[k], rs[k], eig=(lam[k], np.eye(5)))
            assert_allclose(z[k], sol.x, atol=1e-7 * (1.0 + rs[k]))


class TestBrentq:
    def test_bit_identical_to_scipy_on_secular_equations(self):
        scipy_brentq = pytest.importorskip("scipy.optimize").brentq
        rng = np.random.default_rng(1973)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 25))
            lam = np.sort(np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-4, 4))
            d = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4)
            for r in 10.0 ** rng.uniform(-4, 4, size=2):
                def secular(mu):
                    return float(np.sum((d / (lam + mu)) ** 2)) - r * r

                # the bracket trs_equality uses when d has a minimal-eigenspace part
                lo = -lam[0] + abs(d[0]) / r
                hi = -lam[0] + float(np.linalg.norm(d)) / r
                if not secular(lo) > 0.0 > secular(hi):
                    continue
                kw = dict(xtol=1e-30, rtol=8.9e-16, maxiter=200)
                assert brentq(secular, lo, hi, **kw) == scipy_brentq(secular, lo, hi, **kw)
                checked += 1
        assert checked >= 400

    def test_same_sign_bracket_raises_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_maxiter_exhausted_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="failed to converge after 3"):
            brentq(lambda x: x**3 - 2.0, 0.0, 4.0, maxiter=3)

    def test_nan_value_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)

    def test_endpoint_root_returned_exactly(self):
        assert brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0
