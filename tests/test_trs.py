import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rtls import trs, trs_equality
from rtls.trs import (
    brentq,
    eigen_split,
    min_space,
    quartic_minimizer,
    radial_values,
    secular_setup,
)


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

    def test_root_within_an_ulp_of_the_pole(self):
        # -lam_min + |d_min| / r rounds to -lam_min: lam + mu would be 0
        lam = np.array([4e10, 1.2e11])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = trs_equality(np.diag(lam), np.array([0.1, 0.2]), 1e5)
        assert np.all(np.isfinite(sol.x)) and math.isfinite(sol.lam)
        assert sol.x[0] == pytest.approx(1e5, rel=1e-12)
        assert sol.lam > -lam[0]

    @pytest.mark.parametrize("k", [1e-20, 1e-16, 1e20])
    def test_degenerate_root_is_scale_invariant(self, k):
        # c misses the minimal eigenspace and r is below the secular limit:
        # (S, c) -> (kS, kc) keeps x and scales mu, at every k
        lam, c = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0])
        want = trs_equality(np.diag(lam), c, 0.5)
        got = trs_equality(k * np.diag(lam), k * c, 0.5)
        assert not got.hard_case
        assert_allclose(got.x, want.x, rtol=1e-12)
        assert got.lam / k == pytest.approx(want.lam, rel=1e-12)
        _, z, _ = radial_values(k * lam, k * c, np.array([0.5]))
        assert_allclose(z[0], want.x, rtol=1e-12)

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
            vals, _, _ = radial_values(lam, d, rs)
            for r, val in zip(rs, vals):
                sol = trs_equality(s_mat, c, r, eig=(lam, q))
                direct = sol.x @ s_mat @ sol.x - 2 * c @ sol.x
                assert_allclose(val, direct, rtol=1e-8, atol=1e-10)

    def test_hard_case_branch(self):
        lam = np.array([1.0, 4.0])
        d = np.array([0.0, 2.0])
        rs = np.array([0.5, 3.0])  # secular regime, then hard case
        vals, _, _ = radial_values(lam, d, rs)
        sol0 = trs_equality(np.diag(lam), np.diag([1.0, 1.0]) @ np.array([0.0, 2.0]), 0.5)
        direct0 = sol0.x @ np.diag(lam) @ sol0.x - 2 * np.array([0.0, 2.0]) @ sol0.x
        assert_allclose(vals[0], direct0, rtol=1e-9)
        sol1 = trs_equality(np.diag(lam), np.array([0.0, 2.0]), 3.0)
        direct1 = sol1.x @ np.diag(lam) @ sol1.x - 2 * np.array([0.0, 2.0]) @ sol1.x
        assert_allclose(vals[1], direct1, rtol=1e-9)

    def test_hard_case_just_inside_its_tolerance(self):
        # |d_eff / gaps|^2 up to r^2 (1 + 1e-12) counts as the hard case,
        # where the completion alone leaves |z| = sqrt(limit_sq) > r
        lam = np.array([1.0, 2.0, 3.0])
        d = np.array([0.0, 1.0, 2.0])
        r = math.sqrt(2.0 / (1.0 + 5e-13))
        vals, z, _ = radial_values(lam, d, np.array([r]))
        sol = trs_equality(None, d, r, eig=(lam, np.eye(3)))
        assert sol.hard_case
        assert np.linalg.norm(z[0]) == pytest.approx(r, rel=1e-15)
        assert_allclose(z[0], sol.x, rtol=1e-15, atol=1e-15)
        assert vals[0] == pytest.approx(sol.x @ (lam * sol.x) - 2.0 * d @ sol.x, rel=1e-15)

    def test_zero_rhs(self):
        lam = np.array([0.5, 2.0])
        vals, _, _ = radial_values(lam, np.zeros(2), np.array([0.0, 1.0, 2.0]))
        assert_allclose(vals, [0.0, 0.5, 2.0], rtol=1e-12)

    def test_batch_matches_one_at_a_time(self, rng):
        # a stack of S, each at its own radius; every third misses the
        # minimal eigenspace, so large radii take the hard-case branch
        lam = np.sort(rng.uniform(0.0, 5.0, size=(30, 5)), axis=1)
        d = rng.normal(size=(30, 5))
        d[::3, 0] = 0.0
        rs = rng.uniform(0.0, 6.0, size=30)
        rs[0] = 0.0
        vals, z, _ = radial_values(lam, d, rs)
        for k in range(30):
            one, z_one, _ = radial_values(lam[k], d[k], rs[k : k + 1])
            assert vals[k] == one[0]
            assert_array_equal(z[k], z_one[0])
            sol = trs_equality(None, d[k], rs[k], eig=(lam[k], np.eye(5)))
            assert_allclose(z[k], sol.x, atol=1e-7 * (1.0 + rs[k]))

    def test_rounding_size_rhs_stays_off_the_pole(self, rng):
        # |d| / r below an ulp of lam_min: -lam_min + |d| / r rounds onto
        # the pole, below the bracket's lower end
        lam = np.sort(rng.uniform(0.5, 3.0, size=(40, 5)), axis=1)
        d = 1e-16 * rng.normal(size=(40, 5))
        rs = rng.uniform(0.5, 5.0, size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, z, _ = radial_values(lam, d, rs)
            assert np.all(np.isfinite(z))
            assert_allclose(np.linalg.norm(z, axis=1), rs, rtol=1e-12)
            for k in range(40):
                sol = trs_equality(None, d[k], rs[k], eig=(lam[k], np.eye(5)))
                assert_allclose(z[k], sol.x, atol=1e-7 * (1.0 + rs[k]))
            # a sphere of radius 1e-160, where z^2 underflows unless the whole
            # solve runs with (d, r) scaled by a power of two to r ~ 1
            lam, d, r = np.array([1e20, 1.25e20]), np.array([1e-150, 2e-150]), 1e-160
            _, z, _ = radial_values(lam, d, np.array([r]))
            sol = trs_equality(None, d, r, eig=(lam, np.eye(2)))
            assert math.hypot(*z[0]) == pytest.approx(r, rel=1e-15)
            assert_allclose(z[0], sol.x, rtol=1e-15)

    def test_rows_split_like_min_space(self, rng):
        # clustered spectra widen the minimal eigenspace; zeroed leading
        # entries of d make it degenerate
        for trial in range(200):
            n, rows = int(rng.integers(1, 25)), int(rng.integers(1, 40))
            lam = np.sort(rng.uniform(0.0, 5.0, size=(rows, n)), axis=1)
            if trial % 2:
                lam[:, : n // 3 + 1] = lam[:, :1] * (1.0 + 1e-14 * rng.uniform(size=(rows, 1)))
            lam *= 10.0 ** rng.uniform(-8, 8)
            d = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-8, 8)
            if trial % 3 == 0:
                d[:, : n // 3 + 1] = 0.0
            split = min_space(lam, d)
            for k in range(rows):
                for got, exact in zip(split, min_space(lam[k], d[k])):
                    assert_array_equal(got[k], exact)


def _bisection_reference(lam, d, rs):
    """radial_values as it was with 70 bisection sweeps of the secular bracket."""
    n = lam.shape[-1]
    shape = np.broadcast_shapes(lam.shape[:-1], d.shape[:-1], np.shape(rs))
    rs = np.broadcast_to(np.asarray(rs, dtype=float), shape)
    pos = rs > 0.0
    lam = np.broadcast_to(lam, shape + (n,))[pos]
    d = np.broadcast_to(d, shape + (n,))[pos]
    r = rs[pos]
    hard, x, lo, hi = secular_setup(lam, d, r)
    solve = ~hard
    if np.any(solve):
        lam_s, d_s, r_s, lo, hi = lam[solve], d[solve], r[solve], lo[solve], hi[solve]
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            too_big = np.sum(d_s * d_s / (lam_s + mid[:, None]) ** 2, axis=1) > r_s * r_s
            lo, hi = np.where(too_big, mid, lo), np.where(too_big, hi, mid)
        x[solve] = d_s / (lam_s + 0.5 * (lo + hi)[:, None])
    x *= (r / np.linalg.norm(x, axis=1))[:, None]
    out = np.zeros(shape)
    out[pos] = np.sum(lam * x * x, axis=1) - 2.0 * np.sum(d * x, axis=1)
    return out


def _secular_batches(seed, count):
    """(lam, d, rs) stacks, cycling through clustered minimal eigenspaces,
    zeroed leading d, d_min scaled by 1e-14 (near the hard case) and
    generic data, each at a scale 1e-6, 1 or 1e6, with r = 0 rows."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n, rows = int(rng.integers(1, 25)), int(rng.integers(1, 12))
        lam = np.sort(rng.uniform(0.0, 5.0, size=(rows, n)), axis=1)
        d = rng.normal(size=(rows, n))
        kind = trial % 4
        if kind == 0:
            lam[:, : n // 3 + 1] = lam[:, :1] * (1.0 + 1e-14 * rng.uniform(size=(rows, 1)))
        elif kind == 1:
            d[:, : n // 3 + 1] = 0.0
        elif kind == 2:
            d[:, 0] *= 1e-14
        scale = 10.0 ** rng.choice([-6.0, 0.0, 6.0])
        rs = rng.uniform(0.0, 6.0, size=rows) * 10.0 ** rng.uniform(-1, 1)
        rs[rng.uniform(size=rows) < 0.1] = 0.0
        yield scale * scale * lam, scale * d, rs


class TestSecularNewton:
    def test_never_above_bisection_in_few_sweeps(self, monkeypatch):
        # the value of min <Sx,x> - 2<c,x> on |x| = r, relative to the size
        # of its terms; sweeps past 16 change no bit of values or z
        rows = 0
        for lam, d, rs in _secular_batches(17, 1800):
            vals, z, _ = radial_values(lam, d, rs)
            scale = lam[:, -1] * rs * rs + 2.0 * np.linalg.norm(d, axis=1) * rs
            assert np.all(vals <= _bisection_reference(lam, d, rs) + 1e-15 * scale)
            with monkeypatch.context() as m:
                m.setattr(trs, "_SWEEPS", 16)
                capped, z_capped, _ = radial_values(lam, d, rs)
            assert capped.tobytes() == vals.tobytes() and z_capped.tobytes() == z.tobytes()
            rows += rs.size
        assert rows >= 10_000

    @pytest.mark.parametrize("lam, d, r", [
        ([0.27397384538181524, 1.2647971417847903],
         [-1.049050129511948e-14, 0.024597301433129742], 12.466340362278904),
        ([1.398837319590438, 4.675976057331221],
         [-1.4234028041697036e-14, 0.09011534202085508], 0.33293572981345876),
        ([0.6796328059591322, 1.1795256377405017],
         [1.419144578778881e-14, -0.012515949430606273], 10.854674415898284),
    ])
    def test_near_hard_root_within_bisection_resolution(self, lam, d, r):
        # d_min ~ 1e-14: the root sits nearer the pole than 2^-70 of the
        # bracket, where 70 bisections leave the value 1e-8 to 1e-6 too high
        lam, d = np.array(lam), np.array(d)
        val = radial_values(lam, d, np.array([r]))[0][0]
        sol = trs_equality(None, d, r, eig=(lam, np.eye(2)))
        assert not sol.hard_case
        assert val == pytest.approx(sol.x @ (lam * sol.x) - 2.0 * d @ sol.x, rel=1e-15)
        assert _bisection_reference(lam, d, np.array([r]))[0] > val * (1.0 + 1e-9)


class TestRadialMultiplier:
    def test_matches_scalar_solver_row_by_row(self):
        # the secular root, -lam_min on hard rows and NaN where r = 0, as
        # trs_equality's lam, over clustered, degenerate and near-hard rows
        counts = {"hard": 0, "zero": 0, "solved": 0}
        for lam, d, rs in _secular_batches(23, 300):
            _, _, mu = radial_values(lam, d, rs)
            for k in range(rs.size):
                sol = trs_equality(None, d[k], rs[k], eig=(lam[k], np.eye(lam.shape[1])))
                assert_array_equal(mu[k], sol.lam)
                counts["zero" if rs[k] == 0.0 else "hard" if sol.hard_case else "solved"] += 1
        assert min(counts.values()) >= 50

    def test_broadcasts_with_the_values(self):
        lam, d = np.array([1.0, 4.0]), np.array([0.0, 2.0])
        vals, z, mu = radial_values(lam, d, np.array([[0.0, 0.5], [3.0, 1.0]]))
        assert vals.shape == mu.shape == (2, 2) and z.shape == (2, 2, 2)
        assert math.isnan(mu[0, 0])
        assert mu[1, 0] == -1.0  # hard case: the pole
        assert_allclose((lam + mu[0, 1]) * z[0, 1], d, atol=1e-15)


class TestQuarticMinimizer:
    @staticmethod
    def objective(s_mat, c, rho, shift, x):
        r2 = x @ x
        return x @ s_mat @ x - 2.0 * c @ x + rho * r2 * r2 + shift * r2

    def test_hard_case_closed_form(self):
        # S = diag(0, 0, 1), c = e3, rho = 1, shift = -5: mu = 2 |x|^2 - 5
        # stays at -lam_min = 0, so x3 = 1 and the minimal eigenspace carries
        # the rest of |x|^2 = 5/2
        s_mat = np.diag([0.0, 0.0, 1.0])
        c = np.array([0.0, 0.0, 1.0])
        x = quartic_minimizer(eigen_split(np.linalg.eigh(s_mat), c), 1.0, -5.0)
        assert x[2] == pytest.approx(1.0, rel=1e-14)
        assert float(x @ x) == pytest.approx(2.5, rel=1e-14)
        assert self.objective(s_mat, c, 1.0, -5.0, x) == pytest.approx(-7.25, rel=1e-14)

    def test_zero_rhs(self):
        s_mat = np.diag([1.0, 3.0])
        split = eigen_split(np.linalg.eigh(s_mat), np.zeros(2))
        assert_array_equal(quartic_minimizer(split, 1.0, 0.5), np.zeros(2))
        x = quartic_minimizer(split, 1.0, -3.0)  # |x|^2 = (3 - 1) / 2
        assert float(x @ x) == pytest.approx(1.0, rel=1e-14)
        assert abs(x[1]) <= 1e-15

    def test_stationary_and_below_samples(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            basis = rng.normal(size=(n, n))
            s_mat = basis.T @ basis
            c = rng.normal(size=n)
            rho = float(10.0 ** rng.uniform(-3, 1))
            shift = float(rng.uniform(-5.0, 5.0))
            x = quartic_minimizer(eigen_split(np.linalg.eigh(s_mat), c), rho, shift)
            mu = 2.0 * rho * float(x @ x) + shift
            resid = (s_mat + mu * np.eye(n)) @ x - c
            assert np.linalg.norm(resid) <= 1e-9 * (1.0 + np.linalg.norm(c) + abs(mu))
            best = self.objective(s_mat, c, rho, shift, x)
            scale = 1.0 + abs(best)
            for z in x + rng.normal(size=(50, n)) * rng.uniform(0.01, 3.0, size=(50, 1)):
                assert self.objective(s_mat, c, rho, shift, z) >= best - 1e-12 * scale


class TestMinSpace:
    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8, 1e8])
    def test_invariant_under_scaling(self, scale):
        # lam -> s^2 lam, d -> s d: the same eigenspace and the same verdict
        lam = np.array([1e-3, 1e-3, 0.5, 2.0])
        for d, hard in (([0.0, 0.0, 0.3, 0.4], True), ([1e-6, 0.0, 0.3, 0.4], False)):
            in_min, _, _, _, _, degenerate = min_space(scale**2 * lam, scale * np.array(d))
            assert_array_equal(in_min, [True, True, False, False])
            assert degenerate == hard


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

                # the secular bracket when d has a minimal-eigenspace part
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
