import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtls import (
    NongenericTlsError,
    RepeatedSingularValueError,
    min_direction,
    solve_classic_tls,
)


def tls_infimum_oracle(A, b, x_range=20.0, points=2_000_001):
    """For a single-column A: min_x |Ax - b|^2 / (1 + x^2) on a dense grid.

    The unregularized reduction of the TLS objective; its minimum equals
    sigma_min(A|b)^2 on generic instances.
    """
    xs = np.linspace(-x_range, x_range, points)
    resid = A[:, 0][:, None] * xs[None, :] - b[:, None]
    vals = np.sum(resid**2, axis=0) / (1.0 + xs**2)
    return float(np.min(vals))


class TestClassicTls:
    def test_consistent_system(self, rng):
        a_mat = rng.normal(size=(6, 3))
        x0 = rng.normal(size=3)
        sol = solve_classic_tls(a_mat, a_mat @ x0)
        assert sol.sigma_min <= 1e-12
        assert_allclose(sol.x, x0, atol=1e-8)
        assert_allclose(sol.X, a_mat, atol=1e-10)

    def test_repeated_sigma_min_errors(self):
        # (A|b) = I2 has a doubly repeated singular value 1
        with pytest.raises(RepeatedSingularValueError, match="repeated"):
            solve_classic_tls(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))

    def test_repeated_error_reports_candidates(self):
        try:
            solve_classic_tls(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))
        except RepeatedSingularValueError as exc:
            assert isinstance(exc.candidates, list)
        else:
            pytest.fail("expected RepeatedSingularValueError")

    def test_tie_rule_is_relative_to_sigma_max(self):
        # (sA, sb) has the singular values of (A, b) times s and the same x;
        # an absolute tie floor called every instance tied once s <= 1e-11
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m))
            a_mat, b = rng.normal(size=(m, n)), rng.normal(size=m)
            x = solve_classic_tls(a_mat, b).x
            for s in (1e-12, 1e-9, 1e-6, 1e3, 1e6, 1e12):
                x_s = solve_classic_tls(s * a_mat, s * b).x
                assert np.linalg.norm(x_s - x) <= 1e-8 * np.linalg.norm(x)

    def test_nongeneric_errors(self):
        # (A|b) is diagonal with sigma_min on the second column of A, so the
        # minimal right singular vector is e2 with zero last coordinate
        a_mat = np.array([[1.0, 0.0], [0.0, 1e-3], [0.0, 0.0]])
        with pytest.raises(NongenericTlsError, match="nongeneric"):
            solve_classic_tls(a_mat, np.array([0.0, 0.0, 1.0]))

    def test_objective_equals_sigma_min_squared(self, rng):
        for _ in range(25):
            a_mat = rng.normal(size=(6, 3))
            b = rng.normal(size=6)
            sol = solve_classic_tls(a_mat, b)
            correction = np.column_stack([a_mat, b]) - np.column_stack(
                [sol.X, sol.X @ sol.x]
            )
            frob_sq = float(np.sum(correction**2))
            assert_allclose(frob_sq, sol.sigma_min**2, rtol=1e-10, atol=1e-12)
            assert sol.residual <= 1e-10 * (1.0 + np.linalg.norm(b))

    def test_matches_grid_oracle_on_tiny_instances(self, rng):
        for _ in range(5):
            a_mat = rng.normal(size=(2, 1))
            b = rng.normal(size=2)
            sol = solve_classic_tls(a_mat, b)
            oracle = tls_infimum_oracle(a_mat, b)
            assert sol.sigma_min**2 == pytest.approx(oracle, abs=1e-7)


class TestMinDirection:
    def test_diagonal(self):
        x, value = min_direction(np.diag([1.0, 1e-8]))
        assert_allclose(np.abs(x), [0.0, 1.0], atol=1e-12)
        assert value == pytest.approx(1e-4, rel=1e-10)

    def test_identity_refuses_nothing_small(self):
        x, value = min_direction(np.eye(3))
        assert value == pytest.approx(1.0)
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_truncated_decay_model(self):
        # w_k a_k^2 = k^-4: at n = 10 the smallest direction value is 1/100
        k = np.arange(1, 11, dtype=float)
        m_mat = np.diag(k**-4.0)
        x, value = min_direction(m_mat)
        assert value == pytest.approx(1.0 / 100.0, rel=1e-12)
        assert_allclose(np.abs(x), np.eye(10)[9], atol=1e-12)

    def test_eigenpair_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            basis = rng.normal(size=(n, n))
            m_mat = basis.T @ basis
            x, value = min_direction(m_mat)
            lam_min = np.linalg.eigvalsh(m_mat)[0]
            assert np.linalg.norm(m_mat @ x - lam_min * x) <= 1e-10 * (1 + lam_min)
            assert abs(value**2 - float(x @ m_mat @ x)) <= 1e-12 * (1 + lam_min)
