import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import qr

from conftest import elementwise_objective
from rtls import (
    ProblemFormatError,
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
    frechet_check,
    is_trivial_rtls,
    is_trivial_tls,
    objective_rtls,
    objective_tls,
    w_hs_seminorm,
    w_vec_seminorm,
)
from rtls.cli import main
from rtls.instances import random_problem, random_weight


def make_problem(A, b, w_diag, rho=1.0):
    return ProblemSpec(
        np.asarray(A, dtype=float),
        np.asarray(b, dtype=float),
        WeightOperator.diagonal(w_diag),
        RegularizerSpec.identity_scaled(rho),
    )


class TestSeminorms:
    def test_identity_weight_is_euclidean(self):
        w = WeightOperator.diagonal(np.ones(2))
        assert w_vec_seminorm(w, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_nullspace_vector_has_zero_seminorm(self):
        w = WeightOperator.diagonal(np.array([0.0, 1.0]))
        assert w_vec_seminorm(w, np.array([7.0, 0.0])) == 0.0

    def test_diagonal_weight_hand_value(self):
        # |W^{1/2} (1,1)| = |(2,3)| = sqrt(13); dense path must agree
        w = WeightOperator.diagonal(np.array([4.0, 9.0]))
        z = np.array([1.0, 1.0])
        assert w_vec_seminorm(w, z) == pytest.approx(math.sqrt(13.0), rel=1e-14)
        w_dense = WeightOperator.dense(np.diag([4.0, 9.0]))
        assert w_vec_seminorm(w_dense, z) == pytest.approx(math.sqrt(13.0), rel=1e-12)

    def test_hs_identity(self):
        w = WeightOperator.diagonal(np.ones(2))
        assert w_hs_seminorm(w, np.eye(2)) == pytest.approx(math.sqrt(2.0))

    def test_hs_zero_weight(self):
        w = WeightOperator.diagonal(np.zeros(2))
        assert w_hs_seminorm(w, np.array([[1.0, 2.0], [3.0, 4.0]])) == 0.0

    def test_hs_hand_value(self):
        # elementwise: 1*(1+1) + 4*(1+1) = 10
        w = WeightOperator.diagonal(np.array([1.0, 4.0]))
        x_mat = np.ones((2, 2))
        assert w_hs_seminorm(w, x_mat) == pytest.approx(math.sqrt(10.0), rel=1e-14)

    def test_seminorm_consistency_with_quadratic_form(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 7))
            w = random_weight(rng, m, kind="dense" if rng.uniform() < 0.5 else "diagonal")
            z = rng.normal(size=m)
            qf = float(w.apply(z) @ z)
            assert_allclose(w_vec_seminorm(w, z) ** 2, qf, rtol=1e-10, atol=1e-12)
            x_mat = rng.normal(size=(m, int(rng.integers(1, 5))))
            tr = float(np.sum(w.apply(x_mat) * x_mat))
            assert_allclose(w_hs_seminorm(w, x_mat) ** 2, tr, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self):
        w = WeightOperator.diagonal(np.ones(3))
        with pytest.raises(ValueError, match="dimension"):
            w_vec_seminorm(w, np.ones(2))


class TestWeightOperator:
    def test_sqrt_roundtrip_dense(self, rng):
        for _ in range(20):
            w = random_weight(rng, 5, kind="dense")
            root = w.apply_sqrt(np.eye(w.dim))
            assert (
                np.linalg.norm(root @ root - w.as_matrix())
                <= 1e-10 * np.linalg.norm(w.as_matrix())
            )

    def test_negative_eigenvalue_within_floor_clamped(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        w_mat = (q * np.array([-1e-14, 0.5, 2.0])) @ q.T
        w = WeightOperator.dense(w_mat)
        # the -1e-14 eigenvalue is clamped; only reassembly roundoff remains
        lam_max = np.linalg.eigvalsh(w.as_matrix())[-1]
        assert np.all(np.linalg.eigvalsh(w.apply_sqrt(np.eye(w.dim))) >= -1e-14 * lam_max)
        z = np.ones(3)
        assert w_vec_seminorm(w, z) >= 0.0

    def test_indefinite_rejected(self):
        with pytest.raises(ProblemFormatError, match="positive semidefinite"):
            WeightOperator.dense(np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ProblemFormatError, match="symmetric"):
            WeightOperator.dense(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ProblemFormatError, match="negative"):
            WeightOperator.diagonal([1.0, -0.1])

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e6])
    def test_checks_are_relative_to_w(self, c):
        # W and cW pass or fail together, for both kinds
        with pytest.raises(ProblemFormatError, match="negative"):
            WeightOperator.diagonal(c * np.array([1.0, -1e-7]))
        with pytest.raises(ProblemFormatError, match="positive semidefinite"):
            WeightOperator.dense(c * np.diag([1.0, -1e-7]))
        with pytest.raises(ProblemFormatError, match="symmetric"):
            WeightOperator.dense(c * np.array([[1.0, 1e-11], [0.0, 1.0]]))
        assert WeightOperator.diagonal(c * np.array([1.0, -1e-13])).data[1] == 0.0
        w = WeightOperator.dense(c * np.array([[1.0, 1e-13], [0.0, -1e-13]]))
        assert w.norm_inf == pytest.approx(c, rel=1e-12)


def _spectral_weight(q, lam):
    """Q diag(lam) Q^T, symmetric to the last bit."""
    w = (q * lam) @ q.T
    return 0.5 * (w + w.T)


def _orthogonal(rng, m):
    return np.linalg.qr(rng.normal(size=(m, m)))[0]


def _norm_inf(w):
    return float(np.max(np.sum(np.abs(w), axis=1)))


def _eigvalsh_rule(w):
    """The PSD rule the Cholesky test replaced: lambda_min >= -1e-12 lambda_max."""
    lam = np.linalg.eigvalsh(w)
    return bool(lam[0] >= -1e-12 * lam[-1])


def _accepted(w):
    try:
        WeightOperator.dense(w)
    except ProblemFormatError as exc:
        assert "positive semidefinite" in str(exc)
        return False
    return True


SIZES = (2, 3, 5, 8, 13, 21, 40)


class TestCholeskyRule:
    """A dense W is PSD when W + 1e-12 |W|_inf I has a Cholesky factor."""

    @staticmethod
    def spectra(rng, m):
        """Nonnegative spectra with lambda_max = 1: spread, clustered, rank-deficient."""
        spread = np.sort(np.concatenate([[1.0], 10.0 ** rng.uniform(-10, 0, m - 1)]))
        cluster = np.sort(np.concatenate([[1.0], rng.uniform(0.5, 1.0, m - 1)]))
        rank = m - m // 2
        low_rank = np.sort(np.concatenate([np.zeros(m // 2), [1.0], rng.uniform(0, 1, rank - 1)]))
        return spread, cluster, low_rank

    def cases(self, seed):
        """(W, accept) pairs: lambda_min = -0.5e-12 lambda_max or -2e-12 |W|_inf."""
        rng = np.random.default_rng(seed)
        for m in SIZES:
            for lam in self.spectra(rng, m):
                q = _orthogonal(rng, m)
                lam[0] = 0.0
                bound = 2e-12 * _norm_inf(_spectral_weight(q, lam)) * (1 + 1e-6)
                for accept, lam_min in ((True, -0.5e-12), (False, -bound)):
                    lam[0] = lam_min
                    yield _spectral_weight(q, lam), accept

    @pytest.mark.parametrize("seed", range(3))
    def test_decides_as_the_eigvalsh_rule(self, seed):
        for w, accept in self.cases(seed):
            assert _eigvalsh_rule(w) is accept
            assert _accepted(w) is accept

    @pytest.mark.parametrize("c", [1e300, 1e-300])
    def test_w_and_cw_decided_alike(self, c):
        for w, accept in self.cases(7):
            assert _accepted(c * w) is accept
            if accept:
                norm = WeightOperator.dense(c * w).norm_inf
                assert norm == pytest.approx(c * _norm_inf(w), rel=1e-14)

    def test_zero_and_rank_deficient_accepted(self):
        rng = np.random.default_rng(11)
        for m in SIZES:
            zero = WeightOperator.dense(np.zeros((m, m)))
            assert zero.norm_inf == 0.0
            assert w_vec_seminorm(zero, np.ones(m)) == 0.0
            for rank in (1, m // 2):
                v = rng.normal(size=(m, rank))
                g = v @ v.T
                w = WeightOperator.dense(0.5 * (g + g.T))
                assert w.norm_inf >= np.linalg.eigvalsh(w.data)[-1] * (1 - 1e-15)

    def test_symmetric_w_keeps_its_bits(self):
        rng = np.random.default_rng(5)
        for m in SIZES:
            w_mat = _spectral_weight(_orthogonal(rng, m), rng.uniform(0, 1, m))
            assert WeightOperator.dense(w_mat).data.tobytes() == w_mat.tobytes()
            signed_zeros = np.where(np.eye(m) > 0, rng.uniform(0, 1, (m, m)), -0.0)
            w = WeightOperator.dense(signed_zeros)
            assert w.data.tobytes() == signed_zeros.tobytes()
        # W + W^T would overflow here
        big = np.diag([1.5e308, 1.0])
        w = WeightOperator.dense(big)
        assert w.data.tobytes() == big.tobytes()
        assert w.norm_inf == 1.5e308

    def test_asymmetry_near_the_largest_double(self, tmp_path, capsys):
        # W - W^T and W + W^T overflow here; the test runs on W / max|W|
        asym = [[1e308, -1e308], [1e308, 1e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProblemFormatError, match="'W.data' is not symmetric"):
                WeightOperator.dense(asym)
            path = tmp_path / "p.json"
            path.write_text(json.dumps({
                "A": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "b": [1, 2],
                "W": {"kind": "dense", "rows": 2, "cols": 2, "data": sum(asym, [])},
                "T": {"kind": "identity_scaled", "rho": 1},
            }))
            assert main(["solve", "--problem", str(path)]) == 1
            assert "field 'W.data'" in capsys.readouterr().err
            # an asymmetry within the tolerance is averaged without overflow
            near = np.array([[1.5e308, 1e308], [np.nextafter(1e308, 0.0), 1.5e308]])
            w = WeightOperator.dense(near)
        assert w.data.tobytes() == (0.5 * near + 0.5 * near.T).tobytes()
        assert np.array_equal(w.data, w.data.T)

    def test_norm_inf_is_max_w_on_diagonals(self):
        w = np.array([0.25, 3.0, 1e-9, 0.0])
        assert WeightOperator.diagonal(w).norm_inf == 3.0
        assert WeightOperator.dense(np.diag(w)).norm_inf == 3.0


class TestProblemSpec:
    def test_shape_validation(self):
        with pytest.raises(ProblemFormatError, match="'b'"):
            make_problem(np.eye(2), [1.0, 2.0, 3.0], np.ones(2))
        with pytest.raises(ProblemFormatError, match="'W'"):
            make_problem(np.eye(2), [1.0, 2.0], np.ones(3))
        with pytest.raises(ProblemFormatError, match="'T'"):
            ProblemSpec(
                np.eye(2),
                np.ones(2),
                WeightOperator.diagonal(np.ones(2)),
                RegularizerSpec.dense(np.ones((1, 3))),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ProblemFormatError, match="non-finite"):
            make_problem(np.array([[np.nan, 0.0], [0.0, 1.0]]), [1.0, 2.0], np.ones(2))

    def test_rho_positive(self):
        with pytest.raises(ProblemFormatError, match="rho"):
            RegularizerSpec.identity_scaled(0.0)

    def test_dense_gram_formed_once(self, rng):
        t_mat = rng.normal(size=(3, 4))
        reg = RegularizerSpec.dense(t_mat)
        assert reg.gram(4) is reg.gram(4)
        assert np.array_equal(reg.gram(4), t_mat.T @ t_mat)


class TestObjectives:
    def test_trivial_pair_vanishes(self):
        p = make_problem(np.eye(2), [1.0, 2.0], np.ones(2))
        x = np.array([1.0, 2.0])
        assert objective_tls(p, p.A, x) == pytest.approx(0.0, abs=1e-30)

    def test_only_data_term_survives(self):
        p = make_problem(np.zeros((1, 1)), [1.0], np.ones(1))
        assert objective_rtls(p, np.zeros((1, 1)), np.zeros(1)) == pytest.approx(1.0)

    def test_x_zero_gives_weighted_b_norm(self):
        p = make_problem(np.eye(2), [3.0, 4.0], np.array([2.0, 1.0]))
        expected = 2.0 * 9.0 + 1.0 * 16.0
        assert objective_tls(p, p.A, np.zeros(2)) == pytest.approx(expected)

    def test_matches_elementwise_oracle(self, rng):
        for _ in range(30):
            p = random_problem(rng, 3, m=3)
            x_mat = rng.normal(size=(3, 3))
            x = rng.normal(size=3)
            assert_allclose(
                objective_rtls(p, x_mat, x),
                elementwise_objective(p, x_mat, x),
                rtol=1e-10,
            )
            assert_allclose(
                objective_tls(p, x_mat, x),
                elementwise_objective(p, x_mat, x, regularized=False),
                rtol=1e-10,
            )

    def test_dimension_mismatch(self, rng):
        p = random_problem(rng, 3, m=4)
        with pytest.raises(ValueError, match="shape"):
            objective_tls(p, np.zeros((3, 3)), np.zeros(3))


class TestTriviality:
    def test_b_in_range(self):
        p = make_problem([[1.0, 0.0], [2.0, 1.0]], [1.0, 3.0], [1.0, 2.0])
        flag, witness = is_trivial_tls(p, 1e-10)
        assert flag
        assert_allclose(p.A @ witness, p.b, atol=1e-10)

    def test_b_in_weight_nullspace(self):
        p = make_problem(np.zeros((2, 1)), [0.0, 5.0], [1.0, 0.0])
        flag, witness = is_trivial_tls(p, 1e-10)
        assert flag
        assert objective_tls(p, p.A, witness) <= 10 * (1e-10) ** 2

    def test_orthogonal_residual_not_trivial(self):
        # residual of (0,1) against span{(1,0)} is exactly 1
        p = make_problem([[1.0], [0.0]], [0.0, 1.0], [1.0, 1.0])
        flag, witness = is_trivial_tls(p, 1e-6)
        assert not flag and witness is None
        # normal-equations oracle: QR projection residual
        wa = p.W.apply_sqrt(p.A)
        q_mat, _ = qr(wa, mode="economic")
        wb = p.W.apply_sqrt(p.b)
        resid = np.linalg.norm(wb - q_mat @ (q_mat.T @ wb))
        assert resid == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
    def test_residual_is_relative_to_b(self, s):
        # b misses R(A) by 1e-4 of |b|, and A(N(T)) likewise: nontrivial at
        # every scale of (A, b, T)
        p = make_problem([[s], [0.0]], [s, 1e-4 * s], [1.0, 1.0])
        assert not is_trivial_tls(p, 1e-10)[0]
        t_mat = s * np.array([[0.0, 1.0]])
        p = ProblemSpec(
            s * np.array([[1.0, 0.0], [0.0, 1.0]]), s * np.array([1.0, 1e-4]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(t_mat),
        )
        assert not is_trivial_rtls(p)[0]
        p = ProblemSpec(p.A, s * np.array([1.0, 0.0]), p.W, p.T)
        assert is_trivial_rtls(p)[0]

    def test_zero_b_w_norm_is_trivial_for_every_t(self):
        # b spans N(W) of a rotated W, where W^{1/2} b rounds to nonzero
        rot = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
        weight = WeightOperator.dense(rot @ np.diag([1.0, 0.0]) @ rot.T)
        for t in (np.eye(2), np.ones((1, 2))):
            p = ProblemSpec(np.eye(2), rot[:, 1], weight, RegularizerSpec.dense(t))
            assert p.b_norm_w_sq == 0.0
            flag, witness = is_trivial_rtls(p)
            assert flag and np.array_equal(witness, np.zeros(2))

    def test_rtls_injective_regularizer(self):
        p = make_problem(np.eye(2), [3.0, 4.0], np.ones(2), rho=2.0)
        flag, _ = is_trivial_rtls(p)
        assert not flag

    def test_rtls_nullspace_direction(self):
        # N(T) = span(e1) and b = A e1
        t_mat = np.array([[0.0, 1.0]])
        p = ProblemSpec(
            np.array([[2.0, 1.0], [0.0, 3.0]]),
            np.array([2.0, 0.0]),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.dense(t_mat),
        )
        flag, witness = is_trivial_rtls(p)
        assert flag
        assert objective_rtls(p, p.A, witness) <= 10 * (1e-10) ** 2

    @pytest.mark.parametrize("s", [1e10, 1e11, 1e200])
    def test_rtls_witness_needs_g_near_zero(self, s):
        # T = diag(s, 1): a cutoff relative to |T|_2 counts e2 as null and
        # b = A (0, 2), but that witness has G = |Tw|^2 = 4 against |b|_W^2 = 5
        p = ProblemSpec(
            np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 2.0]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(np.diag([s, 1.0])),
        )
        assert is_trivial_rtls(p) == (False, None)

    def test_rtls_witness_in_a_shrunk_direction(self):
        # a direction that T shrinks to 1e-11 of |T|_2 gives G = 1e-22 |b|_W^2
        p = ProblemSpec(
            np.eye(2), np.array([0.0, 1.0]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(np.diag([1.0, 1e-11])),
        )
        flag, witness = is_trivial_rtls(p)
        assert flag and objective_rtls(p, p.A, witness) <= 1e-10 * p.b_norm_w_sq

    def test_rtls_t_without_rows_is_null_everywhere(self):
        p = ProblemSpec(
            np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([4.0, 6.0]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(np.zeros((0, 2))),
        )
        flag, witness = is_trivial_rtls(p)
        assert flag and np.allclose(witness, [1.0, 2.0])

    def test_rtls_takes_one_svd_and_no_fit_for_a_full_rank_t(self, rng, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("svd", "norm", "lstsq"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        p = ProblemSpec(
            rng.normal(size=(4, 3)), rng.normal(size=4), WeightOperator.diagonal(np.ones(4)),
            RegularizerSpec.dense(rng.normal(size=(3, 3)) + 3 * np.eye(3)),
        )
        assert is_trivial_rtls(p) == (False, None)
        assert calls == ["svd"]

    def test_rtls_full_rank_dense_reduces_to_weight_nullspace(self, rng):
        t_mat = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        a_mat = rng.normal(size=(2, 3))
        p_no = ProblemSpec(
            a_mat, np.array([1.0, 1.0]),
            WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(t_mat),
        )
        assert not is_trivial_rtls(p_no)[0]
        p_yes = ProblemSpec(
            a_mat, np.array([0.0, 1.0]),
            WeightOperator.diagonal(np.array([1.0, 0.0])), RegularizerSpec.dense(t_mat),
        )
        assert is_trivial_rtls(p_yes)[0]

    def test_triviality_soundness(self, rng):
        # every returned witness achieves an objective <= 10 tol^2
        tol = 1e-10
        for _ in range(30):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a_mat = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            p = ProblemSpec(
                a_mat, a_mat @ x0,
                random_weight(rng, m), RegularizerSpec.identity_scaled(1.0),
            )
            flag, witness = is_trivial_tls(p, tol)
            assert flag
            assert objective_tls(p, p.A, witness) <= 10 * tol**2


class TestFrechetCheck:
    def test_zero_direction(self):
        w = WeightOperator.diagonal(np.ones(2))
        err_big, err_small = frechet_check(
            w, w, np.ones(2), np.eye(2), np.zeros((2, 2)), 1e-5
        )
        assert err_big == 0.0 and err_small == 0.0

    def test_identity_hand_value(self):
        # d/ds |X + s Y|_F^2 at 0 with X = Y = I is 2 tr(I) = 4
        w = WeightOperator.diagonal(np.ones(2))
        x_mat = np.eye(2)
        analytic = 2.0 * np.trace(x_mat.T @ w.as_matrix() @ x_mat)
        assert analytic == pytest.approx(4.0)
        err_big, _ = frechet_check(w, w, np.ones(2), x_mat, x_mat, 1e-5)
        assert err_big <= 1e-10

    def test_random_instances(self, rng):
        for _ in range(100):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            w1 = random_weight(rng, m)
            w2 = random_weight(rng, m)
            x_mat = rng.normal(size=(m, n))
            y_mat = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            err_big, err_small = frechet_check(w1, w2, x0, x_mat, y_mat, 1e-5)
            assert err_big <= 1e-6 and err_small <= 1e-6

    def test_richardson_halving_agrees(self, rng):
        # both functionals are quadratic: halving the step cannot move the
        # central difference beyond roundoff
        w1 = random_weight(rng, 4)
        w2 = random_weight(rng, 4)
        x_mat = rng.normal(size=(4, 3))
        y_mat = rng.normal(size=(4, 3))
        x0 = rng.normal(size=3)
        coarse = frechet_check(w1, w2, x0, x_mat, y_mat, 1e-4)
        fine = frechet_check(w1, w2, x0, x_mat, y_mat, 5e-5)
        assert abs(coarse[0] - fine[0]) <= 1e-8
        assert abs(coarse[1] - fine[1]) <= 1e-8
