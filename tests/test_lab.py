import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rtls.cli
from oracles import (
    default_diagonal_model,
    default_rtls_nonexistence_model,
    default_tls_nonexistence_model,
)
from rtls.cli import main
from rtls.lab import (
    DiagonalAudit,
    DiagonalModel,
    IntegralModel,
    SweepRow,
    _h_value,
    diagonal_problem,
    load_model_file,
    model_from_dict,
    nonexistence_rtls_sequence,
    nonexistence_tls_sequence,
    weak_continuity_demo,
)
from rtls.model import (
    PairReport,
    ProblemFormatError,
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
)


class TestModels:
    def test_sequence_forms(self):
        model = model_from_dict({"a": "1/k^2", "w": 0.5, "b": [1.0], "rho": 1.0})
        p = model.build(4)
        assert_allclose(np.diag(p.A), [1.0, 0.25, 1.0 / 9.0, 0.0625])
        assert_allclose(p.W.data, 0.5 * np.ones(4))

    @pytest.mark.parametrize("reg", ["rho", "t"])
    def test_model_file_float_lists(self, tmp_path, reg):
        # read_json hands the explicit lists over as float arrays
        spec = {"a": [1.5, 0.5, 0.25, 0.125, 2.5], "w": [0.5, 1.5, 1.0, 2.0, 0.75],
                "b": [1.0, -0.5], reg: 0.7 if reg == "rho" else [0.5, 0.25, 0.125, 1.5, 1.0]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        model = load_model_file(path)
        assert isinstance(model.a, np.ndarray) and isinstance(model.b, np.ndarray)
        for n in (3, 5):
            got, want = model.build(n), model_from_dict(spec).build(n)
            for name in ("A", "b"):
                assert_array_equal(getattr(got, name), getattr(want, name))
            assert_array_equal(got.W.data, want.W.data)
            assert got.T.kind == want.T.kind and got.origin == want.origin
            if reg == "t":
                assert_array_equal(got.T.matrix, want.T.matrix)
            else:
                assert got.T.rho == want.T.rho

    def test_explicit_list_too_short(self):
        model = DiagonalModel([1.0, 2.0], [1.0, 1.0], [1.0], rho=1.0)
        with pytest.raises(ProblemFormatError, match="at least"):
            model.build(3)

    def test_zeroed_head_formula(self):
        model = default_tls_nonexistence_model()
        p = model.build(5)
        diag = np.diag(p.A)
        assert diag[0] == 0.0
        assert_allclose(diag[1:], [0.5, 1.0 / 3.0, 0.25, 0.2])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProblemFormatError, match="unknown model keys"):
            model_from_dict({"a": "1/k", "w": "1/k", "b": [1.0], "rho": 1.0, "zz": 1})

    def test_rho_and_t_mutually_exclusive(self):
        with pytest.raises(ProblemFormatError, match="exactly one"):
            DiagonalModel("1/k", "1/k", [1.0], rho=1.0, t="1/k")
        with pytest.raises(ProblemFormatError, match="exactly one"):
            DiagonalModel("1/k", "1/k", [1.0])

    def test_integral_model_shapes(self):
        model = IntegralModel("named:gaussian", rho=2.0)
        p = model.build(6)
        assert p.A.shape == (6, 6)
        assert p.origin == {"model_kind": "integral", "truncation_order": 6}

    @pytest.mark.parametrize("rho", [-1.0, 0.0, math.inf, math.nan])
    def test_rho_must_be_positive_and_finite(self, rho):
        # a model file has no 'T': the field it names is 'rho'
        for spec in ({"a": "1/k", "w": 1.0, "b": [1.0], "rho": rho},
                     {"kernel": "named:gaussian", "rho": rho}):
            with pytest.raises(ProblemFormatError, match="field 'rho' must be a positive real"):
                model_from_dict(spec)

    def test_integral_negative_weight_names_the_model_field(self):
        # the diagonal model's text is pinned through both demos in test_cli
        model = model_from_dict({"kernel": "named:gaussian", "w": [1.0, -0.5, 1.0, 1.0]})
        with pytest.raises(ProblemFormatError, match="field 'w' has a negative diagonal weight"):
            model.build(4)

    def test_null_rho_is_absent(self):
        assert model_from_dict({"kernel": "named:gaussian", "rho": None}).rho == 1.0
        with pytest.raises(ProblemFormatError, match="exactly one"):
            model_from_dict({"a": "1/k", "w": 1.0, "b": [1.0], "rho": None})
        model = model_from_dict({"a": "1/k", "w": 1.0, "b": [1.0], "rho": None, "t": "1/k"})
        assert model.rho is None and model.build(3).T.kind == "dense"

    def test_unknown_kernel(self):
        with pytest.raises(ProblemFormatError, match="kernel"):
            IntegralModel("named:nope")


class TestNonexistenceTls:
    def test_default_model_bounds(self):
        p = default_tls_nonexistence_model().build(100)
        result = nonexistence_tls_sequence(p, [1e-2])
        assert len(result.points) == 1
        pt = result.points[0]
        # |W^{1/2} b| = 1 by hand, so the bound is eps^2 (1+1)^2 = 4e-4
        assert pt.bound == pytest.approx(4e-4, rel=1e-12)
        assert pt.objective <= pt.bound
        assert pt.interp_residual <= 1e-12

    def test_trivial_instance_refused(self):
        p = default_diagonal_model().build(50)  # invertible A: b = A e1
        with pytest.raises(ValueError, match="trivial"):
            nonexistence_tls_sequence(p, [1e-2])

    def test_eps_halving_decay(self):
        p = default_tls_nonexistence_model().build(100)
        eps = [0.1 / 2**k for k in range(5)]
        result = nonexistence_tls_sequence(p, eps)
        objs = [pt.objective for pt in result.points]
        for big, small in zip(objs, objs[1:]):
            assert small <= 0.3 * big

    def test_all_small_eps_raises(self):
        # nontrivial tall instance whose minimal direction value 1e-3 is not
        # below any requested eps: the construction must refuse
        p = ProblemSpec(
            np.array([[1e-3], [0.0]]),
            np.array([0.0, 1.0]),
            WeightOperator.diagonal(np.ones(2)),
            RegularizerSpec.identity_scaled(1.0),
        )
        with pytest.raises(RuntimeError, match="construction unavailable"):
            nonexistence_tls_sequence(p, [1e-4, 1e-5])
        seq = nonexistence_tls_sequence(p, [1e-4, 0.5])
        assert [pt.eps for pt in seq.points] == [0.5]
        assert [skip.eps for skip in seq.skipped] == [1e-4]


class TestInterpolationCheck:
    """The interpolation residual is bounded relative to the terms that cancel."""

    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("model, run", [
        (lambda s: IntegralModel("named:gaussian", b=(s,)), nonexistence_tls_sequence),
        (lambda s: DiagonalModel({"formula": "1/k", "zeros": 1}, "1/k^2", (s,), rho=1.0),
         nonexistence_tls_sequence),
        (lambda s: DiagonalModel("1/k", "1/k^2", (s,), t="1/k^2"), nonexistence_rtls_sequence),
    ], ids=["gaussian-tls", "diagonal-tls", "diagonal-rtls"])
    def test_data_scale_and_small_eps(self, model, run, s):
        eps_list = [10.0**-k for k in range(1, 9)]
        result = run(model(s).build(40), eps_list)
        assert result.points
        for pt in result.points:
            assert pt.interp_residual <= 1e-12 * max(s, 1.0 / pt.eps)

    def test_fit_term_rounding_may_exceed_the_bound(self):
        # at eps = 1e-9 the bound 4e-18 lies below the fit term |X0 (x/eps) - b|_W^2,
        # the squared rounding of a difference of terms near 1/eps: it is allowed on top
        model = model_from_dict({"kernel": "named:gaussian", "w": "1/k^2", "b": [1.0], "rho": 1.0})
        (pt,) = nonexistence_tls_sequence(model.build(60), [1e-9]).points
        # W = 1/k^2 <= 1, so the fit term is at most 60 interp_residual^2
        assert pt.bound < pt.objective <= pt.bound * (1 + 1e-8) + 60 * pt.interp_residual**2
        assert pt.interp_residual <= 1e-12 / pt.eps

    def test_default_gaussian_at_small_eps(self):
        # the absolute 1e-12 rule rejected a 3.6e-12 residual here
        result = nonexistence_tls_sequence(IntegralModel("named:gaussian").build(200), [1e-6])
        assert len(result.points) == 1


class TestNonexistenceRtls:
    def test_default_model_bounds(self):
        p = default_rtls_nonexistence_model().build(200)
        result = nonexistence_rtls_sequence(p, [0.1, 0.01, 0.001, 0.0001])
        assert result.direction_value == pytest.approx(math.sqrt(2.0) / 200**2, rel=1e-12)
        assert [pt.eps for pt in result.points] == [0.1, 0.01]
        assert [skip.eps for skip in result.skipped] == [0.001, 0.0001]
        bound_01 = 0.01 * (1.0 + (1.0 + 0.01) ** 2)
        assert result.points[0].bound == pytest.approx(bound_01, rel=1e-12)
        for pt in result.points:
            assert pt.objective <= pt.bound * (1 + 1e-8)
            assert pt.interp_residual <= 1e-12

    def test_identity_scaled_floor_refuses(self):
        p = default_diagonal_model(rho=0.25).build(20)
        # T^T T + A^T W A >= rho I: direction value >= 0.5 >= eps^2
        with pytest.raises(RuntimeError, match="bounded below"):
            nonexistence_rtls_sequence(p, [0.5])

    def test_objectives_vanish_along_eps(self):
        p = default_rtls_nonexistence_model().build(400)
        eps = [0.2 / 2**k for k in range(6)]
        result = nonexistence_rtls_sequence(p, eps)
        objs = [pt.objective for pt in result.points]
        assert len(objs) >= 4
        assert objs[-1] <= 1e-2 * objs[0]


def _demo(tmp_path, demo, spec, orders):
    """The JSON artifact of ``rtls demo <demo>`` on the model file ``spec``."""
    (tmp_path / "model.json").write_text(json.dumps(spec))
    out = tmp_path / "artifact.json"
    assert main(["demo", demo, "--model", str(tmp_path / "model.json"),
                 "--N", ",".join(map(str, orders)), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _diagonal(tmp_path, spec, n):
    """The pair report and audit ``rtls demo diagonal`` writes at order n."""
    artifact = _demo(tmp_path, "diagonal", spec, [n])
    audit = DiagonalAudit(**artifact.pop("audit"))
    return PairReport(**{**artifact, "x": np.array(artifact["x"])}), audit


def _sweep(tmp_path, spec, orders):
    """The rows ``rtls demo sweep`` writes for the given truncation orders."""
    return [SweepRow(**row) for row in _demo(tmp_path, "sweep", spec, orders)["rows"]]


# default_diagonal_model(rho) and default_rtls_nonexistence_model() as model files
def _default_diagonal(rho):
    return {"a": "1/k", "w": "1/k^2", "b": [1.0], "rho": rho}


_DEFAULT_RTLS_NONEXISTENCE = {"a": "1/k", "w": "1/k^2", "b": [1.0], "t": "1/k^2"}


class TestDiagonalSolve:
    def test_zero_data(self, tmp_path):
        spec = {"a": [1.0] * 4, "w": [1.0] * 4, "b": [0.0, 0.0], "rho": 1.0}
        report, audit = _diagonal(tmp_path, spec, 4)
        assert report.objective == 0.0
        assert audit.tail_mass_fraction == 0.0

    def test_head_supported_certified(self, tmp_path):
        # rho = 2 >= |b|_W^2 = 1 certifies uniqueness; no tail mass
        report, audit = _diagonal(
            tmp_path, {"a": [1.0] * 6, "w": [1.0] * 6, "b": [1.0, 0.0], "rho": 2.0}, 6
        )
        assert report.status == "solved"
        assert audit.tail_mass_fraction <= 1e-8
        assert audit.critical_condition_ok
        # grid oracle over the single live coordinate
        s = np.linspace(0.0, 1.0, 200001)
        vals = ((s - 1.0) ** 2) / (1.0 + s**2) + 2.0 * s**2
        assert report.objective == pytest.approx(float(np.min(vals)), abs=1e-9)

    def test_matches_two_variable_grid_oracle(self, tmp_path):
        # the minimizer lives on (alpha_1, |s|); a dense grid over the pooled
        # objective h must reproduce the reported value, with |s*| = 0
        spec = {"a": [1.0] * 6, "w": [1.0] * 6, "b": [1.0, 0.0], "rho": 2.0}
        report, _ = _diagonal(tmp_path, spec, 6)
        alphas = np.linspace(0.0, 1.0, 1201)
        tails = np.linspace(0.0, 1.0, 1201)
        grid_a, grid_s = np.meshgrid(alphas, tails, indexing="ij")
        norm_sq = grid_a**2 + grid_s**2
        h = (grid_a - 1.0) ** 2 / (1.0 + norm_sq) + 2.0 * norm_sq
        i, j = np.unravel_index(np.argmin(h), h.shape)
        assert report.objective == pytest.approx(float(h[i, j]), abs=1e-6)
        assert tails[j] == 0.0

    def test_pooled_mass_invariance(self, tmp_path):
        # w_1 a_1 = 0: moving mass between coordinate 1 and the tail leaves
        # the pooled objective unchanged
        a = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        w = np.ones(5)
        b_head = np.array([1.0, 2.0])
        spec = {"a": a.tolist(), "w": w.tolist(), "b": b_head.tolist(), "rho": 1.0}
        report, audit = _diagonal(tmp_path, spec, 5)
        assert audit.zero_indices == [0]
        assert audit.rebalance_gap is not None and audit.rebalance_gap <= 1e-10
        for mass in (0.3, 0.7, 1.9):
            on_head = _h_value(w[:2], a[:2], b_head, np.array([mass, report.x[1]]), 0.0, 1.0)
            on_tail = _h_value(w[:2], a[:2], b_head, np.array([0.0, report.x[1]]), mass**2, 1.0)
            assert on_head == pytest.approx(on_tail, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        _DEFAULT_RTLS_NONEXISTENCE, {"kernel": "named:gaussian"},
    ], ids=["dense-t", "integral"])
    def test_needs_diagonal_model_with_rho(self, tmp_path, capsys, monkeypatch, spec):
        # refused before any solve
        monkeypatch.setattr(rtls.cli, "solve_problem", None)
        (tmp_path / "model.json").write_text(json.dumps(spec))
        assert main(["demo", "diagonal", "--model", str(tmp_path / "model.json"), "--N", "4"]) == 1
        assert capsys.readouterr().err == (
            "error: the diagonal demo needs a diagonal model with a scaled-identity 'rho'\n"
        )
        with pytest.raises(ProblemFormatError, match=(
            "^the diagonal demo needs a diagonal model with a scaled-identity 'rho'$"
        )):
            diagonal_problem(model_from_dict(spec), 4)

    def test_head_support_violation_raises(self, tmp_path, capsys):
        spec = {"a": [1.0] * 2, "w": [1.0] * 2, "b": [1.0] * 3, "rho": 1.0}
        (tmp_path / "model.json").write_text(json.dumps(spec))
        assert main(["demo", "diagonal", "--model", str(tmp_path / "model.json"), "--N", "2"]) == 1
        assert "truncation order" in capsys.readouterr().err


class TestTruncationSweep:
    def test_certified_every_row(self, tmp_path):
        rows = _sweep(tmp_path, _default_diagonal(1.2), [2, 4, 8])
        assert all(r.status == "solved" for r in rows)

    def test_head_supported_t_star_stabilizes(self, tmp_path):
        rows = _sweep(tmp_path, _default_diagonal(0.8), [1, 2, 4, 8, 16])
        values = [r.objective for r in rows]
        for a, b in zip(values, values[1:]):
            assert abs(a - b) <= 1e-8 * (1.0 + abs(a))

    def test_intro_model_objectives_decay_while_rows_solve(self, tmp_path):
        model = default_rtls_nonexistence_model()
        rows = _sweep(tmp_path, _DEFAULT_RTLS_NONEXISTENCE, [4, 8, 16, 32])
        objs = [r.objective for r in rows]
        assert all(np.isfinite(o) for o in objs)
        assert objs[-1] <= 0.5 * objs[0]
        # feasible points from the unattained-infimum construction dominate
        # the infimum and also decay
        for n, row in zip([4, 8, 16, 32], rows):
            p = model.build(n)
            value = math.sqrt(2.0) / n**2
            eps = math.sqrt(2.0 * value)
            seq = nonexistence_rtls_sequence(p, [eps])
            assert row.objective <= seq.points[0].objective + 1e-12

    def test_strictly_increasing_orders_required(self, tmp_path, capsys):
        (tmp_path / "model.json").write_text(json.dumps(_default_diagonal(1.0)))
        with pytest.raises(SystemExit) as exc:
            main(["demo", "sweep", "--model", str(tmp_path / "model.json"), "--N", "4,4"])
        assert exc.value.code == 1
        assert "increasing" in capsys.readouterr().err

    def test_integral_model_rows_solve(self, tmp_path):
        rows = _sweep(tmp_path, {"kernel": "named:gaussian", "rho": 2.0}, [5, 9])
        assert all(r.status == "solved" for r in rows)


class TestWeakContinuity:
    def test_persistent_gap(self):
        rows = weak_continuity_demo([1, 2, 8, 32])
        for row in rows:
            assert abs(row.integral - 7.0 * math.pi) <= 1e-8
            assert abs(row.limit_integral - 8.0 * math.pi) <= 1e-12

    def test_antiderivative_cross_check(self):
        # 8 pi - [t/2 + sin(2t)/4] over one period = 7 pi
        upper = 2.0 * math.pi
        analytic = 8.0 * math.pi - (upper / 2.0 + math.sin(2.0 * upper) / 4.0)
        assert analytic == pytest.approx(7.0 * math.pi, rel=1e-15)
        rows = weak_continuity_demo([1])
        assert rows[0].integral == pytest.approx(analytic, abs=1e-10)

    def test_integral_independent_of_n(self):
        rows = weak_continuity_demo([1, 2, 4, 8, 16, 32])
        base = rows[0].integral
        for row in rows[1:]:
            assert abs(row.integral - base) <= 1e-10

    # the demo takes 64 max(n) + 1 nodes
    @pytest.mark.parametrize("n_list, nodes", [
        ([1, 2, 8, 128], 8193), ([1, 2], 129), ([1, 2, 4], 257),
    ])
    def test_matches_scipy_simpson(self, n_list, nodes):
        simpson = pytest.importorskip("scipy.integrate").simpson
        t = np.linspace(0.0, 2.0 * math.pi, nodes)
        for row in weak_continuity_demo(n_list):
            reference = simpson((2.0 + np.cos(row.n * t)) * (2.0 - np.cos(row.n * t)), x=t)
            assert abs(row.integral - reference) <= 4 * np.spacing(reference)
            reference = simpson(np.full_like(t, 4.0), x=t)
            assert abs(row.limit_integral - reference) <= 4 * np.spacing(reference)
