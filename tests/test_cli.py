import argparse
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtls import ProblemSpec, RegularizerSpec, WeightOperator
from rtls.cli import COMMANDS, build_parser, main
from rtls.instances import closed_form_problem, random_problem
from rtls.lab import load_model_file
from rtls import io as rio


@pytest.fixture
def workdir(tmp_path):
    rio.save_problem(tmp_path / "closedform.json", closed_form_problem())
    rio.save_problem(tmp_path / "certified.json", closed_form_problem(rho=30.0))
    trivial = ProblemSpec(
        np.zeros((2, 2)),
        np.array([0.0, 5.0]),
        WeightOperator.diagonal([1.0, 0.0]),
        RegularizerSpec.identity_scaled(2.0),
    )
    rio.save_problem(tmp_path / "trivial.json", trivial)
    # rho = 0.02 |b|_W^2 with a tall A: the multiplier beta* is negative
    rio.save_problem(
        tmp_path / "negative_beta.json",
        random_problem(np.random.default_rng(5), 3, m=6, rho_factor=0.02),
    )
    base = random_problem(np.random.default_rng(9), 4, m=6)
    dense_t = RegularizerSpec.dense(np.random.default_rng(10).normal(size=(4, 4)))
    rio.save_problem(tmp_path / "dense_t.json", ProblemSpec(base.A, base.b, base.W, dense_t))
    (tmp_path / "diag_default.json").write_text(json.dumps(
        {"a": {"formula": "1/k", "zeros": 1}, "w": "1/k^2", "b": [1.0], "rho": 1.0}
    ))
    (tmp_path / "diag_rtls.json").write_text(json.dumps(
        {"a": "1/k", "w": "1/k^2", "b": [1.0], "t": "1/k^2"}
    ))
    (tmp_path / "diag_b_e1.json").write_text(json.dumps(
        {"a": "1/k", "w": "1/k^2", "b": [1.0], "rho": 1.2}
    ))
    return tmp_path


class TestSolveCommand:
    def test_certified_exit_zero(self, workdir):
        out = workdir / "rep.json"
        code = main(["solve", "--problem", str(workdir / "certified.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "solved"

    def test_closed_form_report(self, workdir):
        out = workdir / "rep.json"
        code = main(["solve", "--problem", str(workdir / "closedform.json"), "--out", str(out)])
        assert code == 2  # rho = 1 < t* = 9: heuristic
        report = json.loads(out.read_text())
        assert report["status"] == "heuristic"
        assert report["objective"] == pytest.approx(9.0, abs=1e-6)

    def test_trivial_exit_zero(self, workdir):
        out = workdir / "rep.json"
        code = main(["solve", "--problem", str(workdir / "trivial.json"), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "trivial"

    def test_dense_w_solve_makes_one_eigh(self, workdir, monkeypatch):
        # W's PSD check takes eigenvalues only and its root is never needed:
        # the one eigh is that of A^T W A
        p = random_problem(np.random.default_rng(3), 5, m=7, weight_kind="dense")
        rio.save_problem(workdir / "dense_w.json", p)
        shapes, real_eigh = [], np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        out = workdir / "rep.json"
        assert main(["solve", "--problem", str(workdir / "dense_w.json"), "--out", str(out)]) == 0
        assert shapes == [(5, 5)]

    def test_parse_error_exit_one(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"A": {"rows": 1, "cols": 1, "data": [NaN]}, "b": [1.0],'
                       ' "W": {"kind": "diagonal", "data": [1.0]},'
                       ' "T": {"kind": "identity_scaled", "rho": 1.0}}')
        code = main(["solve", "--problem", str(bad)])
        assert code == 1
        assert "A.data" in capsys.readouterr().err

    def test_missing_file_exit_one(self, workdir, capsys):
        missing = str(workdir / "nope.json")
        assert main(["solve", "--problem", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_non_utf8_file_names_path_exit_one(self, workdir, capsys):
        utf16 = workdir / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        assert main(["solve", "--problem", str(utf16)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: input file {utf16} is not UTF-8: invalid start byte at byte 0\n"

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"A": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"b": "\\u005b", "A": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["array", "field", "escaped"])
    def test_deep_nesting_exit_one(self, workdir, capsys, text):
        # the first two reach the per-array skeleton parse, the escaped one
        # only the whole-file parse
        deep = workdir / "deep.json"
        deep.write_text(text)
        assert main(["solve", "--problem", str(deep)]) == 1
        assert capsys.readouterr().err == f"error: invalid JSON in {deep}: nesting too deep\n"

    def test_deterministic_bytes(self, workdir):
        out1, out2 = workdir / "a.json", workdir / "b.json"
        argv = ["solve", "--problem", str(workdir / "certified.json")]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "name", ["closedform", "certified", "trivial", "negative_beta"]
    )
    def test_meta_duality_gap(self, workdir, name):
        out = workdir / "rep.json"
        main(["solve", "--problem", str(workdir / f"{name}.json"), "--out", str(out)])
        meta = json.loads(out.read_text())["meta"]
        assert meta["dual_steps"] >= 0
        assert abs(meta["t_star"] - meta["t_dual"]) <= 1e-12 * (1.0 + meta["t_star"])

    @pytest.mark.parametrize("field, value, named", [
        ("b", {"x": 1}, "'b'"),
        ("b", ["1.0", 2.0], "'b'"),
        ("A", {"rows": "2", "cols": 2, "data": [0.0] * 4}, "'A.rows'"),
        ("A", {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]}, "'A.data'"),
        ("W", {"kind": "diagonal", "data": [None, 1.0]}, "'W.data'"),
        ("T", {"kind": "identity_scaled", "rho": {"v": 1.0}}, "'T.rho'"),
        ("W", {"kind": "diagonal", "data": [True, 1.0]}, "'W.data'"),
        ("A", {"rows": 2, "cols": 2, "data": [0.0, False, 0.0, 0.0]}, "'A.data'"),
    ])
    def test_wrong_json_type_exit_one(self, workdir, capsys, field, value, named):
        obj = rio.problem_to_dict(closed_form_problem())
        obj[field] = value
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["solve", "--problem", str(bad)]) == 1
        assert named in capsys.readouterr().err

    def test_dense_t_heuristic_exit_two(self, workdir):
        out = workdir / "rep.json"
        code = main(["solve", "--problem", str(workdir / "dense_t.json"), "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["status"] == "heuristic"
        assert "starts" not in report["meta"]
        assert report["residual_normal_eq"] <= 1e-12
        search = report["meta"]["alpha_search"]
        assert list(search) == ["doublings", "trs_solves", "hit_cap", "alpha", "refined"]
        assert 0 < search["trs_solves"] <= 2
        assert search["hit_cap"] is False
        # the Hermite point and the polished |x|^2 share a cell of the grid the
        # search used: here the polish from the 16-point scan converges, so
        # that scan is the grid
        p = rio.load_problem(workdir / "dense_t.json")
        assert search["doublings"] == 0 and search["refined"] is False
        sigma = p.T.svd[0]
        u_max = math.log1p(p.b_norm_w_sq / (sigma[-1] * sigma[-1]))
        grid = np.linspace(0.0, u_max, 16)
        grid[0] = 1e-12 * u_max
        x = np.array(report["x"])
        cell = np.searchsorted(grid, math.log1p(search["alpha"]))
        assert 0 < cell < grid.size
        assert cell == np.searchsorted(grid, math.log1p(float(x @ x)))
        again = workdir / "again.json"
        main(["solve", "--problem", str(workdir / "dense_t.json"), "--out", str(again)])
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("b, reference", [((1.0, 2.0), 1.6237837944157576),
                                              ((1.0, 1.0), 0.8287861732809074)])
    @pytest.mark.parametrize("s", [1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e100])
    def test_anisotropic_dense_t(self, workdir, s, b, reference):
        # T = diag(s, 1): T^T T is singular in floating point from s ~ 1e8, and
        # a singular-value cutoff relative to |T| puts e2 in N(T) from s = 1e10,
        # where the witness (0, b_2) has G = b_2^2.  min G lies on x1 = 0 (the
        # reference, from scipy)
        p = ProblemSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array(b),
                        WeightOperator.diagonal(np.ones(2)),
                        RegularizerSpec.dense(np.diag([s, 1.0])))
        code, report = _run(workdir, "solve", p)
        assert (code, report["status"]) == (2, "heuristic")
        assert report["objective"] == pytest.approx(reference, rel=1e-12, abs=0.0)
        search = report["meta"]["alpha_search"]
        assert search["doublings"] <= 5 and search["hit_cap"] is False

    @pytest.mark.parametrize("s", [1e-200, 1e-170, 1e-160, 1e-100])
    def test_tiny_dense_t_scans_without_overflow(self, workdir, s):
        # sigma_min^2 underflows to 0 below s ~ 1e-162, and |b|_W^2 /
        # sigma_min^2 overflows above it at s = 1e-160: either way the scan
        # has no bound and starts at |x|^2 = 1
        p = ProblemSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 2.0]),
                        WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(s * np.eye(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = _run(workdir, "solve", p)
        assert (code, report["status"]) == (2, "heuristic")
        assert all(math.isfinite(v) for v in (*report["x"], report["objective"]))

    def test_scaled_identity_meta_has_no_search_record(self, workdir):
        out = workdir / "rep.json"
        main(["solve", "--problem", str(workdir / "certified.json"), "--out", str(out)])
        meta = json.loads(out.read_text())["meta"]
        assert list(meta) == ["command", "t_star", "t_dual", "dual_steps"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "{dir}/certified.json"],
        ["demo", "weakcont", "--n", "1", "--format", "csv"],
    ])
    def test_unwritable_out_exit_one(self, workdir, capsys, argv):
        out = str(workdir / "missing_dir" / "out.txt")
        argv = [a.format(dir=workdir) for a in argv] + ["--out", out]
        assert main(argv) == 1
        assert f"cannot write output file {out}" in capsys.readouterr().err

    def test_dense_t_with_b_in_null_space_of_w_is_trivial(self, workdir):
        # |b|_W^2 = 0 makes x = 0 optimal for every T, as for the scaled identity
        rot = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
        weight = WeightOperator.dense(rot @ np.diag([1.0, 0.0]) @ rot.T)
        a_mat, b = np.array([[1.0, 0.5], [0.2, 1.0]]), rot[:, 1]
        for t in (RegularizerSpec.dense(np.eye(2)), RegularizerSpec.identity_scaled(1.0)):
            p = ProblemSpec(a_mat, b, weight, t)
            assert p.b_norm_w_sq == 0.0
            code, report = _run(workdir, "solve", p)
            assert (code, report["status"], report["objective"]) == (0, "trivial", 0.0)
            assert "alpha_search" not in report["meta"]

    def test_subnormal_scale_rho_solves_quietly(self, workdir):
        tiny = ProblemSpec(
            np.ones((1, 1)), np.ones(1),
            WeightOperator.diagonal([1.0]),
            RegularizerSpec.identity_scaled(1e-300),
        )
        rio.save_problem(workdir / "tiny.json", tiny)
        out = workdir / "rep.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["solve", "--problem", str(workdir / "tiny.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "solved"
        assert report["objective"] == pytest.approx(1e-300, rel=1e-12)

    def test_tiny_equality_trs_solution_ends_without_traceback(self, workdir):
        # dense T = 1e10 I and b ~ 1e-150 put |x*|^2 near 1e-320: no square of
        # a subnormal z may reach the secular root, or -W error raises there
        p = ProblemSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1e-150, 2e-150]),
                        WeightOperator.diagonal(np.ones(2)), RegularizerSpec.dense(1e10 * np.eye(2)))
        rio.save_problem(workdir / "tiny-x.json", p)
        reports = []
        for flags in ([], ["-W", "error"]):
            out = workdir / f"tiny-x-{len(flags)}.json"
            result = _run_module(flags, "solve", "--problem", str(workdir / "tiny-x.json"),
                                 "--out", str(out))
            assert (result.returncode, result.stderr) == (2, "")
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestCertifyCommand:
    def test_closed_form(self, workdir):
        out = workdir / "cert.json"
        code = main(["certify", "--problem", str(workdir / "closedform.json"),
                     "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert list(cert) == ["t", "alpha", "beta", "lambda_min", "meta"]
        assert cert["t"] == pytest.approx(9.0, abs=1e-4)
        assert cert["alpha"] >= 0 and cert["beta"] >= 0

    def test_batch_agreement(self, workdir):
        # five seeded 3 x 3 instances, each certified from its file
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_problem(rng, 3)
            code, cert = _run(workdir, "certify", p)
            assert code == 0
            assert cert["meta"]["agreement_gap"] <= 1e-10 * p.b_norm_w_sq

    def test_dense_t_names_the_field(self, workdir, capsys):
        # the certificate holds for T = sqrt(rho) I alone; refused before either route
        out = workdir / "c.json"
        assert main(["certify", "--problem", str(workdir / "dense_t.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: field 'T.kind' must be 'identity_scaled' for certify, got 'dense'\n"
        )
        assert not out.exists()

    def test_huge_rho_certifies_quietly(self, workdir):
        # A = I, b = (1, 2), rho = 1e300: the sum of squares in |C|_F overflowed
        huge = ProblemSpec(np.eye(2), np.array([1.0, 2.0]), WeightOperator.diagonal(np.ones(2)),
                           RegularizerSpec.identity_scaled(1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cert = _run(workdir, "certify", huge)
        assert code == 0
        assert cert["t"] == pytest.approx(5.0, rel=1e-12)
        assert cert["meta"]["agreement_gap"] <= 1e-10 * 5.0

    def test_negative_multiplier_agrees(self, workdir):
        out = workdir / "cert.json"
        code = main(["certify", "--problem", str(workdir / "negative_beta.json"),
                     "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["alpha"] == 1.0 and cert["beta"] < 0
        assert cert["meta"]["agreement_gap"] <= 1e-10

    @pytest.mark.parametrize("k", [0.5 * j for j in range(-16, 9)])
    def test_subnormal_scale_rho_certifies_quietly(self, workdir, k):
        # A = b = s, W = 1, rho = 1e-300 s^2: at t = |b|^2 the Dinkelbach
        # update rounds to t, and only bisection moves the reference on
        s = 10.0**k
        tiny = ProblemSpec(
            np.full((1, 1), s), np.full(1, s),
            WeightOperator.diagonal([1.0]),
            RegularizerSpec.identity_scaled(1e-300 * s * s),
        )
        rio.save_problem(workdir / "tiny.json", tiny)
        out = workdir / "cert.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["certify", "--problem", str(workdir / "tiny.json"), "--out", str(out)])
        assert code == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["agreement_gap"] <= 1e-10 * s * s
        if tiny.T.rho >= np.finfo(float).tiny:  # t* = rho, to its precision
            assert meta["t_dinkelbach"] == pytest.approx(tiny.T.rho, rel=1e-12)

    @pytest.mark.parametrize("rho", [1e-300, 1e-308, 5e-324])
    def test_tiny_rho_certifies_quietly(self, workdir, rho):
        # A = I, b = (1, 2): t* = 5 rho, which the reference's ridge start
        # reaches at once; from t = |b|_W^2 it did not converge (1e-300) or
        # overflowed in its slope root (1e-308, 5e-324)
        tiny = ProblemSpec(np.eye(2), np.array([1.0, 2.0]), WeightOperator.diagonal(np.ones(2)),
                           RegularizerSpec.identity_scaled(rho))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cert = _run(workdir, "certify", tiny)
        assert code == 0
        assert cert["meta"]["agreement_gap"] <= 1e-10 * tiny.b_norm_w_sq

    @pytest.mark.parametrize("rho", [1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("flags", [[], ["-W", "error"]])
    def test_tiny_rho_off_the_range_ends_without_traceback(self, workdir, rho, flags):
        # b = (1, 2, 0) lies outside R(A): above t* the Dinkelbach reference's
        # inner minimizer sits at |x| ~ 1e53 to 1e100, and it disagrees there
        # (t_dinkelbach 1 against t* = 0.7733), so certify exits 2.  The Newton
        # polish from such a point is TestNewtonPolish's in test_solver.py
        p = ProblemSpec(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0, 0.0]),
                        WeightOperator.diagonal(np.ones(3)), RegularizerSpec.identity_scaled(rho))
        rio.save_problem(workdir / "off-range.json", p)
        result = _run_module(flags, "certify", "--problem", str(workdir / "off-range.json"),
                             "--out", str(workdir / "off-range-cert.json"))
        assert "Traceback" not in result.stderr
        assert result.returncode in (0, 1, 2)

    def test_keep_c(self, workdir):
        out = workdir / "cert.json"
        code = main(["certify", "--problem", str(workdir / "trivial.json"),
                     "--keep-C", "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert list(cert) == ["t", "alpha", "beta", "lambda_min", "C", "meta"]
        assert len(cert["C"]) == 5


def _subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


def _run_module(flags, *argv):
    """``python <flags> -m rtls <argv>`` in a fresh interpreter, output captured."""
    return subprocess.run([sys.executable, *flags, "-m", "rtls", *argv],
                          env=_subprocess_env(), capture_output=True, text=True)


def _run(workdir, command, p):
    """Exit code and report of ``rtls <command>`` on problem p."""
    rio.save_problem(workdir / "p.json", p)
    out = workdir / "out.json"
    code = main([command, "--problem", str(workdir / "p.json"), "--out", str(out)])
    return code, json.loads(out.read_text())


# scales s of (A, b, rho) -> (sA, sb, s^2 rho) and c of (W, rho) -> (cW, c rho)
SCALES = (1e-7, 1e-5, 1e-3, 1e3, 1e6)


class TestScaleInvariance:
    def test_statuses_and_exit_codes(self, workdir):
        # 102 instances 8 x 5, rho = f |b|_W^2: the solve status and exit code
        # and the certify exit code (agreement) are those of the unscaled data
        rng = np.random.default_rng(12)
        statuses = set()
        for index in range(102):
            p = random_problem(rng, 5, m=8, rho_factor=(0.02, 0.2, 1.5)[index % 3])
            rho = p.T.rho
            variants = [
                ProblemSpec(s * p.A, s * p.b, p.W, RegularizerSpec.identity_scaled(s * s * rho))
                for s in SCALES
            ] + [
                ProblemSpec(p.A, p.b, getattr(WeightOperator, p.W.kind)(c * p.W.data),
                            RegularizerSpec.identity_scaled(c * rho))
                for c in SCALES
            ]
            code, report = _run(workdir, "solve", p)
            cert_code, _ = _run(workdir, "certify", p)
            statuses.add(report["status"])
            for q in variants:
                q_code, q_report = _run(workdir, "solve", q)
                assert (q_code, q_report["status"]) == (code, report["status"]), index
                assert _run(workdir, "certify", q)[0] == cert_code, index
        assert statuses == {"solved", "heuristic"}

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_dense_t_triviality(self, workdir, s):
        # b misses A(N(T)) by 1e-4 of |b|: heuristic at every scale
        rng = np.random.default_rng(4)
        a_mat = rng.normal(size=(4, 3))
        t_mat = rng.normal(size=(2, 3))
        u = np.linalg.svd(t_mat)[2][-1]  # N(T) = span(u)
        au = a_mat @ u
        v = rng.normal(size=4)
        v -= (v @ au) / (au @ au) * au
        b = (au + 1e-4 * np.linalg.norm(au) * v / np.linalg.norm(v)) / np.linalg.norm(au)
        p = ProblemSpec(s * a_mat / np.linalg.norm(au), s * b,
                        WeightOperator.diagonal(np.ones(4)), RegularizerSpec.dense(s * t_mat))
        code, report = _run(workdir, "solve", p)
        assert (code, report["status"]) == (2, "heuristic")
        assert "alpha_search" in report["meta"]


class TestDemoCommands:
    def test_weakcont_csv(self, workdir):
        out = workdir / "w.csv"
        code = main(["demo", "weakcont", "--n", "1,2,8,32",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,integral,limit_integral"
        assert len(lines) == 5

    def test_weakcont_derives_its_nodes(self, workdir):
        # 64 max(n) + 1 nodes, up to the cap; a fixed 8193 was too few above n = 128
        out = workdir / "w.json"
        for n in (129, 8192):
            assert main(["demo", "weakcont", "--n", f"1,{n}", "--out", str(out)]) == 0
            assert [row["n"] for row in json.loads(out.read_text())["rows"]] == [1, n]

    def test_nonexist_tls(self, workdir):
        out = workdir / "seq.csv"
        code = main(["demo", "nonexist-tls", "--model", str(workdir / "diag_default.json"),
                     "--eps", "1e-1,1e-2,1e-3", "--N", "200",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        objectives = [float(line.split(",")[1]) for line in lines[1:]]
        assert objectives == sorted(objectives, reverse=True)

    def test_nonexist_rtls_json(self, workdir):
        out = workdir / "seq.json"
        code = main(["demo", "nonexist-rtls", "--model", str(workdir / "diag_rtls.json"),
                     "--eps", "1e-1,1e-2,1e-3", "--N", "200", "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert len(artifact["points"]) == 2
        assert len(artifact["skipped"]) == 1

    def test_sweep(self, workdir):
        out = workdir / "sweep.csv"
        code = main(["demo", "sweep", "--model", str(workdir / "diag_b_e1.json"),
                     "--N", "4,8,16", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,x_norm,objective,status"
        assert all(line.endswith(",solved") for line in lines[1:])

    def test_sweep_columns_in_csv_and_json(self, workdir):
        # the objective is t* = G(x*): one column carries it in either format
        argv = ["demo", "sweep", "--model", str(workdir / "diag_rtls.json"), "--N", "4,8"]
        assert main(argv + ["--format", "csv", "--out", str(workdir / "s.csv")]) == 0
        assert main(argv + ["--out", str(workdir / "s.json")]) == 0
        header, *lines = (workdir / "s.csv").read_text().splitlines()
        rows = json.loads((workdir / "s.json").read_text())["rows"]
        assert header == "N,x_norm,objective,status"
        assert [list(row) for row in rows] == [header.split(",")] * 2
        assert [line.split(",")[0] for line in lines] == [str(row["N"]) for row in rows]

    def test_sweep_agrees_with_solve_on_trivial_dense_t(self, workdir):
        # t_1 = 0: N(T) = span(e1) and A e1 = b, so every truncation is trivial
        spec = {"a": "1/k", "w": "1/k^2", "b": [1.0], "t": {"formula": "1/k^2", "zeros": 1}}
        (workdir / "triv.json").write_text(json.dumps(spec))
        out = workdir / "sweep.json"
        assert main(["demo", "sweep", "--model", str(workdir / "triv.json"),
                     "--N", "4,8", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        model = load_model_file(workdir / "triv.json")
        for row in rows:
            code, report = _run(workdir, "solve", model.build(row["N"]))
            assert (code, report["status"]) == (0, "trivial")
            assert "alpha_search" not in report["meta"]
            assert row["status"] == "trivial"
            assert row["objective"] == report["objective"] == 0.0

    def test_diagonal(self, workdir):
        out = workdir / "diag.json"
        code = main(["demo", "diagonal", "--model", str(workdir / "diag_b_e1.json"),
                     "--N", "6", "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["audit"]["tail_mass_fraction"] <= 1e-8

    def test_diagonal_audit_is_relative_to_w(self, workdir):
        # (W, rho) -> (cW, c rho) changes neither the problem nor its audit
        audits = []
        for c in (1.0, 1e-16, 1e16):
            (workdir / "diag_c.json").write_text(json.dumps(
                {"a": [1.0, 0.5, 0.25, 0.125], "w": c, "b": [1.0, 0.5], "rho": 1.2 * c}
            ))
            out = workdir / "diag.json"
            code = main(["demo", "diagonal", "--model", str(workdir / "diag_c.json"),
                         "--N", "4", "--out", str(out)])
            artifact = json.loads(out.read_text())
            audits.append((code, artifact["status"], artifact["audit"]))
        assert audits[0][2]["zero_indices"] == []
        assert audits[0] == audits[1] == audits[2]

    @pytest.mark.parametrize("field, value", [
        ("rho", {"x": 1}),
        ("rho", True),
        ("b", [1.0, "2"]),
        ("b", [True]),
        ("a", None),
        ("a", [[1.0]]),
        ("w", {"formula": [1.0, {}]}),
        ("w", {"formula": "1/k", "zeros": 1.5}),
        ("t", True),
    ])
    def test_model_wrong_json_type_exit_one(self, workdir, capsys, field, value):
        spec = {"a": "1/k", "w": "1/k^2", "b": [1.0], "rho": 1.0}
        spec[field] = value
        model = workdir / "bad_model.json"
        model.write_text(json.dumps(spec))
        assert main(["demo", "diagonal", "--model", str(model)]) == 1
        assert f"'{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("t", True),
        ("t", [1.0, True, 0.5, 0.25]),
        ("a", {"formula": "1/k", "zeros": True}),
    ])
    def test_sweep_model_wrong_sequence_type_exit_one(self, workdir, capsys, field, value):
        spec = {"a": "1/k", "w": "1/k^2", "b": [1.0], "t": "1/k^2"}
        spec[field] = value
        model = workdir / "bad_model.json"
        model.write_text(json.dumps(spec))
        assert main(["demo", "sweep", "--model", str(model), "--N", "4"]) == 1
        assert f"'{field}" in capsys.readouterr().err

    # "grid" is no longer a model key: any value of it fails with the key named
    @pytest.mark.parametrize("field, value", [("kernel", 3), ("grid", "16"), ("grid", 16.0)])
    def test_integral_model_wrong_json_type_exit_one(self, workdir, capsys, field, value):
        spec = {"kernel": "named:gaussian"}
        spec[field] = value
        model = workdir / "bad_model.json"
        model.write_text(json.dumps(spec))
        assert main(["demo", "sweep", "--model", str(model), "--N", "4"]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_integral_model_grid_key_rejected(self, workdir, capsys):
        # the kernel is discretized at N nodes; a grid size was never read
        model = workdir / "grid_model.json"
        model.write_text(json.dumps({"kernel": "named:gaussian", "grid": 16}))
        assert main(["demo", "sweep", "--model", str(model), "--N", "4"]) == 1
        assert "unknown model keys ['grid']" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        # -1e-14 is rounding of a zero weight: clamped, so both demos run
        ('{"a": [1, 0.5, 0.25, 0.125], "w": [1, 1, 1, -1e-14], "b": [1, 0.5], "rho": 1.2}',
         None),
        ('{"a": "1/k", "w": 1, "b": [1, 2, 3, 4, 5], "rho": 1}',
         "error: field 'b' must be a vector of length <= truncation order 4\n"),
        ('{"a": "1/k", "w": [1, -0.5, 1, 1], "b": [1], "rho": 1}',
         "error: field 'w' has a negative diagonal weight\n"),
        ('{"a": "1/k", "w": 1, "b": [1], "rho": -1}',
         "error: field 'rho' must be a positive real\n"),
        ('{"a": "1/k", "w": 1, "b": [1], "rho": 0}',
         "error: field 'rho' must be a positive real\n"),
        ('{"a": "1/k", "w": 1, "b": [1], "rho": 1e400}',
         "error: field 'rho' must be a positive real\n"),
        ('[{"a": "1/k", "w": 1, "b": [1], "rho": 1}]',
         "error: model spec must be a JSON object\n"),
        ('{"a": "1/k^2.5", "w": 1, "b": [1], "rho": 1}',
         "error: field 'a' has unsupported sequence formula '1/k^2.5'\n"),
        ('{"a": {"formula": "1/k", "zero": 1}, "w": 1, "b": [1], "rho": 1}',
         "error: field 'a' has unknown sequence keys ['zero']\n"),
        ('{"a": {"zeros": 1}, "w": 1, "b": [1], "rho": 1}',
         "error: field 'a' is missing its 'formula'\n"),
        ('{"w": 1, "b": [1], "rho": 1}',
         "error: model spec missing keys ['a']\n"),
        # a JSON int too large for a double reads as the token 1e400 does
        ('{"a": "1/k", "w": 1, "b": [1], "rho": 1' + "0" * 400 + '}',
         "error: field 'rho' must be a positive real\n"),
        ('{"a": 1' + "0" * 400 + ', "w": 1, "b": [1], "rho": 1}',
         "error: non-finite value in field 'A'\n"),
        ('{"a": "1/k", "w": 1, "b": [1.0, [2.0]], "rho": 1}',
         "error: field 'b' must be a list of numbers\n"),
        ('{"a": [[1.0], [2.0, 3.0]], "w": 1, "b": [1], "rho": 1}',
         "error: field 'a' must be a list of numbers\n"),
    ])
    def test_diagonal_and_sweep_share_the_model_rules(self, workdir, capsys, text, error):
        model = workdir / "model.json"
        model.write_text(text)
        outcomes = []
        for demo in ("diagonal", "sweep"):
            code = main(["demo", demo, "--model", str(model), "--N", "4"])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes == ([(0, "")] * 2 if error is None else [(1, error)] * 2)

    def test_missing_model_file_exit_one(self, workdir, capsys):
        missing = str(workdir / "nope.json")
        assert main(["demo", "diagonal", "--model", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_csv_to_stdout_matches_file(self, workdir, capsys):
        out = workdir / "w.csv"
        argv = ["demo", "weakcont", "--n", "1,3", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_trivial_model_demo_errors(self, workdir):
        # invertible diagonal model: the sequence refuses (exit 1)
        code = main(["demo", "nonexist-tls", "--model", str(workdir / "diag_b_e1.json"),
                     "--eps", "1e-2", "--N", "50"])
        assert code == 1

    @pytest.mark.parametrize("demo, model", [("nonexist-tls", "diag_default.json"),
                                             ("nonexist-rtls", "diag_rtls.json")])
    def test_eps_with_overflowing_bound_is_skipped(self, workdir, capsys, demo, model):
        # the bound's eps**2 raised OverflowError at eps = 1e200
        argv = ["demo", demo, "--model", str(workdir / model), "--N", "20"]
        assert main(argv + ["--eps", "1e200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: construction unavailable: objective bound is not finite")
        out = workdir / "seq.json"
        assert main(argv + ["--eps", "0.1,1e200", "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        assert [pt["eps"] for pt in artifact["points"]] == [0.1]
        assert artifact["skipped"] == [{"eps": 1e200, "reason": "objective bound is not finite"}]


# one argv per command and demo sub-command, options included
BRANCH_ARGV = [
    ["solve", "--problem", "p.json", "--out", "r.json"],
    ["certify", "--problem", "p.json", "--keep-C", "--out", "c.json"],
    ["classic-tls", "--problem", "p.json"],
    ["demo", "nonexist-tls", "--model", "m.json", "--eps", "0.1,0.01"],
    ["demo", "nonexist-rtls", "--model", "m.json", "--eps", "0.1", "--N", "5"],
    ["demo", "diagonal", "--model", "m.json"],
    ["demo", "sweep", "--model", "m.json", "--N", "4,8", "--format", "csv"],
    ["demo", "weakcont", "--n", "1,2", "--format", "csv"],
]


# a diagonal model with a scaled-identity rho and w_1 a_1 = 0, the dense-T lab
# model (both heuristic at every order) and an integral model (solved)
_DRIFT_MODELS = {
    "diagonal-rho": {"a": [0.0, 1.0, 0.5, 0.25, 2.0, 1.0, 1.0, 1.0], "w": "1/k",
                     "b": [1.0, 0.5], "rho": 0.05},
    "dense-t": {"a": "1/k", "w": "1/k^2", "b": [1.0], "t": "1/k^2"},
    "integral": {"kernel": "named:gaussian", "w": "1/k^2", "b": [1.0], "rho": 1.0},
}


class TestOneSolveRoute:
    """A demo row is the report ``rtls solve`` writes for the same truncation, to the bit."""

    @pytest.mark.parametrize("spec", _DRIFT_MODELS.values(), ids=list(_DRIFT_MODELS))
    def test_sweep_rows_are_solve_reports(self, workdir, spec):
        (workdir / "m.json").write_text(json.dumps(spec))
        out = workdir / "sweep.json"
        code = main(["demo", "sweep", "--model", str(workdir / "m.json"),
                     "--N", "2,3,5,8", "--out", str(out)])
        assert code == 0
        model = load_model_file(workdir / "m.json")
        for row in json.loads(out.read_text())["rows"]:
            _, report = _run(workdir, "solve", model.build(row["N"]))
            assert row["x_norm"] == float(np.linalg.norm(report["x"]))
            assert (row["objective"], row["status"]) == (report["objective"], report["status"])

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_diagonal_report_is_the_solve_report(self, workdir, n):
        (workdir / "m.json").write_text(json.dumps(_DRIFT_MODELS["diagonal-rho"]))
        out = workdir / "diag.json"
        code = main(["demo", "diagonal", "--model", str(workdir / "m.json"),
                     "--N", str(n), "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        del artifact["audit"]
        _, report = _run(workdir, "solve", load_model_file(workdir / "m.json").build(n))
        del report["meta"]
        assert list(artifact.items()) == list(report.items())


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits, else the Namespace."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err
    return result


# options certify no longer takes: a user-set agreement tolerance and the
# random batch; with --problem given, each is an unrecognized argument
_BAD_CERTIFY_NUMBERS = [
    ["certify", "--tol-t", "nan"],
    ["certify", "--tol-t", "-1"],
    ["certify", "--tol-t", "inf"],
    ["certify", "--batch", "-3"],
    ["certify", "--batch", "2", "--seed", "-1"],
]


# each names its flag in a usage error: before, these wrote empty or
# negative-eps artifacts, failed with a float()/int() error that named no
# flag, (eps = inf) failed in serialization, (a truncation order --N
# below 1) failed naming the model's field 'b', or (a sweep --N that does
# not increase) failed naming no flag; (a --n above 8192) needed a grid of
# over half a million nodes.  A message of None marks a flag weakcont no
# longer takes: its node count is derived from --n
_BAD_DEMO_LISTS = [
    ("nonexist-tls", "--eps", "inf", "expected a list of finite values > 0, got 'inf'"),
    ("nonexist-tls", "--eps", "nan", "expected a list of finite values > 0, got 'nan'"),
    ("nonexist-tls", "--eps", ",", "expected a list of finite values > 0, got ','"),
    ("nonexist-tls", "--eps", "0.1,abc", "invalid float list value: '0.1,abc'"),
    ("nonexist-rtls", "--eps", "-0.1", "expected a list of finite values > 0, got '-0.1'"),
    ("nonexist-rtls", "--eps", "0.1,0", "expected a list of finite values > 0, got '0.1,0'"),
    ("sweep", "--N", ",", "expected a list of finite values > 0, got ','"),
    ("sweep", "--N", "0,4", "expected a list of finite values > 0, got '0,4'"),
    ("sweep", "--N", "4,8.5", "invalid int list value: '4,8.5'"),
    ("weakcont", "--n", "1,x", "invalid int list value: '1,x'"),
    ("sweep", "--N", "4,4", "expected strictly increasing values, got '4,4'"),
    ("sweep", "--N", "8,16,4", "expected strictly increasing values, got '8,16,4'"),
    ("weakcont", "--n", "-2", "expected a list of finite values > 0, got '-2'"),
    ("weakcont", "--quad-points", "0", None),
    ("weakcont", "--quad-points", "100", None),
    ("weakcont", "--n", "8193", "expected values <= 8192, got '8193'"),
    ("weakcont", "--n", "1,10000", "expected values <= 8192, got '1,10000'"),
    *[(demo, "--N", text, f"expected a finite value >= 1, got '{text}'")
      for demo in ("diagonal", "nonexist-tls", "nonexist-rtls") for text in ("0", "-3")],
]


class TestParser:
    """main parses with one tree, built once per process; it prints what a fresh tree prints."""

    def test_every_branch_is_covered(self):
        assert {argv[0] for argv in BRANCH_ARGV} == set(COMMANDS)

    @pytest.mark.parametrize("argv", BRANCH_ARGV, ids=lambda a: "-".join(a[:2]))
    def test_branch_parses_like_full_tree(self, argv):
        assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)

    @pytest.mark.parametrize("argv", BRANCH_ARGV, ids=lambda a: "-".join(a[:2]))
    def test_branch_help_matches_full_tree(self, argv, capsys):
        for head in [argv[:1], argv[:2]] if argv[0] == "demo" else [argv[:1]]:
            cached = _parse_outcome(main, head + ["-h"], capsys)
            fresh = _parse_outcome(build_parser.__wrapped__().parse_args, head + ["-h"], capsys)
            assert cached == fresh
            assert cached[0] == 0 and cached[1]

    @pytest.mark.parametrize("argv", [
        ["--help"],
        [],
        ["bogus"],
        ["--seed", "1", "solve"],
        ["solve"],
        ["solve", "--problem", "p.json", "extra"],
        ["certify", "--batch", "x"],
        ["demo"],
        ["demo", "sweep", "--model", "m.json"],
        *_BAD_CERTIFY_NUMBERS,
    ])
    def test_usage_and_errors_match_full_tree(self, argv, capsys):
        code, out, err = _parse_outcome(main, argv, capsys)
        assert (code, out, err) == _parse_outcome(build_parser.__wrapped__().parse_args, argv, capsys)
        assert code in (0, 1) and (out or err)

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "p.json", "--format", "json"],
        ["demo", "diagonal", "--model", "m.json", "--format", "json"],
    ], ids=["solve", "diagonal"])
    def test_json_only_commands_take_no_format(self, argv, capsys):
        # --format belongs to the table demos; these write JSON alone
        code, out, err = _parse_outcome(main, argv, capsys)
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --format json\n")

    def test_solve_takes_no_seed(self, capsys):
        # solve has no randomness
        argv = ["solve", "--problem", "p.json", "--seed", "3"]
        code, out, err = _parse_outcome(main, argv, capsys)
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --seed 3\n")

    @pytest.mark.parametrize("argv, err", [
        ([], "usage: rtls [-h] {solve,certify,classic-tls,demo} ...\n"
             "rtls: error: the following arguments are required: command\n"),
        (["bogus"], "usage: rtls [-h] {solve,certify,classic-tls,demo} ...\n"
                    "rtls: error: argument command: invalid choice: 'bogus' "
                    "(choose from 'solve', 'certify', 'classic-tls', 'demo')\n"),
        (["demo"], "usage: rtls demo [-h] {nonexist-tls,nonexist-rtls,diagonal,sweep,weakcont} ...\n"
                   "rtls demo: error: the following arguments are required: demo_command\n"),
    ], ids=["none", "bogus", "demo"])
    def test_usage_text(self, argv, err, capsys):
        assert _parse_outcome(main, argv, capsys) == (1, "", err)

    @pytest.mark.parametrize("argv, rest", [
        (["certify", "--problem", "p.json", "--batch", "2"], "--batch 2"),
        (["certify", "--batch", "3", "--keep-C", "--problem", "p.json"], "--batch 3"),
    ], ids=["problem-first", "batch-first"])
    def test_certify_problem_and_batch_exclude_each_other(self, argv, rest, capsys):
        # certify reads one problem file; the random batch is gone in either order
        code, out, err = _parse_outcome(main, argv, capsys)
        assert (code, out) == (1, "")
        assert err.endswith(f"rtls: error: unrecognized arguments: {rest}\n")

    @pytest.mark.parametrize("argv", _BAD_CERTIFY_NUMBERS, ids=" ".join)
    def test_bad_certify_number_names_its_flag(self, argv, capsys):
        code, out, err = _parse_outcome(main, argv + ["--problem", "p.json"], capsys)
        assert (code, out) == (1, "")
        assert err.endswith(f"rtls: error: unrecognized arguments: {' '.join(argv[1:])}\n")

    @pytest.mark.parametrize("demo, flag, text, message", _BAD_DEMO_LISTS,
                             ids=[" ".join(case[:3]) for case in _BAD_DEMO_LISTS])
    def test_bad_demo_list_names_its_flag(self, workdir, capsys, demo, flag, text, message):
        model = {"nonexist-tls": "diag_default.json", "nonexist-rtls": "diag_rtls.json",
                 "diagonal": "diag_b_e1.json", "sweep": "diag_b_e1.json", "weakcont": None}[demo]
        out = workdir / "artifact.json"
        argv = ["demo", demo, flag, text, "--out", str(out)]
        if model:
            argv += ["--model", str(workdir / model)]
        code, stdout, err = _parse_outcome(main, argv, capsys)
        assert (code, stdout) == (1, "")
        assert err.endswith(f"rtls: error: unrecognized arguments: {flag} {text}\n"
                            if message is None
                            else f"rtls demo {demo}: error: argument {flag}: {message}\n")
        assert not out.exists()

    def test_parser_registers_each_sub_parser_once(self, workdir, monkeypatch):
        # the whole tree is built on the first call; a second call registers nothing
        names, real_add_parser = [], argparse._SubParsersAction.add_parser

        def recording_add_parser(self, name, **kwargs):
            names.append(name)
            return real_add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)
        build_parser.cache_clear()
        argv = ["solve", "--problem", str(workdir / "certified.json"), "--out", str(workdir / "r.json")]
        every = [*COMMANDS, "nonexist-tls", "nonexist-rtls", "diagonal", "sweep", "weakcont"]
        assert main(argv) == 0
        assert sorted(names) == sorted(every)
        assert main(argv) == 0
        assert sorted(names) == sorted(every)


class TestClassicCommand:
    def test_runs_on_generic_problem(self, workdir, rng):
        a_mat = rng.normal(size=(6, 3))
        p = ProblemSpec(
            a_mat, rng.normal(size=6),
            WeightOperator.diagonal(np.ones(6)),
            RegularizerSpec.identity_scaled(1.0),
        )
        rio.save_problem(workdir / "generic.json", p)
        out = workdir / "classic.json"
        code = main(["classic-tls", "--problem", str(workdir / "generic.json"),
                     "--out", str(out)])
        assert code == 0
        # the fields of ClassicTlsSolution, in declaration order
        artifact = json.loads(out.read_text())
        assert list(artifact) == ["X", "x", "sigma_min", "residual"]
        # (X | X x) is (A | b) less its rank-one part along sigma_min
        u, s, vt = np.linalg.svd(np.column_stack([a_mat, p.b]), full_matrices=False)
        corrected = np.column_stack([a_mat, p.b]) - s[-1] * np.outer(u[:, -1], vt[-1])
        X, x = np.array(artifact["X"]), np.array(artifact["x"])
        np.testing.assert_allclose(X, corrected[:, :3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(X @ x, corrected[:, 3], rtol=0, atol=1e-12)
        assert artifact["sigma_min"] == pytest.approx(s[-1], rel=1e-12)
        assert artifact["residual"] == pytest.approx(np.linalg.norm(X @ x - corrected[:, 3]), abs=1e-14)

    @pytest.mark.parametrize("weight, warns", [
        (WeightOperator.diagonal(np.ones(3)), False),
        (WeightOperator.dense(np.eye(3)), False),
        (WeightOperator.diagonal([1.0, 2.0, 1.0]), True),
        (WeightOperator.dense(np.eye(3) + 0.1), True),
    ], ids=["diagonal-identity", "dense-identity", "diagonal", "dense"])
    def test_warns_only_when_it_drops_a_weight(self, workdir, caplog, weight, warns):
        # T is always ignored, so a dense T alone never warns
        a_mat = np.array([[1.0, 0.2], [0.3, 2.0], [0.5, -0.4]])
        p = ProblemSpec(a_mat, np.array([1.0, -1.0, 0.5]), weight,
                        RegularizerSpec.dense(np.array([[1.0, 2.0], [0.0, 3.0]])))
        rio.save_problem(workdir / "w.json", p)
        with caplog.at_level(logging.WARNING, logger="rtls.cli"):
            assert main(["classic-tls", "--problem", str(workdir / "w.json"),
                         "--out", str(workdir / "c.json")]) == 0
        assert [r.getMessage() for r in caplog.records] == (
            ["classic-tls ignores the problem's weight, which is not the identity"] if warns else []
        )

    def test_degenerate_exits_one(self, workdir):
        code = main(["classic-tls", "--problem", str(workdir / "closedform.json")])
        assert code == 1

    @pytest.mark.parametrize("a_diag, error", [
        ([0.0, 0.0], "classic TLS degenerate: smallest singular value 0.0 is repeated (next 0.0)"),
        ([1.0, 0.0], "classic TLS nongeneric: right singular vector for sigma_min has "
                     "last coordinate 0.0"),
    ], ids=["repeated", "nongeneric"])
    def test_degenerate_error_prints_floats(self, workdir, capsys, a_diag, error):
        # numpy scalars printed their repr: np.float64(0.0)
        p = ProblemSpec(np.diag(a_diag), np.array([1.0, 2.0]), WeightOperator.diagonal(np.ones(2)),
                        RegularizerSpec.identity_scaled(1.0))
        rio.save_problem(workdir / "degenerate.json", p)
        assert main(["classic-tls", "--problem", str(workdir / "degenerate.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")


def _sub_parsers(parser):
    """name -> sub-parser of the parser's one sub-command argument."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_command_line_lists_each_parsers_flags():
    """README's "Command line" block lists, per command, exactly the flags its parser takes."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    listed = {}
    for line in block.splitlines():
        words = line.split()
        name = " ".join(words[1:3] if words[1] == "demo" else words[1:2])
        flags = {w.strip("[]") for w in words if w.lstrip("[").startswith("--")}
        listed.setdefault(name, set()).update(flags)
    parsers = {}
    for name, sub in _sub_parsers(build_parser()).items():
        if name == "demo":
            parsers.update({f"demo {d}": s for d, s in _sub_parsers(sub).items()})
        else:
            parsers[name] = sub
    assert listed == {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in parsers.items()
    }


def _modules_after(code, packages=("scipy", "orjson")):
    """Run code in a fresh interpreter; return the modules of ``packages`` it loaded."""
    code += f"; print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
        check=True,
    )
    return result.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    """A fresh interpreter imports rtls and its CLI with numpy alone: no scipy, no orjson."""
    assert _modules_after("import sys, rtls, rtls.cli") == "[]"


def test_dense_t_solve_loads_no_scipy(workdir):
    argv = ["solve", "--problem", str(workdir / "dense_t.json"), "--out", str(workdir / "r.json")]
    code = f"import sys, rtls.cli; assert rtls.cli.main({argv!r}) == 2"
    assert _modules_after(code, ("scipy",)) == "[]"


def test_weakcont_loads_no_scipy(workdir):
    # its Simpson sums are numpy's
    argv = ["demo", "weakcont", "--n", "1,2", "--out", str(workdir / "w.json")]
    code = f"import sys, rtls.cli; assert rtls.cli.main({argv!r}) == 0"
    assert _modules_after(code, ("scipy",)) == "[]"
