import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtls import ProblemSpec, RegularizerSpec, WeightOperator
from rtls.cli import main
from rtls.instances import closed_form_problem, random_problem
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

    def test_deterministic_bytes(self, workdir):
        out1, out2 = workdir / "a.json", workdir / "b.json"
        argv = ["solve", "--problem", str(workdir / "certified.json"), "--seed", "7"]
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

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "{dir}/certified.json"],
        ["demo", "weakcont", "--n", "1", "--quad-points", "65", "--format", "csv"],
    ])
    def test_unwritable_out_exit_one(self, workdir, capsys, argv):
        out = str(workdir / "missing_dir" / "out.txt")
        argv = [a.format(dir=workdir) for a in argv] + ["--out", out]
        assert main(argv) == 1
        assert f"cannot write output file {out}" in capsys.readouterr().err

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


class TestCertifyCommand:
    def test_closed_form(self, workdir):
        out = workdir / "cert.json"
        code = main(["certify", "--problem", str(workdir / "closedform.json"),
                     "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["t"] == pytest.approx(9.0, abs=1e-4)
        assert cert["alpha"] >= 0 and cert["beta"] >= 0

    def test_batch_agreement(self, workdir):
        out = workdir / "batch.json"
        code = main(["certify", "--batch", "5", "--seed", "7", "--out", str(out)])
        assert code == 0
        batch = json.loads(out.read_text())["batch"]
        assert len(batch) == 5
        assert all(entry["agrees"] for entry in batch)

    def test_negative_multiplier_agrees(self, workdir):
        out = workdir / "cert.json"
        code = main(["certify", "--problem", str(workdir / "negative_beta.json"),
                     "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["alpha"] == 1.0 and cert["beta"] < 0
        assert cert["meta"]["agreement_gap"] <= 1e-10

    def test_keep_c(self, workdir):
        out = workdir / "cert.json"
        code = main(["certify", "--problem", str(workdir / "trivial.json"),
                     "--keep-C", "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert "C" in cert and len(cert["C"]) == 5


class TestDemoCommands:
    def test_weakcont_csv(self, workdir):
        out = workdir / "w.csv"
        code = main(["demo", "weakcont", "--n", "1,2,8,32",
                     "--quad-points", "8193", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,integral,limit_integral"
        assert len(lines) == 5

    def test_weakcont_insufficient_resolution(self, workdir):
        code = main(["demo", "weakcont", "--n", "32", "--quad-points", "129"])
        assert code == 1

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
        assert lines[0] == "N,t_star,x_norm,objective,status"
        assert all(line.endswith("unique_solution") for line in lines[1:])

    def test_diagonal(self, workdir):
        out = workdir / "diag.json"
        code = main(["demo", "diagonal", "--model", str(workdir / "diag_b_e1.json"),
                     "--N", "6", "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["audit"]["tail_mass_fraction"] <= 1e-8

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

    @pytest.mark.parametrize("field, value", [("kernel", 3), ("grid", "16"), ("grid", 16.0)])
    def test_integral_model_wrong_json_type_exit_one(self, workdir, capsys, field, value):
        spec = {"kernel": "named:gaussian", "grid": 16}
        spec[field] = value
        model = workdir / "bad_model.json"
        model.write_text(json.dumps(spec))
        assert main(["demo", "sweep", "--model", str(model), "--N", "4"]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_missing_model_file_exit_one(self, workdir, capsys):
        missing = str(workdir / "nope.json")
        assert main(["demo", "diagonal", "--model", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_csv_to_stdout_matches_file(self, workdir, capsys):
        out = workdir / "w.csv"
        argv = ["demo", "weakcont", "--n", "1,3", "--quad-points", "257", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_trivial_model_demo_errors(self, workdir):
        # invertible diagonal model: the sequence refuses (exit 1)
        code = main(["demo", "nonexist-tls", "--model", str(workdir / "diag_b_e1.json"),
                     "--eps", "1e-2", "--N", "50"])
        assert code == 1


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
        artifact = json.loads(out.read_text())
        assert artifact["objective"] == pytest.approx(artifact["sigma_min"] ** 2)

    def test_degenerate_exits_one(self, workdir):
        code = main(["classic-tls", "--problem", str(workdir / "closedform.json")])
        assert code == 1


def _scipy_modules_after(code):
    """Run code in a fresh interpreter; return the scipy modules it loaded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    """A fresh interpreter imports rtls and its CLI with numpy alone."""
    assert _scipy_modules_after("import sys, rtls, rtls.cli") == "[]"


def test_dense_t_solve_loads_no_scipy(workdir):
    argv = ["solve", "--problem", str(workdir / "dense_t.json"), "--out", str(workdir / "r.json")]
    code = f"import sys, rtls.cli; assert rtls.cli.main({argv!r}) == 2"
    assert _scipy_modules_after(code) == "[]"
