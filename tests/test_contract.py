"""The contract of ``rtls solve``: no status claims more than its report shows.

Problem files are drawn by a derandomized hypothesis search over shapes
1-6 with A possibly rank-deficient; diagonal, dense and singular W (a
rank-deficient dense W among them); and T the scaled identity with rho in
[1e-3, 1e2], or a dense, a singular or a diag(s, 1, ..., 1) T with s up to
1e16.  ``rtls.cli.main`` runs each with every warning an error.  A run
either exits 0 or 2 with the status that code stands for, or exits 1 with
an ``error:`` line and no traceback.  A report (exit 0 or 2) must also
have

* ``objective`` within 1e-12 max(|G(x)|, |b|_W^2) of G(x), with G formed
  here from the file's data;
* ``objective <= |b|_W^2 (1 + 1e-12)``, the value of G(0);
* ``trivial`` only with ``objective <= 1e-10 |b|_W^2``;
* ``solved`` only for the scaled identity, with ``rho >= t* (1 - 1e-8)``.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from rtls import ProblemSpec, RegularizerSpec, WeightOperator
from rtls.cli import main
from rtls.io import save_problem

EXIT_FOR_STATUS = {"solved": 0, "trivial": 0, "heuristic": 2}


def _of_rank(rng, rows, cols, rank):
    """A random rows x cols matrix of rank ``rank`` (zero for rank 0)."""
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


@st.composite
def problems(draw):
    """(A, b, W as a matrix, W's kind, rho or None, T or None) of one problem file."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = min(m, n)
    a_mat = _of_rank(rng, m, n, full if draw(st.booleans()) else draw(st.integers(0, full - 1)))
    b = rng.normal(size=m)
    w_shape = draw(st.sampled_from(["diagonal", "singular diagonal", "dense", "singular dense"]))
    if w_shape == "diagonal":
        w_mat = np.diag(rng.uniform(0.1, 10.0, size=m))
    elif w_shape == "singular diagonal":
        w_mat = np.diag(rng.uniform(0.1, 10.0, size=m) * (rng.random(m) < 0.5))
    else:
        rank = m if w_shape == "dense" else draw(st.integers(0, m - 1))
        w_mat = _of_rank(rng, m, m, rank)
        w_mat = w_mat @ w_mat.T
        w_mat = 0.5 * (w_mat + w_mat.T)
    w_kind = "diagonal" if "diagonal" in w_shape else "dense"
    t_shape = draw(st.sampled_from(["identity", "dense", "singular", "anisotropic"]))
    if t_shape == "identity":
        return a_mat, b, w_mat, w_kind, 10.0 ** draw(st.floats(-3.0, 2.0)), None
    if t_shape == "dense":
        t_mat = rng.normal(size=(n, n))
    elif t_shape == "singular":
        t_mat = _of_rank(rng, n, n, draw(st.integers(0, n - 1)))
    else:
        t_mat = np.diag([10.0 ** draw(st.floats(0.0, 16.0))] + [1.0] * (n - 1))
    return a_mat, b, w_mat, w_kind, None, t_mat


def _run_solve(path, out):
    """Exit code and stderr of ``rtls solve``, every warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["solve", "--problem", str(path), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problems())
def test_solve_reports_keep_the_contract(problem):
    a_mat, b, w_mat, w_kind, rho, t_mat = problem
    weight = (WeightOperator.diagonal(np.diag(w_mat)) if w_kind == "diagonal"
              else WeightOperator.dense(w_mat))
    reg = RegularizerSpec.identity_scaled(rho) if t_mat is None else RegularizerSpec.dense(t_mat)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "p.json", Path(tmp) / "r.json"
        save_problem(path, ProblemSpec(a_mat, b, weight, reg))
        code, err = _run_solve(path, out)
        assert "Traceback" not in err
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines()), err
            return
        report = json.loads(out.read_text())

    status, objective = report["status"], report["objective"]
    assert EXIT_FOR_STATUS.get(status) == code, (code, status)
    x = np.array(report["x"])
    r = a_mat @ x - b
    reg_term = rho * float(x @ x) if t_mat is None else float((t_mat @ x) @ (t_mat @ x))
    g = float(r @ (w_mat @ r)) / (1.0 + float(x @ x)) + reg_term
    b_sq = float(b @ (w_mat @ b))
    assert abs(objective - g) <= 1e-12 * max(abs(g), b_sq), (objective, g)
    assert objective <= b_sq * (1.0 + 1e-12), (objective, b_sq)
    if status == "trivial":
        assert objective <= 1e-10 * b_sq, (objective, b_sq)
    if status == "solved":
        t_star = report["meta"]["t_star"]
        assert t_mat is None and rho >= t_star * (1.0 - 1e-8), (rho, t_star)
