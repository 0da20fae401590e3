"""Cross-route properties of t* = inf G.

Three routes reach t* for T = sqrt(rho) I: the scalar dual
(``dual_tstar``), the Dinkelbach reference (``solve_tstar``) and the dense-T
alpha search (``solve_rtls_general_t``, whose report
``rtls.cli.solve_problem`` builds) with T = sqrt(rho) I passed as a matrix.
They must agree, each must return a point x* with G(x*) = t* <= G(0) =
|b|_W^2, and each must carry the invariance (W, rho) -> (cW, c rho), t* ->
c t*.  The dual and Dinkelbach must also carry orthogonal changes of basis,
a column permutation among them, and the dense-T search must find the same
t* for T = sqrt(rho) V with V orthogonal, since T^T T = rho I.  With a
general dense T the alpha search must carry the change of basis (A, b, W,
T) -> (U A V^T, U b, U W U^T, T V^T) and the scaling (W, T) -> (cW,
sqrt(c) T), bit for bit when the scales are powers of two;
so must the Newton polish, from any start.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_problem, save_problem
from rtls.certificate import dual_tstar
from rtls.cli import main, solve_problem
from rtls.model import ProblemSpec, RegularizerSpec, WeightOperator
from rtls.reduction import eval_g
from rtls.solver import newton_polish, solve_tstar

route_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_problem(
        rng, n, m=m,
        rho_factor=draw(st.sampled_from([0.02, 0.3, 1.5])),
        weight_kind=draw(st.sampled_from(["diagonal", "dense"])),
    )


def route_tstars(p):
    """t* by the dual, by Dinkelbach and by the dense-T search."""
    n = p.shape[1]
    dense = ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(math.sqrt(p.T.rho) * np.eye(n)))
    report, _ = solve_problem(dense)
    return dual_tstar(p).t_star, solve_tstar(p).t_star, report.objective


@route_settings
@given(problems(), st.floats(-6.0, 6.0))
def test_routes_agree_and_scale_with_w(p, log_c):
    c = 10.0**log_c
    scaled = ProblemSpec(
        p.A, p.b, getattr(WeightOperator, p.W.kind)(c * p.W.data),
        RegularizerSpec.identity_scaled(c * p.T.rho),
    )
    dual, dinkelbach, dense = route_tstars(p)
    assert dinkelbach == pytest.approx(dual, rel=1e-12, abs=0.0)
    assert dense == pytest.approx(dual, rel=1e-12, abs=0.0)
    for t, t_scaled in zip((dual, dinkelbach, dense), route_tstars(scaled)):
        assert t_scaled == pytest.approx(c * t, rel=1e-12, abs=0.0)


def orthogonal(rng, k, kind):
    """A random rotation, or the permutation matrix of a random order."""
    if kind == "permutation":
        return np.eye(k)[rng.permutation(k)]
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(0, 2**32 - 1), st.sampled_from(["rotation", "permutation"]))
def test_orthogonal_change_of_basis(p, seed, kind):
    # A -> U A V^T, b -> U b, W -> U W U^T keeps t* and moves x* -> V x*;
    # a permutation V with U = I permutes the columns of A and so x*
    rng = np.random.default_rng(seed)
    m, n = p.shape
    u = orthogonal(rng, m, "rotation") if kind == "rotation" else np.eye(m)
    v = orthogonal(rng, n, kind)
    w_moved = WeightOperator.dense(u @ p.W.as_matrix() @ u.T)
    moved = ProblemSpec(u @ p.A @ v.T, u @ p.b, w_moved, p.T)
    for route in (dual_tstar, solve_tstar):
        sol, sol_moved = route(p), route(moved)
        assert sol_moved.t_star == pytest.approx(sol.t_star, rel=1e-12, abs=0.0)
        moved_x = v @ sol.x_star
        assert np.linalg.norm(sol_moved.x_star - moved_x) <= 1e-9 * np.linalg.norm(moved_x)
    rotated = ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(math.sqrt(p.T.rho) * v))
    report, _ = solve_problem(rotated)
    assert report.objective == pytest.approx(dual_tstar(p).t_star, rel=1e-12, abs=0.0)


@route_settings
@given(problems())
def test_every_route_attains_its_tstar_below_g_at_zero(p):
    n = p.shape[1]
    dense = ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(math.sqrt(p.T.rho) * np.eye(n)))
    dual, dinkelbach = dual_tstar(p), solve_tstar(p)
    report, _ = solve_problem(dense)
    for q, t, x in ((p, dual.t_star, dual.x_star), (p, dinkelbach.t_star, dinkelbach.x_star),
                    (dense, report.objective, report.x)):
        assert t <= q.b_norm_w_sq
        assert eval_g(q, x).g == t


@st.composite
def dense_t_problems(draw):
    """A problem of ``problems`` with T a general dense matrix of the scale of sqrt(rho)."""
    p = draw(problems())
    n = p.shape[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_mat = rng.normal(size=(n, n)) * math.sqrt(p.T.rho / n)
    return ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(t_mat))


dense_t_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@dense_t_settings
@given(dense_t_problems(), st.integers(0, 2**32 - 1))
def test_dense_t_change_of_basis(p, seed):
    # A -> U A V^T, b -> U b, W -> U W U^T, T -> T V^T keeps t* and moves x* -> V x*
    rng = np.random.default_rng(seed)
    m, n = p.shape
    u, v = orthogonal(rng, m, "rotation"), orthogonal(rng, n, "rotation")
    moved = ProblemSpec(
        u @ p.A @ v.T, u @ p.b, WeightOperator.dense(u @ p.W.as_matrix() @ u.T),
        RegularizerSpec.dense(p.T.matrix @ v.T),
    )
    report, _ = solve_problem(p)
    moved_report, _ = solve_problem(moved)
    assert moved_report.objective == pytest.approx(report.objective, rel=1e-12, abs=0.0)
    moved_x = v @ report.x
    assert np.linalg.norm(moved_report.x - moved_x) <= 1e-9 * np.linalg.norm(moved_x)
    for q, r in ((p, report), (moved, moved_report)):
        assert r.objective <= q.b_norm_w_sq
        assert eval_g(q, r.x).g == r.objective


def _solve_report(p, workdir, name):
    """(exit code, report) of ``rtls solve`` on p."""
    path, out = Path(workdir) / f"{name}.json", Path(workdir) / f"{name}-report.json"
    save_problem(path, p)
    code = main(["solve", "--problem", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())


@dense_t_settings
@given(dense_t_problems(), st.floats(-6.0, 6.0))
def test_dense_t_scales_with_w(p, log_c):
    # (W, T) -> (cW, sqrt(c) T) scales G, and so t*, by c
    c = 10.0**log_c
    scaled = ProblemSpec(
        p.A, p.b, getattr(WeightOperator, p.W.kind)(c * p.W.data),
        RegularizerSpec.dense(math.sqrt(c) * p.T.matrix),
    )
    with tempfile.TemporaryDirectory() as workdir:
        code, report = _solve_report(p, workdir, "p")
        scaled_code, scaled_report = _solve_report(scaled, workdir, "scaled")
    assert scaled_report["objective"] == pytest.approx(c * report["objective"], rel=1e-12, abs=0.0)
    assert (scaled_code, scaled_report["status"]) == (code, report["status"])


def test_dense_t_is_bitwise_scale_equivariant():
    # (A, b, T) -> 2^k (A, b, T) and (W, T) -> (4^i W, 2^i T) scale every
    # rounding by a power of two, so x keeps its bits and G scales exactly
    failed = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        p = random_problem(rng, n, m=int(rng.integers(n, n + 4)),
                           rho_factor=float(rng.choice([0.02, 0.3, 1.5])), weight_kind="diagonal")
        t_mat = rng.normal(size=(n, n)) * math.sqrt(p.T.rho / n)
        k, i = int(rng.integers(-40, 40)), int(rng.integers(-20, 20))
        s, c = 2.0**k, 4.0**i
        report, _ = solve_problem(ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(t_mat)))
        scaled, _ = solve_problem(ProblemSpec(
            s * p.A, s * p.b, WeightOperator.diagonal(c * p.W.data),
            RegularizerSpec.dense(s * 2.0**i * t_mat),
        ))
        if scaled.x.tobytes() != report.x.tobytes() or scaled.objective != s * s * c * report.objective:
            failed.append(seed)
    assert failed == []


def test_newton_polish_is_bitwise_scale_equivariant():
    # the same scalings, polished from five perturbed starts per problem:
    # each step takes x's bits from the previous one, so a square of a norm
    # that is not exactly scaled (float ** 2) surfaces in some last bit
    failed = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        p = random_problem(rng, n, m=int(rng.integers(n, n + 4)),
                           rho_factor=float(rng.choice([0.02, 0.3, 1.5])), weight_kind="diagonal")
        t_mat = rng.normal(size=(n, n)) * math.sqrt(p.T.rho / n)
        k, i = int(rng.integers(-40, 40)), int(rng.integers(-20, 20))
        s, c = 2.0**k, 4.0**i
        p = ProblemSpec(p.A, p.b, p.W, RegularizerSpec.dense(t_mat))
        scaled = ProblemSpec(
            s * p.A, s * p.b, WeightOperator.diagonal(c * p.W.data),
            RegularizerSpec.dense(s * 2.0**i * t_mat),
        )
        x = solve_problem(p)[0].x
        for start in range(5):
            x0 = x * (1.0 + 0.1 * np.random.default_rng([seed, start]).normal(size=n))
            (x_scaled, flag_scaled), (x_one, flag_one) = newton_polish(scaled, x0), newton_polish(p, x0)
            if x_scaled.tobytes() != x_one.tobytes() or flag_scaled != flag_one:
                failed.append((seed, start))
    assert failed == []
