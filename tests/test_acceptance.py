"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is desk scale (dimensions <= 32) and seeded.
"""

import json
import math

import numpy as np
import pytest

from conftest import certified_instances, grid_tstar_oracle
from rtls import (
    NongenericTlsError,
    RepeatedSingularValueError,
    assemble_c,
    certify_tstar,
    dual_tstar,
    eval_g,
    frechet_check,
    grad_g,
    lift_operator,
    nonexistence_rtls_sequence,
    nonexistence_tls_sequence,
    objective_rtls,
    recover_pair,
    solve_classic_tls,
    solve_tstar,
    verify_lift_identities,
    weak_continuity_demo,
)
from rtls.cli import main
from rtls.instances import closed_form_problem, random_problem, random_weight
from rtls.lab import (
    default_rtls_nonexistence_model,
    default_tls_nonexistence_model,
    _h_value,
)
from rtls.model import ProblemSpec, RegularizerSpec, is_trivial_rtls, is_trivial_tls

# t* values observed by the solved criteria, checked against the global
# upper bound |b|_W^2 at the end
_SOLVED = []


def _record(p, t_star):
    _SOLVED.append((t_star, p.b_norm_w_sq))


def _report(num, text):
    print(f"criterion {num:2d} PASS  {text}")


@pytest.fixture(scope="module")
def certified_batch():
    """50 seeded instances, n = m in 2..6, rho >= |b|_W^2, solved by
    Dinkelbach and by the independent scalar dual."""
    problems = certified_instances(50, dims=(2, 3, 4, 5, 6), seed=20240404)
    solved = []
    for p in problems:
        solved.append((p, solve_tstar(p), dual_tstar(p)))
    return solved


def test_criterion_1_closed_form_tstar():
    p = closed_form_problem()
    trace = solve_tstar(p)
    assert abs(trace.t_star - 9.0) <= 1e-6
    assert abs(float(trace.x_star @ trace.x_star) - 4.0) <= 1e-6
    cert = certify_tstar(p)
    assert abs(cert.t - 9.0) <= 1e-4
    _record(p, trace.t_star)
    _report(1, f"t*_dinkelbach={trace.t_star!r}, t*_certified={cert.t!r}, "
               f"|x*|^2={float(trace.x_star @ trace.x_star)!r}")


def test_criterion_2_dinkelbach_vs_brute_force(certified_batch):
    worst_gap = 0.0
    worst_dual = 0.0
    for p, first, dual in certified_batch:
        oracle = grid_tstar_oracle(p, points=100_000)
        worst_gap = max(worst_gap, abs(first.t_star - oracle))
        worst_dual = max(
            worst_dual, float(np.linalg.norm(first.x_star - dual.x_star))
        )
        _record(p, first.t_star)
        assert abs(first.t_star - oracle) <= 1e-6
        assert np.linalg.norm(first.x_star - dual.x_star) <= 1e-6
        assert abs(first.t_star - dual.t_star) <= 1e-9 * (1 + first.t_star)
    _report(2, f"50 instances: max |t*-oracle|={worst_gap:.3e}, "
               f"max |x*-x*_dual|={worst_dual:.3e}")


def test_criterion_3_reduction_identities():
    rng = np.random.default_rng(20240405)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        p = random_problem(rng, n, m=m)
        x = rng.normal(size=n) * float(rng.uniform(0.1, 4.0))
        rep = verify_lift_identities(p, x)
        worst = max(worst, rep.contraction_gap, rep.correction_gap, rep.vector_gap)
        lifted = lift_operator(p, x)
        g_val = eval_g(p, x).g
        obj = objective_rtls(p, lifted, x)
        gap = abs(g_val - obj) / max(abs(g_val), 1e-30)
        worst = max(worst, gap)
        assert rep.contraction_gap <= 1e-10
        assert rep.correction_gap <= 1e-10
        assert gap <= 1e-10
    _report(3, f"200 instances: max relative identity gap={worst:.3e}")


def _rank_one_by_lam_max(p, rep):
    """The rank-one residual over 1 + lambda_max(W) |A|_F + |b|_W^2.

    The report divides by the larger |W|_inf in place of lambda_max(W), up
    to sqrt(m) times more; rescaling keeps the bound below as strict.
    """
    a_norm = np.linalg.norm(p.A)
    lam_max = np.linalg.eigvalsh(p.W.as_matrix())[-1]
    report_scale = 1.0 + p.W.norm_inf * a_norm + p.b_norm_w_sq
    return rep.residual_rank_one * report_scale / (1.0 + lam_max * a_norm + p.b_norm_w_sq)


def test_criterion_4_first_order_conditions(certified_batch):
    worst_normal = 0.0
    worst_rank_one = 0.0
    for p, first, _ in certified_batch:
        rep = recover_pair(p, first.x_star)
        rank_one = _rank_one_by_lam_max(p, rep)
        worst_normal = max(worst_normal, rep.residual_normal_eq)
        worst_rank_one = max(worst_rank_one, rank_one)
        assert rep.residual_normal_eq <= 1e-7
        assert rank_one <= 1e-8
    _report(4, f"50 certified minimizers: max normal residual={worst_normal:.3e}, "
               f"max rank-one residual={worst_rank_one:.3e}")


def test_criterion_5_certificate_structure():
    rng = np.random.default_rng(20240406)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        p = random_problem(rng, n)
        t = float(rng.uniform(0.0, p.b_norm_w_sq))
        alpha = float(rng.uniform(0.0, 4.0))
        beta = float(rng.uniform(0.0, 4.0))
        c_mat = assemble_c(p, t, alpha, beta)
        rho = p.T.rho
        for _ in range(100):
            x = rng.normal(size=n)
            z1, z2 = rng.normal(size=2)
            y = np.concatenate([x, [z1, z2, 1.0]])
            misfit = float(np.sum(p.W.apply(p.A @ x - p.b) * (p.A @ x - p.b)))
            expected = (
                z1 + rho * z2**2 + (rho - t) * z2 - t
                + alpha * (misfit - z1) + beta * (float(x @ x) - z2)
            )
            gap = abs(float(y @ c_mat @ y) - expected) / (1.0 + abs(expected))
            worst = max(worst, gap)
            assert gap <= 1e-10
        for _ in range(100):
            y = np.concatenate([rng.normal(size=n), rng.normal(size=2), [0.0]])
            assert float(y @ c_mat @ y) >= -1e-12
    _report(5, f"5 instances x 100 vectors: max quadratic-form gap={worst:.3e}")


def test_criterion_6_nonexistence_bounds():
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]

    p_tls = default_tls_nonexistence_model().build(200)
    assert not is_trivial_tls(p_tls, 1e-10)[0]
    seq_tls = nonexistence_tls_sequence(p_tls, eps_list)
    assert len(seq_tls.points) == 4
    wb = math.sqrt(p_tls.b_norm_w_sq)
    for pt in seq_tls.points:
        assert pt.bound == pytest.approx(pt.eps**2 * (wb + 1.0) ** 2, rel=1e-12)
        assert pt.objective <= pt.bound * (1 + 1e-8)
        assert pt.interp_residual <= 1e-12

    p_rtls = default_rtls_nonexistence_model().build(200)
    assert not is_trivial_rtls(p_rtls)[0]
    seq_rtls = nonexistence_rtls_sequence(p_rtls, eps_list)
    assert len(seq_rtls.points) >= 2
    for pt in seq_rtls.points:
        expected = pt.eps**2 * (1.0 + (wb + pt.eps**2) ** 2)
        assert pt.bound == pytest.approx(expected, rel=1e-12)
        assert pt.objective <= pt.bound * (1 + 1e-8)
        assert pt.interp_residual <= 1e-12
    _report(6, f"tls points={len(seq_tls.points)}, rtls points={len(seq_rtls.points)} "
               f"(skipped below the direction floor: {len(seq_rtls.skipped)}), "
               "all within their bounds, interpolation exact to 1e-12")


def test_criterion_7_weak_continuity():
    rows = weak_continuity_demo([1, 2, 8, 32])
    worst_i = max(abs(r.integral - 7.0 * math.pi) for r in rows)
    worst_lim = max(abs(r.limit_integral - 8.0 * math.pi) for r in rows)
    assert worst_i <= 1e-8
    assert worst_lim <= 1e-12
    _report(7, f"max |I_n - 7pi|={worst_i:.3e}, max |limit - 8pi|={worst_lim:.3e}")


def _diagonal_demo(tmp_path, spec, n):
    """The pair report and audit ``rtls demo diagonal`` writes at order n."""
    (tmp_path / "model.json").write_text(json.dumps(spec))
    out = tmp_path / "diagonal.json"
    assert main(["demo", "diagonal", "--model", str(tmp_path / "model.json"),
                 "--N", str(n), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    return report, report.pop("audit")


def test_criterion_8_diagonal_example(tmp_path):
    # all w_j a_j nonzero on the support: no tail mass
    report, audit = _diagonal_demo(
        tmp_path, {"a": [1.0] * 6, "w": [1.0] * 6, "b": [1.0, 0.0], "rho": 2.0}, 6
    )
    assert report["status"] == "solved"
    assert audit["tail_mass_fraction"] <= 1e-8

    # w_1 a_1 = 0: pooled-mass invariance of the reduced objective
    a = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    w = np.ones(5)
    b_head = np.array([1.0, 2.0])
    report2, audit2 = _diagonal_demo(
        tmp_path, {"a": a.tolist(), "w": w.tolist(), "b": b_head.tolist(), "rho": 1.0}, 5
    )
    assert audit2["rebalance_gap"] is not None and audit2["rebalance_gap"] <= 1e-10
    for mass in (0.25, 1.0, 2.5):
        pooled = _h_value(w[:2], a[:2], b_head, np.array([mass, report2["x"][1]]), 0.0, 1.0)
        spread = _h_value(w[:2], a[:2], b_head, np.array([0.0, report2["x"][1]]), mass**2, 1.0)
        assert abs(pooled - spread) <= 1e-10 * max(abs(pooled), 1.0)
    _report(8, f"tail mass fraction={audit['tail_mass_fraction']:.3e}, "
               f"rebalance gap={audit2['rebalance_gap']:.3e}")


def test_criterion_9_frechet_and_gradient():
    rng = np.random.default_rng(20240407)
    worst_frechet = 0.0
    for _ in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        w1 = random_weight(rng, m)
        w2 = random_weight(rng, m)
        x_mat = rng.normal(size=(m, n))
        y_mat = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        errs = frechet_check(w1, w2, x0, x_mat, y_mat, 1e-5)
        worst_frechet = max(worst_frechet, *errs)
        assert errs[0] <= 1e-6 and errs[1] <= 1e-6

    worst_grad = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p = random_problem(rng, n, m=int(rng.integers(1, 6)))
        if rng.uniform() < 0.5:
            p = ProblemSpec(
                p.A, p.b, p.W, RegularizerSpec.dense(rng.normal(size=(n + 1, n)))
            )
        x = rng.normal(size=n)
        grad = grad_g(p, x)
        fd = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1e-6
            fd[i] = (eval_g(p, x + e).g - eval_g(p, x - e).g) / 2e-6
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-8)
        worst_grad = max(worst_grad, rel)
        assert rel <= 1e-6
    _report(9, f"100+100 instances: max derivative-check error="
               f"{max(worst_frechet, worst_grad):.3e}")


def test_criterion_10_classic_tls():
    rng = np.random.default_rng(20240408)
    worst = 0.0
    for _ in range(20):
        a_mat = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        sol = solve_classic_tls(a_mat, b)
        correction = np.column_stack([a_mat, b]) - np.column_stack([sol.X, sol.X @ sol.x])
        frob_sq = float(np.sum(correction**2))
        gap = abs(frob_sq - sol.sigma_min**2) / max(sol.sigma_min**2, 1e-30)
        worst = max(worst, gap)
        assert gap <= 1e-10
    with pytest.raises(RepeatedSingularValueError):
        solve_classic_tls(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))
    with pytest.raises(NongenericTlsError):
        solve_classic_tls(
            np.array([[1.0, 0.0], [0.0, 1e-3], [0.0, 0.0]]),
            np.array([0.0, 0.0, 1.0]),
        )
    _report(10, f"20 generic instances: max |frob^2 - sigma_min^2| gap={worst:.3e}; "
                "both degenerate fixtures raise")


def test_criterion_11_tstar_upper_bound(certified_batch):
    assert _SOLVED, "earlier criteria must populate the solved pool"
    worst = -np.inf
    for t_star, b_sq in _SOLVED:
        worst = max(worst, t_star - b_sq)
        assert t_star <= b_sq + 1e-9
    # a fresh batch mixing certified and uncertified regimes
    rng = np.random.default_rng(20240409)
    for _ in range(20):
        p = random_problem(rng, 3, rho_factor=float(rng.uniform(0.05, 2.0)))
        trace = solve_tstar(p)
        worst = max(worst, trace.t_star - p.b_norm_w_sq)
        assert trace.t_star <= p.b_norm_w_sq + 1e-9
    _report(11, f"{len(_SOLVED) + 20} solves: max t* - |b|_W^2 = {worst:.3e}")
