"""Cross-route properties of t* = inf G for T = sqrt(rho) I.

Three routes reach t*: the scalar dual (``dual_tstar``), the Dinkelbach
reference (``solve_tstar``) and the dense-T alpha search
(``solve_rtls_general_t``) with T = sqrt(rho) I passed as a matrix.  They
must agree, and each must carry the invariance (W, rho) -> (cW, c rho),
t* -> c t*.  The dual and Dinkelbach must also carry orthogonal changes of
basis, a column permutation among them, and the dense-T search must find
the same t* for T = sqrt(rho) V with V orthogonal, since T^T T = rho I.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtls import ProblemSpec, RegularizerSpec, WeightOperator
from rtls.certificate import dual_tstar
from rtls.instances import random_problem
from rtls.solver import solve_rtls_general_t, solve_tstar

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
    report, _ = solve_rtls_general_t(dense)
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
    report, _ = solve_rtls_general_t(rotated)
    assert report.objective == pytest.approx(dual_tstar(p).t_star, rel=1e-12, abs=0.0)
