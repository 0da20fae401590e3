"""Constructive laboratory: unattained infima, truncation sweeps, quadrature.

Three phenomena are reproduced at finite truncation:

* When the weighted operator (or the combined quadratic form T^T T + A^T W A)
  has arbitrarily small directions, explicit pairs drive the objective below
  eps^2 * constant while the instance stays nontrivial; the infimum is zero
  but unattained in the limit model.
* A family of diagonal instances whose minimizer is supported on the data
  head: truncating changes nothing once the head is covered, and when some
  head weight w_j a_j vanishes, objective mass can be moved freely between
  those coordinates and the tail.
* A bilinear-map counterexample: I_n = int_0^{2pi} (2+cos nt)(2-cos nt) dt
  equals 7 pi for every n while the product of the weak limits integrates to
  8 pi; the persistent pi gap is the failure of joint weak continuity.
  The integrals use scipy's composite Simpson rule, imported on first use so
  that ``import rtls`` loads numpy only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .certificate import dual_tstar
from .classic import min_direction
from .io import read_json, real_number, real_vector
from .model import (
    ProblemFormatError,
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
    is_trivial_rtls,
    is_trivial_tls,
    objective_rtls,
    objective_tls,
    w_vec_seminorm,
)
from .reduction import eval_g, recover_pair
from .solver import (
    PAIR_STATUS,
    classify_existence,
    solve_rtls_general_t,
)

_INTERP_TOL = 1e-12
_BOUND_SLACK = 1e-8


# ---------------------------------------------------------------------------
# parametric models over the truncation order
# ---------------------------------------------------------------------------

_POWER_RE = re.compile(r"^1/k(?:\^(\d+))?$")


def _sequence(spec_val, n, name):
    """Materialize the first n terms of a sequence spec.

    Accepts a number (constant sequence), a string "1/k^p", an object
    ``{"formula": ..., "zeros": j}`` that zeroes the first j terms, or an
    explicit list (or array) of length >= n.  A wrong JSON type fails with
    the field named.
    """
    if isinstance(spec_val, (int, float)) and not isinstance(spec_val, bool):
        return np.full(n, float(spec_val))
    if isinstance(spec_val, str):
        match = _POWER_RE.match(spec_val.strip())
        if not match:
            raise ProblemFormatError(
                f"field '{name}' has unsupported sequence formula {spec_val!r}"
            )
        power = int(match.group(1) or 1)
        k = np.arange(1, n + 1, dtype=float)
        return k**-power
    if isinstance(spec_val, dict):
        unknown = set(spec_val) - {"formula", "zeros"}
        if unknown:
            raise ProblemFormatError(
                f"field '{name}' has unknown sequence keys {sorted(unknown)!r}"
            )
        if "formula" not in spec_val:
            raise ProblemFormatError(f"field '{name}' is missing its 'formula'")
        zeros = spec_val.get("zeros", 0)
        if not isinstance(zeros, int) or isinstance(zeros, bool) or zeros < 0:
            raise ProblemFormatError(f"field '{name}.zeros' must be a nonnegative integer")
        base = _sequence(spec_val["formula"], n, f"{name}.formula")
        base[:zeros] = 0.0
        return base
    if isinstance(spec_val, np.ndarray):
        arr = spec_val
    elif isinstance(spec_val, list):
        arr = real_vector(spec_val, name)
    else:
        raise ProblemFormatError(
            f"field '{name}' must be a number, a formula or a list of numbers"
        )
    if arr.ndim != 1 or arr.shape[0] < n:
        raise ProblemFormatError(
            f"field '{name}' must provide at least {n} terms"
        )
    return arr[:n].astype(float)


def _padded_head(values, n, name):
    head = np.asarray(values, dtype=float)
    if head.ndim != 1 or head.shape[0] > n:
        raise ProblemFormatError(
            f"field '{name}' must be a vector of length <= truncation order {n}"
        )
    out = np.zeros(n)
    out[: head.shape[0]] = head
    return out


@dataclass(frozen=True)
class DiagonalModel:
    """Diagonal family A = diag(a_k), W = diag(w_k) at every truncation.

    The regularizer is either the scaled identity (``rho``) or the diagonal
    operator diag(t_k) (``t``); exactly one must be given.
    """

    a: object
    w: object
    b: object
    rho: float | None = None
    t: object | None = None

    def __post_init__(self):
        if (self.rho is None) == (self.t is None):
            raise ProblemFormatError("diagonal model needs exactly one of 'rho', 't'")

    def build(self, n, rho=None):
        a = _sequence(self.a, n, "a")
        w = _sequence(self.w, n, "w")
        b = _padded_head(self.b, n, "b")
        if self.t is not None:
            reg = RegularizerSpec.dense(np.diag(_sequence(self.t, n, "t")))
        else:
            reg = RegularizerSpec.identity_scaled(rho if rho is not None else self.rho)
        return ProblemSpec(
            np.diag(a),
            b,
            WeightOperator.diagonal(w),
            reg,
            origin={"model_kind": "diagonal", "truncation_order": n},
        )


_KERNELS = {
    "named:gaussian": (0.0, 1.0, lambda s, t: np.exp(-((s - t) ** 2) / 0.02)),
    "named:cosine_demo": (0.0, 2.0 * math.pi, lambda s, t: 2.0 + np.cos(s * t)),
}


@dataclass(frozen=True)
class IntegralModel:
    """Kernel family discretized at n quadrature nodes per truncation order.

    A[i, j] = k(s_i, s_j) q_j with trapezoid weights q on the kernel domain;
    the weight and data sequences follow the diagonal conventions.
    """

    kernel: str
    grid: int
    w: object = "1/k^2"
    b: object = (1.0,)
    rho: float = 1.0

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ProblemFormatError(f"unknown kernel {self.kernel!r}")

    def build(self, n, rho=None):
        lo, hi, fun = _KERNELS[self.kernel]
        nodes = np.linspace(lo, hi, n)
        weights = np.full(n, (hi - lo) / max(n - 1, 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        a_mat = fun(nodes[:, None], nodes[None, :]) * weights[None, :]
        return ProblemSpec(
            a_mat,
            _padded_head(self.b, n, "b"),
            WeightOperator.diagonal(_sequence(self.w, n, "w")),
            RegularizerSpec.identity_scaled(rho if rho is not None else self.rho),
            origin={"model_kind": "integral", "truncation_order": n},
        )


_DIAGONAL_KEYS = {"a", "w", "b", "rho", "t"}
_INTEGRAL_KEYS = {"kernel", "grid", "w", "b", "rho"}


def model_from_dict(obj):
    """A DiagonalModel or IntegralModel from a parsed model file.

    The scalar fields and ``b`` are type-checked here; the sequence specs
    ``a``, ``w`` and ``t`` are checked by :func:`_sequence` when a truncation
    is built.  Either way a wrong JSON type fails with the field named.
    """
    if not isinstance(obj, dict):
        raise ProblemFormatError("model spec must be a JSON object")
    allowed = _INTEGRAL_KEYS if "kernel" in obj else _DIAGONAL_KEYS
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemFormatError(f"unknown model keys {sorted(unknown)!r}")
    if "b" in obj:
        real_vector(obj["b"], "b")
    rho = obj.get("rho")
    if rho is not None:
        rho = real_number(rho, "rho")
    if "kernel" in obj:
        if not isinstance(obj["kernel"], str):
            raise ProblemFormatError("field 'kernel' must be a string")
        grid = obj.get("grid", 16)
        if not isinstance(grid, int) or isinstance(grid, bool):
            raise ProblemFormatError("field 'grid' must be an integer")
        return IntegralModel(
            obj["kernel"],
            grid,
            w=obj.get("w", "1/k^2"),
            b=obj.get("b", (1.0,)),
            rho=1.0 if rho is None else rho,
        )
    missing = {"a", "w", "b"} - set(obj)
    if missing:
        raise ProblemFormatError(f"model spec missing keys {sorted(missing)!r}")
    return DiagonalModel(obj["a"], obj["w"], obj["b"], rho=rho, t=obj.get("t"))


def load_model_file(path):
    return model_from_dict(read_json(path))


def default_diagonal_model(rho=1.0):
    """Default decaying family a_k = 1/k, w_k = 1/k^2, b = e1.

    The weights are square-summable, so the limit weight has a Hilbert-
    Schmidt square root; the minimal direction value of A^T W A decays like
    k^-2 with the truncation order.
    """
    return DiagonalModel("1/k", "1/k^2", (1.0,), rho=rho)


def default_tls_nonexistence_model(rho=1.0):
    """Default family for the unregularized unattained-infimum demo.

    Same decay as :func:`default_diagonal_model` but with a_1 = 0, so that
    b = e1 stays outside R(A) + N(W) at every truncation; an invertible
    diagonal A would make every truncated instance trivial and the
    construction would correctly refuse to run.
    """
    return DiagonalModel({"formula": "1/k", "zeros": 1}, "1/k^2", (1.0,), rho=rho)


def default_rtls_nonexistence_model():
    """Decaying diagonal regularizer t_k = 1/k^2, so T^T T = diag(1/k^4).

    The regularizer is injective, hence the instance is nontrivial at every
    truncation (b = e1 never lies in N(W)), while the combined form
    T^T T + A^T W A = diag(2/k^4) has minimal direction value sqrt(2)/n^2.
    """
    return DiagonalModel("1/k", "1/k^2", (1.0,), t="1/k^2")


# ---------------------------------------------------------------------------
# unattained-infimum sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequencePoint:
    eps: float
    x_scaled: np.ndarray
    objective: float
    bound: float
    interp_residual: float


@dataclass
class SequenceResult:
    points: list[SequencePoint] = field(default_factory=list)
    skipped: list[tuple[float, str]] = field(default_factory=list)
    direction_value: float = float("nan")


def _feasible_pair(p, x_dir, eps):
    """The exactly interpolating pair (X0, x/eps) with X0 = A + eps (b - Ax/eps) x^T."""
    x_scaled = x_dir / eps
    x0_mat = p.A + eps * np.outer(p.b - p.A @ x_scaled, x_dir)
    interp = float(np.max(np.abs(x0_mat @ x_scaled - p.b), initial=0.0))
    if interp > _INTERP_TOL:
        raise RuntimeError(
            f"interpolation identity violated: |X0 (x/eps) - b| = {interp!r}"
        )
    return x0_mat, x_scaled, interp


def nonexistence_tls_sequence(p, eps_list):
    """Feasible pairs driving the unregularized objective below eps^2 (|W^{1/2}b|+1)^2.

    Requires a nontrivial instance; each eps must dominate the minimal
    direction value of A^T W A (others are skipped with a note).  If no eps
    qualifies the weighted operator is bounded below at this truncation and
    the construction is unavailable.
    """
    trivial, _ = is_trivial_tls(p, 1e-10)
    if trivial:
        raise ValueError("instance is trivial: b in R(A) + N(W); nothing to exhibit")
    x_dir, value = min_direction(p.gram_matrix)
    x_dir = x_dir / np.linalg.norm(x_dir)
    wb = math.sqrt(p.b_norm_w_sq)
    result = SequenceResult(direction_value=value)
    for eps in eps_list:
        if not value < eps:
            result.skipped.append(
                (eps, f"minimal direction value {value:.6e} >= eps")
            )
            continue
        x0_mat, x_scaled, interp = _feasible_pair(p, x_dir, eps)
        objective = objective_tls(p, x0_mat, x_scaled)
        bound = eps**2 * (wb + 1.0) ** 2
        if objective > bound * (1.0 + _BOUND_SLACK):
            raise RuntimeError(
                f"objective {objective!r} exceeds its bound {bound!r} at eps={eps!r}"
            )
        result.points.append(SequencePoint(eps, x_scaled, objective, bound, interp))
    if eps_list and not result.points:
        raise RuntimeError(
            "construction unavailable: weighted operator bounded below at this "
            f"truncation (minimal direction value {value:.6e} >= all requested eps)"
        )
    return result


def nonexistence_rtls_sequence(p, eps_list):
    """Regularized analogue with bound eps^2 (1 + (|W^{1/2}b| + eps^2)^2).

    The direction is the minimal one of T^T T + A^T W A and must have value
    below eps^2; the proof's two comparison inequalities |T x| <= value and
    |W^{1/2} A x| <= value are re-checked numerically on each point.
    """
    trivial, _ = is_trivial_rtls(p, 1e-10)
    if trivial:
        raise ValueError("instance is trivial: b in A(N(T)) + N(W); nothing to exhibit")
    n = p.shape[1]
    combined = p.T.gram(n) + p.gram_matrix
    x_dir, value = min_direction(combined)
    x_dir = x_dir / np.linalg.norm(x_dir)
    wb = math.sqrt(p.b_norm_w_sq)

    slack = 1e-9 * (1.0 + value)
    t_norm = math.sqrt(p.T.value(x_dir))
    wa_norm = w_vec_seminorm(p.W, p.A @ x_dir)
    if t_norm > value + slack or wa_norm > value + slack:
        raise RuntimeError(
            "direction comparison failed: "
            f"|Tx|={t_norm!r}, |W^(1/2)Ax|={wa_norm!r}, value={value!r}"
        )

    result = SequenceResult(direction_value=value)
    for eps in eps_list:
        if not value < eps * eps:
            result.skipped.append(
                (eps, f"minimal direction value {value:.6e} >= eps^2")
            )
            continue
        x0_mat, x_scaled, interp = _feasible_pair(p, x_dir, eps)
        objective = objective_rtls(p, x0_mat, x_scaled)
        bound = eps**2 * (1.0 + (wb + eps**2) ** 2)
        if objective > bound * (1.0 + _BOUND_SLACK):
            raise RuntimeError(
                f"objective {objective!r} exceeds its bound {bound!r} at eps={eps!r}"
            )
        result.points.append(SequencePoint(eps, x_scaled, objective, bound, interp))
    if eps_list and not result.points:
        raise RuntimeError(
            "construction unavailable: combined quadratic form bounded below at "
            f"this truncation (minimal direction value {value:.6e} >= all eps^2)"
        )
    return result


# ---------------------------------------------------------------------------
# diagonal example with critical-point audit
# ---------------------------------------------------------------------------


@dataclass
class DiagonalAudit:
    """Critical-point facts for the head-supported diagonal family.

    D is the set of head indices with w_j a_j != 0 (where any off-axis
    critical point must satisfy alpha_j = b_j / a_j); C its complement, whose
    coordinates are interchangeable with the tail.
    """

    head: int
    zero_indices: list[int]
    tail_mass_fraction: float
    alpha_deviations: np.ndarray
    critical_condition_ok: bool
    rebalance_gap: float | None


def _h_value(w_head, a_head, b_head, alpha, extra_norm_sq, rho):
    num = float(np.sum(w_head * (a_head * alpha - b_head) ** 2))
    total_sq = float(alpha @ alpha) + extra_norm_sq
    return num / (1.0 + total_sq) + rho * total_sq


def diagonal_solve(a, w, b_head, rho, n):
    """Solve the truncated diagonal instance and audit its critical points.

    a and w are sequence specs as in a model file (a number, a "1/k^p"
    formula, a formula object, or at least n explicit terms).  b must be
    supported on the first N = len(b_head) coordinates with N <= n;
    when every head coefficient w_j a_j is nonzero the minimizer carries no
    mass beyond the head (enforced to 1e-8 of |x*|^2), and when some vanish
    the pooled objective is invariant under moving that mass onto any such
    coordinate (the reported rebalance gap).
    """
    a = _sequence(a, n, "a")
    w = _sequence(w, n, "w")
    b_head = np.asarray(b_head, dtype=float)
    head = b_head.shape[0]
    if head > n:
        raise ValueError("b support exceeds the truncation order")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")

    model = DiagonalModel(a, w, b_head, rho=rho)
    p = model.build(n)
    sol = dual_tstar(p)
    report = recover_pair(p, sol.x_star, status=PAIR_STATUS[classify_existence(p, sol)])

    x = sol.x_star
    wa_head = w[:head] * a[:head]
    wa_scale = float(np.max(np.abs(wa_head), initial=0.0))
    nonzero = np.abs(wa_head) > 1e-14 * max(1.0, wa_scale)
    zero_indices = [int(i) for i in np.nonzero(~nonzero)[0]]

    norm_sq = float(x @ x)
    tail_mass = float(x[head:] @ x[head:])
    tail_fraction = tail_mass / max(norm_sq, 1e-300)

    with np.errstate(divide="ignore", invalid="ignore"):
        targets = np.where(nonzero, b_head / np.where(a[:head] == 0, 1.0, a[:head]), 0.0)
    deviations = np.where(nonzero, np.abs(x[:head] - targets), 0.0)
    s_norm = math.sqrt(tail_mass)
    critical_ok = s_norm <= 1e-8 * (1.0 + math.sqrt(norm_sq)) or bool(
        np.all(deviations <= 1e-6 * (1.0 + np.abs(targets)))
    )

    rebalance_gap = None
    if zero_indices:
        pooled_sq = float(np.sum(x[zero_indices] ** 2)) + tail_mass
        alpha_star = x[:head].copy()
        h_spread = _h_value(w[:head], a[:head], b_head, alpha_star, tail_mass, rho)
        alpha_hat = alpha_star.copy()
        alpha_hat[zero_indices] = 0.0
        alpha_hat[zero_indices[0]] = math.sqrt(pooled_sq)
        h_pooled = _h_value(w[:head], a[:head], b_head, alpha_hat, 0.0, rho)
        rebalance_gap = abs(h_pooled - h_spread) / max(abs(h_pooled), 1.0)
    elif tail_fraction > 1e-8:
        raise RuntimeError(
            "minimizer carries tail mass although every head coefficient "
            f"w_j a_j is nonzero (fraction {tail_fraction!r})"
        )

    audit = DiagonalAudit(
        head=head,
        zero_indices=zero_indices,
        tail_mass_fraction=tail_fraction,
        alpha_deviations=deviations,
        critical_condition_ok=critical_ok,
        rebalance_gap=rebalance_gap,
    )
    return report, audit


# ---------------------------------------------------------------------------
# truncation sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    n: int
    t_star: float
    x_norm: float
    objective: float
    status: str


def truncation_sweep(model, n_list, rho=None):
    """Solve the model at each truncation order and tabulate the results.

    Every truncated instance is coercive, hence solvable; the sweep records
    how the infimum and minimizer norm drift with the order without asserting
    any limit.  Scaled-identity instances run the certified solver; dense
    regularizers run the global alpha search of ``solve_rtls_general_t``.
    """
    rows = []
    previous = 0
    for n in n_list:
        if n <= previous:
            raise ValueError("truncation orders must be strictly increasing")
        previous = n
        p = model.build(n, rho=rho)
        if p.T.kind == "identity_scaled":
            sol = dual_tstar(p)
            rows.append(
                SweepRow(
                    n,
                    float(sol.t_star),
                    float(np.linalg.norm(sol.x_star)),
                    eval_g(p, sol.x_star).g,
                    classify_existence(p, sol),
                )
            )
        else:
            report = solve_rtls_general_t(p)
            rows.append(
                SweepRow(
                    n,
                    float(report.objective),
                    float(np.linalg.norm(report.x)),
                    float(report.objective),
                    report.status,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# weak-continuity quadrature demo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakContinuityRow:
    n: int
    integral: float
    limit_integral: float


def weak_continuity_demo(n_list, quad_points=8193):
    """Composite-Simpson evidence that the pairing is not weakly continuous.

    I_n = int_0^{2pi} (2 + cos nt)(2 - cos nt) dt = 7 pi for every n, while
    the product of the weak limits integrates to 8 pi.  Both values are
    checked against their closed forms (1e-8 and 1e-12); the persistent pi
    gap is the demonstration.
    """
    n_list = [int(v) for v in n_list]
    if not n_list or min(n_list) < 1:
        raise ValueError("frequency list must contain positive integers")
    required = 64 * max(n_list) + 1
    if quad_points % 2 == 0 or quad_points < required:
        raise ValueError(
            f"insufficient quadrature resolution: need an odd count >= {required}"
        )
    from scipy.integrate import simpson

    t = np.linspace(0.0, 2.0 * math.pi, quad_points)
    limit = float(simpson(np.full_like(t, 4.0), x=t))
    if abs(limit - 8.0 * math.pi) > 1e-12:
        raise RuntimeError(f"limit integral {limit!r} is not 8 pi to 1e-12")
    rows = []
    for n in n_list:
        integrand = (2.0 + np.cos(n * t)) * (2.0 - np.cos(n * t))
        value = float(simpson(integrand, x=t))
        if abs(value - 7.0 * math.pi) > 1e-8:
            raise RuntimeError(f"I_{n} = {value!r} is not 7 pi to 1e-8")
        rows.append(WeakContinuityRow(n, value, limit))
    return rows
