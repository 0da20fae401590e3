"""Constructive laboratory: unattained infima, truncation sweeps, quadrature.

The lab builds truncations and audits reports; :mod:`rtls.cli` solves them.

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
  The integrals are composite Simpson sums in numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

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
    w_vec_seminorm_sq,
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
    if isinstance(spec_val, (list, np.ndarray)):
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

    def build(self, n):
        a = _sequence(self.a, n, "a")
        w = _sequence(self.w, n, "w")
        b = _padded_head(self.b, n, "b")
        if self.t is not None:
            reg = RegularizerSpec.dense(np.diag(_sequence(self.t, n, "t")))
        else:
            reg = RegularizerSpec.identity_scaled(self.rho)
        return ProblemSpec(
            np.diag(a),
            b,
            WeightOperator.diagonal(w, "w"),
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
    w: object = "1/k^2"
    b: object = (1.0,)
    rho: float = 1.0

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ProblemFormatError(f"unknown kernel {self.kernel!r}")

    def build(self, n):
        lo, hi, fun = _KERNELS[self.kernel]
        nodes = np.linspace(lo, hi, n)
        weights = np.full(n, (hi - lo) / max(n - 1, 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        a_mat = fun(nodes[:, None], nodes[None, :]) * weights[None, :]
        return ProblemSpec(
            a_mat,
            _padded_head(self.b, n, "b"),
            WeightOperator.diagonal(_sequence(self.w, n, "w"), "w"),
            RegularizerSpec.identity_scaled(self.rho),
            origin={"model_kind": "integral", "truncation_order": n},
        )


_DIAGONAL_KEYS = {"a", "w", "b", "rho", "t"}
_INTEGRAL_KEYS = {"kernel", "w", "b", "rho"}


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
        if not 0.0 < rho < math.inf:
            raise ProblemFormatError("field 'rho' must be a positive real")
    if "kernel" in obj:
        if not isinstance(obj["kernel"], str):
            raise ProblemFormatError("field 'kernel' must be a string")
        return IntegralModel(
            obj["kernel"],
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
    objective: float
    bound: float
    interp_residual: float
    x_scaled: np.ndarray


@dataclass(frozen=True)
class SkippedEps:
    eps: float
    reason: str


@dataclass
class SequenceResult:
    direction_value: float
    points: list[SequencePoint] = field(default_factory=list)
    skipped: list[SkippedEps] = field(default_factory=list)


def _feasible_pair(p, x_dir, eps):
    """The exactly interpolating pair (X0, x/eps) with X0 = A + eps (b - Ax/eps) x^T.

    The residual X0 (x/eps) - b cancels terms of size |A| |x/eps| + |b|, so
    it is held to 1e-12 of their largest component.  Returns (X0, x/eps,
    its largest entry, its squared W-seminorm: the fit term of the objective).
    """
    x_scaled = x_dir / eps
    x0_mat = p.A + eps * np.outer(p.b - p.A @ x_scaled, x_dir)
    resid = x0_mat @ x_scaled - p.b
    interp = float(np.max(np.abs(resid), initial=0.0))
    scale = float(np.max(np.abs(p.A) @ np.abs(x_scaled) + np.abs(p.b), initial=0.0))
    if interp > _INTERP_TOL * scale:
        raise RuntimeError(
            f"interpolation identity violated: |X0 (x/eps) - b| = {interp!r}"
        )
    return x0_mat, x_scaled, interp, w_vec_seminorm_sq(p.W, resid)


_BOUND_OVERFLOW = "objective bound is not finite"


def _exact_pairs(p, eps_list, x_dir, value, floor, label, objective, bound, unavailable):
    """One pair per eps with value < floor(eps), its objective held below bound(eps).

    Other eps are skipped, as is an eps whose bound overflows; if none
    qualifies the construction is unavailable.  The objective may exceed
    the bound by the fit term |X0 (x/eps) - b|_W^2, which is zero in exact
    arithmetic: its rounding can outweigh a bound as small as eps^2 at
    eps = 1e-9.
    """
    result = SequenceResult(value)
    for eps in eps_list:
        if not value < floor(eps):
            reason = f"minimal direction value {value:.6e} >= {label}"
            result.skipped.append(SkippedEps(eps, reason))
            continue
        limit = bound(eps)
        if not math.isfinite(limit):
            result.skipped.append(SkippedEps(eps, _BOUND_OVERFLOW))
            continue
        x0_mat, x_scaled, interp, misfit = _feasible_pair(p, x_dir, eps)
        obj = objective(p, x0_mat, x_scaled)
        if obj > limit * (1.0 + _BOUND_SLACK) + misfit:
            raise RuntimeError(
                f"objective {obj!r} exceeds its bound {limit!r} at eps={eps!r}"
            )
        result.points.append(SequencePoint(eps, obj, limit, interp, x_scaled))
    if eps_list and not result.points:
        if any(skip.reason == _BOUND_OVERFLOW for skip in result.skipped):
            unavailable = (f"{_BOUND_OVERFLOW} at each eps with minimal direction "
                           f"value {value:.6e} < {label}")
        raise RuntimeError(f"construction unavailable: {unavailable}")
    return result


def nonexistence_tls_sequence(p, eps_list):
    """Feasible pairs driving the unregularized objective below eps^2 (|W^{1/2}b|+1)^2.

    Requires a nontrivial instance; each eps must dominate the minimal
    direction value of A^T W A (others are skipped with a note).  If no eps
    qualifies the weighted operator is bounded below at this truncation and
    the construction is unavailable.
    """
    trivial, _ = is_trivial_tls(p)
    if trivial:
        raise ValueError("instance is trivial: b in R(A) + N(W); nothing to exhibit")
    x_dir, value = min_direction(p.gram_matrix)
    wb = math.sqrt(p.b_norm_w_sq)
    return _exact_pairs(
        p, eps_list, x_dir, value, lambda eps: eps, "eps", objective_tls,
        lambda eps: eps * eps * ((wb + 1.0) * (wb + 1.0)),
        "weighted operator bounded below at this truncation "
        f"(minimal direction value {value:.6e} >= all requested eps)",
    )


def nonexistence_rtls_sequence(p, eps_list):
    """Regularized analogue with bound eps^2 (1 + (|W^{1/2}b| + eps^2)^2).

    The direction is the minimal one of T^T T + A^T W A and must have value
    below eps^2; the proof's two comparison inequalities |T x| <= value and
    |W^{1/2} A x| <= value are re-checked numerically on each point.
    """
    trivial, _ = is_trivial_rtls(p)
    if trivial:
        raise ValueError("instance is trivial: b in A(N(T)) + N(W); nothing to exhibit")
    n = p.shape[1]
    combined = p.T.gram(n) + p.gram_matrix
    x_dir, value = min_direction(combined)
    wb = math.sqrt(p.b_norm_w_sq)

    slack = 1e-9 * (1.0 + value)
    t_norm = math.sqrt(p.T.value(x_dir))
    wa_norm = w_vec_seminorm(p.W, p.A @ x_dir)
    if t_norm > value + slack or wa_norm > value + slack:
        raise RuntimeError(
            "direction comparison failed: "
            f"|Tx|={t_norm!r}, |W^(1/2)Ax|={wa_norm!r}, value={value!r}"
        )
    return _exact_pairs(
        p, eps_list, x_dir, value, lambda eps: eps * eps, "eps^2", objective_rtls,
        lambda eps: eps * eps * (1.0 + (wb + eps * eps) * (wb + eps * eps)),
        "combined quadratic form bounded below at this truncation "
        f"(minimal direction value {value:.6e} >= all eps^2)",
    )


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
    critical_condition_ok: bool
    rebalance_gap: float | None


def _h_value(w_head, a_head, b_head, alpha, extra_norm_sq, rho):
    num = float(np.sum(w_head * (a_head * alpha - b_head) ** 2))
    total_sq = float(alpha @ alpha) + extra_norm_sq
    return num / (1.0 + total_sq) + rho * total_sq


def diagonal_problem(model, n):
    """The truncation at order n that the diagonal demo solves and audits.

    The model must be diagonal with a scaled-identity ``rho``; b must have
    N = len(b) <= n entries, checked by :meth:`DiagonalModel.build`.
    """
    if not isinstance(model, DiagonalModel) or model.rho is None:
        raise ProblemFormatError(
            "the diagonal demo needs a diagonal model with a scaled-identity 'rho'"
        )
    return model.build(n)


def diagonal_audit(model, p, report):
    """Critical-point audit of ``report``, the pair report of p = diagonal_problem(model, n).

    When every head coefficient w_j a_j is nonzero the minimizer carries no
    mass beyond the head (enforced to 1e-8 of |x*|^2), and when some vanish
    the pooled objective is invariant under moving that mass onto any such
    coordinate (the reported rebalance gap).  Each audit threshold is
    relative, to max |w_j a_j|, |x*|, |b_j / a_j| or the pooled objective,
    so that (W, rho) and (cW, c rho) audit alike.
    """
    a, w, rho = np.diag(p.A), p.W.data, p.T.rho
    head = np.shape(model.b)[0]
    b_head = p.b[:head]

    x = report.x
    wa_head = w[:head] * a[:head]
    wa_scale = float(np.max(np.abs(wa_head), initial=0.0))
    nonzero = np.abs(wa_head) > 1e-14 * wa_scale
    zero_indices = [int(i) for i in np.nonzero(~nonzero)[0]]

    norm_sq = float(x @ x)
    tail_mass = float(x[head:] @ x[head:])
    tail_fraction = tail_mass / max(norm_sq, 1e-300)

    with np.errstate(divide="ignore", invalid="ignore"):
        targets = np.where(nonzero, b_head / np.where(a[:head] == 0, 1.0, a[:head]), 0.0)
    deviations = np.where(nonzero, np.abs(x[:head] - targets), 0.0)
    s_norm = math.sqrt(tail_mass)
    critical_ok = s_norm <= 1e-8 * math.sqrt(norm_sq) or bool(
        np.all(deviations <= 1e-6 * np.linalg.norm(targets))
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
        gap = abs(h_pooled - h_spread)
        rebalance_gap = gap / h_pooled if gap else 0.0
    elif tail_fraction > 1e-8:
        raise RuntimeError(
            "minimizer carries tail mass although every head coefficient "
            f"w_j a_j is nonzero (fraction {tail_fraction!r})"
        )

    return DiagonalAudit(
        head=head,
        zero_indices=zero_indices,
        tail_mass_fraction=tail_fraction,
        critical_condition_ok=critical_ok,
        rebalance_gap=rebalance_gap,
    )


# ---------------------------------------------------------------------------
# truncation sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """A row of ``rtls demo sweep``: the report ``rtls solve`` gives for the
    truncation at order N, whose objective is t* = G(x*).  Rows record how
    the infimum and minimizer norm drift with N; no limit is asserted."""

    N: int
    x_norm: float
    objective: float
    status: str


# ---------------------------------------------------------------------------
# weak-continuity quadrature demo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakContinuityRow:
    n: int
    integral: float
    limit_integral: float


def weak_continuity_demo(n_list):
    """Composite-Simpson evidence that the pairing is not weakly continuous.

    I_n = int_0^{2pi} (2 + cos nt)(2 - cos nt) dt = 7 pi for every n, while
    the product of the weak limits integrates to 8 pi.  Both values are
    checked against their closed forms (1e-8 and 1e-12); the persistent pi
    gap is the demonstration.  On a grid of 64 max(n) + 1 nodes, spacing h,
    Simpson's sum is h/3 (f_0 + f_N + 4 sum f_odd + 2 sum f_even-interior).
    """
    n_list = [int(v) for v in n_list]
    if not n_list or min(n_list) < 1:
        raise ValueError("frequency list must contain positive integers")
    quad_points = 64 * max(n_list) + 1
    t = np.linspace(0.0, 2.0 * math.pi, quad_points)
    h = 2.0 * math.pi / (quad_points - 1)

    def simpson(f):
        return h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))

    limit = float(simpson(np.full_like(t, 4.0)))
    if abs(limit - 8.0 * math.pi) > 1e-12:
        raise RuntimeError(f"limit integral {limit!r} is not 8 pi to 1e-12")
    rows = []
    for n in n_list:
        integrand = (2.0 + np.cos(n * t)) * (2.0 - np.cos(n * t))
        value = float(simpson(integrand))
        if abs(value - 7.0 * math.pi) > 1e-8:
            raise RuntimeError(f"I_{n} = {value!r} is not 7 pi to 1e-8")
        rows.append(WeakContinuityRow(n, value, limit))
    return rows
