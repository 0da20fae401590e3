"""Weighted and Tikhonov-regularized total least squares, desk scale.

Finite-dimensional models of the TLS family

    min |A - X|_{2,W}^2 + |Xx - b|_W^2            (+ |Tx|^2 regularized)

with the one-variable reduction through the rank-one lift, an exact scalar
dual and a Dinkelbach solver for T = sqrt(rho) I, a semidefinite
certificate of the infimum, a classic SVD baseline, and a laboratory of
unattained-infimum constructions.
"""

from .model import (
    PairReport,
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
from .reduction import (
    GValue,
    correction_vector,
    eval_g,
    lift_operator,
    normal_residual,
    recover_pair,
    verify_lift_identities,
)
from .trs import TrsSolution, trs_equality
from .solver import (
    DinkelbachSolution,
    eval_phi,
    grad_g,
    solve_rtls_general_t,
    solve_tstar,
)
from .certificate import (
    Certificate,
    DualSolution,
    assemble_c,
    certify_tstar,
    classify_existence,
    dual_tstar,
    feasible_at_t,
)
from .classic import (
    ClassicTlsSolution,
    NongenericTlsError,
    RepeatedSingularValueError,
    min_direction,
    solve_classic_tls,
)
from .lab import (
    DiagonalModel,
    IntegralModel,
    SequencePoint,
    SweepRow,
    default_diagonal_model,
    default_rtls_nonexistence_model,
    default_tls_nonexistence_model,
    diagonal_audit,
    diagonal_problem,
    nonexistence_rtls_sequence,
    nonexistence_tls_sequence,
    weak_continuity_demo,
)

__version__ = "0.1.0"
