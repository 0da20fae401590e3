"""Command-line interface.

Commands
    solve        solve a problem file, write a pair report
    certify      certify the infimum via the semidefinite characterization
    classic-tls  unweighted SVD baseline on (A, b)
    demo         lab artifacts: nonexist-tls, nonexist-rtls, diagonal,
                 sweep, weakcont

Exit codes: 0 success (status solved or trivial, assertions passed),
2 best-effort result whose existence/uniqueness is not certified,
1 any error.  RTLS_LOG={debug,info,warning} controls verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import io as rio
from .certificate import certify_tstar, dual_tstar
from .classic import solve_classic_tls
from .instances import random_problem
from .lab import (
    DiagonalModel,
    diagonal_solve,
    load_model_file,
    nonexistence_rtls_sequence,
    nonexistence_tls_sequence,
    truncation_sweep,
    weak_continuity_demo,
)
from .model import (
    ProblemFormatError,
    STATUS_SOLVED,
    STATUS_TRIVIAL,
    is_trivial_rtls,
)
from .reduction import recover_pair
from .solver import (
    PAIR_STATUS,
    VERDICT_CONVERGED,
    classify_existence,
    solve_rtls_general_t,
    solve_tstar,
)

logger = logging.getLogger("rtls.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _emit(obj, out, fmt="json", rows=None):
    """Write the artifact to ``out`` or stdout; rows enable csv output."""
    if fmt == "csv":
        if rows is None:
            raise ValueError("this artifact has no tabular form; use --format json")
        header, table = rows
        if out:
            rio.write_csv(out, header, table)
        else:
            sys.stdout.write(rio.csv_text(header, table))
        return
    if out:
        rio.write_json(out, obj)
    else:
        sys.stdout.write(rio.canonical_json(obj) + "\n")


def cmd_solve(args):
    p = rio.load_problem(args.problem)
    meta = {"command": "solve", "seed": args.seed}
    if p.T.kind == "identity_scaled":
        sol = dual_tstar(p)
        status = PAIR_STATUS[classify_existence(p, sol)]
        report = recover_pair(p, sol.x_star, status=status)
        meta["t_star"] = float(sol.t_star)
        meta["t_dual"] = float(sol.t_dual)
        meta["dual_steps"] = sol.steps
    else:
        trivial, witness = is_trivial_rtls(p, 1e-10)
        if trivial:
            report = recover_pair(p, witness, status=STATUS_TRIVIAL)
        else:
            report = solve_rtls_general_t(p)
    out = rio.pair_report_to_dict(report)
    out["meta"] = meta
    _emit(out, args.out)
    return EXIT_OK if report.status in (STATUS_SOLVED, STATUS_TRIVIAL) else EXIT_NOT_CERTIFIED


def _certify_one(p, args):
    """Certify t* and cross-check it against the Dinkelbach reference.

    The two agree when they differ by at most tol_t (default
    1e-10 (1 + |b|_W^2)).
    """
    trace = solve_tstar(p)
    if trace.verdict != VERDICT_CONVERGED:
        raise RuntimeError("reference solver did not converge")
    tol_t = args.tol_t if args.tol_t is not None else 1e-10 * (1.0 + p.b_norm_w_sq)
    cert = certify_tstar(p, tol_t=tol_t, keep_c=args.keep_c)
    gap = abs(cert.t - trace.t_star)
    return cert, trace, gap, gap <= tol_t


def cmd_certify(args):
    if not args.batch and not args.problem:
        raise ProblemFormatError("certify needs --problem or --batch")
    if args.batch:
        rng = np.random.default_rng(args.seed)
        results = []
        all_agree = True
        for index in range(args.batch):
            p = random_problem(rng, 3)
            cert, trace, gap, agrees = _certify_one(p, args)
            all_agree &= agrees
            entry = rio.certificate_to_dict(cert, keep_c=args.keep_c)
            entry.update({
                "instance": index,
                "t_dinkelbach": float(trace.t_star),
                "agreement_gap": gap,
                "agrees": agrees,
            })
            results.append(entry)
        _emit({"batch": results, "meta": {"seed": args.seed}}, args.out)
        return EXIT_OK if all_agree else EXIT_NOT_CERTIFIED

    p = rio.load_problem(args.problem)
    cert, trace, gap, agrees = _certify_one(p, args)
    out = rio.certificate_to_dict(cert, keep_c=args.keep_c)
    out["meta"] = {
        "command": "certify",
        "t_dinkelbach": float(trace.t_star),
        "agreement_gap": gap,
    }
    _emit(out, args.out)
    return EXIT_OK if agrees else EXIT_NOT_CERTIFIED


def cmd_classic_tls(args):
    p = rio.load_problem(args.problem)
    if p.W.kind != "diagonal" or not np.allclose(p.W.data, 1.0):
        logger.warning("classic-tls ignores the weight and regularizer of the problem file")
    solution = solve_classic_tls(p.A, p.b)
    out = {
        "x": [float(v) for v in solution.x],
        "sigma_min": float(solution.sigma_min),
        "objective": float(solution.sigma_min**2),
        "constraint_residual": float(solution.residual),
    }
    _emit(out, args.out)
    return EXIT_OK


def cmd_demo(args):
    if args.demo_command in ("nonexist-tls", "nonexist-rtls"):
        model = load_model_file(args.model)
        p = model.build(args.N)
        run = (
            nonexistence_tls_sequence
            if args.demo_command == "nonexist-tls"
            else nonexistence_rtls_sequence
        )
        result = run(p, _parse_floats(args.eps))
        for eps, reason in result.skipped:
            logger.info("eps=%g skipped: %s", eps, reason)
        _emit(
            rio.sequence_result_to_dict(result),
            args.out,
            args.format,
            rows=rio.sequence_result_rows(result),
        )
        return EXIT_OK
    if args.demo_command == "diagonal":
        model = load_model_file(args.model)
        if not isinstance(model, DiagonalModel) or model.rho is None:
            raise ProblemFormatError(
                "the diagonal demo needs a diagonal model with a scaled-identity 'rho'"
            )
        report, audit = diagonal_solve(model.a, model.w, model.b, model.rho, args.N)
        out = rio.pair_report_to_dict(report)
        out["audit"] = {
            "head": audit.head,
            "zero_indices": audit.zero_indices,
            "tail_mass_fraction": float(audit.tail_mass_fraction),
            "critical_condition_ok": audit.critical_condition_ok,
            "rebalance_gap": (
                None if audit.rebalance_gap is None else float(audit.rebalance_gap)
            ),
        }
        _emit(out, args.out)
        return EXIT_OK
    if args.demo_command == "sweep":
        model = load_model_file(args.model)
        rows = truncation_sweep(model, _parse_ints(args.N))
        _emit(
            rio.sweep_to_dict(rows),
            args.out,
            args.format,
            rows=rio.sweep_rows(rows),
        )
        return EXIT_OK
    if args.demo_command == "weakcont":
        rows = weak_continuity_demo(_parse_ints(args.n), quad_points=args.quad_points)
        _emit(
            rio.weakcont_to_dict(rows),
            args.out,
            args.format,
            rows=rio.weakcont_rows(rows),
        )
        return EXIT_OK
    raise ProblemFormatError(f"unknown demo {args.demo_command!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rtls",
        description="weighted/regularized total least squares solver and lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--out")
    solve.add_argument("--format", choices=("json",), default="json")
    solve.add_argument("--seed", type=int, default=0)
    solve.set_defaults(func=cmd_solve)

    certify = sub.add_parser("certify", help="certify the infimum")
    certify.add_argument("--problem")
    certify.add_argument("--out")
    certify.add_argument("--tol-t", type=float, default=None)
    certify.add_argument("--keep-C", dest="keep_c", action="store_true")
    certify.add_argument("--batch", type=int, default=0)
    certify.add_argument("--seed", type=int, default=0)
    certify.set_defaults(func=cmd_certify)

    classic = sub.add_parser("classic-tls", help="unweighted SVD baseline")
    classic.add_argument("--problem", required=True)
    classic.add_argument("--out")
    classic.set_defaults(func=cmd_classic_tls)

    demo = sub.add_parser("demo", help="lab artifacts")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)
    for name in ("nonexist-tls", "nonexist-rtls"):
        d = demo_sub.add_parser(name)
        d.add_argument("--model", required=True)
        d.add_argument("--eps", required=True)
        d.add_argument("--N", type=int, default=200)
        d.add_argument("--out")
        d.add_argument("--format", choices=("json", "csv"), default="json")
        d.set_defaults(func=cmd_demo)
    d = demo_sub.add_parser("diagonal")
    d.add_argument("--model", required=True)
    d.add_argument("--N", type=int, default=8)
    d.add_argument("--out")
    d.add_argument("--format", choices=("json",), default="json")
    d.set_defaults(func=cmd_demo)
    d = demo_sub.add_parser("sweep")
    d.add_argument("--model", required=True)
    d.add_argument("--N", required=True)
    d.add_argument("--out")
    d.add_argument("--format", choices=("json", "csv"), default="json")
    d.set_defaults(func=cmd_demo)
    d = demo_sub.add_parser("weakcont")
    d.add_argument("--n", default="1,2,8,32")
    d.add_argument("--quad-points", type=int, default=8193)
    d.add_argument("--out")
    d.add_argument("--format", choices=("json", "csv"), default="json")
    d.set_defaults(func=cmd_demo)
    return parser


def _configure_logging():
    level = os.environ.get("RTLS_LOG", "warning").lower()
    logging.basicConfig(
        level={"debug": logging.DEBUG, "info": logging.INFO}.get(level, logging.WARNING)
    )


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        # every rtls error (ProblemFormatError, the classic-TLS and secular
        # bracketing errors) derives from one of these
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
