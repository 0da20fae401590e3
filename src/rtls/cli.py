"""Command-line interface.

Commands
    solve        solve a problem file, write a pair report
    certify      certify the infimum via the semidefinite characterization
    classic-tls  unweighted SVD baseline on (A, b)
    demo         lab artifacts: nonexist-tls, nonexist-rtls, diagonal,
                 sweep, weakcont

Exit codes: 0 success (status solved or trivial, assertions passed),
2 best-effort result whose existence/uniqueness is not certified,
1 any error, usage errors included.  RTLS_LOG={debug,info,warning} controls verbosity.

Each command's arguments are declared by one function in ``COMMANDS``.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys

import numpy as np

from . import io as rio
from .certificate import certify_tstar, classify_existence, default_tol_t, dual_tstar
from .classic import solve_classic_tls
from .lab import (
    SweepRow,
    diagonal_audit,
    diagonal_problem,
    load_model_file,
    nonexistence_rtls_sequence,
    nonexistence_tls_sequence,
    weak_continuity_demo,
)
from .model import ProblemFormatError, STATUS_SOLVED, STATUS_TRIVIAL
from .reduction import recover_pair
from .solver import solve_rtls_general_t, solve_tstar

logger = logging.getLogger("rtls.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _at_least(convert, low):
    """An argparse type: ``convert(text)``, finite and >= low."""

    def parse(text):
        value = convert(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite value >= {low}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # a non-number reads "invalid int value"
    return parse


def _positive_list(convert, increasing=False, most=math.inf):
    """An argparse type: comma-separated ``convert`` values, at least one, each finite,
    > 0 and <= most; with ``increasing``, each above the one before."""

    def parse(text):
        values = [convert(v) for v in text.split(",") if v.strip()]
        if not values or not all(0 < v < math.inf for v in values):
            raise argparse.ArgumentTypeError(
                f"expected a list of finite values > 0, got {text!r}"
            )
        if increasing and not all(a < b for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError(f"expected strictly increasing values, got {text!r}")
        if max(values) > most:
            raise argparse.ArgumentTypeError(f"expected values <= {most}, got {text!r}")
        return values

    parse.__name__ = f"{convert.__name__} list"  # a non-number reads "invalid int list value"
    return parse


def _emit(obj, out):
    """Write the JSON artifact to ``out`` or stdout."""
    if out:
        rio.write_json(out, obj)
    else:
        sys.stdout.write(rio.canonical_json(obj) + "\n")


def solve_problem(p):
    """The pair report of p, status included, and the ``meta`` record of its route.

    The one solve route of ``solve`` and of the ``diagonal`` and ``sweep``
    demos: the scalar dual with its classified status for T = sqrt(rho) I,
    the dense-T search otherwise.
    """
    if p.T.kind == "identity_scaled":
        sol = dual_tstar(p)
        x, status = sol.x_star, classify_existence(p, sol)
        meta = {"t_star": float(sol.t_star), "t_dual": float(sol.t_dual), "dual_steps": sol.steps}
    else:
        x, status, search = solve_rtls_general_t(p)
        meta = {} if search is None else {"alpha_search": search}
    return recover_pair(p, x, status=status), meta


def cmd_solve(args):
    report, meta = solve_problem(rio.load_problem(args.problem))
    _emit({**vars(report), "meta": {"command": "solve", **meta}}, args.out)
    return EXIT_OK if report.status in (STATUS_SOLVED, STATUS_TRIVIAL) else EXIT_NOT_CERTIFIED


def cmd_certify(args):
    """Certify t* and cross-check it against the Dinkelbach reference: the two agree
    within 1e-10 |b|_W^2 (:func:`default_tol_t`) and share no computed value but
    the eigh of A^T W A."""
    p = rio.load_problem(args.problem)
    if p.T.kind != "identity_scaled":
        raise ProblemFormatError(
            f"field 'T.kind' must be 'identity_scaled' for certify, got {p.T.kind!r}"
        )
    reference = solve_tstar(p)
    cert = certify_tstar(p)
    gap = abs(cert.t - reference.t_star)
    fields = {k: v for k, v in vars(cert).items() if k != "C" or args.keep_c}
    meta = {"command": "certify", "t_dinkelbach": reference.t_star, "agreement_gap": gap}
    _emit({**fields, "meta": meta}, args.out)
    return EXIT_OK if gap <= default_tol_t(p) else EXIT_NOT_CERTIFIED


def cmd_classic_tls(args):
    p = rio.load_problem(args.problem)
    if not np.array_equal(p.W.as_matrix(), np.eye(p.W.dim)):
        logger.warning("classic-tls ignores the problem's weight, which is not the identity")
    _emit(solve_classic_tls(p.A, p.b), args.out)
    return EXIT_OK


def _emit_table(args, rows, obj=None):
    """A table demo's artifact: JSON (``obj``, by default one object per row),
    or csv with a column per field of the row dataclass that holds no array."""
    if args.format == "json":
        _emit({"rows": rows} if obj is None else obj, args.out)
        return
    header = [k for k, v in vars(rows[0]).items() if not isinstance(v, np.ndarray)]
    table = [[getattr(row, k) for k in header] for row in rows]
    if args.out:
        rio.write_csv(args.out, header, table)
    else:
        sys.stdout.write(rio.csv_text(header, table))


def cmd_nonexist(args):
    result = args.construction(load_model_file(args.model).build(args.N), args.eps)
    for skip in result.skipped:
        logger.info("eps=%g skipped: %s", skip.eps, skip.reason)
    _emit_table(args, result.points, obj=result)
    return EXIT_OK


def cmd_diagonal(args):
    model = load_model_file(args.model)
    p = diagonal_problem(model, args.N)
    report, _ = solve_problem(p)
    _emit({**vars(report), "audit": diagonal_audit(model, p, report)}, args.out)
    return EXIT_OK


def cmd_sweep(args):
    model = load_model_file(args.model)
    rows = []
    for n in args.N:
        report, _ = solve_problem(model.build(n))
        rows.append(SweepRow(n, float(np.linalg.norm(report.x)), float(report.objective),
                             report.status))
    _emit_table(args, rows)
    return EXIT_OK


def cmd_weakcont(args):
    _emit_table(args, weak_continuity_demo(args.n))
    return EXIT_OK


def _add_solve(p):
    p.add_argument("--problem", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)


def _add_certify(p):
    p.add_argument("--problem", required=True)
    p.add_argument("--out")
    p.add_argument("--keep-C", dest="keep_c", action="store_true")
    p.set_defaults(func=cmd_certify)


def _add_classic_tls(p):
    p.description = (
        "Classic TLS of (A, b) by the SVD of (A|b). T is always ignored, and so is W,"
        " with a warning, when it is not the identity."
    )
    p.add_argument("--problem", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classic_tls)


def _add_demo(p):
    demo_sub = p.add_subparsers(dest="demo_command", required=True)
    for name, construction in (
        ("nonexist-tls", nonexistence_tls_sequence),
        ("nonexist-rtls", nonexistence_rtls_sequence),
    ):
        d = demo_sub.add_parser(name)
        d.add_argument("--model", required=True)
        d.add_argument("--eps", type=_positive_list(float), required=True)
        d.add_argument("--N", type=_at_least(int, 1), default=200)
        d.add_argument("--out")
        d.add_argument("--format", choices=("json", "csv"), default="json")
        d.set_defaults(func=cmd_nonexist, construction=construction)
    d = demo_sub.add_parser("diagonal")
    d.add_argument("--model", required=True)
    d.add_argument("--N", type=_at_least(int, 1), default=8)
    d.add_argument("--out")
    d.set_defaults(func=cmd_diagonal)
    d = demo_sub.add_parser("sweep")
    d.add_argument("--model", required=True)
    d.add_argument("--N", type=_positive_list(int, increasing=True), required=True)
    d.add_argument("--out")
    d.add_argument("--format", choices=("json", "csv"), default="json")
    d.set_defaults(func=cmd_sweep)
    d = demo_sub.add_parser("weakcont")
    # 64 max(--n) + 1 Simpson nodes: 524,289 at the cap, about 20 MB
    d.add_argument("--n", type=_positive_list(int, most=8192), default="1,2,8,32")
    d.add_argument("--out")
    d.add_argument("--format", choices=("json", "csv"), default="json")
    d.set_defaults(func=cmd_weakcont)


# command -> (help, builder of its sub-parser)
COMMANDS = {
    "solve": ("solve a problem file", _add_solve),
    "certify": ("certify the infimum", _add_certify),
    "classic-tls": ("unweighted SVD baseline", _add_classic_tls),
    "demo": ("lab artifacts", _add_demo),
}


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1: rtls gives code 2 to uncertified results."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The rtls parser, a sub-parser for each command; built once per process."""
    parser = _Parser(
        prog="rtls",
        description="weighted/regularized total least squares solver and lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _configure_logging():
    level = os.environ.get("RTLS_LOG", "warning").lower()
    logging.basicConfig(
        level={"debug": logging.DEBUG, "info": logging.INFO}.get(level, logging.WARNING)
    )


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        # every rtls error (ProblemFormatError, the classic-TLS errors, a
        # Dinkelbach iteration out of steps) derives from one of these
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
