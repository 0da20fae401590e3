"""Per-op correctness gates, run untimed on the report an op wrote.

Each gate returns a list of violations (empty when the op is correct) and
the op's accuracy in digits: stationarity digits for ``solve``, agreement
digits for ``certify``.
"""

from __future__ import annotations

import math

EXIT_FOR_STATUS = {"solved": 0, "trivial": 0, "heuristic": 2}
REL = 1e-12
DIGITS_FLOOR = 1e-16


def digits(err):
    return -math.log10(max(err, DIGITS_FLOOR))


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_solve(inst, code, report):
    bad = []
    status = report["status"]
    if EXIT_FOR_STATUS.get(status) != code:
        bad.append(f"exit {code} with status {status!r}")
    g = inst.g_value(report["x"])
    objective = report["objective"]
    if not _close(objective, g):
        bad.append(f"objective {objective!r} != G(x) {g!r}")
    b_sq = inst.b_norm_w_sq
    if objective > b_sq * (1.0 + REL):
        bad.append(f"objective {objective!r} > |b|_W^2 {b_sq!r}")
    t_star = report["meta"].get("t_star")
    if inst.T is None:
        # the classifier's own tolerance on rho >= t*
        if status == "solved" and inst.rho < t_star - 1e-8 * (1.0 + abs(t_star)):
            bad.append(f"status solved with rho {inst.rho!r} < t* {t_star!r}")
        if inst.t_upper is not None and t_star > inst.t_upper * (1.0 + REL):
            bad.append(f"t* {t_star!r} above the radial-grid bound {inst.t_upper!r}")
        if inst.t_closed is not None and not _close(t_star, inst.t_closed):
            bad.append(f"t* {t_star!r} != closed form {inst.t_closed!r}")
    return bad, digits(report["residual_normal_eq"])


def check_certify(inst, code, report):
    bad = []
    meta = report["meta"]
    t, t_d, gap = report["t"], meta["t_dinkelbach"], meta["agreement_gap"]
    b_sq = inst.b_norm_w_sq
    # bisection width of the certificate, as the program sets it by default
    tol_t = 1e-6 * (1.0 + b_sq)
    if t > t_d + tol_t:
        bad.append(f"certified t {t!r} above t_dinkelbach {t_d!r}")
    if gap != abs(t - t_d):  # both sides are the same doubles, round-tripped
        bad.append(f"agreement_gap {gap!r} != |t - t_dinkelbach|")
    agrees = gap <= max(tol_t, 1e-4 * (1.0 + abs(t_d)))
    if code != (0 if agrees else 2):
        bad.append(f"exit {code} but agrees={agrees}")
    return bad, digits(gap / (1.0 + t_d))


def check(inst, code, report):
    if inst.command == "certify":
        return check_certify(inst, code, report)
    return check_solve(inst, code, report)
