"""Problem/model file parsing and deterministic artifact serialization.

Problem file layout (JSON, UTF-8):

    {"A": {"rows": m, "cols": n, "data": [row-major reals]},
     "b": [reals],
     "W": {"kind": "diagonal", "data": [...]}
        | {"kind": "dense", "rows": m, "cols": m, "data": [...]},
     "T": {"kind": "identity_scaled", "rho": r}
        | {"kind": "dense", "rows": p, "cols": n, "data": [...]},
     "origin": {...}}            # optional

A field of the wrong JSON type (a boolean counts as one in a numeric
field) or with a non-finite entry is rejected with the field named, and a
file that cannot be read or parsed with its path.  All floats are emitted
with 17 significant digits so identical inputs produce byte-identical
artifacts.
"""

from __future__ import annotations

import json

import numpy as np

from .model import (
    ProblemFormatError,
    ProblemSpec,
    RegularizerSpec,
    WeightOperator,
)


def _format_float(x):
    if x != x:
        raise ProblemFormatError("refusing to serialize NaN")
    return format(float(x), ".17g")


def canonical_json(obj, indent=0):
    """Serialize dict/list/scalars with fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        values = list(obj)
        if not values:
            return "[]"
        scalars = all(isinstance(v, (int, float, np.floating, np.integer)) for v in values)
        parts = [canonical_json(v, indent + 1) for v in values]
        if scalars:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + s for s in parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_text(path, text):
    """Write an output file; a failed write names its path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ProblemFormatError(f"cannot write output file {path}: {exc.strerror}") from exc
    return text


def write_json(path, obj):
    return _write_text(path, canonical_json(obj) + "\n")


def csv_text(header, rows):
    """CSV lines with floats at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _format_float(v) if isinstance(v, (float, np.floating)) else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    return _write_text(path, csv_text(header, rows))


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def real_vector(value, name):
    """A JSON list of finite numbers as a float vector."""
    arr = np.asarray(value) if isinstance(value, list) else None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ProblemFormatError(f"field '{name}' must be a list of numbers")
    arr = arr.astype(float)
    # numpy turns JSON booleans mixed with numbers into 0.0 and 1.0, so only a
    # list holding such a value needs the types of its entries looked at
    if np.any((arr == 0.0) | (arr == 1.0)) and bool in set(map(type, value)):
        raise ProblemFormatError(f"field '{name}' must be a list of numbers")
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"non-finite value in field '{name}'")
    return arr


def real_number(value, name):
    """A JSON number (not a boolean) as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProblemFormatError(f"field '{name}' must be a number")
    return float(value)


def read_json(path):
    """Parse a JSON file; an unreadable or malformed file names its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read input file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from exc


def _matrix_from_spec(obj, name):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"field '{name}' must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ProblemFormatError(f"field '{name}.{key}' is missing")
    for key in ("rows", "cols"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ProblemFormatError(f"field '{name}.{key}' must be a nonnegative integer")
    rows, cols = obj["rows"], obj["cols"]
    data = real_vector(obj["data"], f"{name}.data")
    if data.size != rows * cols:
        raise ProblemFormatError(
            f"field '{name}.data' has {data.size} entries, expected {rows * cols}"
        )
    return data.reshape(rows, cols)


def problem_from_dict(obj):
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    unknown = set(obj) - {"A", "b", "W", "T", "origin"}
    if unknown:
        raise ProblemFormatError(f"unknown problem keys {sorted(unknown)!r}")
    for key in ("A", "b", "W", "T"):
        if key not in obj:
            raise ProblemFormatError(f"field '{key}' is missing")

    a_mat = _matrix_from_spec(obj["A"], "A")
    b = real_vector(obj["b"], "b")

    w_spec = obj["W"]
    kind = w_spec.get("kind") if isinstance(w_spec, dict) else None
    if kind == "diagonal":
        weight = WeightOperator.diagonal(real_vector(w_spec.get("data", []), "W.data"))
    elif kind == "dense":
        weight = WeightOperator.dense(_matrix_from_spec(w_spec, "W"))
    else:
        raise ProblemFormatError("field 'W.kind' must be 'diagonal' or 'dense'")

    t_spec = obj["T"]
    kind = t_spec.get("kind") if isinstance(t_spec, dict) else None
    if kind == "identity_scaled":
        if "rho" not in t_spec:
            raise ProblemFormatError("field 'T.rho' is missing")
        reg = RegularizerSpec.identity_scaled(real_number(t_spec["rho"], "T.rho"))
    elif kind == "dense":
        reg = RegularizerSpec.dense(_matrix_from_spec(t_spec, "T"))
    else:
        raise ProblemFormatError("field 'T.kind' must be 'identity_scaled' or 'dense'")

    origin = obj.get("origin")
    if origin is not None and not isinstance(origin, dict):
        raise ProblemFormatError("field 'origin' must be an object")
    return ProblemSpec(a_mat, b, weight, reg, origin=origin)


def load_problem(path):
    return problem_from_dict(read_json(path))


def problem_to_dict(p):
    m, n = p.shape
    if p.W.kind == "diagonal":
        w_obj = {"kind": "diagonal", "data": [float(v) for v in p.W.data]}
    else:
        w_obj = {
            "kind": "dense",
            "rows": m,
            "cols": m,
            "data": [float(v) for v in p.W.data.ravel()],
        }
    if p.T.kind == "identity_scaled":
        t_obj = {"kind": "identity_scaled", "rho": float(p.T.rho)}
    else:
        rows, cols = p.T.matrix.shape
        t_obj = {
            "kind": "dense",
            "rows": rows,
            "cols": cols,
            "data": [float(v) for v in p.T.matrix.ravel()],
        }
    out = {
        "A": {"rows": m, "cols": n, "data": [float(v) for v in p.A.ravel()]},
        "b": [float(v) for v in p.b],
        "W": w_obj,
        "T": t_obj,
    }
    if p.origin is not None:
        out["origin"] = p.origin
    return out


def save_problem(path, p):
    return write_json(path, problem_to_dict(p))


# ---------------------------------------------------------------------------
# artifact serializers
# ---------------------------------------------------------------------------


def pair_report_to_dict(report):
    return {
        "x": [float(v) for v in report.x],
        "correction_vector": [float(v) for v in report.lift.correction_vector],
        "objective": float(report.objective),
        "data_term": float(report.data_term),
        "reg_term": float(report.reg_term),
        "residual_normal_eq": float(report.residual_normal_eq),
        "residual_rank_one": float(report.residual_rank_one),
        "status": report.status,
    }


def trace_to_dict(trace):
    return {
        "iterates": [
            {
                "t": float(it.t),
                "r": float(it.r),
                "x": [float(v) for v in it.x],
                "phi": float(it.phi),
            }
            for it in trace.iterates
        ],
        "t_star": float(trace.t_star),
        "x_star": [float(v) for v in trace.x_star],
        "verdict": trace.verdict,
    }


def certificate_to_dict(cert, keep_c=False):
    out = {
        "t": float(cert.t),
        "alpha": float(cert.alpha),
        "beta": float(cert.beta),
        "lambda_min": float(cert.lambda_min),
    }
    if keep_c and cert.C is not None:
        out["C"] = [[float(v) for v in row] for row in cert.C]
    return out


def sequence_result_to_dict(result):
    return {
        "direction_value": float(result.direction_value),
        "points": [
            {
                "eps": float(pt.eps),
                "objective": float(pt.objective),
                "bound": float(pt.bound),
                "interp_residual": float(pt.interp_residual),
                "x_scaled": [float(v) for v in pt.x_scaled],
            }
            for pt in result.points
        ],
        "skipped": [
            {"eps": float(eps), "reason": reason} for eps, reason in result.skipped
        ],
    }


def sequence_result_rows(result):
    header = ["eps", "objective", "bound", "interp_residual"]
    rows = [
        (pt.eps, pt.objective, pt.bound, pt.interp_residual) for pt in result.points
    ]
    return header, rows


def sweep_rows(rows):
    header = ["N", "t_star", "x_norm", "objective", "status"]
    table = [(r.n, r.t_star, r.x_norm, r.objective, r.status) for r in rows]
    return header, table


def sweep_to_dict(rows):
    return {
        "rows": [
            {
                "N": int(r.n),
                "t_star": float(r.t_star),
                "x_norm": float(r.x_norm),
                "objective": float(r.objective),
                "status": r.status,
            }
            for r in rows
        ]
    }


def weakcont_rows(rows):
    header = ["n", "integral", "limit_integral"]
    table = [(r.n, r.integral, r.limit_integral) for r in rows]
    return header, table


def weakcont_to_dict(rows):
    return {
        "rows": [
            {
                "n": int(r.n),
                "integral": float(r.integral),
                "limit_integral": float(r.limit_integral),
            }
            for r in rows
        ]
    }
