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

import dataclasses
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


_SCALARS = (bool, np.bool_, int, np.integer, float, np.floating)


def _scalar_json(obj):
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    return str(int(obj))


def canonical_json(obj, indent=0):
    """Serialize dict/list/scalars with fixed float formatting.

    A dataclass instance is written as the object of its fields, in
    declaration order; an ndarray as its nested lists.
    """
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
    if isinstance(obj, (list, tuple)):
        values = list(obj)
        if not values:
            return "[]"
        if all(isinstance(v, _SCALARS) for v in values):
            return "[" + ", ".join(map(_scalar_json, values)) + "]"
        parts = [canonical_json(v, indent + 1) for v in values]
        return "[\n" + ",\n".join(inner + s for s in parts) + "\n" + pad + "]"
    if isinstance(obj, _SCALARS):
        return _scalar_json(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if dataclasses.is_dataclass(obj):
        return canonical_json(vars(obj), indent)
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
    """A JSON list of finite numbers (or read_json's array of one) as a float vector."""
    if isinstance(value, np.ndarray):
        arr = value
    else:
        try:
            arr = np.asarray(value) if isinstance(value, list) else None
            if arr is not None and arr.dtype == object:  # numpy keeps an int past 64 bits so
                arr = np.array([real_number(v, name) for v in value])  # one past a double: +-inf
        except ValueError:  # a ragged list (numpy gives it no shape), or an entry not a number
            arr = None
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
    """A JSON number (not a boolean) as a float; an int past its range is +-inf, as 1e400 is."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProblemFormatError(f"field '{name}' must be a number")
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def read_json(path):
    """Parse a JSON file; an unreadable or malformed file names its path.

    Each flat array of JSON floats comes back as a float ndarray (see
    :func:`_loads_float_arrays`); every other value, and every error, is
    exactly what ``json.load`` on the file opened as UTF-8 text gives,
    except that nesting too deep for its recursion is invalid JSON too, and
    an integer with more digits than ``int`` converts reads as +-inf, as
    the token 1e400 does (see :func:`_parse_int`).
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read input file {path}: {exc.strerror}") from exc
    obj = _loads_float_arrays(raw)
    if obj is not _UNPARSED:
        return obj
    try:
        # text mode turns \r\n and \r into \n, which moves the positions
        # that a JSONDecodeError reports
        return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"),
                          parse_int=_parse_int)
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"input file {path} is not UTF-8: {exc.reason} "
                                 f"at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: nesting too deep") from exc


def _parse_int(text):
    """A JSON integer token as an int, or as the float it rounds to (+-inf) past int's digit limit."""
    try:
        return int(text)
    except ValueError:
        return float(text)


_UNPARSED = object()
_ARRAY_KEY = "\0"


def _loads_float_arrays(raw):
    """``json.loads(raw)`` with each flat array of floats as a float ndarray.

    An array qualifies when it holds at least one float token and otherwise
    only ints, which become the floats ``np.asarray(list, float)`` gives.  One
    with a byte of ``"{tfn`` never does; the rest qualify at their first float.

    orjson parses each ``[...]`` span on its own, so no DOM of the whole
    file is ever built; the skeleton left between the spans, with
    ``{"\u0000": k}`` in place of array k, goes to ``json.loads``.  A ``[``
    after an odd number of ``"`` sits inside a string.  A file with a
    backslash could hold the key ``"\u0000"`` itself, and its escaped quotes
    would throw that count off; it returns ``_UNPARSED``, as does any file
    the skeleton parse rejects, so that the caller parses it whole.
    """
    if b"\\" in raw:
        return _UNPARSED
    import orjson

    view = memoryview(raw)
    arrays, pieces = [], []
    copied = counted = quotes = 0
    i, j = raw.find(b"["), -1
    while i >= 0:
        # j, the first "]" after i, stays the same across a run of nested "["
        if j < i:
            j = raw.find(b"]", i)
            if j < 0:
                break
        k = raw.find(b"[", i + 1)
        quotes += raw.count(b'"', counted, i)
        counted = i
        values = ()
        # orjson gets a span with no nested array, so each byte goes once.
        # It rejects NaN and 1e400 (an int too large for a float among
        # them), so such an array stays a list and real_vector names its
        # field; an array of ints alone, or with a bool or Infinity, does too.
        # It reads an int beyond 64 bits as a float: only "." or "e" makes one
        if quotes % 2 == 0 and not 0 <= k < j and all(raw.find(c, i, j) < 0 for c in b'"{tfn'):
            try:
                values = orjson.loads(view[i : j + 1])
            except orjson.JSONDecodeError:
                pass
        if float in map(type, values) and any(raw.find(c, i, j) >= 0 for c in b".eE"):
            pieces += (raw[copied:i], b'{"\\u0000": %d}' % len(arrays))
            arrays.append(np.fromiter(values, float, len(values)))
            copied = counted = j + 1
        i = k
    pieces.append(raw[copied:])

    def restore(d):
        return arrays[d[_ARRAY_KEY]] if _ARRAY_KEY in d else d

    try:
        return json.loads(b"".join(pieces).decode("utf-8"), object_hook=restore,
                          parse_int=_parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return _UNPARSED


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
