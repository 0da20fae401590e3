import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import closed_form_problem, problem_to_dict, random_problem, save_problem
from rtls import io as rio
from rtls.cli import main
from rtls.lab import DiagonalAudit, SequencePoint, SequenceResult, SkippedEps
from rtls.model import ProblemFormatError, ProblemSpec, RegularizerSpec
from rtls.reduction import recover_pair

# derandomized so that the suite is reproducible
oracle_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def valid_problem_dict():
    return {
        "A": {"rows": 2, "cols": 2, "data": [0.0, 0.0, 0.0, 0.0]},
        "b": [3.0, 4.0],
        "W": {"kind": "diagonal", "data": [1.0, 1.0]},
        "T": {"kind": "identity_scaled", "rho": 1.0},
    }


class TestProblemFiles:
    def test_round_trip(self, tmp_path, rng):
        p = random_problem(rng, 3, m=4)
        path = tmp_path / "p.json"
        save_problem(path, p)
        q = rio.load_problem(path)
        assert_allclose(q.A, p.A)
        assert_allclose(q.b, p.b)
        assert_allclose(q.W.as_matrix(), p.W.as_matrix())
        assert q.T.rho == p.T.rho

    def test_dense_weight_and_regularizer_round_trip(self, tmp_path, rng):
        from oracles import random_weight

        p0 = ProblemSpec(
            rng.normal(size=(3, 2)),
            rng.normal(size=3),
            random_weight(rng, 3, kind="dense"),
            RegularizerSpec.dense(rng.normal(size=(2, 2))),
        )
        path = tmp_path / "p.json"
        save_problem(path, p0)
        p1 = rio.load_problem(path)
        assert_allclose(p1.W.as_matrix(), p0.W.as_matrix())
        assert_allclose(p1.T.matrix, p0.T.matrix)

    def test_nan_rejected_with_field_name(self, tmp_path):
        obj = valid_problem_dict()
        obj["b"] = [float("nan"), 1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="'b'"):
            rio.load_problem(path)

    def test_inf_in_matrix_rejected(self, tmp_path):
        obj = valid_problem_dict()
        obj["A"]["data"][0] = float("inf")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="'A.data'"):
            rio.load_problem(path)

    def test_unknown_keys_rejected(self, tmp_path):
        obj = valid_problem_dict()
        obj["extra"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="unknown problem keys"):
            rio.load_problem(path)

    def test_missing_field_named(self, tmp_path):
        obj = valid_problem_dict()
        del obj["W"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="'W'"):
            rio.load_problem(path)

    def test_wrong_data_count(self, tmp_path):
        obj = valid_problem_dict()
        obj["A"]["data"] = [1.0, 2.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="A.data"):
            rio.load_problem(path)


class TestCanonicalJson:
    def test_seventeen_digit_floats(self):
        text = rio.canonical_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_exact(self):
        values = [1.0 / 3.0, 1e-300, 2.0**52, -0.0, 5.0]
        text = rio.canonical_json({"v": values})
        parsed = json.loads(text)
        assert all(a == b for a, b in zip(parsed["v"], values))

    def test_deterministic(self):
        obj = {"a": [1.234, 5, "s"], "b": {"c": None, "d": True}}
        assert rio.canonical_json(obj) == rio.canonical_json(obj)

    def test_nan_refused(self):
        with pytest.raises(ProblemFormatError, match="NaN"):
            rio.canonical_json({"v": float("nan")})
        with pytest.raises(ProblemFormatError, match="NaN"):
            rio.canonical_json({"v": [1.0, np.float64("nan")]})

    def test_numpy_bool_is_json_bool(self):
        text = rio.canonical_json({"a": np.bool_(True), "b": [np.bool_(False), 1]})
        assert text == '{\n  "a": true,\n  "b": [false, 1]\n}'

    def test_scalar_lists_one_line(self):
        obj = {"v": [1, 2.5, np.float64(1.0) / 3.0, np.int64(-7), True, -0.0],
               "w": np.array([1e-300, 2.0**60]),
               "m": [[1.0, 2.0], [], {"k": 3}]}
        assert rio.canonical_json(obj) == (
            '{\n'
            '  "v": [1, 2.5, 0.33333333333333331, -7, true, -0],\n'
            '  "w": [1e-300, 1.152921504606847e+18],\n'
            '  "m": [\n'
            '    [1, 2],\n'
            '    [],\n'
            '    {\n'
            '      "k": 3\n'
            '    }\n'
            '  ]\n'
            '}'
        )

    # -0.0, subnormals, +-1e308 and the largest double, ints beyond 2**53
    EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-310, -2.2250738585072014e-308, 1e308, -1e308,
                   1.7976931348623157e308, 1.0 / 3.0, -2.0**60, 0.1, 123456789.0]

    def test_float_list_edge_values(self):
        # 17 significant digits; an infinity is written inf
        values = self.EDGE_FLOATS + [float("inf"), float("-inf")]
        assert rio.canonical_json(values) == (
            "[-0, 0, 4.9406564584124654e-324, 9.9999999999999694e-311, "
            "-2.2250738585072014e-308, 1e+308, -1e+308, 1.7976931348623157e+308, "
            "0.33333333333333331, -1.152921504606847e+18, 0.10000000000000001, "
            "123456789, inf, -inf]"
        )

    def test_mixed_list_matches_per_value_path(self):
        mixed = [1, *self.EDGE_FLOATS, -7, 2**70, np.float64(0.5), np.int64(3), True]
        text = rio.canonical_json(mixed)
        assert text == "[" + ", ".join(map(rio._scalar_json, mixed)) + "]"
        assert text.startswith("[1, -0, 0, 4.9406564584124654e-324, 9.9999999999999694e-311, ")
        assert text.endswith(", -7, 1180591620717411303424, 0.5, 3, true]")

    @pytest.mark.parametrize("values", [[float("nan")], [1.0, float("nan")],
                                        [float("inf"), -float("nan"), 2.0]])
    def test_nan_refused_in_float_list(self, values):
        with pytest.raises(ProblemFormatError, match="NaN"):
            rio.canonical_json(values)

    def test_nested_dataclass_is_the_object_of_its_fields(self):
        # fields in declaration order; an ndarray field as its nested lists;
        # a None field, as an audit without a rebalance gap has, as null
        point = SequencePoint(0.5, 1.0 / 3.0, 2.0, 0.0, np.array([[1.0, -0.0], [2.5, 1e-300]]))
        audit = DiagonalAudit(head=2, zero_indices=[], tail_mass_fraction=np.float64(0.25),
                              critical_condition_ok=np.bool_(True), rebalance_gap=None)
        obj = {"result": SequenceResult(0.125, [point], [SkippedEps(1e-9, "why")]), "audit": audit}
        assert rio.canonical_json(obj) == (
            '{\n'
            '  "result": {\n'
            '    "direction_value": 0.125,\n'
            '    "points": [\n'
            '      {\n'
            '        "eps": 0.5,\n'
            '        "objective": 0.33333333333333331,\n'
            '        "bound": 2,\n'
            '        "interp_residual": 0,\n'
            '        "x_scaled": [\n'
            '          [1, -0],\n'
            '          [2.5, 1e-300]\n'
            '        ]\n'
            '      }\n'
            '    ],\n'
            '    "skipped": [\n'
            '      {\n'
            '        "eps": 1.0000000000000001e-09,\n'
            '        "reason": "why"\n'
            '      }\n'
            '    ]\n'
            '  },\n'
            '  "audit": {\n'
            '    "head": 2,\n'
            '    "zero_indices": [],\n'
            '    "tail_mass_fraction": 0.25,\n'
            '    "critical_condition_ok": true,\n'
            '    "rebalance_gap": null\n'
            '  }\n'
            '}'
        )


class TestArtifactSerializers:
    def test_pair_report_vectors_are_plain_floats(self, rng):
        p = random_problem(rng, 4, m=6)
        report = recover_pair(p, rng.normal(size=4))
        obj = json.loads(rio.canonical_json(report))
        for key, vec in (("x", report.x), ("correction_vector", report.correction_vector)):
            assert all(type(v) is float for v in obj[key])
            assert np.array(obj[key]).tobytes() == vec.tobytes()

    def test_pair_report_fields(self):
        p = closed_form_problem()
        report = recover_pair(p, np.array([2.0, 0.0]), status="solved")
        obj = json.loads(rio.canonical_json(report))
        assert list(obj) == [
            "x", "correction_vector", "objective", "data_term", "reg_term",
            "residual_normal_eq", "residual_rank_one", "status",
        ]
        assert obj["objective"] == pytest.approx(9.0)

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "t.csv"
        rio.write_csv(path, ["a", "b"], [(1.5, "x"), (2.0 / 3.0, "y")])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[2].startswith("0.66666666666666663")


# ---------------------------------------------------------------------------
# read_json against json.load
# ---------------------------------------------------------------------------


def reference_read_json(path):
    """The plain loader: json.load on the file opened as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"input file {path} is not UTF-8: {exc.reason} "
                                 f"at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from exc


def assert_same_value(got, want):
    """Equal JSON values; an ndarray must be bit-equal to the list as floats.

    Only a list of ints and floats, one float at least, may come back as one.
    """
    if isinstance(got, np.ndarray):
        assert isinstance(want, list)
        types = set(map(type, want))
        assert float in types and types <= {float, int}
        ref = np.asarray(want, dtype=float)
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        return
    assert type(got) is type(want)
    if isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            assert_same_value(got[key], want[key])
    elif isinstance(got, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    elif isinstance(got, float):
        assert got.hex() == want.hex() or (got != got and want != want)
    else:
        assert got == want


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ProblemFormatError as exc:
        return None, str(exc)


def assert_loads_like_json(path):
    got, got_err = _outcome(rio.read_json, path)
    want, want_err = _outcome(reference_read_json, path)
    assert got_err == want_err
    if want_err is None:
        assert_same_value(got, want)
    return got, want


_FLOAT_FORMATS = (repr, "%.17g".__mod__, "%.17e".__mod__, "%.3g".__mod__)
_SEPARATORS = (", ", ",", ",\n  ", ",\r\n", " , ")

float_tokens = st.one_of(
    st.builds(lambda fmt, x: fmt(x), st.sampled_from(_FLOAT_FORMATS),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from(["-0.0", "1e400", "-1e400", "1e-400", "4.9e-324", "1E5", "0.1e1",
                     "3.14159265358979323846264338327950288419716939937510582097494459",
                     "NaN", "Infinity", "-Infinity"]),
)
string_tokens = st.one_of(
    st.text(alphabet="ab 1.5,[]{}:\u00e9\u2028").map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.sampled_from(['"[1.5]"', '"]"', '"["', '"a\\"[1.5]"', '"\\\\"', '"\\u005b2.5]"', '"\\u0000"']),
)
int_tokens = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["0", "-0", "1", str(2**53 + 1), str(2**63), str(2**64 - 1), str(2**64),
                     str(-(2**63) - 1), "1" + "0" * 400]),
)
scalar_tokens = st.one_of(
    float_tokens,
    int_tokens,
    st.sampled_from(["true", "false", "null", "-0"]),
    string_tokens,
)


def _array(items, sep):
    return "[" + sep.join(items) + "]"


def _object(pairs, sep):
    return "{" + sep.join(f"{k}: {v}" for k, v in pairs) + "}"


documents = st.recursive(
    st.one_of(
        scalar_tokens,
        st.builds(_array, st.lists(float_tokens, min_size=1, max_size=12),
                  st.sampled_from(_SEPARATORS)),
        # ints among the floats, as %.17g writes an integral float
        st.builds(_array, st.lists(st.one_of(float_tokens, int_tokens), min_size=1, max_size=12),
                  st.sampled_from(_SEPARATORS)),
    ),
    lambda children: st.one_of(
        st.builds(_array, st.lists(children, max_size=6), st.sampled_from(_SEPARATORS)),
        st.builds(_object, st.lists(st.tuples(string_tokens, children), max_size=6),
                  st.sampled_from(_SEPARATORS)),
    ),
    max_leaves=30,
)


@pytest.fixture(scope="module")
def oracle_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "doc.json"


class TestReadJson:
    @oracle_settings
    @given(doc=documents)
    def test_matches_json_load(self, oracle_path, doc):
        oracle_path.write_bytes(doc.encode("utf-8"))
        assert_loads_like_json(oracle_path)

    @oracle_settings
    @given(seed=st.integers(0, 2**32 - 1), edits=st.lists(st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.floats(0.0, 1.0),
        st.sampled_from(list(b'[]"{},:.0-e\\\r\n\xff\xef')),
    ), min_size=1, max_size=3))
    def test_byte_mutations_of_problem_file(self, oracle_path, seed, edits):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, 3, m=4, weight_kind=("diagonal", "dense")[seed % 2])
        raw = bytearray(rio.canonical_json(problem_to_dict(p)).encode())
        for op, where, byte in edits:
            pos = int(where * len(raw))
            if op == "insert":
                raw[pos:pos] = bytes([byte])
            elif pos < len(raw):
                raw[pos:pos + 1] = b"" if op == "delete" else bytes([byte])
        oracle_path.write_bytes(bytes(raw))
        got, want = assert_loads_like_json(oracle_path)
        if got is not None:
            got_p, got_err = _outcome(rio.problem_from_dict, got)
            want_p, want_err = _outcome(rio.problem_from_dict, want)
            assert got_err == want_err
            if want_err is None:
                for name in ("A", "b"):
                    assert getattr(got_p, name).tobytes() == getattr(want_p, name).tobytes()
                assert got_p.W.as_matrix().tobytes() == want_p.W.as_matrix().tobytes()

    def test_float_arrays_come_back_as_arrays(self, tmp_path):
        path = tmp_path / "p.json"
        save_problem(path, random_problem(np.random.default_rng(1), 3, m=4,
                                          weight_kind="dense"))
        text = path.read_text()
        path.write_text(text[:-2] + ',\n  "origin": {"s": "[1.5] ]", "v": [[0.5], [1, 2.5], [1, 2]]}\n}\n')
        obj, _ = assert_loads_like_json(path)
        v = obj["origin"]["v"]
        for arr in (obj["A"]["data"], obj["b"], obj["W"]["data"], v[0], v[1]):
            assert isinstance(arr, np.ndarray)
        assert obj["origin"]["s"] == "[1.5] ]"
        assert v[2] == [1, 2]

    # a span with a byte of a string, object, boolean or null is never an
    # array; one without qualifies at its first float
    _EDGES = [
        ("[0.5, null]", list, "null"),
        ("[0.5, {}]", list, "object"),
        ('[0.5, "x"]', list, "string"),
        ("[0.5, false]", list, "false"),
        ("[1e5, 2]", np.ndarray, "exponent"),
        ("[2E-3]", np.ndarray, "upper-exponent"),
    ]

    @pytest.mark.parametrize("text, kind", [
        pytest.param("[0.5, 0, 7, -0, 2.5]", np.ndarray, id="small-ints"),
        pytest.param("[1.5, %d, %d, %d]" % (2**53 + 1, 2**64 - 1, 2**64), np.ndarray,
                     id="wide-ints"),
        pytest.param("[0, 1, 2]", list, id="all-ints"),
        # orjson reads these as floats; json.load keeps them ints
        pytest.param("[%d, 1, %d]" % (2**64, -(2**63) - 1), list, id="ints-beyond-64-bits"),
        pytest.param("[0.5, true, 1]", list, id="bool"),
        pytest.param("[0.5, 1" + "0" * 400 + "]", list, id="int-overflows-float"),
    ] + [
        pytest.param(text, kind, id=name) for text, kind, name in _EDGES
    ] + [
        pytest.param("[\n  " + text[1:-1].replace(", ", ",\n  ") + "\n]", kind, id=name + "-lines")
        for text, kind, name in _EDGES
    ])
    def test_ints_among_floats(self, tmp_path, text, kind):
        path = tmp_path / "p.json"
        path.write_text('{"v": ' + text + "}")
        obj, _ = assert_loads_like_json(path)
        assert type(obj["v"]) is kind

    def test_integral_entry_loads_like_the_list_path(self, tmp_path):
        # canonical_json writes 0.0 as 0, so a saved problem can hold int tokens
        p = random_problem(np.random.default_rng(3), 3, m=4)
        obj = problem_to_dict(p)
        obj["A"]["data"][0] = 0
        obj["W"]["data"][1] = 2
        path = tmp_path / "p.json"
        rio.write_json(path, obj)
        assert ', 2, ' in path.read_text() and '[0, ' in path.read_text()
        assert isinstance(rio.read_json(path)["A"]["data"], np.ndarray)
        got = rio.load_problem(path)
        with open(path, encoding="utf-8") as fh:
            want = rio.problem_from_dict(json.load(fh))
        assert got.A.tobytes() == want.A.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
        assert got.W.as_matrix().tobytes() == want.W.as_matrix().tobytes()
        assert got.A[0, 0] == 0.0 and got.W.as_matrix()[1, 1] == 2.0

    def test_ints_beyond_64_bits_load_as_floats(self, tmp_path):
        # numpy keeps such ints as objects; each reads as the float it rounds to
        obj = {**TestMalformedProblemExitOne._VALID, "b": [-(2**63) - 1, 10**20]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        assert rio.load_problem(path).b.tolist() == [-(2.0**63), 1e20]

    @pytest.mark.parametrize("text, value", [
        ('{"s": "a\\"[1.5]", "v": [0.5, 1.5]}', {"s": 'a"[1.5]', "v": [0.5, 1.5]}),
        ('{"v": [0.5, 1.5], "w": {"\\u0000": 0}}', {"v": [0.5, 1.5], "w": {"\0": 0}}),
    ])
    def test_file_with_backslash_parsed_whole(self, tmp_path, text, value):
        path = tmp_path / "p.json"
        path.write_text(text)
        obj, _ = assert_loads_like_json(path)
        assert obj == value

    def test_crlf_error_position_as_text_mode(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(b'{"a": [1.5,\r\n 2.5],\r\n "b": [0.5]]}')
        _, err = _outcome(rio.read_json, path)
        assert err == (f"invalid JSON in {path}: Expecting ',' delimiter: "
                       "line 3 column 12 (char 30)")
        assert_loads_like_json(path)


class TestMalformedProblemExitOne:
    def _solve(self, path, capsys):
        code = main(["solve", "--problem", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_in_a_data(self, tmp_path, capsys, token):
        path = tmp_path / "p.json"
        path.write_text('{"A": {"rows": 1, "cols": 2, "data": [0.5, ' + token + ']},'
                        ' "b": [1.0], "W": {"kind": "diagonal", "data": [1.0]},'
                        ' "T": {"kind": "identity_scaled", "rho": 1.0}}')
        assert self._solve(path, capsys) == (1, "error: non-finite value in field 'A.data'\n")

    def test_true_in_w_data(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"A": {"rows": 2, "cols": 1, "data": [0.5, 1.5]}, "b": [1.0, 2.0],'
                        ' "W": {"kind": "diagonal", "data": [true, 1.5]},'
                        ' "T": {"kind": "identity_scaled", "rho": 1.0}}')
        assert self._solve(path, capsys) == (1, "error: field 'W.data' must be a list of numbers\n")

    _VALID = {"A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}, "b": [1.0, 2.0],
              "W": {"kind": "diagonal", "data": [1.0, 1.0]},
              "T": {"kind": "identity_scaled", "rho": 1.0}}
    # json.dumps cannot write an int of more than 4,300 digits, so the file
    # spells this number as one of 5,001
    _HUGE_INT_MARK = 7e-77

    @pytest.mark.parametrize("fields, message", [
        (None, "problem file must contain a JSON object"),
        ({"A": [1, 2]}, "field 'A' must be an object"),
        ({"T": {"kind": "identity_scaled"}}, "field 'T.rho' is missing"),
        ({"T": {"kind": "tikhonov"}}, "field 'T.kind' must be 'identity_scaled' or 'dense'"),
        ({"origin": [1]}, "field 'origin' must be an object"),
        ({"W": {"kind": "dense", "rows": 2, "cols": 1, "data": [1.0, 1.0]}},
         "field 'W.data' must be square"),
        ({"A": {"rows": 0, "cols": 2, "data": []}, "b": []},
         "'A' must have at least one row and column"),
        ({"T": {"kind": "identity_scaled", "rho": 10**400}}, "field 'T.rho' must be a positive real"),
        ({"b": [1.0, [2.0]]}, "field 'b' must be a list of numbers"),
        ({"b": [[1.0], [2.0, 3.0]]}, "field 'b' must be a list of numbers"),
        ({"T": {"kind": "identity_scaled", "rho": _HUGE_INT_MARK}},
         "field 'T.rho' must be a positive real"),
        ({"b": [1.0, _HUGE_INT_MARK]}, "non-finite value in field 'b'"),
        ({"b": [1, 2 * 10**400]}, "non-finite value in field 'b'"),
    ], ids=["array", "A-list", "T-no-rho", "T-kind", "origin-list", "W-not-square", "A-no-rows",
            "T-rho-401-digits", "b-ragged", "b-ragged-rows", "T-rho-5001-digits", "b-5001-digits",
            "b-401-digits"])
    def test_malformed_field_is_named(self, tmp_path, capsys, fields, message):
        # fields=None writes a top-level array in place of the object
        path = tmp_path / "p.json"
        text = json.dumps([self._VALID] if fields is None else {**self._VALID, **fields})
        path.write_text(text.replace(repr(self._HUGE_INT_MARK), "1" + "0" * 5000))
        assert self._solve(path, capsys) == (1, f"error: {message}\n")

    def _problem_bytes(self, tmp_path):
        path = tmp_path / "p.json"
        save_problem(path, random_problem(np.random.default_rng(2), 3, m=4))
        return path, path.read_bytes()

    def test_truncated_file(self, tmp_path, capsys):
        path, raw = self._problem_bytes(tmp_path)
        path.write_bytes(raw[: raw.index(b"]") - 3])
        _, want = _outcome(reference_read_json, path)
        assert want.startswith(f"invalid JSON in {path}: ")
        assert self._solve(path, capsys) == (1, f"error: {want}\n")

    def test_bom(self, tmp_path, capsys):
        path, raw = self._problem_bytes(tmp_path)
        path.write_bytes(b"\xef\xbb\xbf" + raw)
        assert self._solve(path, capsys) == (
            1, f"error: invalid JSON in {path}: Unexpected UTF-8 BOM "
               "(decode using utf-8-sig): line 1 column 1 (char 0)\n")

    def test_non_utf8_byte_inside_array(self, tmp_path, capsys):
        path, raw = self._problem_bytes(tmp_path)
        at = raw.index(b"[") + 4
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        assert self._solve(path, capsys) == (
            1, f"error: input file {path} is not UTF-8: invalid start byte at byte {at}\n")
