"""Deterministic JSON emission and trajectory CSV rendering."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cometric import jsonio, shapes
from cometric.errors import ConfigurationError
from cometric.landmark import state_from_json


def test_float_round_trip_is_lossless():
    rng = np.random.default_rng(11)
    values = list(rng.standard_normal(50)) + [1e-300, 1e300, 2**-52, np.pi]
    text = jsonio.dumps({"values": values})
    back = jsonio.loads(text)
    assert back["values"] == [float(v) for v in values]


def test_dumps_is_deterministic():
    payload = {"a": np.linspace(0, 1, 7), "b": {"nested": [1, 2.5, "x"]}, "c": None}
    assert jsonio.dumps(payload) == jsonio.dumps(payload)


def test_integral_floats_keep_decimal_point():
    text = jsonio.dumps({"x": 3.0, "n": 3})
    assert '"x": 3.0' in text
    assert '"n": 3' in text


def test_short_numeric_lists_stay_on_one_line():
    text = jsonio.dumps({"v": [1.5, 2.5]})
    assert '"v": [1.5, 2.5]' in text
    nested = jsonio.dumps({"m": [[1.0, 0.0], [0.0, 1.0]]})
    assert nested.count("[\n") >= 1  # outer list breaks, inner rows stay compact
    assert "[1.0, 0.0]" in nested


def test_ndarray_and_scalars_serialize():
    text = jsonio.dumps(
        {
            "arr": np.array([[1, 2], [3, 4]], dtype=np.int64),
            "f": np.float64(0.5),
            "flag": True,
        }
    )
    back = jsonio.loads(text)
    assert back["arr"] == [[1, 2], [3, 4]]
    assert back["f"] == 0.5
    assert back["flag"] is True


def test_non_finite_rejected():
    with pytest.raises(ConfigurationError):
        jsonio.dumps({"x": float("nan")})
    with pytest.raises(ConfigurationError):
        jsonio.dumps({"x": float("inf")})


def test_bad_keys_and_types_rejected():
    with pytest.raises(ConfigurationError):
        jsonio.dumps({1: "one"})
    with pytest.raises(ConfigurationError):
        jsonio.dumps({"x": object()})


def test_empty_containers_serialize():
    assert jsonio.dumps([]) == "[]\n"
    assert jsonio.dumps({}) == "{}\n"
    assert jsonio.dumps({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'


def _state_obj():
    return {"D": 2, "q": [[0.0, 0.0], [1.0, 0.5]], "p": [[0.1, 0.2], [0.3, 0.4]]}


def _shape_obj():
    circle = shapes.make_circle(6)
    return shapes.shape_to_json(circle, 0.1 * circle.x)


@pytest.mark.parametrize("bad", ["0", "1e0", True, False, None])
@pytest.mark.parametrize("load, make, key", [
    (state_from_json, _state_obj, "q"),
    (state_from_json, _state_obj, "p"),
    (shapes.shape_from_json, _shape_obj, "samples"),
    (shapes.shape_from_json, _shape_obj, "weights"),
    (shapes.shape_from_json, _shape_obj, "tangents"),
    (shapes.shape_from_json, _shape_obj, "momenta"),
], ids=["q", "p", "samples", "weights", "tangents", "momenta"])
def test_non_number_leaves_refused_at_any_depth(load, make, key, bad):
    """``np.asarray(..., dtype=float)`` reads ``"1e0"`` and ``true`` as 1.0 (and
    ``[[0, 0], [True, 1]]`` even as an int array), so every leaf is inspected."""
    obj = make()
    entry = obj[key]
    while isinstance(entry[-1], list):
        entry = entry[-1]
    entry[-1] = bad
    with pytest.raises(ConfigurationError, match="must be a rectangular array of numbers, got "):
        load(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("key, what", [("q", "positions q"), ("p", "momenta p")], ids=["q", "p"])
def test_landmark_state_refuses_non_finite_entries(key, what, bad):
    """``json`` reads ``NaN`` and ``Infinity``, and keeps an integer literal
    beyond the float range exact; all three are refused by name."""
    obj = _state_obj()
    obj[key][1][0] = bad
    with pytest.raises(ConfigurationError, match=f"^{what} contain non-finite entries$"):
        state_from_json(obj)


def test_loads_wraps_decode_errors():
    with pytest.raises(ConfigurationError):
        jsonio.loads("{not json}")


def test_load_file_missing(tmp_path):
    with pytest.raises(ConfigurationError):
        jsonio.load_file(str(tmp_path / "nope.json"))


def test_trajectory_csv_layout():
    ts = np.array([0.0, 0.5])
    qs = np.arange(8, dtype=float).reshape(2, 2, 2)
    ps = np.arange(8, 16, dtype=float).reshape(2, 2, 2)
    hams = np.array([1.25, 1.25])
    linear = np.array([[0.5, 0.5], [0.5, 0.5]])
    angular = np.array([[0.1], [0.1]])
    text = jsonio.trajectory_csv(ts, qs, ps, hams, linear, angular)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:5] == ["q_1_1", "q_1_2", "q_2_1", "q_2_2"]
    assert header[5:9] == ["p_1_1", "p_1_2", "p_2_1", "p_2_2"]
    assert header[9:] == ["H", "P_1", "P_2", "L_12"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:5]] == [0.0, 1.0, 2.0, 3.0]
    assert float(first[9]) == 1.25


def test_trajectory_csv_one_dimensional():
    ts = np.array([0.0])
    qs = np.zeros((1, 2, 1))
    ps = np.ones((1, 2, 1))
    hams = np.array([2.0])
    linear = np.array([[2.0]])
    angular = np.zeros((1, 0))
    text = jsonio.trajectory_csv(ts, qs, ps, hams, linear, angular)
    header = text.split("\n", 1)[0]
    assert header == "t,q_1_1,q_2_1,p_1_1,p_2_1,H,P_1"


# --- the bulk paths against the element-at-a-time code they replaced ----------
#
# ``_ref_dumps``, ``_ref_float_array`` and ``_ref_trajectory_csv`` are the
# bodies of ``dumps``, ``float_array`` and ``trajectory_csv`` before the writer
# formatted float arrays in one pass, the reader checked leaves in bulk and a
# trajectory row became one ``map`` of ``%.17g``.  The bulk paths must give
# the same bytes, and refuse the same inputs with the same messages.


def _ref_fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ConfigurationError(f"cannot serialize non-finite number {x!r}")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable but unambiguous
        return f"{x:.1f}"
    return f"{x:.17g}"


def _ref_dumps(obj):
    def emit(o, depth):
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _ref_fmt_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if len(o) == 0:
                return "[]"
            items = [emit(v, depth + 1) for v in o]
            if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in o) and sum(map(len, items)) < 72:
                return "[" + ", ".join(items) + "]"
            return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            rows = []
            for k, v in o.items():
                if not isinstance(k, str):
                    raise ConfigurationError(f"JSON object keys must be strings, got {k!r}")
                rows.append(pad_in + json.dumps(k) + ": " + emit(v, depth + 1))
            return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
        raise ConfigurationError(f"cannot serialize object of type {type(o).__name__}")

    return emit(obj, 0) + "\n"


def _ref_float_array(value, what):
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ConfigurationError(f"{what} must be a rectangular array of numbers, got {repr(leaf)[:32]}")
    try:
        arr = np.asarray(value, dtype=float)
        finite = bool(np.isfinite(arr).all())
    except OverflowError:  # an integer beyond the float range
        finite = False
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be a rectangular array of numbers") from exc
    if not finite:
        raise ConfigurationError(f"{what} contain non-finite entries")
    return arr


def _ref_trajectory_csv(ts, qs, ps, hams, linear, angular):
    k, p, d = qs.shape
    cols = ["t"]
    cols += [f"q_{a+1}_{i+1}" for a in range(p) for i in range(d)]
    cols += [f"p_{a+1}_{i+1}" for a in range(p) for i in range(d)]
    cols += ["H"]
    cols += [f"P_{i+1}" for i in range(d)]
    cols += [f"L_{i+1}{j+1}" for i in range(d) for j in range(i + 1, d)]
    lines = [",".join(cols)]
    for idx in range(k):
        row = [f"{ts[idx]:.17g}"]
        row += [f"{v:.17g}" for v in qs[idx].reshape(-1)]
        row += [f"{v:.17g}" for v in ps[idx].reshape(-1)]
        row.append(f"{hams[idx]:.17g}")
        row += [f"{v:.17g}" for v in linear[idx]]
        row += [f"{v:.17g}" for v in angular[idx]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _outcome(fn, *args):
    """What ``fn`` gives: its result, or the type and message it raises."""
    try:
        return "ok", fn(*args)
    except ConfigurationError as exc:
        return type(exc).__name__, str(exc)


def _assert_float_array_matches_the_leaf_walk(value):
    """The same array, bit for bit, or the same refusal."""
    got, want = _outcome(jsonio.float_array, value, "q"), _outcome(_ref_float_array, value, "q")
    assert got[0] == want[0]
    if got[0] == "ok":
        assert (got[1].dtype, got[1].shape, got[1].tobytes()) == (want[1].dtype, want[1].shape, want[1].tobytes())
    else:
        assert got[1] == want[1]


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.5, 1e16, -1e16, 1e16 - 2.0, 9007199254740993.0, 1e300, -1e300,
                  5e-324, 2.2250738585072014e-308, 1e-310, 123456789012345.0, 0.1, 2.0 ** 60]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**17, 10**17).map(float))
SHAPES = st.one_of(st.just((0,)), st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 5), st.integers(1, 5)),
                   st.tuples(st.integers(1, 4), st.just(1), st.integers(1, 4)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_dumps_of_float_arrays_matches_the_element_walk(shape, data):
    arr = np.array(data.draw(st.lists(FLOATS, min_size=math.prod(shape), max_size=math.prod(shape))),
                   dtype=float).reshape(shape)
    ints = data.draw(st.lists(st.integers(-10**20, 10**20), max_size=4))
    payload = {"a": arr, "listed": arr.tolist(), "ints": ints, "int_array": np.array(ints[:1], dtype=np.int64),
               "nested": [arr, {"b": arr}], "scalar": float(arr.flat[0]) if arr.size else 0.25}
    assert jsonio.dumps(payload) == _ref_dumps(payload)


@pytest.mark.parametrize("row, one_line", [
    ([1.2345678901234567] * 4, False),  # 4 x 18 = 72 characters: one number per line
    ([1.2345678901234567] * 3 + [12345678901234568.0], True),  # 71 characters
], ids=["72", "71"])
def test_dumps_row_width_boundary_matches_the_element_walk(row, one_line):
    payload = {"row": np.array(row), "rows": np.array([row, row])}
    text = jsonio.dumps(payload)
    assert text == _ref_dumps(payload)
    assert ('"row": [1.2' in text) == one_line


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape, at", [((5,), 3), ((3, 2), 0), ((2, 1, 3), 5)], ids=["1d", "2d", "3d"])
def test_dumps_refuses_non_finite_array_entries_as_the_element_walk(shape, at, bad):
    arr = np.linspace(-1.0, 1.0, math.prod(shape))
    arr[at] = bad
    arr[-1] = -bad  # a later non-finite entry: the first one is named
    payload = {"ok": [1.5], "a": arr.reshape(shape)}
    got, want = _outcome(jsonio.dumps, payload), _outcome(_ref_dumps, payload)
    assert got == want and got[0] == "ConfigurationError"


@pytest.mark.parametrize("scalar", [np.float64(1.5), np.float64(-3.0), np.int64(7), np.bool_(True)],
                         ids=["float", "integral", "int", "bool"])
def test_dumps_writes_a_zero_dimensional_array_as_its_scalar(scalar):
    assert jsonio.dumps({"x": np.array(scalar)}) == jsonio.dumps({"x": scalar})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_dumps_refuses_a_non_finite_zero_dimensional_array(bad):
    with pytest.raises(ConfigurationError, match="cannot serialize non-finite number"):
        jsonio.dumps({"x": np.array(bad)})


BAD_LEAVES = [True, False, "1e0", "0", None, float("nan"), float("inf"), -float("inf"), 10**400, [], [1.0]]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_float_array_matches_the_leaf_walk(shape, data):
    """Accepted values give the same bits; refused ones the same message."""
    leaves = data.draw(st.lists(st.one_of(FLOATS, st.integers(-2**70, 2**70)),
                                min_size=math.prod(shape), max_size=math.prod(shape)))
    value = np.array(leaves, dtype=object).reshape(shape).tolist()
    if leaves and data.draw(st.booleans()):
        bad = data.draw(st.sampled_from(BAD_LEAVES))
        row = value
        while isinstance(row[0], list):
            row = row[data.draw(st.integers(0, len(row) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = bad
    if len(shape) > 1 and data.draw(st.booleans()):
        value[-1].pop()  # ragged
    _assert_float_array_matches_the_leaf_walk(value)


@pytest.mark.parametrize("value", [
    [[0.0, 1.0], [True, 1.0]], [[0.0, "1e0"]], [[0.0, None], [1.0, 2.0]], [[0.0, 1.0], [2.0]],
    [[0.0, 10**400]], [float("nan")], [[1.0, -float("inf")]], [[0.0, [1.0]], [2.0, 3.0]],
    True, "1e0", None, {"a": 1.0}, 3.0, [], [[], []],
], ids=repr)
def test_float_array_refusals_and_edges_match_the_leaf_walk(value):
    _assert_float_array_matches_the_leaf_walk(value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 3), p=st.integers(1, 3), d=st.integers(1, 3), data=st.data())
def test_trajectory_csv_matches_the_element_walk(k, p, d, data):
    def draw(*shape):
        values = data.draw(st.lists(st.one_of(FLOATS, st.sampled_from([float("nan"), float("inf")])),
                                    min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(values, dtype=float).reshape(shape)

    args = (draw(k), draw(k, p, d), draw(k, p, d), draw(k), draw(k, d), draw(k, d * (d - 1) // 2))
    assert jsonio.trajectory_csv(*args) == _ref_trajectory_csv(*args)
