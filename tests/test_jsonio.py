"""Deterministic JSON emission and trajectory CSV rendering."""

import numpy as np
import pytest

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
