"""CLI behaviour, exercised in-process through ``cometric.cli.main``."""

import json

import numpy as np
import pytest

from cometric import jsonio, shapes, validation
from cometric.cli import build_parser, main


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "sobolev_bessel", "n": 3, "l": 3, "A": 0.8, "c": 1.0}))
    return str(path)


def _write_state(tmp_path, name, dim, q, p):
    path = tmp_path / name
    path.write_text(json.dumps({"D": dim, "q": q, "p": p}))
    return str(path)


def test_kernel_eval(tmp_path, spec_file, capsys):
    assert main(["kernel", "eval", "--spec", spec_file, "--r", "0,1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radii"] == [0.0, 1.0, 2.0]
    assert len(payload["values"]) == 3
    assert payload["values"][0] == pytest.approx(max(payload["values"]))
    assert np.array(payload["hessians"]).shape == (3, 3, 3)


def test_curvature_chart_hyperbolic(capsys):
    code = main([
        "curvature", "chart", "--cometric", "catalog:hyperbolic",
        "--point", "0,1", "--alpha", "1,0", "--beta", "0,1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    br = payload["breakdown"]
    assert br["r11"] == pytest.approx(1.0, abs=1e-12)
    assert br["r12"] == pytest.approx(2.0, abs=1e-12)
    assert br["r2"] == pytest.approx(-1.0, abs=1e-12)
    assert br["r3"] == pytest.approx(-3.0, abs=1e-12)
    assert br["total"] == pytest.approx(-1.0, abs=1e-12)
    assert br["sectional"] == pytest.approx(-1.0, abs=1e-10)
    assert payload["discrepancy"] < 1e-10


def test_curvature_landmark_single_flat(tmp_path, spec_file, capsys):
    state = _write_state(tmp_path, "one.json", 2, [[0.0, 0.0]], [[1.0, 0.0]])
    assert main(["curvature", "landmark", "--spec", spec_file, "--state", state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["breakdown"]["total"] == 0.0
    assert payload["breakdown"]["sectional"] == 0.0
    # default beta is the quarter turn of p
    assert payload["beta"] == [[0.0, 1.0]]


def test_curvature_shape(tmp_path, spec_file, capsys):
    assert main(["shape", "make", "--samples", "12", "--out", str(tmp_path / "c.json")]) == 0
    shape = json.loads((tmp_path / "c.json").read_text())
    nu = np.asarray(shape["samples"])
    shape["momenta"] = (0.1 * nu).tolist()
    (tmp_path / "c.json").write_text(json.dumps(shape))
    code = main(["curvature", "shape", "--spec", spec_file, "--shape", str(tmp_path / "c.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 12
    assert np.isfinite(payload["breakdown"]["total"])


def test_curvature_shape_of_a_landmark_cloud_matches_curvature_landmark(tmp_path, spec_file, capsys):
    """A landmark cloud written as an ``m = 0`` shape file gives the landmark
    breakdown for the same ``q`` and ``p`` (criterion 8 through the CLI)."""
    q = np.array([[0.0, 0.0], [1.0, 0.2], [-0.3, 0.8]])
    p = np.array([[0.1, 0.0], [0.0, -0.2], [0.3, 0.1]])
    cloud = tmp_path / "cloud.json"
    cloud.write_text(jsonio.dumps(shapes.shape_to_json(shapes.landmark_shape(q), p)))
    state = _write_state(tmp_path, "cloud_state.json", 2, q.tolist(), p.tolist())
    assert main(["curvature", "shape", "--spec", spec_file, "--shape", str(cloud)]) == 0
    shape = json.loads(capsys.readouterr().out)["breakdown"]
    assert main(["curvature", "landmark", "--spec", spec_file, "--state", state]) == 0
    want = json.loads(capsys.readouterr().out)["breakdown"]
    assert shape.keys() == want.keys()
    for key, value in want.items():
        assert shape[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_geodesic_shoot_csv(tmp_path, spec_file, capsys):
    state = _write_state(
        tmp_path, "pair.json", 2,
        [[-0.25, 0.0], [0.25, 0.0]], [[0.0, 1.0], [0.0, -1.0]],
    )
    code = main([
        "geodesic", "shoot", "--spec", spec_file, "--state", state,
        "--dt", "0.05", "--T", "0.2",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,q_1_1,q_1_2,q_2_1,q_2_2,p_1_1,p_1_2,p_2_1,p_2_2,H,P_1,P_2,L_12"
    assert len(lines) == 6  # header + 5 states (4 steps)
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == pytest.approx(0.2)
    assert last[9] == pytest.approx(first[9], rel=1e-9)  # H column conserved


def test_match_round_trip(tmp_path, spec_file, capsys):
    source = _write_state(tmp_path, "src.json", 2, [[0.1, 0.2]], [[0.0, 0.0]])
    target = _write_state(tmp_path, "tgt.json", 2, [[0.4, -0.1]], [[0.0, 0.0]])
    code = main([
        "match", "--spec", spec_file, "--source", source, "--target", target,
        "--dt", "0.02", "--T", "1.0",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["residuals"][-1] < 1e-8
    assert np.allclose(payload["q_final"], [[0.4, -0.1]], atol=1e-8)


def test_oneill_check_deterministic(capsys):
    assert main(["oneill", "check", "--case", "product", "--trials", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["oneill", "check", "--case", "product", "--trials", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second  # same default seed, byte-identical
    payload = json.loads(first)
    assert payload["max_residual"] < 1e-10
    assert len(payload["records"]) == 4
    seeded = main(["oneill", "check", "--case", "product", "--trials", "4", "--seed", "3"])
    assert seeded == 0
    assert capsys.readouterr().out != first


def test_shape_make_validates(capsys):
    assert main(["shape", "make", "--samples", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["samples"]) == 8
    assert main(["shape", "make", "--samples", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_validate_quick_suite(capsys):
    code = main(["validate", "--quick", "--suite", "kernel_oracle", "--suite", "m0_reduction"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel_oracle" in out and "m0_reduction" in out
    assert "PASS" in out and "FAIL" not in out
    code = main(["validate", "--quick", "--suite", "constant_curvature", "--suite", "m0_reduction",
                 "--threads", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "constant_curvature" in out and "m0_reduction" in out and "FAIL" not in out


def test_validate_tolerance_override_fails_suite(capsys, monkeypatch):
    """A suite that fails its gate fails ``validate``: exit 1 and a FAIL row."""
    monkeypatch.setitem(validation.TOLERANCES, "kernel_oracle", 1e-30)
    code = main(["validate", "--quick", "--suite", "kernel_oracle"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["kernel"],
        ["kernel", "eval", "--spec", "spec.json", "--r", "1,x"],
        # --threads and --seed exist only where they are read
        ["curvature", "chart", "--cometric", "catalog:sphere", *CHART, "--threads", "2"],
        # RK4 is the only integrator: there is no --method to choose one
        ["geodesic", "shoot", "--spec", "spec.json", "--state", "state.json", "--method", "rk4"],
        # the bracket is always exact, the gates are the shipped tolerances, the shape is a circle
        ["oneill", "check", "--case", "hopf", "--mode", "fd"],
        ["validate", "--tol-override", "kernel_oracle=1"],
        ["shape", "make", "--samples", "8", "--kind", "circle"],
        # seeds are non-negative, trial counts positive
        ["oneill", "check", "--case", "flat", "--seed", "-1"],
        ["oneill", "check", "--case", "flat", "--seed", "1.5"],
        ["oneill", "check", "--case", "flat", "--trials", "0"],
        ["oneill", "check", "--case", "flat", "--trials", "-3"],
        ["validate", "--suite", "m0_reduction", "--seed", "-1"],
        # thread counts are positive
        ["validate", "--suite", "m0_reduction", "--threads", "0"],
        ["validate", "--suite", "m0_reduction", "--threads", "-2"],
        # match needs at least one iteration and a tolerance that can be met
        ["match", "--spec", "spec.json", "--source", "a.json", "--target", "b.json", "--max-iter", "0"],
        ["match", "--spec", "spec.json", "--source", "a.json", "--target", "b.json", "--max-iter", "-1"],
        ["match", "--spec", "spec.json", "--source", "a.json", "--target", "b.json", "--tol", "-1"],
        ["match", "--spec", "spec.json", "--source", "a.json", "--target", "b.json", "--tol", "nan"],
        ["match", "--spec", "spec.json", "--source", "a.json", "--target", "b.json", "--tol", "x"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_cached_parser_is_reentrant(tmp_path, spec_file, capsys):
    """The parser is built once per process; a usage error, then a command
    with ``--beta``, then one without, each give the bytes they give alone."""
    state = _write_state(tmp_path, "three.json", 2, [[0.0, 0.0], [1.0, 0.2], [-0.3, 0.8]],
                         [[0.1, 0.0], [0.0, -0.2], [0.3, 0.1]])
    landmark = ["curvature", "landmark", "--spec", spec_file, "--state", state]
    with_beta = [*landmark, "--beta=0.2,-0.1,0,0.3,-0.4,0.1"]

    def alone(argv):
        build_parser.cache_clear()
        assert main(argv) == 0
        return capsys.readouterr().out

    want_beta, want_plain = alone(with_beta), alone(landmark)
    assert want_beta != want_plain
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["curvature", "landmark", "--spec", spec_file])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(with_beta) == 0
    assert capsys.readouterr().out == want_beta
    assert main(landmark) == 0
    assert capsys.readouterr().out == want_plain
    assert build_parser.cache_info().misses == 1


def test_computation_error_exits_1(tmp_path, spec_file, capsys):
    state = _write_state(
        tmp_path, "dup.json", 2,
        [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]],
    )
    code = main(["geodesic", "shoot", "--spec", spec_file, "--state", state])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_beta_exits_1(tmp_path, spec_file, capsys):
    """A NaN or Inf second coform is refused by name, before it reaches the JSON emitter."""
    state = _write_state(tmp_path, "two.json", 2, [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert main(["curvature", "landmark", "--spec", spec_file, "--state", state, "--beta", "nan,0,0,1"]) == 1
    assert capsys.readouterr().err == "error: coforms must be finite\n"
    path = tmp_path / "c.json"
    assert main(["shape", "make", "--samples", "4", "--out", str(path)]) == 0
    shape = json.loads(path.read_text())
    shape["momenta"] = (0.1 * np.asarray(shape["samples"])).tolist()
    path.write_text(json.dumps(shape))
    code = main(["curvature", "shape", "--spec", spec_file, "--shape", str(path), "--beta", "0,inf,0,0,0,0,0,0"])
    assert code == 1
    assert capsys.readouterr().err == "error: coforms must be finite\n"


def test_huge_finite_momenta_exit_1_with_one_error_line(tmp_path, spec_file, capsys):
    """Momenta whose products overflow are refused where they enter, with no
    numpy warning on the way (warnings fail this suite): the curvature route
    names the overflow, the geodesic refuses a start beyond ``MAX_NORM``."""
    state = _write_state(tmp_path, "huge.json", 2, [[0.0, 0.0], [1.0, 0.0]], [[1e200, 0.0], [0.0, 0.1]])
    assert main(["curvature", "landmark", "--spec", spec_file, "--state", state]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: coforms are too large: a product of them overflows the float range "
                       "(largest coform entry 1.000e+200)\n")
    assert main(["geodesic", "shoot", "--spec", spec_file, "--state", state, "--dt", "0.1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: initial state entry 1.000e+200 exceeds the blow-up bound 1e+08 (last finite t=0)\n"


def test_overflowing_chart_and_shape_coforms_exit_1(tmp_path, spec_file, capsys):
    want = ("error: coforms are too large: a product of them overflows the float range "
            "(largest coform entry 1.000e+200)\n")
    assert main(["curvature", "chart", "--cometric", "catalog:sphere",
                 "--point", "0.1,0.2", "--alpha", "1e200,0", "--beta", "0,1"]) == 1
    assert capsys.readouterr().err == want
    path = tmp_path / "c.json"
    assert main(["shape", "make", "--samples", "8", "--out", str(path)]) == 0
    shape = json.loads(path.read_text())
    shape["momenta"] = (1e200 * np.asarray(shape["samples"])).tolist()
    path.write_text(json.dumps(shape))
    assert main(["curvature", "shape", "--spec", spec_file, "--shape", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == want


def test_kernel_eval_refuses_an_overflowing_radius(spec_file, capsys):
    assert main(["kernel", "eval", "--spec", spec_file, "--r", "1,1e200"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: displacements are too long: a squared norm overflows the float range "
                       "(largest coordinate 1.000e+200)\n")


def test_overflowing_cometric_entry_exits_1(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "entries": {"1,1": "1 + 1e300^2", "2,2": "1"}}))
    code = main(["curvature", "chart", "--cometric", str(path),
                 "--point", "0,0", "--alpha", "1,0", "--beta", "0,1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: overflow in power")
    assert "Traceback" not in err


def test_non_finite_shape_file_exits_1(tmp_path, spec_file, capsys):
    """A NaN sample is refused at load, not left to fail inside an SVD."""
    path = tmp_path / "c.json"
    assert main(["shape", "make", "--samples", "12", "--out", str(path)]) == 0
    shape = json.loads(path.read_text())
    shape["momenta"] = (0.1 * np.asarray(shape["samples"])).tolist()
    shape["samples"][3][0] = float("nan")
    path.write_text(json.dumps(shape))
    assert main(["curvature", "shape", "--spec", spec_file, "--shape", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: shape samples contain non-finite entries")


def test_kernel_narrower_than_the_configuration_exits_1(tmp_path, capsys):
    """``curvature shape`` and ``curvature landmark`` refuse a kernel on R^1
    for points in the plane with the same single error line."""
    spec = tmp_path / "narrow.json"
    spec.write_text(json.dumps({"family": "sobolev_bessel", "n": 1, "l": 3}))
    path = tmp_path / "c.json"
    assert main(["shape", "make", "--samples", "32", "--out", str(path)]) == 0
    shape = json.loads(path.read_text())
    shape["momenta"] = (0.1 * np.asarray(shape["samples"])).tolist()
    path.write_text(json.dumps(shape))
    state = _write_state(tmp_path, "s.json", 2, shape["samples"], shape["momenta"])
    for argv in (["curvature", "shape", "--shape", str(path)], ["curvature", "landmark", "--state", state]):
        assert main([*argv, "--spec", str(spec)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: ambient dimension D=2 exceeds the kernel dimension n=1\n"


def test_non_finite_landmark_state_exits_1(tmp_path, spec_file, capsys):
    state = _write_state(tmp_path, "s.json", 2, [[0.0, 0.0], [1.0, float("inf")]], [[0.0, 0.0], [0.0, 0.0]])
    assert main(["geodesic", "shoot", "--spec", spec_file, "--state", state]) == 1
    assert capsys.readouterr().err == "error: positions q contain non-finite entries\n"


def test_out_writes_file(tmp_path, spec_file, capsys):
    out = tmp_path / "vals.json"
    assert main(["kernel", "eval", "--spec", spec_file, "--r", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = jsonio.load_file(str(out))
    assert payload["radii"] == [1.0]


def test_default_beta_rolls_rows_in_one_dimension(tmp_path, spec_file, capsys):
    """With D = 1 there is no quarter turn: the default second coform rolls
    the momenta across landmarks."""
    state = _write_state(tmp_path, "line.json", 1, [[0.0], [1.0], [2.5]], [[1.0], [2.0], [3.0]])
    assert main(["curvature", "landmark", "--spec", spec_file, "--state", state]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == [[3.0], [1.0], [2.0]]


def _spec(tmp_path, **fields):
    path = tmp_path / "bad_spec.json"
    path.write_text(json.dumps({"family": "sobolev_bessel", "n": 3, "l": 3, "A": 0.8, **fields}))
    return str(path)


def _shape(tmp_path, **fields):
    path = tmp_path / "bad_shape.json"
    obj = {"n": 2, "m": 1, "samples": [[1, 0], [0, 1], [-1, 0]], "weights": [1, 1, 1],
           "tangents": [[[0, 1]], [[-1, 0]], [[0, -1]]], "momenta": [[1, 0], [0, 1], [-1, 0]]}
    path.write_text(json.dumps({**obj, **fields}))
    return str(path)


def _state(tmp_path, q, p=None):
    path = tmp_path / "bad_state.json"
    path.write_text(json.dumps({"D": 2, "q": q, **({} if p is None else {"p": p})}))
    return str(path)


def _raw(tmp_path, data):
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    return str(path)


def _chart(tmp_path, **fields):
    path = tmp_path / "bad_cometric.json"
    path.write_text(json.dumps({"dim": 2, "entries": {"1,1": "1", "2,2": "1"}, **fields}))
    return ["curvature", "chart", "--cometric", str(path), *CHART]


PAIR = [[0.0, 0.0], [1.0, 0.0]]
CHART = ["--point", "0.1,0.2", "--alpha", "1,0", "--beta", "0,1"]
MALFORMED = {
    "beta size": (lambda d, s: ["curvature", "landmark", "--spec", s, "--state", _state(d, PAIR, PAIR),
                                "--beta", "1,2,3"], "error: --beta needs 4 numbers, got 3"),
    "catalog argument": (lambda d, s: ["curvature", "chart", "--cometric", "catalog:euclidean:x", *CHART],
                         "error: bad catalog argument in 'euclidean:x'"),
    "ragged state": (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _state(d, [[0, 0], [1]])],
                     "error: positions q must be a rectangular array of numbers"),
    "non-numeric state": (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _state(d, [[0, 0], ["a", 1]])],
                          "error: positions q must be a rectangular array of numbers"),
    "float shape n": (lambda d, s: ["curvature", "shape", "--spec", s, "--shape", _shape(d, n=2.0)],
                      "error: shape n must be an integer, got 2.0"),
    "string spec A": (lambda d, s: ["geodesic", "shoot", "--spec", _spec(d, A="x"), "--state", _state(d, PAIR)],
                      "error: kernel scale A must be a number, got 'x'"),
    "fractional spec n, l": (lambda d, s: ["geodesic", "shoot", "--spec", _spec(d, n=3.5, l=3.7),
                                           "--state", _state(d, PAIR)],
                             "error: kernel dimension n must be an integer, got 3.5"),
    "missing out directory": (lambda d, s: ["curvature", "chart", "--cometric", "catalog:sphere", *CHART,
                                            "--out", str(d / "missing" / "x.json")],
                              "error: cannot write "),
    "shape file not an object": (lambda d, s: ["curvature", "shape", "--spec", s, "--shape", _raw(d, b"[1, 2]")],
                                 "error: shape JSON must be an object"),
    "nesting too deep": (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _raw(d, b"[" * 10**5 + b"]" * 10**5)],
                         "error: invalid JSON: "),
    "binary input": (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _raw(d, b"\xff\xfe\x00")],
                     "error: cannot read "),
    "spec A beyond the float range": (lambda d, s: ["curvature", "landmark", "--spec", _spec(d, A=10**400),
                                                    "--state", _state(d, PAIR, PAIR)],
                                      "error: kernel scale A is beyond the float range"),
    "overflowing pair distance": (lambda d, s: ["curvature", "landmark", "--spec", s,
                                                "--state", _state(d, [[0.0, 0.0], [1e200, 0.0]], PAIR)],
                                  "error: landmarks are too far apart: a pair distance overflows"),
    "trajectory too long to allocate": (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _state(d, PAIR, PAIR),
                                                      "--dt", "1e-300"],
                                        "error: 1e+300 steps (t_final / dt) exceed the limit of 1e+07"),
    "match with too many steps": (lambda d, s: ["match", "--spec", s, "--source", _state(d, PAIR),
                                                "--target", _state(d, PAIR), "--dt", "1e-300"],
                                  "error: 1e+300 steps (t_final / dt) exceed the limit of 1e+07"),
    "match with infinitely many steps": (lambda d, s: ["match", "--spec", s, "--source", _state(d, PAIR),
                                                       "--target", _state(d, PAIR), "--dt", "5e-324"],
                                         "error: inf steps (t_final / dt) exceed the limit of 1e+07"),
    "shape samples not (S, n)": (lambda d, s: ["curvature", "shape", "--spec", s, "--shape",
                                               _shape(d, samples=[[1, 0, 0], [0, 1, 0], [-1, 0, 0]])],
                                 "error: samples must be (S, 2), got (3, 3)"),
    "shape tangents shape": (lambda d, s: ["curvature", "shape", "--spec", s, "--shape",
                                           _shape(d, tangents=[[0, 1], [-1, 0], [0, -1]])],
                             "error: tangents must be (3, 1, 2), got (3, 2)"),
    "shape momenta shape": (lambda d, s: ["curvature", "shape", "--spec", s, "--shape",
                                          _shape(d, momenta=[[1, 0], [0, 1]])],
                            "error: momenta must be (3, 2), got (2, 2)"),
    "state D 0": (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _raw(d, b'{"D": 0, "q": [[0, 0]]}')],
                  "error: bad ambient dimension 0"),
    "spec n 0": (lambda d, s: ["geodesic", "shoot", "--spec", _spec(d, n=0), "--state", _state(d, PAIR)],
                 "error: kernel dimension n must be a positive integer, got 0"),
    "spec l 0": (lambda d, s: ["geodesic", "shoot", "--spec", _spec(d, l=0), "--state", _state(d, PAIR)],
                 "error: Bessel kernel needs an integer exponent l >= 1, got 0"),
    "shape without momenta": (lambda d, s: ["curvature", "shape", "--spec", s, "--shape",
                                            _raw(d, jsonio.dumps(shapes.shape_to_json(shapes.make_circle(8))).encode())],
                              "error: shape file carries no momenta"),
    "match sizes differ": (lambda d, s: ["match", "--spec", s, "--source", _state(d, PAIR),
                                         "--target", _write_state(d, "tgt.json", 2, [*PAIR, [0, 1]], [[0, 0]] * 3)],
                           "error: source and target disagree"),
    "circle center size": (lambda d, s: ["shape", "make", "--samples", "8", "--center", "1,2,3"],
                           "error: circle center needs 2 coordinates, got 3"),
    "chart without dim": (lambda d, s: ["curvature", "chart", "--cometric", _raw(d, b'{"entries": {}}'), *CHART],
                          "error: cometric JSON needs 'dim' and 'entries'"),
    "chart dim 0": (lambda d, s: _chart(d, dim=0), "error: bad cometric dimension 0"),
    "chart entries list": (lambda d, s: _chart(d, entries=["1", "1"]), "error: 'entries' must be an object"),
    "chart entry key": (lambda d, s: _chart(d, entries={"a,b": "1"}), "error: bad entry key 'a,b'"),
    "chart entry number": (lambda d, s: _chart(d, entries={"1,1": 1, "2,2": "1"}),
                           "error: entry '1,1' must be an expression string"),
    "chart variable beyond dim": (lambda d, s: _chart(d, entries={"1,1": "1 + x3^2", "2,2": "1"}),
                                  "error: entry (1,1) uses x3 but the chart has dimension 2"),
    "chart unclosed parenthesis": (lambda d, s: _chart(d, entries={"1,1": "(x1", "2,2": "1"}),
                                   "error: expected ')' (at offset 3)"),
    "chart trailing input": (lambda d, s: _chart(d, entries={"1,1": "x1 x2", "2,2": "1"}),
                             "error: unexpected trailing input 'x2' (at offset 3)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_without_traceback(case, tmp_path, spec_file, capsys):
    """Bad outside input is refused where it enters, as a named error: exit 1
    and one ``error:`` line, never an escaping ``ValueError``/``TypeError``/
    ``OSError`` or a silently truncated value."""
    argv, message = MALFORMED[case]
    assert main(argv(tmp_path, spec_file)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


_FORMS = "(know euclidean[:d], sphere[:radius], hyperbolic)"


@pytest.mark.parametrize("cometric, point, line", [
    ("catalog:hyperbolic:5", "0.1,0.2", f"too many catalog arguments in 'hyperbolic:5' {_FORMS}"),
    ("catalog:sphere:2:-1", "0.1,0.2", f"too many catalog arguments in 'sphere:2:-1' {_FORMS}"),
    ("catalog:euclidean:2:9", "0.1,0.2", f"too many catalog arguments in 'euclidean:2:9' {_FORMS}"),
    ("catalog:torus", "0.1,0.2", f"unknown catalog cometric 'torus' {_FORMS}"),
    ("catalog:sphere:nan", "0.1,0.2", "sphere radius must be finite, got nan"),
    ("catalog:sphere:inf", "0.1,0.2", "sphere radius must be finite, got inf"),
    ("catalog:sphere:-1", "0.1,0.2", "sphere radius must be positive"),
    ("catalog:sphere:1e200", "0,0", "sphere radius 1e+200 is out of range: 4 R^4 is not a positive finite float"),
    ("catalog:sphere:1e-200", "0,0", "sphere radius 1e-200 is out of range: 4 R^4 is not a positive finite float"),
    ("catalog:euclidean:80", ",".join(["0"] * 80), "dense chart jet at d=80 needs 327680000 bytes (limit 268435456 bytes)"),
    ("catalog:euclidean:0", "0.1,0.2", "cometric dimension must be >= 1, got 0"),
    ("catalog:sphere", "0.1,0.2,0.3", "point has shape (3,), chart dimension is 2"),
])
def test_catalog_cometric_and_point_refusals_exit_1(cometric, point, line, capsys):
    """A catalog argument beyond the name's own, a bad radius or dimension,
    a point of the wrong size and a dense jet above the ceiling each exit 1
    with exactly one ``error:`` line, before anything is computed."""
    argv = ["curvature", "chart", "--cometric", cometric, "--point", point, "--alpha", "1,0", "--beta", "0,1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("argv, line", [
    (lambda d: _chart(d, entries={"1,1": "1 + 1e400*x1^2", "2,2": "1"}),
     "number '1e400' is beyond the float range (at offset 4)"),
    (lambda d: [*_chart(d, entries={"1,1": "1 + x1*x1*x2", "2,2": "1"})[:4],
                "--point", "1e200,1", "--alpha", "1,0", "--beta", "0,1"],
     "jet contains non-finite entries"),
    (lambda d: ["shape", "make", "--samples", "8", "--radius", "inf"], "circle radius must be finite, got inf"),
    (lambda d: ["shape", "make", "--samples", "8", "--radius", "nan"], "circle radius must be finite, got nan"),
    (lambda d: ["shape", "make", "--samples", "8", "--center", "nan,0"], "circle center must be finite, got (nan, 0.0)"),
    (lambda d: ["kernel", "eval", "--spec", _raw(d, b'{"family": "gaussian", "n": 2, "A": 0.9}'), "--r", "0,1"],
     "unknown kernel family 'gaussian' (know sobolev_bessel)"),
    *[(lambda d, n=n, l=l, A=A: ["kernel", "eval", "--spec", _spec(d, n=n, l=l, A=A), "--r", "0,1"],
       f"kernel (n={n}, l={l}, A={A:g}, c=1) is out of range: its closed-form factors const, const/A and const/A^2 "
       "must be positive finite floats")
      for n, l, A in [(1, 200, 1), (771, 400, 1), (1001, 600, 1),
                      (3, 3, 1e-300), (3, 3, 1e200), (3, 3, 1e-150), (3, 3, 1e-200)]],
], ids=["literal beyond float", "overflowing entry jet", "circle radius inf", "circle radius nan",
        "circle center nan", "gaussian family", "spec n=1 l=200", "spec n=771 l=400", "spec n=1001 l=600",
        "spec A=1e-300", "spec A=1e200", "spec A=1e-150", "spec A=1e-200"])
def test_out_of_range_input_exits_1_with_one_error_line(argv, line, tmp_path, capsys):
    """A chart literal or entry jet beyond the float range, a circle off it,
    the removed kernel family and a kernel whose closed-form factors leave
    the float range are each refused with one ``error:`` line and nothing
    else on stderr: no numpy warning (warnings fail this suite), no
    traceback."""
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def _circle_with_momenta(tmp_path, samples):
    circle = shapes.make_circle(samples)
    return _raw(tmp_path, jsonio.dumps(shapes.shape_to_json(circle, 0.1 * circle.x)).encode())


WIDE = 5793  # the least p with 8 p^2 bytes above jets.DENSE_MAX_BYTES = 2**28


@pytest.mark.parametrize("argv, line", [
    (lambda d, s: ["shape", "make", "--samples", "8388609"],
     "dense circle at S=8388609 needs 268435488 bytes (limit 268435456 bytes)"),
    (lambda d, s: ["curvature", "shape", "--spec", s, "--shape",
                   _raw(d, json.dumps({"n": WIDE, "m": 0, "samples": [[0.0] * WIDE], "weights": [1.0],
                                       "tangents": [[]], "momenta": [[0.0] * WIDE]}).encode())],
     "dense shape projectors at S=1, n=5793 needs 268470792 bytes (limit 268435456 bytes)"),
    (lambda d, s: ["curvature", "landmark", "--spec", s, "--state",
                   _write_state(d, "line.json", 2, [[float(i), 0.0] for i in range(WIDE)], [[0.0, 0.1]] * WIDE)],
     "dense kernel Gram at p=5793 needs 268470792 bytes (limit 268435456 bytes)"),
    (lambda d, s: ["curvature", "shape", "--spec", s, "--shape", _circle_with_momenta(d, WIDE)],
     "dense kernel Gram at S=5793 needs 268470792 bytes (limit 268435456 bytes)"),
    (lambda d, s: ["geodesic", "shoot", "--spec", s, "--state", _state(d, PAIR, PAIR), "--dt", "1e-7", "--T", "0.42"],
     "dense trajectory of 4200001 states of shape (2, 2, 2) needs 268800064 bytes (limit 268435456 bytes)"),
], ids=["circle", "shape projectors", "landmark kernel Gram", "shape kernel Gram", "trajectory"])
def test_dense_array_above_the_ceiling_exits_1_before_it_is_allocated(argv, line, tmp_path, spec_file, capsys):
    """Each dense array a route holds is checked against the one ceiling,
    ``jets.DENSE_MAX_BYTES``, before it is allocated: just above it the
    command exits 1 with one ``error:`` line and no traceback."""
    assert main(argv(tmp_path, spec_file)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"
