"""CLI behaviour, exercised in-process through ``cometric.cli.main``."""

import json

import numpy as np
import pytest

from cometric import jsonio
from cometric.cli import main


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


def test_validate_tolerance_override_fails_suite(capsys):
    code = main([
        "validate", "--quick", "--suite", "kernel_oracle",
        "--tol-override", "kernel_oracle=1e-30",
    ])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate", "--tol-override", "nonsense=1"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["kernel"])
    assert info.value.code == 2
    capsys.readouterr()
    # --threads, --seed and --tol-override exist only where they are read
    with pytest.raises(SystemExit) as info:
        main(["curvature", "chart", "--cometric", "catalog:sphere", "--point", "0.1,0.2",
              "--alpha", "1,0", "--beta", "0,1", "--threads", "2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_computation_error_exits_1(tmp_path, spec_file, capsys):
    state = _write_state(
        tmp_path, "dup.json", 2,
        [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]],
    )
    code = main(["geodesic", "shoot", "--spec", spec_file, "--state", state])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_out_writes_file(tmp_path, spec_file, capsys):
    out = tmp_path / "vals.json"
    assert main(["kernel", "eval", "--spec", spec_file, "--r", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = jsonio.load_file(str(out))
    assert payload["radii"] == [1.0]
