"""The golden-output ledger: fixed inputs, the command lines run on them, and
the regeneration script.

    PYTHONPATH=src python tests/golden.py              # rewrite tests/golden.json
    PYTHONPATH=src python tests/golden.py --check      # compare, write nothing
    PYTHONPATH=src python tests/golden.py --dump DIR   # also keep each output in DIR
    python tests/golden.py --compare OLD_DIR NEW_DIR   # largest relative change and moved fields per output

Every input is built here from a fixed seed, so the ledger pins the bytes of
each subcommand's output (its sha256, and the text itself when short) and
the detail column of each validation suite at seed 0.  The numbers depend
on the numpy and BLAS builds, so the ledger records both and
``tests/test_golden.py`` skips, naming them, on any other build.  A change
that moves bytes regenerates the ledger and lists every moved entry with
its largest relative change.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

LEDGER = Path(__file__).resolve().parent / "golden.json"
TEXT_LIMIT = 2048  # outputs up to this many characters are kept verbatim
SPEC = {"family": "sobolev_bessel", "n": 3, "l": 3, "A": 1.0, "c": 1.0}
SPACING = 0.35  # neighbour spacing of the ring and circle inputs, in kernel lengths


def build() -> dict:
    """What fixes the ledger's bytes besides the program: the numpy and
    OpenBLAS versions, the OpenBLAS core in use and numpy's active SIMD
    targets.  Not the OpenBLAS thread count: the Gram solve splits no sum
    across threads (``test_gram_outputs_do_not_depend_on_the_thread_count``)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    features = _multiarray_umath.__cpu_features__
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": _openblas("corename", ctypes.c_char_p, bytes.decode),
            "simd": [f for f in _multiarray_umath.__cpu_dispatch__ if features.get(f)]}


def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS in this process."""
    return _openblas("num_threads", ctypes.c_int, int)


def _openblas(name: str, restype, convert):
    """``scipy_openblas_get_<name>64_()`` of numpy's bundled OpenBLAS, as
    loaded into this process, or None when it is not that library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lib = ctypes.CDLL(next(line.split()[-1] for line in maps if "scipy_openblas64_" in line))
        fn = getattr(lib, f"scipy_openblas_get_{name}64_")
    except (OSError, StopIteration, AttributeError):
        return None
    fn.restype = restype
    return convert(fn())


def describe(b: dict) -> str:
    return f"numpy {b['numpy']} with {b['blas']} ({b['blas_core']} core), SIMD {' '.join(b['simd']) or 'baseline'}"


def skip_on_another_build(ledger: dict) -> None:
    """Skip the calling test, naming both builds, unless this is the ledger's."""
    import pytest

    here = build()
    if here != ledger["build"]:
        pytest.skip(f"ledger recorded on {describe(ledger['build'])}; this build is {describe(here)}")


def _ring(rng: np.random.Generator, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``p`` jittered points on a circle of neighbour spacing ``SPACING``, and
    normal momenta of scale 0.5."""
    theta = 2.0 * np.pi * np.arange(p) / p
    radius = max(p * SPACING / (2.0 * np.pi), 0.5)
    q = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    q += rng.uniform(-0.2 * SPACING, 0.2 * SPACING, size=q.shape)
    return q, 0.5 * rng.standard_normal(q.shape)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _state(work: Path, name: str, q: np.ndarray, p: np.ndarray) -> str:
    return _write(work / name, {"D": int(q.shape[1]), "q": q.tolist(), "p": p.tolist()})


def _circle(work: Path, cm, rng: np.random.Generator, s: int) -> str:
    circle = cm.shapes.make_circle(s, radius=s * SPACING / (2.0 * np.pi), center=(0.3, -0.2))
    theta = 2.0 * np.pi * np.arange(s) / s
    modes = rng.standard_normal((2, 3))
    k = np.arange(1, 4)
    profile = np.cos(np.outer(theta, k)) @ modes[0] + np.sin(np.outer(theta, k)) @ modes[1]
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return _write(work / f"circle{s}.json", cm.shapes.shape_to_json(circle, profile[:, None] * normals))


def _csv(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.ravel(values))


def cases(cm, work: Path) -> dict[str, list[str]]:
    """Ledger entry name -> ``cometric`` argv (without ``--out``); the inputs
    are written under ``work``.  ``cm`` is the imported ``cometric`` package."""
    rng = np.random.default_rng(20120)
    spec = _write(work / "spec.json", SPEC)
    chart_q, _ = _ring(rng, 5)
    chart = _write(work / "chart.json", cm.charts.cometric_to_json(
        cm.charts.landmark_cometric_def(cm.kernels.spec_from_json(SPEC), 5, 2)))
    states = {p: _state(work, f"ring{p}.json", *_ring(rng, p)) for p in (2, 3, 20, 400)}
    beta20 = 0.5 * rng.standard_normal(40)
    shapes = {s: _circle(work, cm, rng, s) for s in (64, 512)}
    source = _state(work, "source.json", np.array([[0.0, 0.0], [1.0, 0.2]]), np.zeros((2, 2)))
    target = _state(work, "target.json", np.array([[0.1, -0.1], [1.2, 0.35]]), np.zeros((2, 2)))
    chart_argv = ["curvature", "chart", "--cometric", chart, f"--point={_csv(chart_q)}",
                  f"--alpha={_csv(rng.standard_normal(10))}", f"--beta={_csv(rng.standard_normal(10))}"]
    return {
        "kernel_eval": ["kernel", "eval", "--spec", spec, "--r", "0,0.25,0.5,1,2,4"],
        "curvature_chart_hyperbolic": ["curvature", "chart", "--cometric", "catalog:hyperbolic",
                                       "--point", "0.3,1.2", "--alpha", "1,0.5", "--beta=-0.25,1"],
        "curvature_chart_sphere": ["curvature", "chart", "--cometric", "catalog:sphere:2",
                                   "--point=0.4,-0.7", "--alpha", "1,0", "--beta", "0.3,1"],
        "curvature_chart_dim10": chart_argv,
        "curvature_landmark_p2": ["curvature", "landmark", "--spec", spec, "--state", states[2]],
        "curvature_landmark_p20": ["curvature", "landmark", "--spec", spec, "--state", states[20]],
        "curvature_landmark_p20_beta": ["curvature", "landmark", "--spec", spec, "--state", states[20],
                                        f"--beta={_csv(beta20)}"],
        "curvature_landmark_p400": ["curvature", "landmark", "--spec", spec, "--state", states[400]],
        "curvature_shape_s64": ["curvature", "shape", "--spec", spec, "--shape", shapes[64]],
        "curvature_shape_s512": ["curvature", "shape", "--spec", spec, "--shape", shapes[512]],
        "geodesic_shoot_p3": ["geodesic", "shoot", "--spec", spec, "--state", states[3],
                              "--dt", "0.05", "--T", "0.5"],
        "geodesic_shoot_p400": ["geodesic", "shoot", "--spec", spec, "--state", states[400],
                                "--dt", "0.01", "--T", "0.03"],
        "match_p2": ["match", "--spec", spec, "--source", source, "--target", target,
                     "--dt", "0.02", "--T", "1"],
        "oneill_check_flat": ["oneill", "check", "--case", "flat", "--trials", "3"],
        "oneill_check_product": ["oneill", "check", "--case", "product", "--trials", "3"],
        "oneill_check_hopf": ["oneill", "check", "--case", "hopf", "--trials", "3"],
        "shape_make": ["shape", "make", "--samples", "16", "--radius", "1.5", "--center=0.25,-0.5"],
    }


def run(cm, argv: list[str], out: Path) -> bytes:
    """The bytes one command line writes; a non-zero exit is an error."""
    out.unlink(missing_ok=True)
    code = cm.cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"cometric {' '.join(argv)} exited with {code}")
    return out.read_bytes()


def entry(data: bytes) -> dict:
    text = data.decode()
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if len(text) <= TEXT_LIMIT:
        record["text"] = text
    return record


def load() -> dict:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_relative_change(old: str, new: str) -> float:
    """Largest ``|new - old| / |old|`` over the numbers of two texts of the
    same layout (``inf`` when the layouts differ)."""
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(a) != len(b) or _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return math.inf
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x != y:
            worst = max(worst, abs(y - x) / abs(x) if x != 0.0 else math.inf)
    return worst


def moved_fields(old: str, new: str) -> list[str]:
    """The fields of two outputs that differ: dotted paths to the JSON values
    that are not objects, or CSV columns by their header name; none for other
    text."""
    try:
        return _moved_keys(json.loads(old), json.loads(new), "")
    except ValueError:
        pass
    rows_a, rows_b = ([line.split(",") for line in text.splitlines()] for text in (old, new))
    if len(rows_a) < 2 or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return []
    return [name for k, name in enumerate(rows_a[0]) if any(x[k] != y[k] for x, y in zip(rows_a[1:], rows_b[1:]))]


def _moved_keys(a, b, path: str) -> list[str]:
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [path]
    keys = [*a, *(key for key in b if key not in a)]
    return [f for key in keys for f in _moved_keys(a.get(key), b.get(key), f"{path}.{key}" if path else key)]


def _compare(old_dir: Path, new_dir: Path) -> int:
    for new in sorted(new_dir.iterdir()):
        old = old_dir / new.name
        if not old.is_file():
            print(f"{new.stem}: new entry")
        elif old.read_bytes() != new.read_bytes():
            before, after = old.read_text(), new.read_text()
            fields = moved_fields(before, after)
            print(f"{new.stem}: largest relative change {largest_relative_change(before, after):.3e}"
                  + (f" in {', '.join(fields)}" if fields else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the ledger; write nothing")
    parser.add_argument("--dump", type=Path, help="also write each output (and the suite details) here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="print the largest relative change and the moved fields of each output that differs")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)

    import cometric.cli
    import cometric.validation

    fresh = {"build": build(), "outputs": {}, "suite_details": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, case_argv in cases(cometric, work).items():
            data = run(cometric, case_argv, work / "out")
            fresh["outputs"][name] = entry(data)
            if args.dump:
                args.dump.mkdir(parents=True, exist_ok=True)
                (args.dump / f"{name}.out").write_bytes(data)
    for result in cometric.validation.run_suites(seed=0):
        fresh["suite_details"][result.name] = result.detail
        if args.dump:
            (args.dump / f"suite_{result.name}.out").write_text(result.detail + "\n")

    old = load() if LEDGER.is_file() else {"build": None, "outputs": {}, "suite_details": {}}
    moved = [f"output {name}" for name, rec in fresh["outputs"].items()
             if old["outputs"].get(name, {}).get("sha256") != rec["sha256"]]
    moved += [f"suite {name}" for name, detail in fresh["suite_details"].items()
              if old["suite_details"].get(name) != detail]
    if old["build"] != fresh["build"]:
        print(f"build: ledger {old['build'] and describe(old['build'])}; this build {describe(fresh['build'])}")
    print("\n".join(moved) if moved else "no entry moved")
    if args.check:
        return 1 if moved or old["build"] != fresh["build"] else 0
    LEDGER.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
