"""The golden-output ledger (``tests/golden.json``): every subcommand's bytes
on the fixed inputs of ``tests/golden.py`` are those recorded.

A change that moves them regenerates the ledger with
``PYTHONPATH=src python tests/golden.py`` and lists each moved entry.  On a
numpy or BLAS build other than the recorded one (or another BLAS core or
SIMD target) the tests skip, naming both.  The BLAS thread count is not part
of the build: the outputs whose Gram solves span several blocks are checked
at two threads too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import cometric.cli
import golden

LEDGER = golden.load()
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    return golden.cases(cometric, tmp_path_factory.mktemp("golden"))


def test_every_case_is_in_the_ledger(argvs):
    assert sorted(argvs) == sorted(LEDGER["outputs"])


@pytest.mark.parametrize("name", sorted(LEDGER["outputs"]))
def test_output_matches_the_ledger(name, argvs, tmp_path):
    golden.skip_on_another_build(LEDGER)
    want = LEDGER["outputs"][name]
    got = golden.entry(golden.run(cometric, argvs[name], tmp_path / "out"))
    if "text" in want:
        assert got.get("text") == want["text"]
    assert got["sha256"] == want["sha256"]


TWO_THREADS = """
import hashlib, json, sys
from pathlib import Path

import cometric.cli, golden

out = Path(sys.argv[1]) / "out"
argvs = json.loads(sys.argv[2])
sha = {name: hashlib.sha256(golden.run(cometric, argv, out)).hexdigest() for name, argv in argvs.items()}
print(json.dumps({"threads": golden.blas_threads(), "sha256": sha}))
"""


def test_gram_outputs_do_not_depend_on_the_thread_count(argvs, tmp_path):
    """The two ledger outputs whose Gram solves exceed one block, run in a
    fresh process at ``OPENBLAS_NUM_THREADS=2``, have the ledger's bytes
    (recorded at one thread).  Skipped where OpenBLAS cannot run two threads."""
    golden.skip_on_another_build(LEDGER)
    names = ["curvature_landmark_p400", "curvature_shape_s512"]
    out = subprocess.run([sys.executable, "-c", TWO_THREADS, str(tmp_path),
                          json.dumps({name: argvs[name] for name in names})],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": f"{TESTS.parent / 'src'}:{TESTS}", "OPENBLAS_NUM_THREADS": "2"})
    seen = json.loads(out.stdout)
    if seen["threads"] != 2:
        pytest.skip(f"OpenBLAS runs {seen['threads']} thread(s) here, not 2")
    assert seen["sha256"] == {name: LEDGER["outputs"][name]["sha256"] for name in names}


def test_compare_names_the_moved_fields():
    """``--compare`` names the JSON values (by dotted path) or CSV columns
    that moved, and nothing for other text."""
    old = '{"q": [[1.0, 2.0]], "breakdown": {"r11": 1.5, "denominator": 2.0}}'
    new = '{"q": [[1.0, 2.0]], "breakdown": {"r11": 1.5, "denominator": 2.0000000000000004}}'
    assert golden.moved_fields(old, new) == ["breakdown.denominator"]
    assert golden.moved_fields(old, old) == []
    assert golden.moved_fields("t,q_1_1,H\n0,1,2\n1,1,3\n", "t,q_1_1,H\n0,1,2\n1,1,3.5\n") == ["H"]
    assert golden.moved_fields("dH 1.0e-10, dP 0", "dH 2.0e-10, dP 0") == []
