"""The golden-output ledger (``tests/golden.json``): every subcommand's bytes
on the fixed inputs of ``tests/golden.py`` are those recorded.

A change that moves them regenerates the ledger with
``PYTHONPATH=src python tests/golden.py`` and lists each moved entry.  On a
numpy or BLAS build other than the recorded one (or another BLAS core,
thread count or SIMD target) the tests skip, naming both.
"""

import pytest

import cometric.cli
import golden

LEDGER = golden.load()


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
