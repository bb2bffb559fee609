"""Shared pytest plumbing: collect acceptance verdict lines and print them
in a summary section that survives output capture."""

import os

# One BLAS thread, as in the benchmark.  The golden ledger's bytes are the same
# at two threads (test_golden checks that in a subprocess); at more they are
# unverified, so tier-1 does not depend on the host's core count.  Set before
# any test module loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
