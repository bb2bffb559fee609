"""Validation harness: random cometric generation, suite registry, reporting."""

import numpy as np
import pytest

from cometric import charts, dynamics, validation
from cometric.errors import ConditioningError
from cometric.validation import SUITES, TOLERANCES, render_table, run_suites


def test_random_cometrics_are_spd_at_their_test_point():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        defn, x0 = validation.random_cometric(rng, dim)
        jet = charts.cometric_jet(defn, x0)
        eigs = np.linalg.eigvalsh(jet.ginv)
        assert eigs.min() > 0
        assert np.allclose(jet.ginv, jet.ginv.T)


def test_registry_covers_every_tolerance(monkeypatch):
    """The default run (no names, as ``cometric validate`` calls it) runs every
    suite in registry order, and the two that integrate landmark geodesics
    (their size does not depend on ``quick``) make only the rhs calls they
    need: conservation reuses the pair's dt = 1e-3 endpoint for the
    step-halving ratio (4 001 + 4 001 + 8 000 + 16 000 calls: a monitored
    integration observes its last state with one more call), and matching
    builds its round-trip target with one ``_endpoint`` (400 calls) instead
    of a ``shoot`` whose Jacobian (one more batched integration) it would
    discard.  Each Gauss-Newton iteration's Jacobian shots step as one batch,
    one rhs call per stage."""
    assert len(SUITES) == 10
    calls = {"rhs": 0}
    rhs = dynamics.geodesic_rhs

    def counting_rhs(*args):
        calls["rhs"] += 1
        return rhs(*args)

    rhs_calls = {}

    def counted(name, suite):
        def run(*args):
            calls["rhs"] = 0
            try:
                return suite(*args)
            finally:
                rhs_calls[name] = calls["rhs"]
        return run

    monkeypatch.setattr(dynamics, "geodesic_rhs", counting_rhs)
    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, counted(name, suite))
    results = run_suites(quick=True)
    assert [r.name for r in results] == list(SUITES)
    assert rhs_calls == {**dict.fromkeys(SUITES, 0), "conservation": 32_002, "matching": 6_800}


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no_such_suite"])


def test_override_can_fail_a_suite(monkeypatch):
    """A suite gates on :data:`TOLERANCES` as it stands when the suite runs."""
    ok = run_suites(["kernel_oracle"], quick=True)
    assert ok[0].passed
    monkeypatch.setitem(TOLERANCES, "kernel_oracle", 1e-30)
    results = run_suites(["kernel_oracle"], quick=True)
    assert len(results) == 1
    assert not results[0].passed


def test_threads_give_same_verdicts():
    serial = run_suites(["kernel_oracle", "m0_reduction"], quick=True)
    threaded = run_suites(["kernel_oracle", "m0_reduction"], threads=4, quick=True)
    assert [(r.name, r.passed, r.detail) for r in serial] == [
        (r.name, r.passed, r.detail) for r in threaded
    ]


def test_suite_raising_a_geometry_error_becomes_a_fail_row(monkeypatch):
    def broken(seed, quick):
        raise ConditioningError("Gram matrix is ill-conditioned")

    monkeypatch.setitem(SUITES, "kernel_oracle", broken)
    [result] = run_suites(["kernel_oracle"])
    assert not result.passed
    assert result.detail == "error: Gram matrix is ill-conditioned"
    row = render_table([result]).splitlines()[0]
    assert row.startswith("kernel_oracle  FAIL") and row.endswith("  error: Gram matrix is ill-conditioned")


def test_render_table(monkeypatch):
    results = run_suites(["kernel_oracle"], quick=True)
    text = render_table(results)
    assert "kernel_oracle" in text
    assert "PASS" in text
    assert "all suites passed" in text
    monkeypatch.setitem(TOLERANCES, "kernel_oracle", 1e-30)
    failed = run_suites(["kernel_oracle"], quick=True)
    text = render_table(failed)
    assert "FAIL" in text
    assert "1 suite(s) FAILED" in text

