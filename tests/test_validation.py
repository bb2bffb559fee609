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
    step-halving ratio (4 000 + 4 000 + 8 000 + 16 000 calls), and matching
    builds its round-trip target with one ``integrate`` (400 calls) instead
    of a ``shoot`` whose 8-shot Jacobian (3 200 more) it would discard."""
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
    assert rhs_calls == {**dict.fromkeys(SUITES, 0), "conservation": 32_000, "matching": 21_600}


def test_unknown_suite_and_tolerance_rejected():
    with pytest.raises(KeyError):
        run_suites(["no_such_suite"])
    with pytest.raises(KeyError):
        run_suites(["kernel_oracle"], overrides={"no_such_tol": 1.0}, quick=True)


def test_override_can_fail_a_suite():
    results = run_suites(["kernel_oracle"], overrides={"kernel_oracle": 1e-30}, quick=True)
    assert len(results) == 1
    assert not results[0].passed
    # default tolerance passes
    ok = run_suites(["kernel_oracle"], quick=True)
    assert ok[0].passed


def test_overrides_do_not_leak():
    before = dict(TOLERANCES)
    run_suites(["kernel_oracle"], overrides={"kernel_oracle": 1e-30}, quick=True)
    assert TOLERANCES == before


def test_threads_give_same_verdicts():
    serial = run_suites(["kernel_oracle", "m0_reduction"], quick=True)
    threaded = run_suites(["kernel_oracle", "m0_reduction"], threads=4, quick=True)
    assert [(r.name, r.passed, r.detail) for r in serial] == [
        (r.name, r.passed, r.detail) for r in threaded
    ]


def test_suite_raising_a_geometry_error_becomes_a_fail_row(monkeypatch):
    def broken(tols, seed, quick):
        raise ConditioningError("Gram matrix is ill-conditioned")

    monkeypatch.setitem(SUITES, "kernel_oracle", broken)
    [result] = run_suites(["kernel_oracle"])
    assert not result.passed
    assert result.detail == "error: Gram matrix is ill-conditioned"
    row = render_table([result]).splitlines()[0]
    assert row.startswith("kernel_oracle  FAIL") and row.endswith("  error: Gram matrix is ill-conditioned")


def test_render_table():
    results = run_suites(["kernel_oracle"], quick=True)
    text = render_table(results)
    assert "kernel_oracle" in text
    assert "PASS" in text
    assert "all suites passed" in text
    failed = run_suites(["kernel_oracle"], overrides={"kernel_oracle": 1e-30}, quick=True)
    text = render_table(failed)
    assert "FAIL" in text
    assert "1 suite(s) FAILED" in text

