"""Acceptance criteria.

Each test runs one cross-oracle validation suite at its shipped tolerances
(full size, seed 0, single worker) and records a one-line verdict.  The
verdict lines are echoed in the ``acceptance criteria`` section at the end of
the pytest run.  These ten checks are the package's release gate; the same
suites back ``cometric validate``.
"""

import numpy as np

import golden
from cometric.validation import SUITES, run_suites

DETAILS: dict[str, str] = {}  # suite -> detail, from the criteria above the ledger test


def _check(number: int, suite: str, acceptance_log, budget: float | None = None) -> None:
    result = run_suites([suite], seed=0)[0]
    DETAILS[suite] = result.detail
    status = "PASS" if result.passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}  [{suite}] {result.detail} ({result.elapsed:.2f}s)"
    acceptance_log.append(line)
    print(line)
    if budget is not None:
        assert result.elapsed <= budget, f"criterion {number} took {result.elapsed:.1f}s > {budget}s"
    assert result.passed, line


def test_criterion_01_christoffel_vs_coordinate(acceptance_log):
    """Curvature numerators from the coordinate formula agree with the
    Christoffel-based oracle on 100 random symbolic cometrics in dimensions
    2-4, within 1e-7 scaled, in under 60 seconds single-threaded."""
    _check(1, "christoffel_oracle", acceptance_log, budget=60.0)


def test_criterion_02_three_formulas_agree(acceptance_log):
    """Coordinate, force-based and stress-based numerator forms agree
    pairwise within 1e-9 scaled on the same random cometric population."""
    _check(2, "curvature_forms", acceptance_log)


def test_criterion_03_constant_curvature(acceptance_log):
    """Round sphere gives sectional +1 and the hyperbolic plane -1 at ten
    random points each, within 1e-8."""
    _check(3, "constant_curvature", acceptance_log)


def test_criterion_04_submersion_residuals(acceptance_log):
    """Product-quotient residual vanishes to 1e-10 and the Hopf identity
    (base 4 = total 1 + 3/4 of vertical term 4) holds to 1e-6 at ten points,
    in under 10 seconds."""
    _check(4, "oneill", acceptance_log, budget=10.0)


def test_criterion_05_landmark_identity(acceptance_log):
    """Closed-form landmark curvature matches the symbolic chart route to
    1e-9 and the finite-difference Christoffel oracle to 1e-7 for 2-3
    landmarks in 1-2 dimensions; one landmark is exactly flat."""
    _check(5, "landmark_identity", acceptance_log)


def test_criterion_06_conservation(acceptance_log):
    """Two- and three-landmark geodesics over unit time at dt=1e-3 keep
    relative energy drift below 1e-8, linear momentum below 1e-10 and
    angular momentum below 1e-8, with a step-halving error ratio in
    [12, 20]."""
    _check(6, "conservation", acceptance_log)


def test_criterion_07_kernel_oracle(acceptance_log):
    """Closed-form kernels match the numeric Fourier-inversion oracle to
    1e-6 across 20 radii for three smoothness grades."""
    _check(7, "kernel_oracle", acceptance_log)


def test_criterion_08_m0_reduction(acceptance_log):
    """A 0-dimensional shape reproduces the landmark code path to 1e-12
    (bitwise where the formulas are shared)."""
    _check(8, "m0_reduction", acceptance_log)


def test_criterion_09_refinement_and_normality(acceptance_log):
    """Curvature terms on a circle converge monotonically under refinement
    at 32/64/128 samples, and geodesic momenta stay within 1e-4 of the
    conormal bundle over unit time."""
    _check(9, "refinement", acceptance_log)


def test_criterion_10_matching(acceptance_log):
    """Single-landmark matching hits its target to 1e-8, and a two-landmark
    shoot/match round trip recovers momenta to 1e-6 within 25 iterations."""
    _check(10, "matching", acceptance_log)


def test_acceptance_is_deterministic(acceptance_log):
    """The same seed yields byte-identical suite details on a re-run."""
    first = run_suites(["constant_curvature"], seed=0)[0]
    second = run_suites(["constant_curvature"], seed=0)[0]
    assert first.detail == second.detail
    assert np.isclose(first.elapsed, second.elapsed, atol=60.0)  # sanity only


def test_suite_details_match_the_ledger():
    """The ten details at seed 0 are those in ``tests/golden.json``.  They
    come from the criteria above; a suite is run here only when its
    criterion was not (a selected run)."""
    ledger = golden.load()
    golden.skip_on_another_build(ledger)
    missing = [name for name in SUITES if name not in DETAILS]
    DETAILS.update({r.name: r.detail for r in run_suites(missing, seed=0)})
    assert {name: DETAILS[name] for name in SUITES} == ledger["suite_details"]
