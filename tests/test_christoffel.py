"""Christoffel symbols, the Riemann tensor, and the sectional-curvature oracle."""

import numpy as np
import pytest

from cometric import charts
from cometric.christoffel import (
    christoffel,
    christoffel_derivative_exact,
    christoffel_derivative_fd,
    metric_jet_from_cometric,
    riemann,
    sectional_numerator_oracle,
)
from cometric.curvature import numerator_coordinate
from cometric.errors import ConfigurationError
from cometric.validation import random_cometric, suite_christoffel


def test_euclidean_christoffel_vanishes():
    jet = charts.cometric_jet(charts.euclidean(3), np.array([0.2, -0.4, 1.0]))
    mj = metric_jet_from_cometric(jet)
    gamma = christoffel(mj)
    assert np.all(gamma == 0.0)
    dgamma = christoffel_derivative_exact(jet, mj)
    assert np.all(dgamma == 0.0)
    assert np.all(riemann(gamma, dgamma) == 0.0)


def test_hyperbolic_christoffel_frozen_values():
    """Half-plane metric ds^2 = (dx1^2+dx2^2)/x2^2 at the point (0, 1).

    The nonzero symbols are G^1_{12} = G^1_{21} = -1/x2, G^2_{11} = 1/x2,
    G^2_{22} = -1/x2.
    """
    jet = charts.cometric_jet(charts.hyperbolic_half_plane(), np.array([0.0, 1.0]))
    gamma = christoffel(metric_jet_from_cometric(jet))
    want = np.zeros((2, 2, 2))
    want[0, 0, 1] = want[0, 1, 0] = -1.0
    want[1, 0, 0] = 1.0
    want[1, 1, 1] = -1.0
    assert np.allclose(gamma, want, atol=1e-14)


def test_metric_jet_consistency():
    """d(g g^{-1}) = 0 transfers first derivatives to the metric side."""
    defn = charts.sphere_stereographic(2)
    x = np.array([0.3, 0.6])
    jet = charts.cometric_jet(defn, x)
    mj = metric_jet_from_cometric(jet)
    for s in range(2):
        should_vanish = mj.dgcov[s] @ jet.ginv + mj.gcov @ jet.dginv[s]
        assert np.allclose(should_vanish, 0.0, atol=1e-14)


def test_exact_and_fd_christoffel_derivatives_agree():
    rng = np.random.default_rng(21)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        defn, x = random_cometric(rng, dim)
        jet = charts.cometric_jet(defn, x)
        exact = christoffel_derivative_exact(jet, metric_jet_from_cometric(jet))
        fd = christoffel_derivative_fd(lambda y: charts.cometric_jet(defn, y), x)
        assert np.allclose(exact, fd, rtol=2e-6, atol=2e-6)


def test_riemann_antisymmetry():
    rng = np.random.default_rng(5)
    defn, x = random_cometric(rng, 3)
    jet = charts.cometric_jet(defn, x)
    mj = metric_jet_from_cometric(jet)
    gamma = christoffel(mj)
    dgamma = christoffel_derivative_exact(jet, mj)
    r = riemann(gamma, dgamma)
    assert np.allclose(r, -np.swapaxes(r, 1, 2), atol=1e-12)


def test_oracle_constant_curvature():
    """On constant curvature k the oracle's numerator is k times the plane's
    Gram determinant, as ``numerator_coordinate`` reports it for the coforms
    whose raised vectors the oracle receives."""
    rng = np.random.default_rng(17)
    sphere = charts.sphere_stereographic(2)
    hyper = charts.hyperbolic_half_plane()
    for _ in range(5):
        alpha, beta = rng.standard_normal(2), rng.standard_normal(2)
        x = rng.uniform(-1.0, 1.0, size=2)
        x2 = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)])
        for jet, k_ref in ((charts.cometric_jet(sphere, x), 1.0), (charts.cometric_jet(hyper, x2), -1.0)):
            den = numerator_coordinate(jet, alpha, beta).denominator
            numer = sectional_numerator_oracle(jet, jet.ginv @ alpha, jet.ginv @ beta)
            assert numer == pytest.approx(k_ref * den, rel=1e-10, abs=1e-12)


def test_oracle_modes_agree():
    rng = np.random.default_rng(33)
    defn, x = random_cometric(rng, 3)
    jet = charts.cometric_jet(defn, x)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    exact = sectional_numerator_oracle(jet, u, v)
    fd = sectional_numerator_oracle(jet, u, v, jet_fn=lambda y: charts.cometric_jet(defn, y))
    assert exact == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_christoffel_suite_passes_at_seed_32():
    """The five-point stencil keeps the fd oracle inside the shipped 1e-7 at
    the seed where a two-point stencil missed it (1.4e-7)."""
    ok, detail = suite_christoffel(32, quick=False)
    assert ok, detail


def test_oracle_refuses_vectors_of_another_dimension():
    jet = charts.cometric_jet(charts.hyperbolic_half_plane(), np.array([0.2, 1.1]))
    with pytest.raises(ConfigurationError, match=r"^vectors must have shape \(2,\), got \(3,\) and \(2,\)$"):
        sectional_numerator_oracle(jet, np.ones(3), np.ones(2))
