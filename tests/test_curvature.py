"""The curvature numerator in its three forms, plus force and stress."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cometric import charts, shapes
from cometric.curvature import (
    force,
    numerator_coordinate,
    numerator_covariant,
    numerator_force_stress,
    stress,
)
from cometric.errors import ConfigurationError
from cometric.kernels import KernelSpec, kernel_value
from cometric.landmark import LandmarkMetric, curvature as landmark_curvature, hamiltonian, landmark_cometric_jet
from cometric.validation import random_cometric


def _reference_terms(jet, a, b):
    """The four terms as single einsums with numpy's default (unoptimised)
    contraction — the O(d^8) reference for the staged contractions."""
    G, dG, ddG = jet.ginv, jet.dginv, jet.ddginv
    w = np.outer(a, b) - np.outer(b, a)
    r11 = 0.5 * float(np.einsum("ik,jl,is,jt,stkl->", w, w, G, G, ddG))
    r12 = 0.5 * float(np.einsum("ik,jl,is,sjt,tkl->", w, w, G, dG, dG))
    r2 = -0.125 * float(np.einsum("ik,jl,sij,st,tkl->", w, w, dG, G, dG))
    r3 = -0.75 * float(np.einsum("ik,jl,is,skp,pq,jt,tlq->", w, w, G, dG, jet.gcov, G, dG))
    return r11, r12, r2, r3


def _ring_landmarks(p: int, seed: int):
    """Matern-3/2 landmarks in the plane (K(0) = 1) on a jittered ring with
    unit spacing, plus two random momenta."""
    base = KernelSpec("sobolev_bessel", n=3, l=3)
    k0 = float(kernel_value(base, np.zeros((1, 3)))[0])
    metric = LandmarkMetric(replace(base, c=1.0 / k0), p, 2)
    rng = np.random.default_rng(seed)
    angle = 2.0 * np.pi * np.arange(p) / p
    radius = p / (2.0 * np.pi)
    q = radius * np.stack([np.cos(angle), np.sin(angle)], axis=1) + 0.1 * rng.standard_normal((p, 2))
    return metric, q, rng.standard_normal((p, 2)), rng.standard_normal((p, 2))


def test_euclidean_everything_zero():
    jet = charts.cometric_jet(charts.euclidean(3), np.array([1.0, -2.0, 0.5]))
    br = numerator_coordinate(jet, np.array([1.0, 0.0, 2.0]), np.array([0.0, 1.0, -1.0]))
    assert br.r11 == 0.0 and br.r12 == 0.0 and br.r2 == 0.0 and br.r3 == 0.0
    assert br.total == 0.0
    assert br.sectional == 0.0


def test_hyperbolic_breakdown_frozen():
    """At (0,1) with coforms dx1, dx2 the four terms are 1, 2, -1, -3."""
    jet = charts.cometric_jet(charts.hyperbolic_half_plane(), np.array([0.0, 1.0]))
    alpha = np.array([1.0, 0.0])
    beta = np.array([0.0, 1.0])
    br = numerator_coordinate(jet, alpha, beta)
    assert br.r11 == pytest.approx(1.0, abs=1e-14)
    assert br.r12 == pytest.approx(2.0, abs=1e-14)
    assert br.r2 == pytest.approx(-1.0, abs=1e-14)
    assert br.r3 == pytest.approx(-3.0, abs=1e-14)
    assert br.total == pytest.approx(-1.0, abs=1e-14)
    assert br.sectional == pytest.approx(-1.0, abs=1e-13)
    # r1 is the sum of its two halves
    assert br.r1 == pytest.approx(br.r11 + br.r12, abs=1e-15)


def test_sphere_origin_numerator():
    """Unit-sphere chart at the origin: numerator 1/16, sectional +1."""
    jet = charts.cometric_jet(charts.sphere_stereographic(2), np.zeros(2))
    br = numerator_coordinate(jet, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert br.total == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert br.denominator == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert br.sectional == pytest.approx(1.0, abs=1e-13)


def test_three_forms_agree_on_random_cometrics():
    rng = np.random.default_rng(12)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        defn, x = random_cometric(rng, dim)
        jet = charts.cometric_jet(defn, x)
        alpha = rng.standard_normal(dim)
        beta = rng.standard_normal(dim)
        coord = numerator_coordinate(jet, alpha, beta)
        cov = numerator_covariant(jet, alpha, beta)
        fs = numerator_force_stress(jet, alpha, beta)
        scale = 1.0 + abs(coord.total)
        assert abs(coord.total - cov) / scale < 1e-11
        assert abs(coord.total - fs.total) / scale < 1e-11
        assert abs(coord.r11 - fs.r11) / scale < 1e-11
        assert abs(coord.r12 - fs.r12) / scale < 1e-11
        assert abs(coord.r2 - fs.r2) / scale < 1e-11
        assert abs(coord.r3 - fs.r3) / scale < 1e-11


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_numerator_symmetries(seed, d):
    """R(u,v,v,u)-type symmetry and quadratic scaling in each argument."""
    rng = np.random.default_rng(seed)
    defn, x = random_cometric(rng, d)
    jet = charts.cometric_jet(defn, x)
    alpha = rng.standard_normal(d)
    beta = rng.standard_normal(d)
    ab = numerator_coordinate(jet, alpha, beta).total
    ba = numerator_coordinate(jet, beta, alpha).total
    assert ab == pytest.approx(ba, rel=1e-12, abs=1e-12)
    scaled = numerator_coordinate(jet, 2.0 * alpha, beta).total
    assert scaled == pytest.approx(4.0 * ab, rel=1e-12)
    # adding a multiple of alpha to beta leaves the numerator unchanged
    sheared = numerator_coordinate(jet, alpha, beta + 0.7 * alpha).total
    assert sheared == pytest.approx(ab, rel=1e-10, abs=1e-12)


def test_degenerate_plane_gives_none_sectional():
    rng = np.random.default_rng(15)
    defn, x = random_cometric(rng, 3)
    jet = charts.cometric_jet(defn, x)
    alpha = rng.standard_normal(3)
    br = numerator_coordinate(jet, alpha, -2.0 * alpha)
    assert br.sectional is None
    assert br.denominator == pytest.approx(0.0, abs=1e-12)


def test_force_is_gradient_of_pairing():
    """F(α,β) = ½ d⟨α,β⟩ against central differences of the cometric pairing."""
    rng = np.random.default_rng(16)
    defn = charts.sphere_stereographic(2)
    x = np.array([0.3, -0.5])
    alpha = rng.standard_normal(2)
    beta = rng.standard_normal(2)
    jet = charts.cometric_jet(defn, x)
    f = force(jet, alpha, beta)
    h = 1e-6
    for s in range(2):
        xp = x.copy(); xp[s] += h
        xm = x.copy(); xm[s] -= h
        pp = alpha @ charts.cometric_jet(defn, xp).ginv @ beta
        pm = alpha @ charts.cometric_jet(defn, xm).ginv @ beta
        assert f[s] == pytest.approx(0.5 * (pp - pm) / (2 * h), rel=1e-8, abs=1e-9)


def test_stress_contraction_identity():
    """α_i g^{is} g^{kt}_{,s} β_k — checked directly against jet arrays."""
    rng = np.random.default_rng(18)
    defn, x = random_cometric(rng, 3)
    jet = charts.cometric_jet(defn, x)
    alpha = rng.standard_normal(3)
    beta = rng.standard_normal(3)
    d = stress(jet, alpha, beta)
    want = np.zeros(3)
    for t in range(3):
        for i in range(3):
            for s in range(3):
                for k in range(3):
                    want[t] += alpha[i] * jet.ginv[i, s] * jet.dginv[s, k, t] * beta[k]
    assert np.allclose(d, want, rtol=1e-12, atol=1e-12)


def test_coform_validation():
    jet = charts.cometric_jet(charts.euclidean(2), np.zeros(2))
    with pytest.raises(ConfigurationError):
        numerator_coordinate(jet, np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        numerator_coordinate(jet, np.array([np.nan, 0.0]), np.array([1.0, 0.0]))


def _assert_matches_reference(jet, alpha, beta):
    br = numerator_coordinate(jet, alpha, beta)
    for got, want in zip((br.r11, br.r12, br.r2, br.r3), _reference_terms(jet, alpha, beta)):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_staged_contractions_match_unoptimised_einsums():
    rng = np.random.default_rng(31)
    for dim in range(2, 7):
        defn, x = random_cometric(rng, dim)
        jet = charts.cometric_jet(defn, x)
        _assert_matches_reference(jet, rng.standard_normal(dim), rng.standard_normal(dim))
    metric, q, a, b = _ring_landmarks(3, seed=32)
    _assert_matches_reference(landmark_cometric_jet(metric, q), a.reshape(-1), b.reshape(-1))


def test_three_forms_and_landmark_route_agree_at_dim_20():
    metric, q, a, b = _ring_landmarks(10, seed=33)
    jet = landmark_cometric_jet(metric, q)
    alpha, beta = a.reshape(-1), b.reshape(-1)
    coord = numerator_coordinate(jet, alpha, beta)
    fs = numerator_force_stress(jet, alpha, beta)
    own = landmark_curvature(metric, q, a, b)
    scale = 1.0 + abs(coord.total)
    assert abs(coord.total - numerator_covariant(jet, alpha, beta)) / scale < 1e-9
    for got, want in zip((coord.r11, coord.r12, coord.r2, coord.r3, coord.total),
                         (fs.r11, fs.r12, fs.r2, fs.r3, fs.total)):
        assert abs(got - want) / scale < 1e-9
    assert abs(coord.total - own.total) / scale < 1e-9


def _assert_same_terms(moved, base, tol):
    """Every term within ``tol`` of the largest one, the plane's Gram
    determinant within ``tol`` relative."""
    terms = ("r11", "r12", "r2", "r3", "total")
    scale = max(abs(getattr(base, t)) for t in terms)
    for t in terms:
        assert abs(getattr(moved, t) - getattr(base, t)) <= tol * scale, t
    assert moved.denominator == pytest.approx(base.denominator, rel=tol)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-np.pi, np.pi),
       shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_landmark_numerator_invariant_under_rigid_motion(seed, theta, shift):
    """Rotating and translating the points, and rotating the momenta, leaves
    H, the chart-level numerator, the landmark pair-sum terms and a curve's
    curvature terms unchanged.  Over 300 random motions the worst gaps,
    relative to the largest term, were 2.1e-15 (H), 1.1e-14 (chart),
    4.9e-15 (pair sums) and 1.4e-14 (curve, frames rebuilt from the moved
    samples), and 1.1e-14 relative on the plane's Gram determinant; every
    tolerance is 1e-12."""
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    metric, q, a, b = _ring_landmarks(5, seed=seed)
    moved, ma, mb = q @ rot.T + np.array(shift), a @ rot.T, b @ rot.T
    assert hamiltonian(metric, moved, ma) == pytest.approx(hamiltonian(metric, q, a), rel=1e-12)
    base = numerator_coordinate(landmark_cometric_jet(metric, q), a.reshape(-1), b.reshape(-1))
    turned = numerator_coordinate(landmark_cometric_jet(metric, moved), ma.reshape(-1), mb.reshape(-1))
    _assert_same_terms(turned, base, 1e-12)
    _assert_same_terms(landmark_curvature(metric, moved, ma, mb), landmark_curvature(metric, q, a, b), 1e-12)

    rng = np.random.default_rng(seed)
    angle = 2.0 * np.pi * np.arange(16) / 16
    x = (1.0 + 0.05 * rng.standard_normal(16))[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    curve = shapes.closed_curve(x)
    ca = shapes.project_normal(curve, rng.standard_normal((16, 2)))
    cb = shapes.project_normal(curve, rng.standard_normal((16, 2)))
    moved_curve = shapes.closed_curve(x @ rot.T + np.array(shift))
    _assert_same_terms(shapes.curvature_terms(metric.kernel, moved_curve, ca @ rot.T, cb @ rot.T),
                       shapes.curvature_terms(metric.kernel, curve, ca, cb), 1e-12)


def test_landmark_numerator_scales_cubically_with_kernel_amplitude():
    lam = 2.5
    metric, q, a, b = _ring_landmarks(5, seed=35)
    scaled_metric = LandmarkMetric(replace(metric.kernel, c=lam * metric.kernel.c), 5, 2)
    alpha, beta = a.reshape(-1), b.reshape(-1)
    base = numerator_coordinate(landmark_cometric_jet(metric, q), alpha, beta)
    scaled = numerator_coordinate(landmark_cometric_jet(scaled_metric, q), alpha, beta)
    assert scaled.total == pytest.approx(lam**3 * base.total, rel=1e-12)
