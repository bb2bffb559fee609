"""Discrete submanifolds: frames, weights, normal projections, curvature."""

import numpy as np
import pytest

from cometric import shapes
from cometric.errors import ConfigurationError, DegenerateConfigurationError
from cometric.kernels import KernelSpec
from cometric.landmark import (
    LandmarkMetric,
    curvature as landmark_curvature,
    force as landmark_force,
    geodesic_rhs as landmark_rhs,
    stress as landmark_stress,
    velocity as landmark_velocity,
)

SPEC = KernelSpec("sobolev_bessel", n=3, l=3, A=0.5, c=1.0)


def test_make_circle_geometry():
    shape = shapes.make_circle(16, radius=2.0, center=(1.0, -1.0))
    assert shape.samples == 16
    assert shape.n == 2 and shape.m == 1
    radii = np.linalg.norm(shape.x - np.array([1.0, -1.0]), axis=1)
    assert np.allclose(radii, 2.0, atol=1e-14)
    # uniform quadrature weights summing to the circumference
    assert np.allclose(shape.w, 2 * np.pi * 2.0 / 16, atol=1e-14)
    # unit tangents orthogonal to the radial direction
    nu = (shape.x - np.array([1.0, -1.0])) / 2.0
    dots = np.einsum("si,si->s", shape.tangents[:, 0, :], nu)
    assert np.allclose(dots, 0.0, atol=1e-13)
    assert np.allclose(np.linalg.norm(shape.tangents[:, 0, :], axis=1), 1.0, atol=1e-14)


def test_make_circle_validation():
    with pytest.raises(ConfigurationError):
        shapes.make_circle(2)
    with pytest.raises(ConfigurationError):
        shapes.make_circle(8, radius=0.0)


def test_landmark_shape_is_zero_dimensional():
    q = np.array([[0.0, 0.0], [1.0, 0.2]])
    shape = shapes.landmark_shape(q)
    assert shape.m == 0
    assert np.array_equal(shape.w, np.ones(2))
    assert shape.tangents.shape == (2, 0, 2)
    # projectors are identities: every direction is normal
    assert np.allclose(shape.projectors, np.broadcast_to(np.eye(2), (2, 2, 2)))


def test_shape_validation():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigurationError):
        shapes.DiscreteSubmanifold(
            x=x, w=np.array([1.0, -1.0, 1.0]),
            tangents=np.zeros((3, 0, 2)),
            projectors=np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
        )
    with pytest.raises(ConfigurationError):  # m must stay below n
        shapes.DiscreteSubmanifold(
            x=x, w=np.ones(3),
            tangents=np.zeros((3, 2, 2)),
            projectors=np.zeros((3, 2, 2)),
        )


def test_coincident_samples_refused_at_construction_and_load():
    circle = shapes.make_circle(6)
    x = circle.x.copy()
    x[3] = x[1]
    with pytest.raises(DegenerateConfigurationError, match="coincident samples 1 and 3"):
        shapes.DiscreteSubmanifold(x=x, w=circle.w, tangents=circle.tangents, projectors=circle.projectors)
    obj = shapes.shape_to_json(circle)
    obj["samples"][3] = obj["samples"][1]
    with pytest.raises(DegenerateConfigurationError, match="coincident samples 1 and 3"):
        shapes.shape_from_json(obj)


def test_closed_curve_frames_approximate_circle_tangents():
    theta = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    x = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    shape = shapes.closed_curve(x)
    analytic = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    got = shape.tangents[:, 0, :]
    signs = np.sign(np.einsum("si,si->s", got, analytic))
    assert np.allclose(got, signs[:, None] * analytic, atol=2e-3)
    # arc-length weights close to uniform spacing
    assert np.allclose(shape.w, 2 * np.pi / 40, rtol=5e-3)


def test_rederive_frames_quality():
    shape = shapes.make_circle(32)
    again, quality = shapes.rederive_frames(shape)
    assert quality == pytest.approx(1.0, abs=1e-12)  # uniform chords
    assert np.allclose(again.tangents, shape.tangents, atol=1e-12)
    # landmark shapes have nothing to derive: identity, perfect quality
    pts = shapes.landmark_shape(np.array([[0.0, 0.0], [1.0, 0.0]]))
    same, q0 = shapes.rederive_frames(pts)
    assert same is pts and q0 == 1.0


def test_normality_defect_and_projection():
    shape = shapes.make_circle(24)
    nu = shape.x / np.linalg.norm(shape.x, axis=1, keepdims=True)
    radial = 0.7 * nu
    assert shapes.normality_defect(shape, radial) == pytest.approx(0.0, abs=1e-14)
    tangential = shape.tangents[:, 0, :]
    assert shapes.normality_defect(shape, tangential) > 0.5
    projected = shapes.project_normal(shape, tangential)
    assert np.allclose(projected, 0.0, atol=1e-14)
    # idempotent on the radial field
    assert np.allclose(shapes.project_normal(shape, radial), radial, atol=1e-14)


def test_induced_pairing_symmetric_positive():
    rng = np.random.default_rng(23)
    shape = shapes.make_circle(12)
    nu = shape.x
    a = rng.standard_normal((12, 1)) * nu
    b = rng.standard_normal((12, 1)) * nu
    pab = shapes.induced_pairing(SPEC, shape, a, b)
    pba = shapes.induced_pairing(SPEC, shape, b, a)
    assert pab == pytest.approx(pba, rel=1e-13)
    assert shapes.induced_pairing(SPEC, shape, a, a) > 0


def test_zero_dimensional_shape_reduces_to_landmarks():
    """Every operation on an m=0 shape equals its landmark counterpart.

    Shared summation orders make most of these bitwise identities.
    """
    rng = np.random.default_rng(24)
    q = rng.uniform(-1.0, 1.0, size=(3, 2))
    q[:, 0] += 2.0 * np.arange(3)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 2))
    metric = LandmarkMetric(SPEC, 3, 2)
    shape = shapes.landmark_shape(q)

    assert np.array_equal(
        shapes.horizontal_velocity(SPEC, shape, a, shape.x), landmark_velocity(metric, q, a)
    )
    sx, sa = shapes.geodesic_rhs(SPEC, shape, a)
    lx, la = landmark_rhs(metric, q, a)
    assert np.array_equal(sx, lx)
    assert np.array_equal(sa, la)
    assert np.array_equal(shapes.force_normal(SPEC, shape, a, b), landmark_force(metric, q, a, b))
    assert np.array_equal(shapes.stress_normal(SPEC, shape, a, b), landmark_stress(metric, q, a, b))
    sc = shapes.curvature_terms(SPEC, shape, a, b)
    lc = landmark_curvature(metric, q, a, b)
    assert sc.r11 == pytest.approx(lc.r11, abs=1e-13)
    assert sc.r12 == pytest.approx(lc.r12, abs=1e-13)
    assert sc.r2 == pytest.approx(lc.r2, abs=1e-13)
    assert sc.r3 == pytest.approx(lc.r3, abs=1e-13)


def test_curvature_terms_euclidean_invariance():
    """Rigid motions of samples, frames, and momenta leave the numbers alone."""
    rng = np.random.default_rng(25)
    shape = shapes.make_circle(20)
    theta_s = np.arctan2(shape.x[:, 1], shape.x[:, 0])
    nu = shape.x / np.linalg.norm(shape.x, axis=1, keepdims=True)
    a = np.cos(theta_s)[:, None] * nu
    b = np.sin(theta_s)[:, None] * nu
    base = shapes.curvature_terms(SPEC, shape, a, b)
    pairing = shapes.induced_pairing(SPEC, shape, a, b)

    phi = 0.83
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    shift = np.array([0.4, -1.1])
    moved = shapes.DiscreteSubmanifold(
        x=shape.x @ rot.T + shift,
        w=shape.w.copy(),
        tangents=np.einsum("smi,ji->smj", shape.tangents, rot),
        projectors=np.einsum("ik,skl,jl->sij", rot, shape.projectors, rot),
    )
    a2 = a @ rot.T
    b2 = b @ rot.T
    assert shapes.induced_pairing(SPEC, moved, a2, b2) == pytest.approx(pairing, rel=1e-10)
    movedbr = shapes.curvature_terms(SPEC, moved, a2, b2)
    assert movedbr.total == pytest.approx(base.total, rel=1e-10, abs=1e-12)
    assert movedbr.r3 == pytest.approx(base.r3, rel=1e-10, abs=1e-12)


def test_shape_json_round_trip():
    shape = shapes.make_circle(10)
    mom = 0.3 * shape.x
    obj = shapes.shape_to_json(shape, mom)
    again, mom2 = shapes.shape_from_json(obj)
    assert np.allclose(again.x, shape.x, atol=1e-16)
    assert np.allclose(again.w, shape.w, atol=1e-16)
    assert np.allclose(again.tangents, shape.tangents, atol=1e-16)
    assert np.allclose(again.projectors, shape.projectors, atol=1e-15)
    assert mom2 is not None and np.allclose(mom2, mom, atol=1e-16)
    # momenta are optional
    bare, none_mom = shapes.shape_from_json(shapes.shape_to_json(shape))
    assert none_mom is None
    with pytest.raises(ConfigurationError):
        shapes.shape_from_json({"n": 2, "m": 1, "samples": [[0, 0]]})


@pytest.mark.parametrize("key", ["samples", "weights", "tangents", "momenta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_shape_json_rejects_non_finite_entries(key, bad):
    obj = shapes.shape_to_json(shapes.make_circle(6), 0.1 * shapes.make_circle(6).x)
    entry = obj[key]
    while isinstance(entry[-1], list):
        entry = entry[-1]
    entry[-1] = bad
    with pytest.raises(ConfigurationError, match=f"shape {key} contain non-finite entries"):
        shapes.shape_from_json(obj)
