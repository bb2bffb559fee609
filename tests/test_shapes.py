"""Discrete submanifolds: frames, weights, normal projections, curvature."""

import json

import numpy as np
import pytest

from cometric import jets, shapes
from cometric.errors import ConditioningError, ConfigurationError, DegenerateConfigurationError
from cometric.kernels import KernelSpec
from cometric.landmark import (
    LandmarkMetric,
    curvature as landmark_curvature,
    force as landmark_force,
    geodesic_rhs as landmark_rhs,
    hamiltonian as landmark_hamiltonian,
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


@pytest.mark.parametrize("kwargs, error, message", [
    ({"radius": 1e-12, "center": (1e6, 0.0)}, DegenerateConfigurationError,
     "coincident samples 1 and 3 (separation 1.010e-28)"),
    ({"radius": 1e200}, ConfigurationError,
     "samples are too far apart: a pair distance overflows the float range (largest coordinate 1.000e+200)"),
    ({"radius": 1e-300}, DegenerateConfigurationError, "coincident samples 0 and 1 (separation 0.000e+00)"),
], ids=["tiny_radius_far_center", "huge_radius", "radius_below_certificate"])
def test_uncertified_circle_is_checked(kwargs, error, message):
    """A circle outside the distinctness certificate goes through the checked
    constructor, which refuses these with its own error and message."""
    with pytest.raises(error) as info:
        shapes.make_circle(8, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_certified_circle_skips_the_pair_check(monkeypatch):
    """A circle inside the certificate never runs the O(S^2) check, and its
    fields pass the checked constructor unchanged."""
    def refuse(*args, **kwargs):
        raise AssertionError("check_distinct ran")

    with monkeypatch.context() as patch:
        patch.setattr(shapes, "check_distinct", refuse)
        circle = shapes.make_circle(64, radius=1.5, center=(0.3, -0.2))
    checked = shapes.DiscreteSubmanifold(circle.x, circle.w, circle.tangents, circle.projectors)
    assert type(circle) is shapes.DiscreteSubmanifold
    for field in ("x", "w", "tangents", "projectors"):
        assert np.array_equal(getattr(circle, field), getattr(checked, field)), field
        assert getattr(circle, field).shape == getattr(checked, field).shape, field


def test_landmark_shape_is_zero_dimensional():
    q = np.array([[0.0, 0.0], [1.0, 0.2]])
    shape = shapes.landmark_shape(q)
    assert shape.m == 0
    assert np.array_equal(shape.w, np.ones(2))
    assert shape.tangents.shape == (2, 0, 2)
    # projectors are identities: every direction is normal
    assert np.allclose(shape.projectors, np.broadcast_to(np.eye(2), (2, 2, 2)))


def test_landmark_shape_round_trips_through_json():
    """An ``m = 0`` shape writes its empty frames as ``S`` empty lists; reading
    them back restores the ``(S, 0, n)`` frames, the identity projectors and
    the momenta."""
    q = np.array([[0.0, 0.0], [1.0, 0.2], [-0.3, 0.8]])
    a = np.array([[0.1, 0.0], [0.0, -0.2], [0.3, 0.1]])
    cloud = shapes.landmark_shape(q)
    obj = json.loads(json.dumps(shapes.shape_to_json(cloud, a)))
    assert obj["tangents"] == [[], [], []]
    shape, mom = shapes.shape_from_json(obj)
    assert shape.m == 0
    for field in ("x", "w", "tangents", "projectors"):
        assert np.array_equal(getattr(shape, field), getattr(cloud, field)), field
        assert getattr(shape, field).shape == getattr(cloud, field).shape, field
    assert np.array_equal(mom, a)


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


def _circle_fields(**change) -> dict:
    circle = shapes.make_circle(6)
    fields = {"x": circle.x, "w": circle.w, "tangents": circle.tangents, "projectors": circle.projectors}
    return {**fields, **change}


@pytest.mark.parametrize("change, message", [
    ({"x": np.zeros(6)}, r"^samples must form a \(S, n\) array, got shape \(6,\)$"),
    ({"w": np.ones(5)}, r"^weights must have shape \(6,\), got \(5,\)$"),
    ({"tangents": np.zeros((6, 1, 3))}, r"^tangent frames must have shape \(6, m, 2\), got \(6, 1, 3\)$"),
    ({"projectors": np.zeros((6, 2, 3))}, r"^projectors must have shape \(6, 2, 2\), got \(6, 2, 3\)$"),
], ids=["samples", "weights", "tangents", "projectors"])
def test_shape_fields_of_the_wrong_shape_refused(change, message):
    with pytest.raises(ConfigurationError, match=message):
        shapes.DiscreteSubmanifold(**_circle_fields(**change))


def test_closed_curve_needs_three_samples_and_nonvanishing_chords():
    with pytest.raises(ConfigurationError, match="^a closed curve needs at least 3 samples$"):
        shapes.closed_curve(np.array([[0.0, 0.0], [1.0, 0.0]]))
    # samples 0 and 2 coincide, so the centered chord at sample 1 vanishes
    back_and_forth = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateConfigurationError, match="^curve samples collapsed"):
        shapes.closed_curve(back_and_forth)


def test_rederive_frames_refuses_surfaces():
    """Frames are re-derived for curves only; an m = 2 shape is refused."""
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tangents = np.broadcast_to(np.eye(3)[:2], (3, 2, 3)).copy()
    projectors = np.broadcast_to(np.diag([0.0, 0.0, 1.0]), (3, 3, 3)).copy()
    sheet = shapes.DiscreteSubmanifold(x=x, w=np.ones(3), tangents=tangents, projectors=projectors)
    with pytest.raises(ConfigurationError, match=r"^frame re-derivation implemented for curves \(m=1\), got m=2$"):
        shapes.rederive_frames(sheet)


@pytest.mark.parametrize("op", [
    lambda shape, a: shapes.geodesic_rhs(SPEC, shape, a),
    lambda shape, a: shapes.induced_pairing(SPEC, shape, a, a),
    lambda shape, a: shapes.normality_defect(shape, a),
], ids=["rhs", "pairing", "normality"])
def test_momenta_of_the_wrong_shape_refused(op):
    with pytest.raises(ConfigurationError, match=r"^momenta must have shape \(6, 2\), got \(6, 3\)$"):
        op(shapes.make_circle(6), np.zeros((6, 3)))


def test_normal_bundle_gram_too_large_is_refused_before_allocation(monkeypatch):
    """The (S (n-m))^2 bracket Gram is under the one dense ceiling: for a curve
    in R^3 it holds 4 S^2 entries, so with the ceiling between its size and the
    kernel Gram's S^2 the shape is refused with a configuration error, not a
    MemoryError, and the solve is never reached."""
    theta = 2.0 * np.pi * np.arange(16) / 16
    curve = shapes.closed_curve(np.stack([np.cos(theta), np.sin(theta), 0.3 * np.sin(2.0 * theta)], axis=1))
    a = np.einsum("sij,sj->si", curve.projectors, np.cos(2.0 * theta)[:, None] * curve.x + [0.0, 0.0, 1.0])
    b = np.einsum("sij,sj->si", curve.projectors, np.sin(3.0 * theta)[:, None] * curve.x)
    allowed = shapes.curvature_terms(SPEC, curve, a, b)
    assert allowed.r3 != 0.0
    monkeypatch.setattr(jets, "DENSE_MAX_BYTES", 8 * (16 * 2) ** 2 - 1)
    monkeypatch.setattr(shapes, "gram_solve", None)  # never reached
    with pytest.raises(ConfigurationError, match=r"^dense normal-bundle Gram at S=16, n-m=2 needs 8192 bytes \(limit 8191 bytes\)$"):
        shapes.curvature_terms(SPEC, curve, a, b)


def test_non_orthonormal_frames_refused():
    """A frame read back with its tangents scaled by 3 has projectors with
    eigenvalues (-8, 1); it is refused at construction, on every route in."""
    obj = shapes.shape_to_json(shapes.make_circle(16))
    obj["tangents"] = (3.0 * np.asarray(obj["tangents"])).tolist()
    with pytest.raises(ConfigurationError, match="tangent frames are not orthonormal"):
        shapes.shape_from_json(obj)
    circle = shapes.make_circle(16)
    with pytest.raises(ConfigurationError, match="projectors are not I - sum t t"):
        shapes.DiscreteSubmanifold(x=circle.x, w=circle.w, tangents=circle.tangents,
                                   projectors=np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    nan_frames = circle.tangents.copy()
    nan_frames[2, 0, 0] = np.nan
    with pytest.raises(ConfigurationError, match="not orthonormal"):
        shapes.DiscreteSubmanifold(x=circle.x, w=circle.w, tangents=nan_frames, projectors=circle.projectors)


def test_constructors_build_orthonormal_frames():
    """Every constructor, and a rigidly moved circle built field by field,
    passes the frame check with room to spare."""
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    angle, shift = 0.7, np.array([3.0, -4.5])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    circle = shapes.make_circle(512, radius=30.0, center=(0.4, -0.2))
    moved = shapes.DiscreteSubmanifold(
        x=circle.x @ rot.T + shift, w=circle.w,
        tangents=circle.tangents @ rot.T,
        projectors=np.einsum("ij,sjk,lk->sil", rot, circle.projectors, rot),
    )
    for shape in (circle, moved,
                  shapes.closed_curve(np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=1)),
                  shapes.landmark_shape(np.array([[0.0, 0.0], [1.0, 0.5]]))):
        m, n = shape.m, shape.n
        gram = np.einsum("sai,sbi->sab", shape.tangents, shape.tangents)
        assert np.abs(gram - np.eye(m)).max(initial=0.0) <= 1e-3 * shapes.FRAME_TOL
        tt = np.einsum("sai,saj->sij", shape.tangents, shape.tangents)
        assert np.abs(shape.projectors - (np.eye(n) - tt)).max() <= 1e-3 * shapes.FRAME_TOL


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


def test_normality_defect_is_zero_without_frames_or_momenta():
    cloud = shapes.landmark_shape(np.array([[0.0, 0.0], [1.0, 0.5]]))
    assert shapes.normality_defect(cloud, np.array([[1.0, 2.0], [-0.3, 0.4]])) == 0.0
    circle = shapes.make_circle(8)
    assert shapes.normality_defect(circle, np.zeros((8, 2))) == 0.0


def test_vanishing_bracket_field_skips_the_gram_solve(monkeypatch):
    """With ``b = a`` the stresses ``D(a, b)`` and ``D(b, a)`` are the same
    numbers, so the bracket field is exactly zero and no Gram is solved."""
    def refuse(*args):
        raise AssertionError("bracket Gram solved for a zero field")

    monkeypatch.setattr(shapes, "_normal_gram_solve", refuse)
    circle = shapes.make_circle(16)
    a = (0.5 + np.cos(np.arctan2(circle.x[:, 1], circle.x[:, 0])))[:, None] * circle.x
    br = shapes.curvature_terms(SPEC, circle, a, a)
    assert br.r3 == 0.0


def _near_coincident_cloud():
    return shapes.landmark_shape(np.array([[0.0, 0.0], [1e-7, 0.0], [0.9, 0.4]]))


def _near_coincident_circle():
    """``make_circle(12)`` with sample 1 moved 1e-7 along sample 0's tangent,
    sample 0's frame copied to it."""
    circle = shapes.make_circle(12)
    x, t, pr = circle.x.copy(), circle.tangents.copy(), circle.projectors.copy()
    x[1] = x[0] + 1e-7 * t[0, 0]
    t[1], pr[1] = t[0], pr[0]
    return shapes.DiscreteSubmanifold(x=x, w=circle.w, tangents=t, projectors=pr)


@pytest.mark.parametrize("make, what", [(_near_coincident_cloud, "kernel Gram"),
                                        (_near_coincident_circle, "normal-bundle Gram")], ids=["m0", "m1"])
def test_ill_conditioned_shape_gram_refused(make, what):
    """Samples 1e-7 apart pass the distinctness test, not the Gram guard, on
    both branches of the bracket solve."""
    spec = KernelSpec("sobolev_bessel", n=3, l=4, A=1.3, c=0.7)
    shape = make()
    rng = np.random.default_rng(5)
    a = shapes.project_normal(shape, rng.standard_normal(shape.x.shape))
    b = shapes.project_normal(shape, rng.standard_normal(shape.x.shape))
    with pytest.raises(ConditioningError, match=f"{what} matrix condition number"):
        shapes.curvature_terms(spec, shape, a, b)


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


@pytest.mark.parametrize("p", [3, 200])  # 200 points: three upper tiles of 81, 81 and 38 rows
def test_zero_dimensional_shape_reduces_to_landmarks(p):
    """Every operation on an m=0 shape equals its landmark counterpart: the
    pair sums are the same at unit weights, bit for bit.  The curvature terms
    agree to ``1e-12 * (1 + |term|)``, and the four parts also to 1e-13
    absolute, since their Gram products round differently."""
    rng = np.random.default_rng(24)
    q = rng.uniform(-1.0, 1.0, size=(p, 2))
    q[:, 0] += 2.0 * np.arange(p)
    a = rng.standard_normal((p, 2))
    b = rng.standard_normal((p, 2))
    metric = LandmarkMetric(SPEC, p, 2)
    shape = shapes.landmark_shape(q)

    assert np.array_equal(
        shapes.horizontal_velocity(SPEC, shape, a), landmark_velocity(metric, q, a)
    )
    sx, sa = shapes.geodesic_rhs(SPEC, shape, a)
    lx, la = landmark_rhs(metric, q, a)
    assert np.array_equal(sx, lx)
    assert np.array_equal(sa, la)
    assert 0.5 * shapes.induced_pairing(SPEC, shape, a, a) == landmark_hamiltonian(metric, q, a)
    assert np.array_equal(shapes.force_normal(SPEC, shape, a, b), landmark_force(metric, q, a, b))
    assert np.array_equal(shapes.stress_normal(SPEC, shape, a, b), landmark_stress(metric, q, a, b))
    sc = shapes.curvature_terms(SPEC, shape, a, b)
    lc = landmark_curvature(metric, q, a, b)
    for term in ("r11", "r12", "r2", "r3", "total", "denominator"):
        got, want = getattr(sc, term), getattr(lc, term)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), term
    assert sc.r11 == pytest.approx(lc.r11, abs=1e-13)
    assert sc.r12 == pytest.approx(lc.r12, abs=1e-13)
    assert sc.r2 == pytest.approx(lc.r2, abs=1e-13)
    assert sc.r3 == pytest.approx(lc.r3, abs=1e-13)


@pytest.mark.parametrize("op", [
    lambda spec, shape, a: shapes.curvature_terms(spec, shape, a, a[::-1].copy()),
    lambda spec, shape, a: shapes.geodesic_rhs(spec, shape, a),
    lambda spec, shape, a: shapes.induced_pairing(spec, shape, a, a),
    lambda spec, shape, a: shapes.horizontal_velocity(spec, shape, a),
], ids=["curvature_terms", "geodesic_rhs", "induced_pairing", "horizontal_velocity"])
def test_kernel_narrower_than_the_shape_refused(op):
    """A kernel on R^1 is not positive definite on the plane: the shape routes
    refuse it with the error and message :class:`LandmarkMetric` gives."""
    narrow = KernelSpec("sobolev_bessel", n=1, l=3)
    with pytest.raises(ConfigurationError) as want:
        LandmarkMetric(narrow, 8, 2)
    shape = shapes.make_circle(8)
    with pytest.raises(ConfigurationError) as got:
        op(narrow, shape, 0.3 * shape.x)
    assert str(got.value) == str(want.value) == "ambient dimension D=2 exceeds the kernel dimension n=1"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("op", [shapes.curvature_terms, shapes.force_normal, shapes.stress_normal])
def test_non_finite_coforms_refused(op, bad):
    """A NaN or Inf coform is refused before any pair sum, not returned as NaN terms."""
    shape = shapes.make_circle(8)
    good = 0.3 * shape.x
    spoiled = good.copy()
    spoiled[2, 1] = bad
    for a, b in ((spoiled, good), (good, spoiled)):
        with pytest.raises(ConfigurationError, match="coforms must be finite"):
            op(SPEC, shape, a, b)


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
