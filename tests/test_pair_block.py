"""Landmark and shape routes on one pair block, against the per-call kernel
evaluations they replaced.

The ``_ref_*`` functions are the earlier bodies of ``landmark.geodesic_rhs``,
``landmark.curvature``, ``shapes.geodesic_rhs`` and
``shapes.curvature_terms`` (with the force/stress/Gram helpers they called),
kept verbatim: they build the full (p, p, D, D) Hessian and evaluate the
kernel once per helper call.  The block routes reorder sums, so agreement is
to ``1e-12 * (1 + |term|)``.
"""

import numpy as np
import pytest

from cometric import landmark, shapes
from cometric.curvature import PLANE_TOL, CurvatureBreakdown
from cometric.errors import ConditioningError, ConfigurationError, DegenerateConfigurationError
from cometric.kernels import KernelSpec, check_distinct, kernel_grad, kernel_hess, kernel_value
from cometric.landmark import LandmarkMetric

GRAM_COND_LIMIT = 1e12
TERMS = ("r11", "r12", "r2", "r3", "total", "denominator")

SPECS = [
    KernelSpec("sobolev_bessel", n=3, l=3, A=0.8),          # Matern 3/2
    KernelSpec("sobolev_bessel", n=3, l=4, A=1.3, c=0.7),   # Matern 5/2
    KernelSpec("sobolev_bessel", n=3, l=8, A=0.9 / 32, c=1.2),  # Matern 13/2, near the Gaussian limit
]


# --- references: the earlier implementations ---------------------------------

def _check_q(metric, q):
    q = np.asarray(q, dtype=float)
    assert q.shape == (metric.p, metric.D)
    check_distinct(q, what="landmarks")
    return q


def _check_mom(metric_or_shape, a):
    return np.asarray(a, dtype=float)


def _ref_landmark_rhs(metric, q, mom):
    q = _check_q(metric, q)
    mom = _check_mom(metric, mom)
    diff = q[:, None, :] - q[None, :, :]
    kv = kernel_value(metric.kernel, diff)
    kg = kernel_grad(metric.kernel, diff)
    dots = mom @ mom.T
    qdot = kv @ mom
    pdot = -np.einsum("ab,abm->am", dots, kg)
    return qdot, pdot


def _ref_gram_solve(kv, w):
    cond = float(np.linalg.cond(kv))
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        raise ConditioningError(f"kernel Gram matrix condition number {cond:.3e} exceeds {GRAM_COND_LIMIT:.0e}")
    return np.linalg.solve(kv, w)


def _ref_landmark_curvature(metric, q, a, b):
    metric.kernel.require_curvature_grade()
    q = _check_q(metric, q)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    diff = q[:, None, :] - q[None, :, :]
    kv = kernel_value(metric.kernel, diff)
    kg = kernel_grad(metric.kernel, diff)
    kh = kernel_hess(metric.kernel, diff)

    u = kv @ a
    v = kv @ b
    du = u[:, None, :] - u[None, :, :]
    dv = v[:, None, :] - v[None, :, :]
    dots_aa = a @ a.T
    dots_bb = b @ b.T
    dots_ab = a @ b.T  # [s, t] = a_s . b_t

    r11 = 0.5 * (
        float(np.einsum("st,stm,stmn,stn->", dots_bb, du, kh, du))
        - 2.0 * float(np.einsum("st,stm,stmn,stn->", dots_ab, du, kh, dv))
        + float(np.einsum("st,stm,stmn,stn->", dots_aa, dv, kh, dv))
    )

    mixed_ab = dots_ab
    f_aa = -0.5 * (np.einsum("ct,ctm->cm", dots_aa, kg) + np.einsum("tc,ctm->cm", dots_aa, kg))
    f_bb = -0.5 * (np.einsum("ct,ctm->cm", dots_bb, kg) + np.einsum("tc,ctm->cm", dots_bb, kg))
    f_ab = -0.5 * (np.einsum("ct,ctm->cm", mixed_ab, kg) + np.einsum("tc,ctm->cm", mixed_ab, kg))
    coeff_a = np.einsum("dtm,dtm->dt", du, kg)
    coeff_b = np.einsum("dtm,dtm->dt", dv, kg)
    d_aa = -coeff_a @ a
    d_bb = -coeff_b @ b
    d_ab = -coeff_a @ b
    d_ba = -coeff_b @ a

    r12 = float(np.einsum("cm,cm->", f_aa, d_bb) + np.einsum("cm,cm->", f_bb, d_aa)
                - np.einsum("cm,cm->", f_ab, d_ab + d_ba))

    r2 = float(np.einsum("sm,st,tm->", f_ab, kv, f_ab) - np.einsum("sm,st,tm->", f_aa, kv, f_bb))

    w = d_ab - d_ba
    if float(np.abs(w).max()) == 0.0:
        r3 = 0.0
    else:
        xi = _ref_gram_solve(kv, w)
        r3 = -0.75 * float(np.einsum("sm,sm->", xi, w))

    paa = float(np.einsum("st,st->", dots_aa, kv))
    pbb = float(np.einsum("st,st->", dots_bb, kv))
    pab = float(np.einsum("st,st->", dots_ab, kv))
    den = paa * pbb - pab * pab
    total = r11 + r12 + r2 + r3
    sectional = total / den if den > PLANE_TOL * max(paa * pbb, 1e-300) else None
    return CurvatureBreakdown(r11=r11, r12=r12, r2=r2, r3=r3, total=total,
                              denominator=den, sectional=sectional)


def _ref_shape_rhs(spec, shape, a):
    a = _check_mom(shape, a)
    diff = shape.x[:, None, :] - shape.x[None, :, :]
    kv = kernel_value(spec, diff)
    kg = kernel_grad(spec, diff)
    xdot = (kv * shape.w[None, :]) @ a
    dots = (a @ a.T) * shape.w[None, :]
    adot = -np.einsum("st,stm->sm", dots, kg)
    return xdot, adot


def _ref_force_normal(spec, shape, a, b):
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    kg = kernel_grad(spec, shape.x[:, None, :] - shape.x[None, :, :])
    mixed = a @ b.T
    raw = -0.5 * (
        np.einsum("st,t,stm->sm", mixed, shape.w, kg)
        + np.einsum("ts,t,stm->sm", mixed, shape.w, kg)
    )
    return np.einsum("sij,sj->si", shape.projectors, raw)


def _ref_stress_normal(spec, shape, a, b):
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    diff = shape.x[:, None, :] - shape.x[None, :, :]
    kv = kernel_value(spec, diff)
    kg = kernel_grad(spec, diff)
    u = (kv * shape.w[None, :]) @ a
    du = u[:, None, :] - u[None, :, :]
    coeff = np.einsum("stm,stm->st", du, kg)
    raw = -np.einsum("st,t,tm->sm", coeff, shape.w, b)
    return np.einsum("sij,sj->si", shape.projectors, raw)


def _ref_normal_gram_solve(spec, shape, w_field):
    kv = kernel_value(spec, shape.x[:, None, :] - shape.x[None, :, :])
    if shape.m == 0:
        mat = kv * shape.w[None, :]
        cond = float(np.linalg.cond(mat))
        if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
            raise ConditioningError(f"kernel Gram matrix condition number {cond:.3e} exceeds {GRAM_COND_LIMIT:.0e}")
        return np.linalg.solve(mat, w_field)
    basis = shapes._normal_basis(shape)  # (S, n-m, n)
    s, r, n = basis.shape
    w_hat = np.einsum("sri,si->sr", basis, w_field)
    cross = np.einsum("sri,tqi->srtq", basis, basis)  # V_s V_t^T blocks
    mat = (kv[:, None, :, None] * shape.w[None, None, :, None] * cross).reshape(s * r, s * r)
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        raise ConditioningError(f"normal-bundle Gram matrix condition number {cond:.3e} exceeds {GRAM_COND_LIMIT:.0e}")
    xi_hat = np.linalg.solve(mat, w_hat.reshape(-1)).reshape(s, r)
    return np.einsum("sri,sr->si", basis, xi_hat)


def _ref_curvature_terms(spec, shape, a, b):
    spec.require_curvature_grade()
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    w = shape.w
    diff = shape.x[:, None, :] - shape.x[None, :, :]
    kv = kernel_value(spec, diff)
    kg = kernel_grad(spec, diff)
    kh = kernel_hess(spec, diff)

    u = (kv * w[None, :]) @ a
    v = (kv * w[None, :]) @ b
    du = u[:, None, :] - u[None, :, :]
    dv = v[:, None, :] - v[None, :, :]
    ww = w[:, None] * w[None, :]
    dots_aa = (a @ a.T) * ww
    dots_bb = (b @ b.T) * ww
    dots_ab = (a @ b.T) * ww

    r11 = 0.5 * (
        float(np.einsum("st,stm,stmn,stn->", dots_bb, du, kh, du))
        - 2.0 * float(np.einsum("st,stm,stmn,stn->", dots_ab, du, kh, dv))
        + float(np.einsum("st,stm,stmn,stn->", dots_aa, dv, kh, dv))
    )

    f_aa = _ref_force_normal(spec, shape, a, a)
    f_bb = _ref_force_normal(spec, shape, b, b)
    f_ab = _ref_force_normal(spec, shape, a, b)
    d_aa = _ref_stress_normal(spec, shape, a, a)
    d_bb = _ref_stress_normal(spec, shape, b, b)
    d_ab = _ref_stress_normal(spec, shape, a, b)
    d_ba = _ref_stress_normal(spec, shape, b, a)

    r12 = float(np.einsum("s,sm,sm->", w, f_aa, d_bb) + np.einsum("s,sm,sm->", w, f_bb, d_aa)
                - np.einsum("s,sm,sm->", w, f_ab, d_ab + d_ba))

    kw = kv * ww
    r2 = float(np.einsum("sm,st,tm->", f_ab, kw, f_ab) - np.einsum("sm,st,tm->", f_aa, kw, f_bb))

    w_br = d_ab - d_ba
    if float(np.abs(w_br).max()) == 0.0:
        r3 = 0.0
    else:
        xi = _ref_normal_gram_solve(spec, shape, w_br)
        r3 = -0.75 * float(np.einsum("sm,sm->", xi * w[:, None], w_br))

    paa = float(np.einsum("st,st->", dots_aa, kv))
    pbb = float(np.einsum("st,st->", dots_bb, kv))
    pab = float(np.einsum("st,st->", dots_ab, kv))
    den = paa * pbb - pab * pab
    total = r11 + r12 + r2 + r3
    sectional = total / den if den > PLANE_TOL * max(paa * pbb, 1e-300) else None
    return CurvatureBreakdown(r11=r11, r12=r12, r2=r2, r3=r3, total=total,
                              denominator=den, sectional=sectional)


# --- agreement ----------------------------------------------------------------

def _assert_terms_close(own, ref):
    for term in TERMS:
        o, r = getattr(own, term), getattr(ref, term)
        assert abs(o - r) <= 1e-12 * (1.0 + abs(r)), (term, o, r)


def _assert_arrays_close(own, ref):
    assert own.shape == ref.shape
    assert np.all(np.abs(own - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def _landmark_cases():
    rng = np.random.default_rng(41)
    for spec in SPECS:
        for p, dim in ((2, 1), (3, 2), (7, 2), (12, 2), (6, 3)):
            q = rng.uniform(-1.0, 1.0, size=(p, dim))
            q[:, 0] += 1.2 * np.arange(p)
            yield spec, q, rng.standard_normal((p, dim)), rng.standard_normal((p, dim))


def test_landmark_rhs_matches_reference():
    for spec, q, a, _ in _landmark_cases():
        metric = LandmarkMetric(spec, *q.shape)
        for own, ref in zip(landmark.geodesic_rhs(metric, q, a), _ref_landmark_rhs(metric, q, a)):
            _assert_arrays_close(own, ref)


def test_landmark_curvature_matches_reference():
    for spec, q, a, b in _landmark_cases():
        metric = LandmarkMetric(spec, *q.shape)
        own = landmark.curvature(metric, q, a, b)
        ref = _ref_landmark_curvature(metric, q, a, b)
        assert ref.r3 != 0.0
        _assert_terms_close(own, ref)


def _shape_cases():
    rng = np.random.default_rng(43)
    circle = shapes.make_circle(24, radius=1.6, center=(0.3, -0.2))
    nu = (circle.x - np.array([0.3, -0.2])) / 1.6
    theta = np.arctan2(nu[:, 1], nu[:, 0])
    yield circle, np.cos(2 * theta)[:, None] * nu, (0.5 + np.sin(theta))[:, None] * nu
    s = 20
    phi = 2 * np.pi * np.arange(s) / s
    knot = np.stack([1.5 * np.cos(phi), 1.5 * np.sin(phi), 0.4 * np.sin(2 * phi)], axis=1)
    curve = shapes.closed_curve(knot)
    yield curve, shapes.project_normal(curve, rng.standard_normal((s, 3))), \
        shapes.project_normal(curve, rng.standard_normal((s, 3)))
    q = rng.uniform(-1.0, 1.0, size=(9, 2))
    q[:, 0] += 1.3 * np.arange(9)
    cloud = shapes.landmark_shape(q)
    yield cloud, rng.standard_normal((9, 2)), rng.standard_normal((9, 2))


def test_shape_rhs_matches_reference():
    for spec in SPECS:
        for shape, a, _ in _shape_cases():
            for own, ref in zip(shapes.geodesic_rhs(spec, shape, a), _ref_shape_rhs(spec, shape, a)):
                _assert_arrays_close(own, ref)


def test_shape_curvature_terms_match_reference():
    for spec in SPECS:
        for shape, a, b in _shape_cases():
            own = shapes.curvature_terms(spec, shape, a, b)
            ref = _ref_curvature_terms(spec, shape, a, b)
            assert ref.r3 != 0.0
            _assert_terms_close(own, ref)
            _assert_arrays_close(shapes.force_normal(spec, shape, a, b), _ref_force_normal(spec, shape, a, b))
            _assert_arrays_close(shapes.stress_normal(spec, shape, a, b), _ref_stress_normal(spec, shape, a, b))


# --- refusals -------------------------------------------------------------------

def _message(points, what):
    with pytest.raises(DegenerateConfigurationError) as info:
        check_distinct(points, what=what)
    return str(info.value)


def test_coincident_landmarks_refused_with_the_same_message():
    spec = SPECS[0]
    q = np.array([[0.0, 0.0], [1.0, 0.5], [-0.7, 0.2], [1.0, 0.5]])
    mom = np.ones_like(q)
    metric = LandmarkMetric(spec, 4, 2)
    expected = _message(q, "landmarks")
    for call in (lambda: landmark.geodesic_rhs(metric, q, mom),
                 lambda: landmark.curvature(metric, q, mom, -mom),
                 lambda: landmark.hamiltonian(metric, q, mom)):
        with pytest.raises(DegenerateConfigurationError) as info:
            call()
        assert str(info.value) == expected


def test_coincident_samples_refused_inside_curvature_terms():
    spec = SPECS[0]
    shape = shapes.make_circle(10)
    a = 0.2 * shape.x
    shape.x[4] = shape.x[7]  # moved after construction, past the constructor's check
    with pytest.raises(DegenerateConfigurationError) as info:
        shapes.curvature_terms(spec, shape, a, -a)
    assert str(info.value) == _message(shape.x, "samples")


def test_non_finite_coordinates_refused():
    """A NaN row is refused by name, not left to a NaN Gram matrix and an
    eigenvalue failure."""
    spec = SPECS[0]
    q = np.array([[0.0, 0.0], [1.0, 0.5], [-0.7, 0.2]])
    q[1, 0] = np.nan
    with pytest.raises(ConfigurationError, match="landmarks contain non-finite coordinates"):
        landmark.curvature(LandmarkMetric(spec, 3, 2), q, np.ones_like(q), -np.ones_like(q))
    shape = shapes.make_circle(10)
    a = 0.2 * shape.x
    shape.x[4, 1] = np.nan  # set after construction, past the constructor's check
    with pytest.raises(ConfigurationError, match="samples contain non-finite coordinates"):
        shapes.curvature_terms(spec, shape, a, -a)


def test_ill_conditioned_gram_still_refused():
    """Landmarks 1e-7 apart pass the distinctness test, not the Gram guard."""
    spec = SPECS[1]
    q = np.array([[0.0, 0.0], [1e-7, 0.0], [0.9, 0.4]])
    metric = LandmarkMetric(spec, 3, 2)
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    b = np.array([[0.0, 1.0], [1.0, 0.3], [-0.2, 0.4]])
    with pytest.raises(ConditioningError, match="condition number"):
        _ref_landmark_curvature(metric, q, a, b)
    with pytest.raises(ConditioningError, match="condition number"):
        landmark.curvature(metric, q, a, b)


def test_dense_jet_refused_before_allocation():
    metric = LandmarkMetric(SPECS[0], 50, 3)
    q = np.arange(150, dtype=float).reshape(50, 3)
    with pytest.raises(ConfigurationError, match=r"p=50, D=3 needs 4\.05 GB"):
        landmark.landmark_cometric_jet(metric, q)
