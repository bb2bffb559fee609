"""Hamiltonian integration, conservation monitoring, shooting and matching."""

import numpy as np
import pytest

from cometric import dynamics, kernels, shapes
from cometric.dynamics import (
    HamiltonianSystem,
    IntegratorConfig,
    integrate,
    landmark_system,
    match,
    shape_system,
    shoot,
)
from cometric.errors import (
    ConditioningError,
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
)
from cometric.kernels import KernelSpec, check_distinct, gram_matrix, kernel_value
from cometric.landmark import LandmarkMetric
from cometric.validation import _normalized_bessel

SPEC = KernelSpec("sobolev_bessel", n=3, l=3, A=0.8, c=1.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        IntegratorConfig(dt=-0.1, t_final=1.0)
    with pytest.raises(ConfigurationError):
        IntegratorConfig(dt=0.3, t_final=1.0)  # not an integer multiple
    with pytest.raises(ConfigurationError):
        IntegratorConfig(dt=0.1, t_final=1.0, method="euler")
    assert IntegratorConfig(dt=1e-3, t_final=1.0).steps == 1000


def test_single_landmark_travels_in_a_straight_line():
    """One landmark feels no interaction: q(T) = q(0) + K(0) p T exactly."""
    metric = LandmarkMetric(SPEC, 1, 2)
    system = landmark_system(metric)
    q0 = np.array([0.2, -0.4])
    p0 = np.array([0.7, 0.3])
    k0 = float(kernel_value(SPEC, np.zeros(2)))
    ts, ys, report = integrate(
        system, np.concatenate([q0, p0]), IntegratorConfig(dt=1e-2, t_final=1.0)
    )
    assert len(ts) == 101
    assert np.allclose(ys[-1][:2], q0 + k0 * p0, atol=1e-12)
    assert np.allclose(ys[-1][2:], p0, atol=1e-14)
    assert report.energy_drift < 1e-14


def test_symmetric_collision_course_conserves_energy():
    """Two landmarks on a 1-D collision course: H stays flat, points never meet."""
    spec = KernelSpec("sobolev_bessel", n=1, l=2)
    metric = LandmarkMetric(spec, 2, 1)
    system = landmark_system(metric)
    y0 = np.array([-0.7, 0.7, 1.2, -1.2])  # q then p, flattened
    ts, ys, report = integrate(system, y0, IntegratorConfig(dt=1e-3, t_final=1.0))
    assert report.energy_drift <= 1e-8
    assert report.linear_drift <= 1e-12
    gaps = ys[:, 1] - ys[:, 0]
    assert np.all(gaps > 0)          # the pair compresses but never crosses
    assert gaps[-1] < gaps[0]


def test_conservation_report_monotone_time():
    metric = LandmarkMetric(SPEC, 2, 2)
    system = landmark_system(metric)
    y0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, -1.0])
    ts, _, report = integrate(system, y0, IntegratorConfig(dt=0.05, t_final=0.5))
    assert np.all(np.diff(report.t) > 0)
    assert len(report.hamiltonian) == len(ts)
    assert report.linear.shape == (len(ts), 2)
    assert report.angular.shape == (len(ts), 1)


def test_implicit_midpoint_conserves_reasonably():
    metric = LandmarkMetric(SPEC, 2, 2)
    system = landmark_system(metric)
    y0 = np.array([-0.25, 0.0, 0.25, 0.0, 0.0, 1.5, 0.0, -1.5])
    _, _, report = integrate(
        system, y0, IntegratorConfig(dt=1e-2, t_final=1.0, method="implicit_midpoint")
    )
    assert report.energy_drift < 1e-6
    assert report.linear_drift < 1e-12


def test_implicit_midpoint_non_convergence_raises():
    """For ydot = -2y at dt = 1 the midpoint fixed-point map is z -> -z: it
    neither converges nor diverges, so the 100-iteration cap is what stops it."""
    system = HamiltonianSystem(
        rhs=lambda y: -2.0 * y,
        observe=lambda y: {"H": 0.0, "linear": y, "angular": np.zeros(0)},
        size=2,
    )
    config = IntegratorConfig(dt=1.0, t_final=1.0, method="implicit_midpoint")
    with pytest.raises(ConditioningError, match="did not converge"):
        integrate(system, np.array([1.0, -0.5]), config)


def test_divergence_reports_last_good_time():
    """|p| = 1e9 already exceeds ``MAX_NORM`` after the first step, so the last
    state that passed is y0: every route reports t_last = 0, whether it
    observes each state (``integrate``) or keeps only the endpoint (the shots
    of ``shoot``'s and ``match``'s Jacobian)."""
    metric = LandmarkMetric(SPEC, 1, 2)
    system = landmark_system(metric)
    y0 = np.array([0.0, 0.0, 1e9, 0.0])
    assert y0.max() > dynamics.MAX_NORM
    config = IntegratorConfig(dt=0.1, t_final=10.0)
    with pytest.raises(DivergenceError) as info:
        integrate(system, y0, config)
    assert info.value.t_last == 0.0
    with pytest.raises(DivergenceError) as info:
        dynamics._endpoint_jacobian(system.rhs, y0[:2], y0[2:], config)
    assert info.value.t_last == 0.0


def test_head_on_collision_ends_in_a_named_error():
    """Two landmarks shot head-on at each other: ``integrate`` itself reaches the
    collision and must stop with a named error (a ``DivergenceError`` at a finite
    time inside the run, or a ``DegenerateConfigurationError``), never hand back
    a NaN trajectory."""
    metric = LandmarkMetric(KernelSpec("sobolev_bessel", n=3, l=3, A=0.05), 2, 2)
    y0 = np.array([-0.5, 0.0, 0.5, 0.0, 5.0, 0.0, -5.0, 0.0])
    config = IntegratorConfig(dt=1e-2, t_final=2.0)
    with pytest.raises((DegenerateConfigurationError, DivergenceError)) as info:
        integrate(landmark_system(metric), y0, config)
    if isinstance(info.value, DivergenceError):
        assert np.isfinite(info.value.t_last) and 0.0 <= info.value.t_last <= config.t_final


def test_shoot_sensitivity_against_finite_differences():
    rng = np.random.default_rng(40)
    metric = LandmarkMetric(SPEC, 2, 2)
    q0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    p0 = rng.standard_normal((2, 2)) * 0.4
    config = IntegratorConfig(dt=1e-2, t_final=1.0)
    result = shoot(metric, q0, p0, config)
    v = rng.standard_normal(4)
    eps = 1e-5
    plus = shoot(metric, q0, p0 + eps * v.reshape(2, 2), config)
    minus = shoot(metric, q0, p0 - eps * v.reshape(2, 2), config)
    fd = (plus.q_final - minus.q_final).reshape(-1) / (2 * eps)
    assert np.allclose(result.sensitivity @ v, fd, rtol=1e-4, atol=1e-6)


def test_shoot_zero_momentum_linearization():
    """At p0 = 0 the flow is frozen and the sensitivity is T times the Gram matrix."""
    metric = LandmarkMetric(SPEC, 2, 2)
    q0 = np.array([[0.0, 0.0], [1.2, 0.3]])
    config = IntegratorConfig(dt=1e-2, t_final=1.0)
    result = shoot(metric, q0, np.zeros((2, 2)), config)
    assert np.allclose(result.q_final, q0, atol=1e-14)
    gram = gram_matrix(SPEC, q0)
    block = np.kron(gram, np.eye(2))
    assert np.allclose(result.sensitivity, block, rtol=1e-6, atol=1e-8)


def test_match_trivial_target():
    metric = LandmarkMetric(SPEC, 2, 2)
    q0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    config = IntegratorConfig(dt=0.05, t_final=1.0)
    result = match(metric, q0, q0.copy(), config)
    assert result.converged
    assert result.iterations == 0
    assert np.all(result.p0 == 0.0)


def test_match_recovers_single_landmark_momentum():
    metric = LandmarkMetric(SPEC, 1, 2)
    q0 = np.array([[0.1, 0.2]])
    target = np.array([[0.4, -0.1]])
    config = IntegratorConfig(dt=0.02, t_final=1.0)
    result = match(metric, q0, target, config)
    k0 = float(kernel_value(SPEC, np.zeros(2)))
    assert result.converged
    assert np.allclose(result.p0, (target - q0) / k0, atol=1e-8)
    assert result.residuals[-1] < 1e-10


def test_match_round_trip():
    metric = LandmarkMetric(SPEC, 2, 2)
    q0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    p_true = np.array([[0.25, 0.15], [-0.1, 0.2]])
    config = IntegratorConfig(dt=0.02, t_final=1.0)
    endpoint = shoot(metric, q0, p_true, config)
    result = match(metric, q0, endpoint.q_final, config)
    assert result.converged
    assert result.iterations <= 25
    assert np.allclose(result.p0, p_true, atol=1e-6)


def test_match_stops_when_no_trial_lowers_the_residual():
    """With ``tol = 0`` the single-landmark match reaches rounding level, then
    rejects trials that do not lower the residual until all 12 of one
    iteration have failed, and stops there, unconverged."""
    metric = LandmarkMetric(KernelSpec("sobolev_bessel", n=3, l=3, A=0.8), 1, 2)
    result = match(metric, [[0.1, 0.2]], [[0.4, -0.1]], IntegratorConfig(dt=0.02, t_final=1.0), tol=0.0)
    assert not result.converged
    assert result.iterations == 12
    assert len(result.residuals) == 12  # the start and 11 accepted steps: the last iteration accepted none
    assert np.all(np.diff(result.residuals) < 0)
    assert result.residuals[-1] < 1e-14


def _criterion_10_pair(dt):
    """Criterion 10's two-landmark round trip: metric, source, target, config."""
    pair = LandmarkMetric(_normalized_bessel(3, 3, 1.0), 2, 2)
    config = IntegratorConfig(dt=dt, t_final=1.0)
    q0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    target = shoot(pair, q0, np.array([[0.3, 0.2], [-0.1, 0.25]]), config).q_final
    return pair, q0, target, config


def test_match_integrates_once_per_shot(monkeypatch):
    """Criterion 10's pair converges in 4 iterations; each runs 8 Jacobian shots
    and 1 accepted trial, plus the start: 37 shots of 100 RK4 steps.  No shot
    is monitored, so H is never evaluated."""
    pair, q0, target, config = _criterion_10_pair(1e-2)
    calls = {"rhs": 0, "H": 0}
    rhs, ham = dynamics.geodesic_rhs, dynamics.hamiltonian

    def counting_rhs(*args):
        calls["rhs"] += 1
        return rhs(*args)

    def counting_hamiltonian(*args):
        calls["H"] += 1
        return ham(*args)

    monkeypatch.setattr(dynamics, "geodesic_rhs", counting_rhs)
    monkeypatch.setattr(dynamics, "hamiltonian", counting_hamiltonian)
    result = match(pair, q0, target, config)
    assert result.iterations == 4 and len(result.residuals) == 5
    assert calls == {"rhs": 37 * 4 * 100, "H": 0}


def test_match_rejects_a_diverging_trial():
    """Far Levenberg trials of this swap blow past ``MAX_NORM``; they are
    rejected like trials that do not lower the residual, so ``match`` runs to
    its cap and reports ``converged=False`` instead of raising."""
    metric = LandmarkMetric(KernelSpec("sobolev_bessel", n=3, l=3, A=0.8), 2, 2)
    result = match(metric, [[0, 0], [1, 0]], [[1, 0], [0, 0]], IntegratorConfig(dt=0.05, t_final=1.0),
                   max_iter=30)
    assert not result.converged
    assert result.iterations == 30
    assert np.all(np.isfinite(result.residuals)) and np.all(np.diff(result.residuals) < 0)
    assert result.residuals[-1] == pytest.approx(0.7071, abs=1e-3)


def test_match_invariant_under_rigid_motion():
    """Moving source and target by one rigid motion keeps the iteration count
    and the residual history.  The central-difference Jacobian is taken along
    the coordinate axes, so its round-off (about eps * |q| / step) moves with
    the frame: over 30 random motions with shifts up to 3, the first accepted
    residual moved by at most 1.1e-9, later ones by at most 2e-11.
    Tolerance: 1e-8 * r_0 (6.1e-9)."""
    pair, q0, target, config = _criterion_10_pair(0.05)
    base = match(pair, q0, target, config)
    for theta, shift in [(2.3, (0.0, 0.0)), (0.0, (2.7, -1.9)), (-1.1, (-3.0, 2.2))]:
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = match(pair, q0 @ rot.T + shift, target @ rot.T + shift, config)
        assert moved.converged and moved.iterations == base.iterations
        assert np.allclose(moved.residuals, base.residuals, rtol=0.0, atol=1e-8 * base.residuals[0])


def test_match_shape_mismatch():
    metric = LandmarkMetric(SPEC, 2, 2)
    q0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigurationError):
        match(metric, q0, np.zeros((3, 2)), IntegratorConfig(dt=0.1, t_final=1.0))


def test_shape_geodesic_stays_normal():
    """A short curve geodesic keeps momenta near the conormal bundle."""
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.5, c=1.0)
    shape0 = shapes.make_circle(24)
    theta = np.arctan2(shape0.x[:, 1], shape0.x[:, 0])
    nu = shape0.x / np.linalg.norm(shape0.x, axis=1, keepdims=True)
    a0 = 0.2 * np.cos(2 * theta)[:, None] * nu
    system = shape_system(spec, shape0)
    y0 = np.concatenate([shape0.x.reshape(-1), a0.reshape(-1)])
    _, _, report = integrate(system, y0, IntegratorConfig(dt=5e-3, t_final=0.5))
    assert report.energy_drift < 1e-8
    assert report.normality is not None
    assert report.normality_max < 1e-4
    assert report.frame_quality is not None
    assert min(report.frame_quality) > 0.9


def _system(kind):
    """A landmark or a curve system, a configuration for it and its ``what``."""
    circle = shapes.make_circle(8)
    if kind == "landmark":
        return landmark_system(LandmarkMetric(SPEC, 4, 2)), circle.x[::2].copy(), "landmarks"
    return shape_system(SPEC, circle), circle.x.copy(), "samples"


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_rhs_and_observe_refuse_coincident_points(kind):
    """A collision inside the state (not at entry) is refused by both callbacks
    with ``check_distinct``'s error and message."""
    system, x, what = _system(kind)
    x[2] = x[0]
    with pytest.raises(DegenerateConfigurationError) as want:
        check_distinct(x, what=what)
    y = np.concatenate([x.reshape(-1), 0.1 * x.reshape(-1)])
    for call in (system.rhs, system.observe):
        with pytest.raises(DegenerateConfigurationError) as got:
            call(y)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_one_distinctness_test_per_stage_and_per_step(kind, monkeypatch):
    system, x, _ = _system(kind)
    calls = []
    inner = kernels._distinct_pairs

    def counting(pts, what):
        calls.append(what)
        return inner(pts, what)

    monkeypatch.setattr(kernels, "_distinct_pairs", counting)
    y = np.concatenate([x.reshape(-1), 0.1 * x.reshape(-1)])
    system.rhs(y)
    assert len(calls) == 1
    system.observe(y)
    assert len(calls) == 2
