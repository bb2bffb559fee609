"""Hamiltonian integration, conservation monitoring, shooting and matching."""

import numpy as np
import pytest

from cometric import dynamics, kernels, landmark, shapes
from cometric.dynamics import (
    IntegratorConfig,
    integrate,
    landmark_system,
    match,
    shape_system,
    shoot,
)
from cometric.errors import (
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
    with pytest.raises(ConfigurationError, match="t_final must be positive"):
        IntegratorConfig(dt=0.1, t_final=0.0)
    with pytest.raises(ConfigurationError, match="t_final must be positive"):
        IntegratorConfig(dt=0.1, t_final=float("inf"))
    assert IntegratorConfig(dt=1e-3, t_final=1.0).steps == 1000


def test_config_refuses_more_than_max_steps():
    """The step count is bounded before anything steps: ``shoot`` and
    ``match`` allocate nothing per step, so without the bound a tiny ``dt``
    would never return.  An infinite ratio is refused the same way."""
    assert IntegratorConfig(dt=1e-7, t_final=1.0).steps == dynamics.MAX_STEPS
    with pytest.raises(ConfigurationError, match=r"^1e\+08 steps \(t_final / dt\) exceed the limit of 1e\+07$"):
        IntegratorConfig(dt=1e-8, t_final=1.0)
    with pytest.raises(ConfigurationError, match=r"^inf steps"):
        IntegratorConfig(dt=5e-324, t_final=1.0)


def test_integrate_refuses_a_trajectory_it_cannot_allocate():
    """A trajectory above the dense ceiling is refused by name before it is
    allocated.  The initial state is a broadcast view, so nothing is allocated
    on the way."""
    system = dynamics.HamiltonianSystem(rhs=None, shape=(2, 10**8, 10**9), rhs_observe=None)
    y0 = np.broadcast_to(0.0, system.shape)
    with pytest.raises(ConfigurationError, match=r"^dense trajectory of 11 states of shape \(2, 100000000, 1000000000\) "
                                                 r"needs 17600000000000000000 bytes \(limit 268435456 bytes\)$"):
        integrate(system, y0, IntegratorConfig(dt=0.1, t_final=1.0))


def test_single_landmark_travels_in_a_straight_line():
    """One landmark feels no interaction: q(T) = q(0) + K(0) p T exactly."""
    metric = LandmarkMetric(SPEC, 1, 2)
    system = landmark_system(metric)
    q0 = np.array([[0.2, -0.4]])
    p0 = np.array([[0.7, 0.3]])
    k0 = float(kernel_value(SPEC, np.zeros(2)))
    ys, report = integrate(system, np.array((q0, p0)), IntegratorConfig(dt=1e-2, t_final=1.0))
    assert len(report.t) == 101 and ys.shape == (101, 2, 1, 2)
    assert np.allclose(ys[-1, 0], q0 + k0 * p0, atol=1e-12)
    assert np.allclose(ys[-1, 1], p0, atol=1e-14)
    assert report.energy_drift < 1e-14


def test_symmetric_collision_course_conserves_energy():
    """Two landmarks on a 1-D collision course: H stays flat, points never meet."""
    spec = KernelSpec("sobolev_bessel", n=1, l=2)
    metric = LandmarkMetric(spec, 2, 1)
    system = landmark_system(metric)
    y0 = np.array([[[-0.7], [0.7]], [[1.2], [-1.2]]])  # q, then p
    ys, report = integrate(system, y0, IntegratorConfig(dt=1e-3, t_final=1.0))
    assert report.energy_drift <= 1e-8
    assert report.linear_drift <= 1e-12
    assert report.angular.shape == (len(report.t), 0) and report.angular_drift == 0.0  # no rotations in 1-D
    gaps = ys[:, 0, 1, 0] - ys[:, 0, 0, 0]
    assert np.all(gaps > 0)          # the pair compresses but never crosses
    assert gaps[-1] < gaps[0]


def test_conservation_report_monotone_time():
    metric = LandmarkMetric(SPEC, 2, 2)
    system = landmark_system(metric)
    y0 = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]]])
    ys, report = integrate(system, y0, IntegratorConfig(dt=0.05, t_final=0.5))
    assert np.all(np.diff(report.t) > 0)
    assert len(report.t) == len(ys) == 11
    assert len(report.hamiltonian) == len(report.t)
    assert report.linear.shape == (len(report.t), 2)
    assert report.angular.shape == (len(report.t), 1)


def test_divergence_reports_last_good_time():
    """|p| = 1e9 already exceeds ``MAX_NORM`` after the first step, so the last
    state that passed is y0: every route reports t_last = 0, whether it
    observes each state (``integrate``) or keeps only the endpoint (the shots
    of ``shoot``'s and ``match``'s Jacobian)."""
    metric = LandmarkMetric(SPEC, 1, 2)
    system = landmark_system(metric)
    y0 = np.array([[[0.0, 0.0]], [[1e9, 0.0]]])
    assert y0.max() > dynamics.MAX_NORM
    config = IntegratorConfig(dt=0.1, t_final=10.0)
    with pytest.raises(DivergenceError) as info:
        integrate(system, y0, config)
    assert info.value.t_last == 0.0
    with pytest.raises(DivergenceError) as info:
        dynamics._endpoint_jacobian(system.rhs, y0, config)
    assert info.value.t_last == 0.0


def test_initial_state_is_refused_once_before_any_stage():
    """A start beyond ``MAX_NORM`` is refused before its products can overflow;
    a non-finite start is a configuration error.  No rhs call sees either."""
    metric = LandmarkMetric(SPEC, 2, 2)
    calls = []

    def rhs(y):
        calls.append(y)
        return landmark_system(metric).rhs(y)

    config = IntegratorConfig(dt=0.1, t_final=1.0)
    huge = np.array([[[0.0, 0.0], [1.0, 0.0]], [[1e200, 0.0], [0.0, 0.1]]])
    want = r"^initial state entry 1\.000e\+200 exceeds the blow-up bound 1e\+08"
    with pytest.raises(DivergenceError, match=want) as info:
        dynamics._endpoint(rhs, huge, config)
    assert info.value.t_last == 0.0
    huge[1, 0, 0] = np.nan
    with pytest.raises(ConfigurationError, match="^initial state contains non-finite entries$"):
        dynamics._endpoint(rhs, huge, config)
    assert calls == []


def _column_loop_jacobian(rhs, y0, config):
    """The endpoint Jacobian as one pair of shots per column, in column order
    (the implementation before shots were batched), verbatim."""
    n = y0[1].size
    delta = 1e-6 * (1.0 + float(np.abs(y0[1]).max()))
    sens = np.empty((n, n))
    for j in range(n):
        plus, minus = y0.copy(), y0.copy()
        plus[1].flat[j] += delta
        minus[1].flat[j] -= delta
        diff = dynamics._endpoint(rhs, plus, config)[0] - dynamics._endpoint(rhs, minus, config)[0]
        sens[:, j] = diff.reshape(-1) / (2.0 * delta)
    return sens


def _jacobian_case(family, p, d):
    # "gaussian": the Bessel kernel near its Gaussian limit (A = a / (4 l), l
    # large, tends to a multiple of exp(-|r|^2 / a)), on the k >= 2 branch
    spec = SPEC if family == "bessel" else KernelSpec("sobolev_bessel", n=3, l=8, A=0.9 / 32, c=1.2)
    rng = np.random.default_rng(100 * p + d)
    q0 = rng.uniform(-1.0, 1.0, size=(p, d))
    q0[:, 0] += 1.5 * np.arange(p)
    y0 = np.array((q0, 0.3 * rng.standard_normal((p, d))))
    return landmark_system(LandmarkMetric(spec, p, d)).rhs, y0, IntegratorConfig(dt=0.05, t_final=0.5)


@pytest.mark.parametrize("family", ["bessel", "gaussian"])
@pytest.mark.parametrize("p,d", [(1, 2), (2, 2), (3, 1), (3, 3), (5, 2)])
def test_batched_jacobian_is_the_column_loop_bit_for_bit(family, p, d):
    """All 2·p·D shots step as one batch, yet every column is the column
    loop's, bit for bit, and the result is C-ordered like the loop's (``match``
    takes its ``jac.T @ jac`` BLAS path from the strides)."""
    rhs, y0, config = _jacobian_case(family, p, d)
    sens = dynamics._endpoint_jacobian(rhs, y0, config)
    assert sens.flags.c_contiguous
    assert np.array_equal(sens, _column_loop_jacobian(rhs, y0, config))


@pytest.mark.parametrize("budget_columns", [1, 4])
def test_jacobian_chunks_give_the_same_bytes(budget_columns, monkeypatch):
    """With a byte budget of a few columns the shots step in several batches,
    in column order, with the bytes of one batch."""
    rhs, y0, config = _jacobian_case("bessel", 3, 3)
    whole = dynamics._endpoint_jacobian(rhs, y0, config)
    widths = []

    def counting(y):
        widths.append(y.shape[1] // 2)
        return rhs(y)

    monkeypatch.setattr(dynamics, "SHOT_BATCH_BYTES", budget_columns * 2 * 8 * 3 * 3 * (3 + 8))
    chunked = dynamics._endpoint_jacobian(counting, y0, config)
    assert np.array_equal(chunked, whole) and chunked.flags.c_contiguous
    assert widths[::4 * config.steps] == ([1] * 9 if budget_columns == 1 else [4, 4, 1])


def test_a_batched_rhs_refuses_a_member_as_if_alone():
    """In a batch of states, a member with coincident landmarks raises exactly
    that member's unbatched error; a member with a NaN coordinate raises the
    unbatched ``ConfigurationError``."""
    system, x, _ = _system("landmark")
    y = np.repeat(np.array((x, 0.1 * x))[:, None], 3, axis=1)
    y[0, 1, 2] = y[0, 1, 0] + 1e-14
    with pytest.raises(DegenerateConfigurationError) as want:
        system.rhs(y[:, 1])
    with pytest.raises(DegenerateConfigurationError) as got:
        system.rhs(y)
    assert str(got.value) == str(want.value)
    y[0, 1] = x
    y[0, 2, 1, 0] = np.nan
    with pytest.raises(ConfigurationError, match="^landmarks contain non-finite coordinates$"):
        system.rhs(y)


def test_head_on_collision_ends_in_a_named_error():
    """Two landmarks shot head-on at each other: ``integrate`` itself reaches the
    collision and must stop with a named error (a ``DivergenceError`` at a finite
    time inside the run, or a ``DegenerateConfigurationError``), never hand back
    a NaN trajectory."""
    metric = LandmarkMetric(KernelSpec("sobolev_bessel", n=3, l=3, A=0.05), 2, 2)
    y0 = np.array([[[-0.5, 0.0], [0.5, 0.0]], [[5.0, 0.0], [-5.0, 0.0]]])
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
    """Criterion 10's pair converges in 4 iterations.  An iteration's 8
    Jacobian shots step as one batch, one batched rhs call per stage, so the
    start, 4 Jacobian batches and 4 accepted trials make 9 integrations of
    100 RK4 steps."""
    pair, q0, target, config = _criterion_10_pair(1e-2)
    calls = 0
    rhs = dynamics.geodesic_rhs

    def counting_rhs(*args):
        nonlocal calls
        calls += 1
        return rhs(*args)

    monkeypatch.setattr(dynamics, "geodesic_rhs", counting_rhs)
    result = match(pair, q0, target, config)
    assert result.iterations == 4 and len(result.residuals) == 5
    assert calls == (5 + 4) * 4 * 100


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
    for p0 in (np.zeros((3, 2)), np.zeros(4)):  # shoot's momenta must be laid out like q0
        with pytest.raises(ConfigurationError, match="does not match positions"):
            shoot(metric, q0, p0, IntegratorConfig(dt=0.1, t_final=1.0))


def test_shape_geodesic_stays_normal():
    """A short curve geodesic keeps momenta near the conormal bundle."""
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.5, c=1.0)
    shape0 = shapes.make_circle(24)
    theta = np.arctan2(shape0.x[:, 1], shape0.x[:, 0])
    nu = shape0.x / np.linalg.norm(shape0.x, axis=1, keepdims=True)
    a0 = 0.2 * np.cos(2 * theta)[:, None] * nu
    system = shape_system(spec, shape0)
    _, report = integrate(system, np.array((shape0.x, a0)), IntegratorConfig(dt=5e-3, t_final=0.5))
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
    y = np.array((x, 0.1 * x))
    for call in (system.rhs, system.rhs_observe):
        with pytest.raises(DegenerateConfigurationError) as got:
            call(y)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_one_distinctness_test_per_stage_and_per_step(kind, monkeypatch):
    system, x, _ = _system(kind)
    calls = []
    inner = kernels._distinct_tiles

    def counting(pts, what):
        calls.append(what)
        return inner(pts, what)

    monkeypatch.setattr(kernels, "_distinct_tiles", counting)
    y = np.array((x, 0.1 * x))
    system.rhs(y)
    assert len(calls) == 1
    system.rhs_observe(y)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_monitored_energy_is_the_hamiltonian_bit_for_bit(kind):
    """Under RK4 the H of each state comes from the pair block of an rhs call
    (the first stage's, and one more for the last state); it equals
    ``landmark.hamiltonian`` and ``1/2 induced_pairing`` exactly, at every
    stored state, and the other observations are those of ``rhs_observe``."""
    system, x, _ = _system(kind)
    ys, report = integrate(system, np.array((x, 0.3 * x[::-1])), IntegratorConfig(dt=0.05, t_final=0.5))
    circle = shapes.make_circle(8)
    for k, y in enumerate(ys):
        if kind == "landmark":
            h = landmark.hamiltonian(LandmarkMetric(SPEC, *x.shape), y[0], y[1])
        else:
            shp = shapes._unchecked(y[0], circle.w, circle.tangents, circle.projectors)
            h = 0.5 * shapes.induced_pairing(SPEC, shp, y[1], y[1])
        assert report.hamiltonian[k] == h
        seen = system.rhs_observe(y)[1]
        assert np.array_equal(report.linear[k], seen["linear"])
        assert np.array_equal(report.angular[k], seen["angular"])
        if kind == "curve":
            assert report.normality[k] == seen["normality"]
            assert report.frame_quality[k] == seen["frame_quality"]


def test_monitored_energy_is_the_hamiltonian_above_one_tile():
    """At p = 200 (three upper row tiles) the rhs folds its velocity across
    tiles, and the H paired with it is still ``landmark.hamiltonian`` exactly."""
    p = 200
    assert len(kernels.row_slices(p)) == 3
    theta = 2.0 * np.pi * np.arange(p) / p
    q = (0.4 * p / (2.0 * np.pi)) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mom = 0.3 * np.stack([np.cos(3.0 * theta), np.sin(2.0 * theta)], axis=1)
    metric = LandmarkMetric(SPEC, p, 2)
    ys, report = integrate(landmark_system(metric), np.array((q, mom)), IntegratorConfig(dt=0.05, t_final=0.1))
    for k, y in enumerate(ys):
        assert report.hamiltonian[k] == landmark.hamiltonian(metric, y[0], y[1])


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_rhs_observe_refuses_coincident_points_like_observe(kind):
    """The first stage that observes a state refuses a collision in it with
    the error and message of the energy routes it stands for
    (``landmark.hamiltonian``, ``shapes.induced_pairing``)."""
    system, x, _ = _system(kind)
    x[2] = x[0]
    y = np.array((x, 0.1 * x))
    with pytest.raises(DegenerateConfigurationError) as want:
        if kind == "landmark":
            landmark.hamiltonian(LandmarkMetric(SPEC, *x.shape), x, y[1])
        else:
            circle = shapes.make_circle(8)
            shapes.induced_pairing(SPEC, shapes._unchecked(x, circle.w, circle.tangents, circle.projectors),
                                   y[1], y[1])
    with pytest.raises(DegenerateConfigurationError) as got:
        system.rhs_observe(y)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_rk4_integrate_builds_one_pair_block_per_step(kind, monkeypatch):
    """RK4 ``integrate`` builds ``4 steps + 1`` pair blocks: four stages per step,
    the first also observing the state it leaves, and the final state's own.
    Shots build ``4 steps``."""
    system, x, _ = _system(kind)
    y0 = np.array((x, 0.1 * x))
    config = IntegratorConfig(dt=0.05, t_final=0.5)
    calls = []
    inner = kernels._distinct_tiles

    def counting(pts, what):
        calls.append(what)
        return inner(pts, what)

    monkeypatch.setattr(kernels, "_distinct_tiles", counting)
    integrate(system, y0, config)
    assert len(calls) == 4 * config.steps + 1
    del calls[:]
    dynamics._endpoint(system.rhs, y0, config)
    assert len(calls) == 4 * config.steps


@pytest.mark.parametrize("kind", ["landmark", "curve"])
def test_states_stack_points_over_momenta(kind):
    """A state is ``(points, momenta)`` stacked on a leading axis of 2; the
    right-hand side keeps that layout, ``integrate`` records one state per
    step plus the start and refuses a flattened state."""
    system, x, _ = _system(kind)
    assert system.shape == (2, *x.shape)
    y = np.array((x, 0.1 * x))
    assert system.rhs(y).shape == system.shape
    config = IntegratorConfig(dt=0.1, t_final=0.2)
    ys, report = integrate(system, y, config)
    assert ys.shape == (3, *system.shape) and np.array_equal(ys[0], y)
    assert report.t.tolist() == pytest.approx([0.0, 0.1, 0.2])
    with pytest.raises(ConfigurationError, match="state must have shape"):
        integrate(system, y.reshape(-1), config)


def test_shape_system_refuses_a_kernel_narrower_than_the_shape():
    circle = shapes.make_circle(8)
    system = shape_system(KernelSpec("sobolev_bessel", n=1, l=3), circle)
    y = np.array((circle.x, 0.1 * circle.x))
    for call in (system.rhs, system.rhs_observe):
        with pytest.raises(ConfigurationError, match="^ambient dimension D=2 exceeds the kernel dimension n=1$"):
            call(y)
