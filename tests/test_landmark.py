"""Landmark-space cometric: jets, geodesic terms, specialized curvature."""

import numpy as np
import pytest

from cometric import charts
from cometric.christoffel import sectional_numerator_oracle
from cometric.curvature import numerator_coordinate
from cometric.errors import ConfigurationError, DegenerateConfigurationError
from cometric.kernels import KernelSpec, kernel_value
from cometric.landmark import (
    LandmarkMetric,
    curvature,
    force,
    geodesic_rhs,
    hamiltonian,
    landmark_cometric_jet,
    state_from_json,
    stress,
    velocity,
)

SPEC22 = KernelSpec("sobolev_bessel", n=3, l=3, A=0.8, c=1.0)


def _random_config(rng, p, dim, spread=2.0):
    q = rng.uniform(-1.0, 1.0, size=(p, dim))
    q[:, 0] += spread * np.arange(p)
    return q


def test_metric_validation():
    with pytest.raises(ConfigurationError):
        LandmarkMetric(SPEC22, 0, 2)
    with pytest.raises(ConfigurationError):
        LandmarkMetric(SPEC22, 2, 0)
    with pytest.raises(ConfigurationError):
        LandmarkMetric(SPEC22, 2, 5)  # D > kernel dimension
    m = LandmarkMetric(SPEC22, 3, 2)
    assert m.dim == 6


def test_rough_kernel_rejected_for_jets():
    rough = KernelSpec("sobolev_bessel", n=3, l=2)  # continuous, not C^2
    metric = LandmarkMetric(rough, 2, 2)
    with pytest.raises(ConfigurationError):
        landmark_cometric_jet(metric, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_coincident_landmarks_rejected():
    metric = LandmarkMetric(SPEC22, 2, 2)
    q = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(DegenerateConfigurationError):
        landmark_cometric_jet(metric, q)


def test_jet_is_kernel_gram():
    metric = LandmarkMetric(SPEC22, 2, 2)
    q = np.array([[0.0, 0.0], [0.7, -0.2]])
    jet = landmark_cometric_jet(metric, q)
    k0 = float(kernel_value(SPEC22, np.zeros(2)))
    k01 = float(kernel_value(SPEC22, q[0] - q[1]))
    assert jet.ginv[0, 0] == pytest.approx(k0)
    assert jet.ginv[0, 2] == pytest.approx(k01)
    assert jet.ginv[0, 1] == 0.0  # no cross-axis coupling
    assert jet.ginv.shape == (4, 4)


def test_jet_matches_symbolic_landmark_chart():
    """Direct kernel-jet assembly against the DSL chart built from the same kernel."""
    rng = np.random.default_rng(6)
    metric = LandmarkMetric(SPEC22, 2, 2)
    defn = charts.landmark_cometric_def(SPEC22, 2, 2)
    for _ in range(5):
        q = _random_config(rng, 2, 2)
        direct = landmark_cometric_jet(metric, q)
        symbolic = charts.cometric_jet(defn, q.reshape(-1))
        assert np.allclose(direct.ginv, symbolic.ginv, atol=1e-13)
        assert np.allclose(direct.dginv, symbolic.dginv, atol=1e-12)
        assert np.allclose(direct.ddginv, symbolic.ddginv, atol=1e-11)


def test_hamiltonian_and_velocity():
    rng = np.random.default_rng(8)
    metric = LandmarkMetric(SPEC22, 3, 2)
    q = _random_config(rng, 3, 2)
    p = rng.standard_normal((3, 2))
    jet = landmark_cometric_jet(metric, q)
    flat = p.reshape(-1)
    assert hamiltonian(metric, q, p) == pytest.approx(0.5 * flat @ jet.ginv @ flat, rel=1e-14)
    assert np.allclose(velocity(metric, q, p).reshape(-1), jet.ginv @ flat, atol=1e-15)


def test_force_is_momentum_derivative():
    """The induced force term is exactly the pdot of the geodesic equations."""
    rng = np.random.default_rng(10)
    metric = LandmarkMetric(SPEC22, 3, 2)
    q = _random_config(rng, 3, 2)
    p = rng.standard_normal((3, 2))
    _, pdot = geodesic_rhs(metric, q, p)
    assert np.array_equal(force(metric, q, p, p), pdot)


def test_force_and_stress_against_chart_forms():
    """Landmark force/stress carry the induced-space sign: minus the chart values."""
    from cometric.curvature import force as chart_force, stress as chart_stress

    rng = np.random.default_rng(13)
    metric = LandmarkMetric(SPEC22, 2, 2)
    q = _random_config(rng, 2, 2)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    jet = landmark_cometric_jet(metric, q)
    cf = chart_force(jet, a.reshape(-1), b.reshape(-1))
    cd = chart_stress(jet, a.reshape(-1), b.reshape(-1))
    assert np.allclose(force(metric, q, a, b).reshape(-1), -cf, atol=1e-15)
    assert np.allclose(stress(metric, q, a, b).reshape(-1), -cd, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("op", [curvature, force, stress])
def test_non_finite_coforms_refused(op, bad):
    """A NaN or Inf coform is refused before any pair sum, not returned as NaN terms."""
    metric = LandmarkMetric(SPEC22, 2, 2)
    q = np.array([[0.0, 0.0], [1.0, 0.0]])
    good = np.array([[1.0, 0.0], [0.0, 1.0]])
    spoiled = good.copy()
    spoiled[1, 0] = bad
    for a, b in ((spoiled, good), (good, spoiled)):
        with pytest.raises(ConfigurationError, match="coforms must be finite"):
            op(metric, q, a, b)


def test_single_landmark_curvature_is_exactly_zero():
    metric = LandmarkMetric(SPEC22, 1, 2)
    br = curvature(
        metric, np.array([[0.4, -0.7]]), np.array([[1.0, 0.3]]), np.array([[-0.5, 0.8]])
    )
    assert br.r11 == 0.0 and br.r12 == 0.0 and br.r2 == 0.0 and br.r3 == 0.0
    assert br.total == 0.0
    assert br.sectional == 0.0


def test_curvature_matches_chart_route():
    rng = np.random.default_rng(19)
    kernels = {
        1: [KernelSpec("sobolev_bessel", n=1, l=2), KernelSpec("sobolev_bessel", n=1, l=3)],
        2: [SPEC22],
    }
    for p in (2, 3):
        for dim in (1, 2):
            for spec in kernels[dim]:
                metric = LandmarkMetric(spec, p, dim)
                q = _random_config(rng, p, dim)
                a = rng.standard_normal((p, dim))
                b = rng.standard_normal((p, dim))
                own = curvature(metric, q, a, b)
                ref = numerator_coordinate(
                    landmark_cometric_jet(metric, q), a.reshape(-1), b.reshape(-1)
                )
                assert own.total == pytest.approx(ref.total, rel=1e-11, abs=1e-12)
                assert own.r11 == pytest.approx(ref.r11, rel=1e-11, abs=1e-12)
                assert own.r12 == pytest.approx(ref.r12, rel=1e-11, abs=1e-12)
                assert own.r2 == pytest.approx(ref.r2, rel=1e-11, abs=1e-12)
                assert own.r3 == pytest.approx(ref.r3, rel=1e-11, abs=1e-12)


def test_curvature_matches_fd_oracle():
    rng = np.random.default_rng(20)
    metric = LandmarkMetric(SPEC22, 2, 2)
    q = _random_config(rng, 2, 2)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    jet = landmark_cometric_jet(metric, q)
    u = jet.ginv @ a.reshape(-1)
    v = jet.ginv @ b.reshape(-1)
    oracle = sectional_numerator_oracle(
        jet, u, v,
        jet_fn=lambda y: landmark_cometric_jet(metric, y.reshape(2, 2)),
    )
    assert curvature(metric, q, a, b).total == pytest.approx(oracle, rel=1e-7, abs=1e-9)


def test_state_json_round_trip():
    q = [[0.0, 0.0], [1.0, 0.5]]
    p = [[0.1, -0.2], [0.3, 0.4]]
    dim, q2, p2 = state_from_json({"D": 2, "q": q, "p": p})
    assert dim == 2
    assert np.array_equal(q2, q)
    assert np.array_equal(p2, p)


def test_state_json_without_momenta_gives_zero_momenta():
    dim, q, p = state_from_json({"D": 2, "q": [[0.0, 0.0], [1.0, 0.5]]})
    assert dim == 2
    assert np.array_equal(q, [[0.0, 0.0], [1.0, 0.5]])
    assert p.shape == q.shape and np.all(p == 0.0)


def test_state_json_errors():
    with pytest.raises(ConfigurationError):
        state_from_json({"q": [[0, 0]]})
    with pytest.raises(ConfigurationError):
        state_from_json({"D": 2, "q": [[0, 0]], "p": [[0, 0], [1, 1]]})
    with pytest.raises(ConfigurationError):
        state_from_json({"D": 3, "q": [[0, 0]], "p": [[0, 0]]})


# "gaussian": the Bessel kernel near its Gaussian limit (A = a / (4 l), l large,
# tends to a multiple of exp(-|r|^2 / a)), whose profiles take the k >= 2 branch
@pytest.mark.parametrize("spec", [SPEC22, KernelSpec("sobolev_bessel", n=3, l=8, A=0.9 / 32, c=1.2)], ids=["bessel", "gaussian"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_geodesic_rhs_is_each_configuration_alone(spec, dim):
    """A (B, p, D) batch gives, bit for bit, the B unbatched right-hand sides,
    as a (2, 3, ...) batch does: every configuration keeps its own strides."""
    rng = np.random.default_rng(10 + dim)
    metric = LandmarkMetric(spec, 5, dim)
    q = np.array([_random_config(rng, 5, dim) for _ in range(6)])
    mom = rng.standard_normal(q.shape)
    qdot, pdot = geodesic_rhs(metric, q, mom)
    assert qdot.shape == pdot.shape == q.shape
    for b in range(len(q)):
        one_qdot, one_pdot = geodesic_rhs(metric, q[b], mom[b])
        assert np.array_equal(qdot[b], one_qdot) and np.array_equal(pdot[b], one_pdot)
    again = geodesic_rhs(metric, q.reshape(2, 3, 5, dim), mom.reshape(2, 3, 5, dim))
    assert np.array_equal(again[0].reshape(q.shape), qdot) and np.array_equal(again[1].reshape(q.shape), pdot)


def test_batched_geodesic_rhs_needs_momenta_of_the_same_batch():
    metric = LandmarkMetric(SPEC22, 2, 2)
    q = np.array([[[0.0, 0.0], [1.0, 0.0]]] * 3)
    with pytest.raises(ConfigurationError, match=r"^momenta must have shape \(3, 2, 2\), got \(2, 2\)$"):
        geodesic_rhs(metric, q, np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2,)])
def test_positions_of_the_wrong_shape_refused(shape):
    metric = LandmarkMetric(SPEC22, 2, 2)
    with pytest.raises(ConfigurationError, match=r"^landmark positions must have shape \(2, 2\), got "):
        geodesic_rhs(metric, np.ones(shape), np.zeros((2, 2)))
