"""Chart cometrics: symbolic jets, catalog entries, JSON round trip."""

import numpy as np
import pytest

from cometric import charts, dsl
from cometric.errors import ConfigurationError, MetricDegeneracyError
from cometric.jets import assemble_jet
from cometric.kernels import KernelSpec


def test_euclidean_jet():
    defn = charts.euclidean(3)
    jet = charts.cometric_jet(defn, np.array([0.3, -0.7, 2.0]))
    assert np.array_equal(jet.ginv, np.eye(3))
    assert np.all(jet.dginv == 0.0)
    assert np.all(jet.ddginv == 0.0)
    assert np.array_equal(jet.gcov, np.eye(3))


def test_sphere_cometric_value():
    """Stereographic chart of the unit sphere: g^{ij} = ((1+|x|^2)^2/4) δ."""
    defn = charts.sphere_stereographic(2, radius=1.0)
    x = np.array([0.4, -0.2])
    jet = charts.cometric_jet(defn, x)
    factor = (1.0 + x @ x) ** 2 / 4.0
    assert np.allclose(jet.ginv, factor * np.eye(2), rtol=1e-15)


def test_hyperbolic_cometric_value():
    defn = charts.hyperbolic_half_plane()
    jet = charts.cometric_jet(defn, np.array([1.3, 0.5]))
    assert np.allclose(jet.ginv, 0.25 * np.eye(2), rtol=1e-15)


def test_symbolic_jets_match_finite_differences():
    """First and second jet entries against central differences of g^{ij}(x)."""
    rng = np.random.default_rng(2)
    defs = [
        charts.sphere_stereographic(2),
        charts.hyperbolic_half_plane(),
        charts.sphere_stereographic(3, radius=0.8),
    ]
    h = 1e-5
    for defn in defs:
        d = defn.dim
        for _ in range(5):
            x = rng.uniform(0.2, 0.8, size=d)  # stays in the half-plane too
            jet = charts.cometric_jet(defn, x)

            def ginv_at(y):
                return charts.cometric_jet(defn, y).ginv

            for s in range(d):
                xp = x.copy(); xp[s] += h
                xm = x.copy(); xm[s] -= h
                fd1 = (ginv_at(xp) - ginv_at(xm)) / (2 * h)
                assert np.allclose(jet.dginv[s], fd1, rtol=1e-7, atol=1e-9)
                fd2 = (ginv_at(xp) - 2 * jet.ginv + ginv_at(xm)) / h**2
                assert np.allclose(jet.ddginv[s, s], fd2, rtol=1e-4, atol=1e-5)


def test_jet_symmetries():
    defn = charts.sphere_stereographic(3)
    jet = charts.cometric_jet(defn, np.array([0.1, 0.4, -0.3]))
    assert np.allclose(jet.dginv, np.swapaxes(jet.dginv, 1, 2), atol=1e-17)
    assert np.allclose(jet.ddginv, np.swapaxes(jet.ddginv, 0, 1), atol=1e-17)
    assert np.allclose(jet.ddginv, np.swapaxes(jet.ddginv, 2, 3), atol=1e-17)
    # inverse really inverts
    assert np.allclose(jet.ginv @ jet.gcov, np.eye(3), atol=1e-13)


def test_jet_arrays_are_read_only():
    jet = charts.cometric_jet(charts.euclidean(2), np.zeros(2))
    with pytest.raises(ValueError):
        jet.ginv[0, 0] = 2.0


def test_degenerate_cometric_rejected():
    defn = charts.CometricDef(2, {
        (1, 1): dsl.parse("x1"),   # not positive at x1 <= 0
        (2, 2): dsl.parse("1"),
        (1, 2): dsl.parse("0"),
    })
    with pytest.raises(MetricDegeneracyError):
        charts.cometric_jet(defn, np.array([-1.0, 0.0]))


def test_assemble_jet_validation():
    x = np.zeros(2)
    good = np.eye(2)
    zeros3 = np.zeros((2, 2, 2))
    zeros4 = np.zeros((2, 2, 2, 2))
    assemble_jet(x, good, zeros3, zeros4)
    with pytest.raises(MetricDegeneracyError):
        assemble_jet(x, np.array([[1.0, 0.2], [0.1, 1.0]]), zeros3, zeros4)  # asymmetric
    with pytest.raises(MetricDegeneracyError):
        assemble_jet(x, -np.eye(2), zeros3, zeros4)
    with pytest.raises(MetricDegeneracyError):
        assemble_jet(x, np.eye(3), zeros3, zeros4)  # shape mismatch


def test_cometric_json_round_trip():
    defn = charts.sphere_stereographic(2)
    obj = charts.cometric_to_json(defn)
    again = charts.cometric_from_json(obj)
    x = np.array([0.25, -0.4])
    assert np.allclose(
        charts.cometric_jet(defn, x).ginv, charts.cometric_jet(again, x).ginv, rtol=1e-16
    )


def test_cometric_from_json_mirrors_lower_triangle():
    obj = {"dim": 2, "entries": {"1,1": "1", "2,2": "1 + x1 * x1", "2,1": "x2"}}
    defn = charts.cometric_from_json(obj)
    jet_entries = {k: dsl.to_string(v) for k, v in defn.entries.items()}
    assert jet_entries[(1, 2)] == "x2"


def test_cometric_from_json_errors():
    with pytest.raises(ConfigurationError):
        charts.cometric_from_json({"dim": 2, "entries": {"1,1": "1"}})  # missing diagonal
    with pytest.raises(ConfigurationError):
        charts.cometric_from_json({
            "dim": 2,
            "entries": {"1,1": "1", "2,2": "1", "1,2": "x1", "2,1": "x2"},
        })  # conflicting mirror pair
    with pytest.raises(ConfigurationError):
        charts.cometric_from_json({"dim": 2, "entries": {"1,1": "1", "2,2": "1", "5,1": "0"}})


def test_catalog_names():
    assert charts.catalog_cometric("euclidean:4").dim == 4
    assert charts.catalog_cometric("hyperbolic").dim == 2
    sphere = charts.catalog_cometric("sphere:2.0")
    jet = charts.cometric_jet(sphere, np.zeros(2))
    # at the chart origin g^{ij} = (R^2/ (4 R^4)) ... = δ/(4R^2) inverted scale
    assert np.allclose(jet.ginv, np.eye(2) * (2.0**2 + 0.0) ** 2 / (4 * 2.0**4))
    with pytest.raises(ConfigurationError):
        charts.catalog_cometric("torus")


def test_landmark_cometric_def_matches_direct_kernel():
    """The symbolic landmark chart evaluates to the same Gram blocks, and its
    full 2-jet matches the direct kernel-jet assembly."""
    from cometric.kernels import kernel_value
    from cometric.landmark import LandmarkMetric, landmark_cometric_jet

    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.7, c=1.2)
    defn = charts.landmark_cometric_def(spec, p=2, D=2)
    q = np.array([[0.1, -0.3], [0.9, 0.4]])
    jet = charts.cometric_jet(defn, q.reshape(-1))
    k01 = float(kernel_value(spec, q[0] - q[1]))
    k00 = float(kernel_value(spec, np.zeros(2)))
    want = np.zeros((4, 4))
    want[:2, :2] = k00 * np.eye(2)
    want[2:, 2:] = k00 * np.eye(2)
    want[:2, 2:] = k01 * np.eye(2)
    want[2:, :2] = k01 * np.eye(2)
    assert np.allclose(jet.ginv, want, rtol=1e-12, atol=1e-15)

    rng = np.random.default_rng(8)
    for spec in (spec, KernelSpec("sobolev_bessel", n=3, l=4, A=1.3, c=0.7), KernelSpec("gaussian", n=3, A=0.9, c=1.2)):
        for p, D in ((2, 1), (2, 2), (3, 1), (3, 2)):
            q = rng.uniform(-0.5, 0.5, size=(p, D))
            q[:, 0] += 0.8 * np.arange(p)
            symbolic = charts.cometric_jet(charts.landmark_cometric_def(spec, p, D), q.reshape(-1))
            direct = landmark_cometric_jet(LandmarkMetric(spec, p, D), q)
            for name in ("ginv", "dginv", "ddginv"):
                want = getattr(direct, name)
                assert np.abs(getattr(symbolic, name) - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
