"""Kernel closed forms, jets, and the Fourier quadrature oracle."""

import math

import numpy as np
import pytest
from scipy.special import jv

from cometric import kernels
from cometric.errors import ConfigurationError, DegenerateConfigurationError
from cometric.kernels import (
    KernelSpec,
    check_distinct,
    gram_matrix,
    kernel_fourier_oracle,
    kernel_grad,
    kernel_hess,
    kernel_value,
    pair_tiles,
    spec_from_json,
    spec_to_json,
)


def test_frozen_values_one_dimensional():
    """Hand-derived reference points for the n=1 closed forms."""
    # n=1, l=1: K(r) = (1/2) exp(-|r|)
    spec = KernelSpec("sobolev_bessel", n=1, l=1)
    assert float(kernel_value(spec, np.array([0.0]))) == pytest.approx(0.5, rel=1e-15)
    assert float(kernel_value(spec, np.array([1.0]))) == pytest.approx(
        0.5 * np.exp(-1.0), rel=1e-15
    )
    # n=1, l=2: K(r) = (1/4)(1+|r|) exp(-|r|); K(1) = e^{-1}/2
    spec2 = KernelSpec("sobolev_bessel", n=1, l=2)
    assert float(kernel_value(spec2, np.array([0.0]))) == pytest.approx(0.25, rel=1e-15)
    assert float(kernel_value(spec2, np.array([1.0]))) == pytest.approx(
        0.18393972058572117, rel=1e-15
    )


def test_bessel_kernel_tends_to_the_gaussian_as_l_grows():
    """With ``A = a / (4 l)`` the symbol ``(1 + A |xi|^2)^(-l)`` tends to
    ``exp(-a |xi|^2 / 4)``, the transform of a multiple of ``exp(-|r|^2 / a)``:
    the normalised profile's largest gap to it falls like ``1/l``."""
    a = 0.9
    r = np.linspace(0.0, 3.0, 31)[:, None] * np.array([1.0, 0.0, 0.0])
    gaps = []
    for l in (8, 16, 32, 64):
        value = kernel_value(KernelSpec("sobolev_bessel", n=3, l=l, A=a / (4 * l)), r)
        gaps.append(np.abs(value / value[0] - np.exp(-(r * r).sum(axis=1) / a)).max())
    assert gaps[-1] < 0.012
    assert all(0.45 < later / earlier < 0.55 for earlier, later in zip(gaps, gaps[1:]))


def test_spec_validation():
    with pytest.raises(ConfigurationError, match=r"^unknown kernel family 'nope' \(know sobolev_bessel\)$"):
        KernelSpec("nope", n=1, l=2)
    with pytest.raises(ConfigurationError):
        KernelSpec("sobolev_bessel", n=2, l=3)  # even n has no closed form here
    with pytest.raises(ConfigurationError):
        KernelSpec("sobolev_bessel", n=3, l=1)  # 2l <= n: not even continuous
    with pytest.raises(ConfigurationError):
        KernelSpec("sobolev_bessel", n=1, l=2, A=-1.0)
    with pytest.raises(ConfigurationError):
        KernelSpec("sobolev_bessel", n=1, l=2, c=0.0)


def test_curvature_grade():
    assert KernelSpec("sobolev_bessel", n=3, l=3).is_curvature_grade
    assert KernelSpec("sobolev_bessel", n=1, l=2).is_curvature_grade
    rough = KernelSpec("sobolev_bessel", n=3, l=2)  # continuous but not C^2
    assert not rough.is_curvature_grade
    with pytest.raises(ConfigurationError):
        rough.require_curvature_grade()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    specs = [
        KernelSpec("sobolev_bessel", n=1, l=3, A=0.7, c=2.0),
        KernelSpec("sobolev_bessel", n=3, l=3, A=1.3),
        KernelSpec("sobolev_bessel", n=3, l=4, A=0.5),
        KernelSpec("sobolev_bessel", n=5, l=5, A=1.1, c=0.7),
    ]
    h = 1e-6
    for spec in specs:
        for _ in range(25):
            r = rng.uniform(-1.5, 1.5, size=spec.n)
            if np.linalg.norm(r) < 0.05:
                continue
            grad = kernel_grad(spec, r)
            for i in range(spec.n):
                rp = r.copy(); rp[i] += h
                rm = r.copy(); rm[i] -= h
                fd = (kernel_value(spec, rp) - kernel_value(spec, rm)) / (2 * h)
                assert grad[i] == pytest.approx(float(fd), rel=5e-8, abs=5e-10)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(4)
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.9)
    h = 1e-5
    for _ in range(10):
        r = rng.uniform(-1.2, 1.2, size=3)
        if np.linalg.norm(r) < 0.1:
            continue
        hess = kernel_hess(spec, r)
        assert np.allclose(hess, hess.T, atol=1e-15)
        for i in range(3):
            rp = r.copy(); rp[i] += h
            rm = r.copy(); rm[i] -= h
            fd = (kernel_grad(spec, rp) - kernel_grad(spec, rm)) / (2 * h)
            assert np.allclose(hess[:, i], fd, rtol=2e-6, atol=2e-8)


def test_jets_at_origin():
    """The radial kink cancels at 0: gradient 0, Hessian a finite multiple of I."""
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.8, c=1.5)
    grad = kernel_grad(spec, np.zeros(3))
    hess = kernel_hess(spec, np.zeros(3))
    assert np.all(grad == 0.0)
    assert np.isfinite(hess).all()
    # isotropic: H(0) = h * I with h < 0 (the kernel peaks at 0)
    diag = np.diag(hess)
    assert np.allclose(hess, diag[0] * np.eye(3), atol=1e-18)
    assert diag[0] < 0


def test_pair_block_orders():
    spec = KernelSpec("sobolev_bessel", n=1, l=2)
    pts = np.array([[0.0], [0.4]])
    (b0,) = pair_tiles(spec, pts, 0, "points")
    assert b0.g is None and b0.h is None
    (b1,) = pair_tiles(spec, pts, 1, "points")
    assert b1.g is not None and b1.h is None
    assert np.array_equal(b1.value, b0.value)


@pytest.mark.parametrize("spec", [
    KernelSpec("sobolev_bessel", n=3, l=3, A=0.7, c=1.3),   # Matern 3/2: h = e^{-t}/t term
    KernelSpec("sobolev_bessel", n=3, l=4, A=1.1),          # Matern 5/2
    KernelSpec("sobolev_bessel", n=1, l=3, A=0.5, c=2.0),   # Matern 5/2 in R^1
    KernelSpec("sobolev_bessel", n=3, l=8, A=0.05, c=0.6),  # Matern 13/2: P_6
])
def test_pair_block_matches_pointwise_kernels(spec):
    """Every entry of the block, the diagonal (t = 0) included, equals the
    pointwise value, gradient and Hessian at the same displacement."""
    rng = np.random.default_rng(31)
    dim = min(spec.n, 2)
    pts = rng.uniform(-1.5, 1.5, size=(6, dim))
    (blk,) = pair_tiles(spec, pts, 2, "points")
    diff = pts[:, None, :] - pts[None, :, :]
    assert blk.diff.shape == diff.shape
    assert np.array_equal(blk.diff, diff)
    assert np.allclose(blk.value, kernel_value(spec, diff), rtol=1e-14, atol=0.0)
    assert np.allclose(blk.g[..., None] * blk.diff, kernel_grad(spec, diff), rtol=1e-14, atol=1e-300)
    assert np.allclose(blk.hessian(), kernel_hess(spec, diff), rtol=1e-14, atol=1e-300)
    assert np.all(np.diag(blk.h) == 0.0)
    contracted = blk.contract(blk.g)
    assert np.allclose(contracted, np.einsum("st,stm->sm", blk.g, diff), rtol=1e-13, atol=1e-15)


def test_pair_block_radial_term_of_matern_three_halves():
    """For nu = 3/2 the r r^T coefficient is c' e^{-t}/t, t = |r|/sqrt(A)."""
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.7, c=1.3)
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.4, 0.0]])
    (blk,) = pair_tiles(spec, pts, 2, "points")
    t = 0.5 / np.sqrt(spec.A)
    cst = spec.c * spec.A**-1.5 * np.sqrt(np.pi / 2) / ((2 * np.pi) ** 1.5 * 4 * 2)
    assert blk.h[0, 1] == pytest.approx(cst / spec.A**2 * np.exp(-t) / t, rel=1e-14)
    assert blk.h[0, 0] == 0.0


def test_pair_block_refuses_coincident_rows_like_check_distinct():
    spec = KernelSpec("sobolev_bessel", n=3, l=3)
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-14]])
    with pytest.raises(DegenerateConfigurationError) as own:
        pair_tiles(spec, bad, 1, "landmarks")
    with pytest.raises(DegenerateConfigurationError) as ref:
        check_distinct(bad, what="landmarks")
    assert str(own.value) == str(ref.value)


def test_fourier_oracle_matches_closed_form():
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=1.0, c=1.0)
    for r in (0.0, 0.3, 1.0, 2.5):
        closed = float(kernel_value(spec, np.array([r, 0.0, 0.0])))
        quad = kernel_fourier_oracle(spec, r)
        assert closed == pytest.approx(quad, abs=1e-8)


def _jv_oracle(spec, r, quad_points=100_000):
    """The oracle's earlier body, general-order ``jv`` integrand, same nodes."""
    rho = float(np.linalg.norm(np.asarray(r, dtype=float)))
    n, l, A, c = spec.n, spec.l, spec.A, spec.c

    if rho < 1e-12:
        pref = c * (2 * math.pi) ** (-n) * (2 * math.pi ** (n / 2) / math.gamma(n / 2))
        expo = 2 * l - n
        s_max = (pref * A ** (-l) / (expo * 1e-10)) ** (1.0 / expo)
        s_max = max(s_max, 50.0 / math.sqrt(A))

        def integrand(s):
            return pref * s ** (n - 1) * (1.0 + A * s * s) ** (-l)

    else:
        mu = n / 2 - 1
        pref = c * (2 * math.pi) ** (-n / 2) * rho ** (1 - n / 2)
        if mu >= 0:
            expo = 2 * l - n / 2 - 1
            s_max = (pref * A ** (-l) / (expo * 1e-10)) ** (1.0 / expo)
        else:
            expo = 2 * l - n / 2 - 0.5
            amp = pref * math.sqrt(2 / (math.pi * rho))
            s_max = (amp * A ** (-l) / (expo * 1e-10)) ** (1.0 / expo)
        s_max = max(s_max, 50.0 / math.sqrt(A))

        def integrand(s):
            return pref * s ** (n / 2) * (1.0 + A * s * s) ** (-l) * jv(mu, rho * s)

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
    panels = max(4, quad_points // 16)
    edges = np.linspace(0.0, s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * gl_nodes[None, :]
    weights = half[:, None] * gl_weights[None, :]
    return float(np.sum(integrand(nodes.ravel()) * weights.ravel()))


@pytest.mark.parametrize("n,l,A,c", [(1, 2, 1.0, 1.0), (3, 3, 0.8, 1.0), (5, 4, 1.3, 0.7)])
def test_fourier_oracle_matches_general_order_bessel_reference(n, l, A, c):
    """The elementary half-integer Bessel functions (cos for n = 1, z j_k(z)
    for n = 3, 5) give the general-order integrand's sums on the same nodes."""
    spec = KernelSpec("sobolev_bessel", n=n, l=l, A=A, c=c)
    for rho in (0.0, 0.05, 0.3, 1.0, 2.5, 4.0):
        want = _jv_oracle(spec, rho)
        assert abs(kernel_fourier_oracle(spec, rho) - want) <= 1e-13 * (1.0 + abs(want))


def test_fourier_oracle_rejects_tiny_grids():
    with pytest.raises(ConfigurationError):
        kernel_fourier_oracle(KernelSpec("sobolev_bessel", n=1, l=2), 1.0, quad_points=10)


def test_check_distinct():
    good = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    check_distinct(good)
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-14]])
    with pytest.raises(DegenerateConfigurationError):
        check_distinct(bad)
    spec = KernelSpec("sobolev_bessel", n=3, l=3)
    for value in (np.nan, np.inf):
        for points in (good[:1].copy(), good.copy()):
            points[-1, 1] = value
            with pytest.raises(ConfigurationError, match="landmarks contain non-finite coordinates"):
                check_distinct(points, what="landmarks")
            with pytest.raises(ConfigurationError, match="points contain non-finite coordinates"):
                gram_matrix(spec, points)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", [1, 3])
def test_distinct_pairs_refuses_non_finite_coordinates(value, rows):
    """A NaN or an infinity, in a single row or among several, is refused as
    non-finite, with no numpy warning on the way (warnings fail this suite)."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[:rows]
    points[-1, 0] = value
    with pytest.raises(ConfigurationError, match="^landmarks contain non-finite coordinates$"):
        check_distinct(points, what="landmarks")


def test_distinct_pairs_refuses_an_overflowing_distance_as_overflow():
    """Finite rows whose distance overflows when squared are refused as such,
    not as the coincidence the infinite diameter would otherwise suggest."""
    with pytest.raises(ConfigurationError, match="^landmarks are too far apart: a pair distance overflows") as info:
        check_distinct(np.array([[0.0, 0.0], [1e200, 0.0]]), what="landmarks")
    assert not isinstance(info.value, DegenerateConfigurationError)


def test_distinct_pairs_names_the_closest_coincident_pair():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1e-14]])
    with pytest.raises(DegenerateConfigurationError) as info:
        check_distinct(points, what="landmarks")
    assert str(info.value) == "coincident landmarks 1 and 3 (separation 1.000e-14)"


PAIR_SPEC = KernelSpec("sobolev_bessel", n=3, l=3, A=0.7)


@pytest.mark.parametrize("p,d", [(1, 2), (2, 2), (3, 2), (5, 3)])
def test_distinct_pairs_layout(p, d):
    """The one tile's differences are a (p, p, D) view of C-ordered
    component-major storage, the strides that ``PairBlock.contract``'s
    ``matmul`` was pinned to; its values are the pointwise kernel's at those
    differences, bit for bit, ``K(0)`` on the diagonal."""
    points = np.random.default_rng(p).standard_normal((p, d))
    (blk,) = pair_tiles(PAIR_SPEC, points, 0, "points")
    assert blk.rows == slice(None)
    assert blk.diff.shape == (p, p, d) and blk.diff.strides == (8 * p, 8, 8 * p * p)
    assert blk.diff.transpose(2, 0, 1).flags.c_contiguous
    assert np.array_equal(blk.diff, points[:, None, :] - points[None, :, :])
    assert np.array_equal(blk.value, kernel_value(PAIR_SPEC, blk.diff))
    assert np.array_equal(np.diag(blk.value), np.full(p, kernel_value(PAIR_SPEC, np.zeros(d))))


def test_batched_distinct_pairs_is_each_member_alone():
    """A batch keeps each member's differences, values and strides."""
    points = np.random.default_rng(3).standard_normal((4, 5, 3))
    (blk,) = pair_tiles(PAIR_SPEC, points, 0, "points")
    assert blk.diff.shape == (4, 5, 5, 3) and blk.diff.transpose(0, 3, 1, 2).flags.c_contiguous
    for member, d, v in zip(points, blk.diff, blk.value):
        (one,) = pair_tiles(PAIR_SPEC, member, 0, "points")
        assert np.array_equal(d, one.diff) and d.strides == one.diff.strides
        assert np.array_equal(v, one.value)


def test_batched_distinct_pairs_refuses_a_member_with_its_own_message():
    """A collision in one member raises exactly that member's unbatched error,
    tested against its own diameter: a pair that is coincident only at the
    tolerance of a wider member passes, and its tile, searched for it, keeps
    a zero diagonal (``h = 0``, ``K(0)``) in every member."""
    rng = np.random.default_rng(4)
    points = rng.standard_normal((3, 4, 2))
    points[2, 3] = points[2, 1] + 1e-13
    with pytest.raises(DegenerateConfigurationError) as want:
        check_distinct(points[2], what="landmarks")
    with pytest.raises(DegenerateConfigurationError) as got:
        check_distinct(points, what="landmarks")
    assert str(got.value) == str(want.value) == "coincident landmarks 1 and 3 (separation 1.414e-13)"
    close = np.array([[[0.0, 0.0], [1e-9, 0.0]], [[0.0, 0.0], [1e3, 0.0]]])
    check_distinct(close, what="landmarks")
    (blk,) = pair_tiles(PAIR_SPEC, close, 2, "landmarks")
    assert np.all(blk.h[:, [0, 1], [0, 1]] == 0.0)
    assert np.all(blk.value[:, [0, 1], [0, 1]] == kernel_value(PAIR_SPEC, np.zeros(2)))
    with pytest.raises(DegenerateConfigurationError):
        check_distinct(np.array([[0.0, 0.0], [1e-9, 0.0], [1e3, 0.0]]), what="landmarks")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_batched_distinct_pairs_refuses_a_non_finite_member(value):
    points = np.random.default_rng(5).standard_normal((3, 4, 2))
    points[1, 2, 0] = value
    with pytest.raises(ConfigurationError, match="^landmarks contain non-finite coordinates$"):
        check_distinct(points, what="landmarks")


@pytest.mark.parametrize("fn", [kernel_value, kernel_grad, kernel_hess])
def test_kernel_functions_refuse_overflowing_displacements(fn):
    """A displacement whose squared norm overflows is refused in the pair
    block's words, with no numpy warning; so is a non-finite one."""
    spec = KernelSpec("sobolev_bessel", n=3, l=3)
    with pytest.raises(ConfigurationError, match=r"^displacements are too long: a squared norm overflows "
                                                 r"the float range \(largest coordinate 1.000e\+200\)$"):
        fn(spec, np.array([[1.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))
    with pytest.raises(ConfigurationError, match="^displacements contain non-finite coordinates$"):
        fn(spec, np.array([np.nan, 0.0, 0.0]))


def test_bessel_profile_is_computed_once_per_spec():
    spec = KernelSpec("sobolev_bessel", n=3, l=4, A=0.7, c=1.3)
    const, k, sqrt_a = spec._bessel_profile
    assert (const, k, sqrt_a) == (kernels._bessel_const(spec), kernels._bessel_order_k(spec), math.sqrt(0.7))
    assert spec._bessel_profile is spec._bessel_profile
    assert spec == KernelSpec("sobolev_bessel", n=3, l=4, A=0.7, c=1.3)


def test_gram_matrix_is_spd():
    rng = np.random.default_rng(9)
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.6)
    for _ in range(10):
        pts = rng.uniform(-1, 1, size=(5, 3))
        pts[:, 0] += np.arange(5)  # keep them apart
        gram = gram_matrix(spec, pts)
        assert np.allclose(gram, gram.T, atol=1e-16)
        assert np.linalg.eigvalsh(gram)[0] > 0


def test_gram_matrix_takes_one_configuration():
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.6)
    with pytest.raises(ConfigurationError, match=r"^points must be a \(p, d\) array, got shape \(2, 3, 2\)$"):
        gram_matrix(spec, np.zeros((2, 3, 2)))


def test_spec_json_round_trip():
    spec = KernelSpec("sobolev_bessel", n=3, l=4, A=0.25, c=2.5)
    again = spec_from_json(spec_to_json(spec))
    assert again == spec
    assert spec_to_json(spec) == {"family": "sobolev_bessel", "n": 3, "l": 4, "A": 0.25, "c": 2.5}
    matern32 = KernelSpec("sobolev_bessel", n=3, l=3, A=1.5)
    assert spec_from_json(spec_to_json(matern32)) == matern32
    with pytest.raises(ConfigurationError):
        spec_from_json({"family": "sobolev_bessel"})
    with pytest.raises(ConfigurationError):
        spec_from_json({"family": "sobolev_bessel", "n": 1, "l": 2, "width": 3})
