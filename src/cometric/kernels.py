"""Radial reproducing kernels and their jets.

One family, ``sobolev_bessel``: the kernel of the Sobolev operator
``L = (1 - A Delta)^l``, whose Fourier transform is ``(1 + A |xi|^2)^(-l)`` on
R^n.  For odd ``n`` (half-integer Matern order ``nu = l - n/2``) it has the
closed form

    K(r) = c * A^(-n/2) / ((2 pi)^(n/2) 2^(l-1) (l-1)!) * E_nu(|r|/sqrt(A))

with ``E_nu(t) = t^nu K_nu(t)`` (modified Bessel of the second kind), which
for half-integer ``nu = k + 1/2`` collapses to ``sqrt(pi/2) e^(-t) P_k(t)``
with the polynomial ``P_k(t) = sum_j (k+j)! / (j! (k-j)! 2^j) t^(k-j)``.
Even ``n`` would need integer-order Bessel functions and is rejected.

Gradients and Hessians use the recurrence ``d/dt E_nu = -t E_(nu-1)``, which is
free of cancellation; nothing here evaluates a Bessel function numerically.
Everything here is numpy: :func:`gram_solve` factors, estimates and solves in blocks;
the quadrature oracle's Bessel functions, of half-integer order, are elementary.

Smoothness grades: a spec is *value-grade* when ``2l > n`` (continuous kernel)
and *curvature-grade* when ``2l > n + 2`` (C^2 kernel, i.e. Matern order
``nu >= 3/2``).  Jets of order >= 1, and every differential operation built on
top of them, demand curvature grade.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, ConfigurationError, DegenerateConfigurationError
from .jets import require_dense
from .jsonio import integer, number

BESSEL_FAMILY = "sobolev_bessel"


@dataclass(frozen=True)
class KernelSpec:
    """Validated kernel parameters.

    ``family`` is :data:`BESSEL_FAMILY`, ``n`` the ambient dimension the
    kernel's symbol lives in, ``l`` the symbol exponent, ``A`` the squared
    length scale and ``c`` a positive amplitude.
    """

    family: str
    n: int
    l: int
    A: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.family != BESSEL_FAMILY:
            raise ConfigurationError(f"unknown kernel family {self.family!r} (know {BESSEL_FAMILY})")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"kernel dimension n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.A, (int, float)) and math.isfinite(self.A) and self.A > 0):
            raise ConfigurationError(f"kernel scale A must be positive and finite, got {self.A!r}")
        if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0):
            raise ConfigurationError(f"kernel amplitude c must be positive and finite, got {self.c!r}")
        if not isinstance(self.l, int) or self.l < 1:
            raise ConfigurationError(f"Bessel kernel needs an integer exponent l >= 1, got {self.l!r}")
        if self.n % 2 == 0:
            raise ConfigurationError(
                f"Bessel kernel closed form needs odd n (half-integer Matern order); got n={self.n}"
            )
        if 2 * self.l <= self.n:
            raise ConfigurationError(
                f"Bessel kernel with 2l <= n is not continuous (n={self.n}, l={self.l})"
            )
        try:
            cst = self._bessel_profile[0]
            in_range = all(0.0 < f < math.inf for f in (cst, cst / self.A, cst / self.A**2))
        except ArithmeticError:  # Python floats raise where numpy gives inf: overflow, or A^2 underflowing to 0
            in_range = False
        if not in_range:
            raise ConfigurationError(f"kernel (n={self.n}, l={self.l}, A={self.A:g}, c={self.c:g}) is out of range: "
                                     "its closed-form factors const, const/A and const/A^2 must be positive finite floats")

    @functools.cached_property
    def is_curvature_grade(self) -> bool:
        """True when second-order jets exist everywhere (C^2 kernel)."""
        return 2 * self.l > self.n + 2

    def require_curvature_grade(self) -> None:
        if not self.is_curvature_grade:
            raise ConfigurationError(
                f"kernel (n={self.n}, l={self.l}) is not C^2; differential operations need 2l > n+2"
            )

    def require_ambient(self, d: int) -> None:
        """Refuse points of ``R^d`` wider than the kernel's ``R^n``: restricting a
        positive-definite radial profile to a subspace keeps it positive
        definite, extending it does not."""
        if d > self.n:
            raise ConfigurationError(f"ambient dimension D={d} exceeds the kernel dimension n={self.n}")

    @functools.cached_property
    def _bessel_profile(self) -> tuple[float, int, float]:
        """``(const, k, sqrt(A))`` of the Bessel closed form, computed once per
        spec rather than once per pair block."""
        return _bessel_const(self), _bessel_order_k(self), math.sqrt(self.A)


@functools.cache
def _bessel_poly(k: int) -> tuple[float, ...]:
    """Coefficients (decreasing powers) of P_k(t) = sum_j (k+j)!/(j!(k-j)!2^j) t^(k-j)."""
    return tuple(
        math.factorial(k + j) / (math.factorial(j) * math.factorial(k - j) * 2.0**j) for j in range(k + 1)
    )


def _bessel_order_k(spec: KernelSpec) -> int:
    """The integer k with Matern order nu = k + 1/2."""
    return spec.l - (spec.n + 1) // 2


def _bessel_const(spec: KernelSpec) -> float:
    """Overall factor c * A^(-n/2) * sqrt(pi/2) / ((2 pi)^(n/2) 2^(l-1) (l-1)!)."""
    return (
        spec.c
        * spec.A ** (-spec.n / 2)
        * math.sqrt(math.pi / 2)
        / ((2 * math.pi) ** (spec.n / 2) * 2 ** (spec.l - 1) * math.factorial(spec.l - 1))
    )


def _scaled_poly(c: float, e: np.ndarray, k: int, t: np.ndarray) -> np.ndarray:
    """``c * (e * P_k(t))``, built in place on the fresh array of ``P_k(t)``:
    products commute, so these are its bits with two temporaries fewer.
    ``P_0 = 1`` exactly, so for ``k = 0`` it is ``c * e``."""
    if k == 0:
        return c * e
    acc = _poly(k, t)
    acc *= e
    acc *= c
    return acc


def _poly(k: int, t: np.ndarray) -> np.ndarray:
    """P_k(t), k >= 1, by Horner's rule in place on one fresh array.  The
    leading coefficient is exactly 1, so the first step is ``t + c_1``: the
    bits of ``1 * t + c_1``, one array pass fewer."""
    coeffs = _bessel_poly(k)
    acc = t + coeffs[1]
    for cf in coeffs[2:]:
        acc *= t
        acc += cf
    return acc


def _radial_profiles(
    spec: KernelSpec, rho: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``(value, g, h)`` at distances ``rho``, from one exp pass: ``grad K(r) = g r``
    and ``Hess K(r) = g I + h r r^T``; profiles above ``order`` are None.

    ``h`` is 0 where ``r = 0``: its ``r r^T`` factor vanishes there, while for
    ``nu = 3/2`` the profile ``E_(nu-2)`` itself diverges.
    """
    if order >= 1:
        spec.require_curvature_grade()
    cst, k, sqrt_a = spec._bessel_profile
    t = rho / sqrt_a
    e = np.exp(-t)
    value = _scaled_poly(cst, e, k, t)
    g = _scaled_poly(-cst / spec.A, e, k - 1, t) if order >= 1 else None
    if order < 2:
        return value, g, None
    tt = np.where(rho == 0.0, 1.0, t)
    if k == 1:
        radial = e / tt
        radial *= cst / spec.A**2
    else:
        radial = _scaled_poly(cst / spec.A**2, e, k - 2, tt)
    return value, g, np.where(rho == 0.0, 0.0, radial)


def _hessian(g: np.ndarray, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``g I + h r r^T`` for displacements ``r`` of shape (..., d)."""
    return g[..., None, None] * np.eye(r.shape[-1]) + h[..., None, None] * np.einsum("...i,...j->...ij", r, r)


def _norms(r: np.ndarray) -> np.ndarray:
    """``|r|`` of displacements ``r`` (..., d), refused like a pair block's
    distances when a coordinate is not finite or a squared norm overflows."""
    with np.errstate(over="ignore"):
        sq = _pair_dot(r, r)
    if not math.isfinite(float(sq.max(initial=0.0))):
        _refuse_infinite(r, "displacements", "are too long: a squared norm")
    return np.sqrt(sq)


def _refuse_infinite(pts: np.ndarray, what: str, overflow: str) -> None:
    """Raise for ``pts`` whose distances came out non-finite: as non-finite
    coordinates if any is, or else as the overflow that ``overflow`` names."""
    if not np.isfinite(pts).all():
        raise ConfigurationError(f"{what} contain non-finite coordinates")
    raise ConfigurationError(f"{what} {overflow} overflows the float range "
                             f"(largest coordinate {float(np.abs(pts).max()):.3e})")


def kernel_value(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """K(r) for displacements ``r`` of shape (..., d).  Returns shape (...)."""
    r = np.asarray(r, dtype=float)
    return _radial_profiles(spec, _norms(r), 0)[0]


def kernel_grad(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """grad K at displacements ``r`` of shape (..., d).  Returns shape (..., d)."""
    r = np.asarray(r, dtype=float)
    return _radial_profiles(spec, _norms(r), 1)[1][..., None] * r


def kernel_hess(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Hessian of K at displacements ``r`` of shape (..., d).  Returns (..., d, d)."""
    r = np.asarray(r, dtype=float)
    _, g, h = _radial_profiles(spec, _norms(r), 2)
    return _hessian(g, h, r)


def _pair_differences(x: np.ndarray, rows: slice) -> np.ndarray:
    """``x_s - x_t`` for the rows ``s`` in the slice ``rows`` and the rows
    ``t`` from its first on, ``rows.start:``, of each configuration in ``x``
    (..., p, D), as a (..., rows, cols, D) view of component-major storage:
    each component is one contiguous (rows, cols) array, so pair loops run in
    long strides rather than strides of D.  The storage (..., D, rows, cols)
    is C-ordered by request, not left to numpy: ``PairBlock.contract``'s
    ``matmul`` picks its summation path from these strides, the same for
    every configuration of a batch as for one alone."""
    xt = x.mT
    out = np.subtract(xt[..., rows, None], xt[..., None, rows.start:], order="C")
    return out.transpose(_component_last(x.ndim))


@functools.cache
def _component_last(ndim: int) -> tuple[int, ...]:
    """``transpose`` axes taking (..., D, rows, p) storage of configurations
    with ``ndim`` axes to its (..., rows, p, D) view."""
    return (*range(ndim - 2), ndim - 1, ndim, ndim - 2)


def _pair_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[..., :] . b[..., :]``, one component at a time (pair arrays are
    component-major); a square (``b is a``) takes each component once."""
    x = a[..., 0]
    out = x * (x if b is a else b[..., 0])
    for m in range(1, a.shape[-1]):
        x = a[..., m]
        out += x * (x if b is a else b[..., m])
    return out


class PairBlock(NamedTuple):
    """Kernel data of the ordered pairs ``(s, t)`` of a configuration, or of
    each configuration of a batch (leading axes ``...``), for the rows ``s``
    in the slice ``rows`` and the columns ``t`` from the first of them on,
    ``rows.start:``: one upper row tile, or the whole block (``rows`` is then
    ``slice(None)``).  No tile holds the transpose of a pair past the tile's
    own square of columns, so reductions add that pair's :meth:`column` side.

    ``diff[..., i, j, :] = x_s - x_t`` for the ``i``-th row ``s`` and ``j``-th
    column ``t`` (..., rows, cols, D); ``value``, ``g`` and ``h`` are
    (..., rows, cols): ``K = value``, ``grad K = g diff`` and ``Hess K = g I
    + h diff diff^T`` there (None above the block's order).  A named tuple
    costs a third of a frozen dataclass to build."""

    rows: slice
    diff: np.ndarray
    value: np.ndarray
    g: np.ndarray | None
    h: np.ndarray | None

    def contract(self, coef: np.ndarray) -> np.ndarray:
        """``sum_t coef[..., s, t] diff[..., s, t, :]``, shape (..., rows, D)."""
        return np.matmul(coef[..., None, :], self.diff)[..., 0, :]

    def column(self, coef: np.ndarray, field: np.ndarray | None, w: np.ndarray | None) -> np.ndarray:
        """The column side of a row tile's reduction whose row side is ``coef @ field[rows.start:]``
        (:meth:`contract` for no field), (..., p - rows.stop, D): for each ``t`` past the square, the
        sum over the rows ``s`` of ``coef[..., s, t]`` times ``field_s``, or ``x_t - x_s`` (the diff
        flips sign).  A ``coef`` that carries the weight ``w_t`` takes ``w_s`` instead."""
        rows, n = self.rows, coef.shape[-2]
        if field is None:
            c = coef[..., n:] if w is None else coef[..., n:] * w[rows, None]
            out = -np.einsum("...st,...stm->...tm", c, self.diff[..., n:, :])
        else:
            out = coef[..., n:].mT @ (field[..., rows, :] if w is None else w[rows, None] * field[rows])
        return out if w is None else out / w[rows.stop:, None]

    def fold(self, out: np.ndarray | None, row: np.ndarray, coef: np.ndarray, field: np.ndarray | None,
             w: np.ndarray | None) -> np.ndarray:
        """``out``, a pass's (..., p, D) rows so far (None at first), plus this tile's ``row`` and
        :meth:`column` sides, so a pass holds one sum per output; the whole block's ``row`` as it is."""
        rows = self.rows
        if rows.stop is None:
            return row
        out = np.zeros((*row.shape[:-2], self.value.shape[-1], row.shape[-1])) if out is None else out
        out[..., rows, :] += row
        out[..., rows.stop:, :] += self.column(coef, field, w)
        return out

    def total(self, dots: np.ndarray, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
        """``sum_st dots[s, t] x[s, t]`` over one configuration's tile for ``dots[s, t] = a_s . b_t``
        and a symmetric ``x``, each pair past the square also as ``(t, s)``."""
        out = float(np.einsum("st,st->", dots, x))
        if self.rows.stop is None:
            return out
        return out + float(np.einsum("tm,tm->", a[self.rows.stop:], self.column(x, b, None)))

    def rate(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair differences ``du`` of a field ``u`` (..., p, D) over the block's
        pairs, and ``diff . du``."""
        du = _pair_differences(u, self.rows)
        return du, _pair_dot(self.diff, du)

    def hess_form(self, du: np.ndarray, rate_u: np.ndarray, dv: np.ndarray, rate_v: np.ndarray) -> np.ndarray:
        """``du^T Hess K dv = g (du . dv) + h (diff . du)(diff . dv)`` per pair."""
        return self.g * _pair_dot(du, dv) + self.h * rate_u * rate_v

    def hessian(self) -> np.ndarray:
        """The dense (rows, cols, D, D) Hessian block."""
        return _hessian(self.g, self.h, self.diff)


# Budget of one row tile, in bytes of one (rows, p) float64 pair array of one
# configuration: a pair reduction over p points takes its pairs in tiles of
# TILE_BYTES // (8 p) rows (at least one), so it forms no p x p array.  The
# fresh pages the C allocator maps for large arrays fall from about 2 100 page
# faults per right-hand side at p = 400 untiled to about 330-370, not to none:
# glibc trims the heap top when a pass frees its tiles.  A tile is rows x
# (p - lo), from its first row lo on: the first meets the budget, later ones
# shrink.  Up to p = 128 every pair fits in one tile.  Set from a sweep of
# 32-256 KiB at p = 100, 400, 1600 and 3200: smaller tiles pay numpy's fixed
# cost per call on too few rows at large p, larger ones fault again at p = 400.
# A batch splits each member exactly as it would be split alone.
TILE_BYTES = 2**17


def pair_tiles(spec: KernelSpec, points: np.ndarray, order: int, what: str) -> Iterator[PairBlock]:
    """One pass over the pair data of ``points`` (..., p, D) up to ``order``
    (0, 1 or 2): one configuration, or a batch of them on leading axes, each
    split and checked as if alone.  The pass yields :class:`PairBlock` upper
    row tiles of :func:`row_slices` in row order, one at a time, so each
    unordered pair is built once; pairs that fit in one tile come as the one
    whole block, whose ``rows`` is ``slice(None)``.

    Points wider than the kernel are refused by
    :meth:`KernelSpec.require_ambient` when called.  Non-finite and coincident
    rows are refused as by :func:`check_distinct`, from the same distances, as
    the pass meets them: a route that reduces each tile as it comes raises
    before it returns.  A route that needs two passes asks for two."""
    pts = np.asarray(points, dtype=float)
    spec.require_ambient(pts.shape[-1])
    return (PairBlock(rows, diff, *_radial_profiles(spec, dist, order))
            for rows, diff, dist in _distinct_tiles(pts, what))


def row_slices(p: int) -> tuple[slice, ...]:
    """Row tiles over ``p`` points: ``slice(None)``, or ``TILE_BYTES // (8 p)`` rows (at least 1) each."""
    if 8 * p * p <= TILE_BYTES:
        return (slice(None),)
    step = TILE_BYTES // (8 * p) or 1
    return tuple(slice(lo, min(lo + step, p)) for lo in range(0, p, step))


def fold_tiles(tiles: Iterator[PairBlock], part) -> np.ndarray:
    """The rows of a one-output pass: each tile's ``part(blk) = (row, coef, field, w)`` folded in
    by :meth:`PairBlock.fold` as the pass meets it."""
    return functools.reduce(lambda out, blk: blk.fold(out, *part(blk)), tiles, None)


def tile_sum(parts):
    """Per-tile sums added in row order; one tile's sum as it is."""
    return parts[0] if len(parts) == 1 else sum(parts[1:], parts[0])


def spec_from_json(obj: dict) -> KernelSpec:
    """Read ``{"family": ..., "n": ..., "l": ..., "A": ..., "c": ...}``."""
    if not isinstance(obj, dict) or "family" not in obj or "n" not in obj:
        raise ConfigurationError("kernel spec JSON needs at least 'family' and 'n'")
    known = {"family", "n", "l", "A", "c"}
    extra = set(obj) - known
    if extra:
        raise ConfigurationError(f"unknown kernel spec field(s): {sorted(extra)}")
    l = obj.get("l")
    return KernelSpec(
        family=obj["family"],
        n=integer(obj["n"], "kernel dimension n"),
        l=None if l is None else integer(l, "kernel exponent l"),
        A=number(obj.get("A", 1.0), "kernel scale A"),
        c=number(obj.get("c", 1.0), "kernel amplitude c"),
    )


def spec_to_json(spec: KernelSpec) -> dict:
    return {"family": spec.family, "n": spec.n, "l": spec.l, "A": spec.A, "c": spec.c}


def check_distinct(points: np.ndarray, *, what: str) -> None:
    """Reject non-finite coordinates, pair distances that overflow, and
    coincident rows (tolerance 1e-10 * diameter)."""
    for _ in _distinct_tiles(np.asarray(points, dtype=float), what):
        pass


def _each_member_alone(pts: np.ndarray, what: str) -> None:
    """Test each configuration of a batch alone, in order."""
    for member in pts.reshape(-1, *pts.shape[-2:]):
        check_distinct(member, what=what)


def _distinct_tiles(pts: np.ndarray, what: str):
    """Yield ``(rows, diff, dist)`` upper row tile by upper row tile: the one builder of pair differences
    and distances (``dist_st`` and ``dist_ts`` the same bits), and the one test of :func:`check_distinct`.

    A non-finite coordinate or an overflowing distance makes a tile's largest
    distance non-finite (quietly: ``inf - inf`` would warn), and only then are
    the coordinates inspected, when that tile is met.  Each tile counts its
    distances within 1e-10 of an upper bound of the diameter: the tile's own
    largest distance when it is the one tile, else ``4 max_s |x_s - x_0|``
    (twice the triangle inequality's, to cover rounding).  The diagonal of
    its square is exactly zero, so only a tile with more such distances than
    rows can hold a coincident pair, and only such a tile is searched for its
    first nearest pair off the diagonal.  After the last tile that pair is
    refused when it lies within 1e-10 of the exact diameter, named by its
    first place in row-major order, which lies in the one tile holding it.

    A batch (..., p, D) is tested as a whole at the tolerance of its widest
    member, the loosest.  Only if that test fails is each member tested alone,
    in order, so the first that fails raises its own message."""
    p = pts.shape[-2]
    tiles, bound = row_slices(p), None
    if len(tiles) > 1:
        with np.errstate(invalid="ignore", over="ignore"):
            reach = pts - pts[..., :1, :]
            bound = 4.0 * math.sqrt(float(_pair_dot(reach, reach).max()))
    diam, near, where = 0.0, math.inf, None
    for rows in tiles:
        with np.errstate(invalid="ignore", over="ignore"):
            diff = _pair_differences(pts, rows)
            dist = np.sqrt(_pair_dot(diff, diff))
        top = float(dist.max(initial=0.0))
        if not math.isfinite(top):
            if pts.ndim > 2:
                _each_member_alone(pts, what)
            _refuse_infinite(pts, what, "are too far apart: a pair distance")
        diam = max(diam, top)
        close = np.count_nonzero(dist <= 1e-10 * max(top if bound is None else bound, 1e-300))
        if close * dist.shape[-1] > dist.size:  # more than the one zero per row on the diagonal
            own = np.arange(dist.shape[-2])
            dist[..., own, own] = np.inf
            k = int(np.argmin(dist))
            if dist.flat[k] < near:
                near, where = float(dist.flat[k]), [(rows.start or 0) + i for i in divmod(k, dist.shape[-1])]
            dist[..., own, own] = 0.0
        yield rows, diff, dist
    if where is not None and near <= 1e-10 * max(diam, 1e-300):
        if pts.ndim > 2:
            _each_member_alone(pts, what)
            return
        raise DegenerateConfigurationError(f"coincident {what} {where[0]} and {where[1]} (separation {near:.3e})")


def gram_matrix(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Matrix K(q_a - q_b) for rows of ``points`` (pairwise distinct), refused
    above :data:`jets.DENSE_MAX_BYTES` (8 p^2 bytes) before the first tile.

    Symmetric exactly (the profile sees only squared coordinates), positive
    definite for distinct points by Bochner's theorem.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ConfigurationError(f"points must be a (p, d) array, got shape {pts.shape}")
    require_dense(8 * len(pts) ** 2, f"kernel Gram at p={len(pts)}")
    return fill_gram(pair_tiles(spec, pts, 0, "points"))


def fill_gram(tiles: Iterator[PairBlock]) -> np.ndarray:
    """The Gram from an order-0 :func:`pair_tiles` pass of one configuration:
    each tile fills its rows and, mirrored, the columns below its square."""
    for blk in tiles:
        lo, hi = blk.rows.start, blk.rows.stop
        if hi is None:  # the whole block
            return blk.value
        gram = np.empty((blk.value.shape[-1],) * 2) if lo == 0 else gram
        gram[lo:hi, lo:] = blk.value
        gram[hi:, lo:hi] = blk.value[:, hi - lo:].T
    return gram


# Above this condition number a kernel Gram solve is not trustworthy and the
# curvature routines refuse.
GRAM_COND_LIMIT = 1e12

# Width of the diagonal blocks of the Gram's Cholesky factor.  Above 64, OpenBLAS's own
# Cholesky rounds differently at two threads than at one; up to 64 it does not, and matrix
# products split no sum across threads, so every byte computed from this factor was the
# same at one and two threads (more were not tried).
GRAM_BLOCK = 64


def gram_solve(gram: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve ``gram x = rhs`` for a symmetric ``what`` Gram matrix, consumed: its upper triangle
    is overwritten with ``U``, ``gram = U^T U``, factored in :data:`GRAM_BLOCK` blocks.  Refused
    when a diagonal block fails to factor (not numerically positive definite) or when the 1-norm
    condition number, ``|gram|_1`` times the Hager-Higham estimate of ``|gram^-1|_1``, is not
    finite or exceeds :data:`GRAM_COND_LIMIT`.  The one guarded kernel-Gram solve."""
    anorm = max(float(np.abs(gram[k:k + GRAM_BLOCK]).sum(axis=1).max()) for k in range(0, len(gram), GRAM_BLOCK))
    blocks = _cholesky_in_place(gram, what)
    cond = anorm * _inverse_norm_estimate(gram, blocks)
    if not cond <= GRAM_COND_LIMIT:
        raise ConditioningError(f"{what} matrix condition number {cond:.3e} exceeds {GRAM_COND_LIMIT:.0e} "
                                "(1-norm estimate)")
    return _cholesky_solve(gram, blocks, rhs)


def _cholesky_in_place(g: np.ndarray, what: str) -> list[tuple[slice, np.ndarray]]:
    """Overwrite the upper triangle of ``g`` with ``U``, ``g = U^T U``, one row block at a time
    (left-looking: a block subtracts the rows above it in one matrix product, then the lower
    Cholesky factor ``D`` of its diagonal block gives ``D^T`` there and ``D^-1`` times the rest
    of the row).  Returns each block's rows and ``D^-1``, which the substitutions apply."""
    blocks = []
    for k in range(0, len(g), GRAM_BLOCK):
        rows = slice(k, k + GRAM_BLOCK)
        g[rows, k:] -= g[:k, rows].T @ g[:k, k:]
        try:
            low = np.linalg.cholesky(g[rows, rows])
        except np.linalg.LinAlgError:
            raise ConditioningError(f"{what} matrix condition number exceeds {GRAM_COND_LIMIT:.0e}: "
                                    "not positive definite") from None
        inv = np.linalg.inv(low)
        g[rows, rows.stop:] = inv @ g[rows, rows.stop:]
        g[rows, rows] = low.T
        blocks.append((rows, inv))
    return blocks


def _cholesky_solve(u: np.ndarray, blocks: list[tuple[slice, np.ndarray]], b: np.ndarray) -> np.ndarray:
    """``x`` with ``U^T U x = b``, by block substitution: forward with ``U^T``, then back with ``U``."""
    x = np.array(b, dtype=float)
    for rows, inv in blocks:
        x[rows] = inv @ (x[rows] - u[:rows.start, rows].T @ x[:rows.start])
    for rows, inv in reversed(blocks):
        x[rows] = inv.T @ (x[rows] - u[rows, rows.stop:] @ x[rows.stop:])
    return x


def _inverse_norm_estimate(u: np.ndarray, blocks: list[tuple[slice, np.ndarray]]) -> float:
    """A lower bound on ``|A^-1|_1`` for ``A = U^T U``, by the iteration of LAPACK ``dlacn2``
    (Higham, ACM TOMS 14, 1988; ``A`` is symmetric, so its transpose solves are the same solves):
    at most five steps, then the alternating-sign vector."""
    p = len(u)
    y = _cholesky_solve(u, blocks, np.full(p, 1.0 / p))
    if p == 1:
        return abs(float(y[0]))
    est, sign = float(np.abs(y).sum()), np.where(y >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(_cholesky_solve(u, blocks, sign))))
    for _ in range(4):
        y = _cholesky_solve(u, blocks, np.eye(1, p, j)[0])
        old, est, new = est, float(np.abs(y).sum()), np.where(y >= 0.0, 1.0, -1.0)
        if (new == sign).all() or est <= old:
            break
        sign = new
        z = _cholesky_solve(u, blocks, sign)
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    alt = np.where(np.arange(p) % 2, -1.0, 1.0) * (1.0 + np.arange(p) / (p - 1))
    return max(est, 2.0 * float(np.abs(_cholesky_solve(u, blocks, alt)).sum()) / (3 * p))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def kernel_fourier_oracle(spec: KernelSpec, r: np.ndarray, quad_points: int = 100_000) -> float:
    """Independent evaluation of the Bessel kernel straight from its Fourier form.

    Radial n-dimensional inverse transform of ``(1 + A s^2)^(-l)``:

        K(0)   = (2 pi)^(-n) vol(S^(n-1)) * int_0^inf s^(n-1) (1+A s^2)^(-l) ds
        K(rho) = (2 pi)^(-n/2) rho^(1-n/2) * int_0^inf s^(n/2) (1+A s^2)^(-l) J_(n/2-1)(rho s) ds

    evaluated with composite 16-point Gauss-Legendre panels.  At ``rho = 0``
    they cover [0, pi/2] after ``s = tan(theta) / sqrt(A)``, which turns the
    integrand into the smooth ``A^(-n/2) sin^(n-1) theta cos^(2l-n-1) theta``;
    otherwise they cover [0, S], S chosen so the analytic tail bound is below
    1e-10.  For odd ``n`` the order is
    ``n/2 - 1 = k + 1/2`` and the Bessel function is elementary (DLMF 10.16.1,
    10.47.3): ``J_(k+1/2)(z) = sqrt(2/(pi z)) R_k(z)``, :func:`_riccati_bessel`.
    Still a full quadrature on ``quad_points`` nodes; this is the measurement
    the closed form is validated against, not a production path, and it shares
    nothing with the closed form.
    """
    if quad_points < 1_000:
        raise ConfigurationError("quad_points must be at least 1000")
    r = np.asarray(r, dtype=float)
    rho = float(np.linalg.norm(r))
    n, l, A, c = spec.n, spec.l, spec.A, spec.c

    if rho < 1e-12:
        pref = c * (2 * math.pi) ** (-n) * (2 * math.pi ** (n / 2) / math.gamma(n / 2)) * A ** (-n / 2)
        s_max = math.pi / 2  # in theta

        def integrand(theta: np.ndarray) -> np.ndarray:
            return pref * np.sin(theta) ** (n - 1) * np.cos(theta) ** (2 * l - n - 1)

    else:
        mu = n / 2 - 1
        pref = c * (2 * math.pi) ** (-n / 2) * rho ** (1 - n / 2)
        # s^(n/2) J_mu(rho s) = sqrt(2/(pi rho)) s^((n-1)/2) R_k(rho s), k = mu - 1/2
        amp = pref * math.sqrt(2 / (math.pi * rho))
        if mu >= 0:
            # |J_mu| <= 1: tail pref * A^-l S^(n/2+1-2l) / (2l - n/2 - 1)
            expo = 2 * l - n / 2 - 1
            s_max = (pref * A ** (-l) / (expo * 1e-10)) ** (1.0 / expo)
        else:
            # n = 1, mu = -1/2: |J_mu(z)| <= sqrt(2/(pi z))
            expo = 2 * l - n / 2 - 0.5
            s_max = (amp * A ** (-l) / (expo * 1e-10)) ** (1.0 / expo)
        s_max = max(s_max, 50.0 / math.sqrt(A))
        k = (n - 3) // 2

        def integrand(s: np.ndarray) -> np.ndarray:
            riccati = _riccati_bessel(k, rho * s)
            return amp * s ** ((n - 1) // 2) * (1.0 + A * s * s) ** (-l) * riccati

    panels = max(4, quad_points // 16)
    edges = np.linspace(0.0, s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    values = integrand(nodes.ravel())  # before the weights exist: lower peak memory
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return float(np.sum(values * weights.ravel()))


def _riccati_bessel(k: int, z: np.ndarray) -> np.ndarray:
    """``R_k(z) = z j_k(z)``, ``k >= -1``, from ``R_(-1) = cos z``, ``R_0 = sin z`` and ``R_(j+1) = (2j+1)/z R_j -
    R_(j-1)`` (DLMF 10.51.1), forming only the arrays ``k`` needs; what upward loses where ``z << k`` is negligible
    after the oracle's factor ``s^((n-1)/2)``."""
    lo, hi = (np.cos(z) if k != 0 else None), (np.sin(z) if k >= 0 else None)
    for j in range(k):
        lo, hi = hi, (2 * j + 1) / z * hi - lo
    return lo if k < 0 else hi
