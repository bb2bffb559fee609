"""Landmark configurations under a kernel cometric.

``p`` labeled points in ``R^D`` carry the cometric
``g^{(a,i)(b,j)}(q) = K(q_a - q_b) delta^{ij}`` on the flattened chart
``x_{(a-1)D + i} = q_a^i``.  This module assembles exact jets of that cometric
straight from kernel derivatives, and specializes the Hamiltonian flow, the
force/stress primitives, and every curvature term so each double loop runs
over landmark pairs instead of the flattened chart.  The pair sums take no
weights: :mod:`cometric.shapes` runs the same ones on its weighted covectors
``w a``.

Sign convention: the force and stress here live on the *induced* side, i.e.
``force(metric, q, a, a) == pdot`` of the geodesic flow exactly; they are the
negatives of the chart-level :func:`cometric.curvature.force` /
:func:`cometric.curvature.stress`.  Curvature terms are insensitive to the
flip because force and stress always enter in pairs; the ``m = 0`` reduction
test pins this down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBreakdown, _breakdown, _check_finite, _refuses_overflow
from .errors import ConfigurationError
from .jets import CometricJet, assemble_jet, require_dense
from .jsonio import float_array, integer
from .kernels import GRAM_COND_LIMIT  # noqa: F401  (re-exported: read as landmark.GRAM_COND_LIMIT)
from .kernels import KernelSpec, PairBlock, check_distinct, fill_gram, fold_tiles, gram_solve, pair_tiles, tile_sum


@dataclass(frozen=True)
class LandmarkMetric:
    """Kernel + landmark count + ambient dimension.

    Differential operations need a curvature-grade kernel (``2l > n + 2``)
    whose dimension dominates the ambient one (``D <= n``, see
    :meth:`KernelSpec.require_ambient`).
    """

    kernel: KernelSpec
    p: int
    D: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigurationError(f"need at least one landmark, got p={self.p}")
        if self.D < 1:
            raise ConfigurationError(f"ambient dimension must be >= 1, got D={self.D}")
        self.kernel.require_ambient(self.D)

    @property
    def dim(self) -> int:
        return self.p * self.D


def _positions(metric: LandmarkMetric, q: np.ndarray) -> np.ndarray:
    """Positions ``q`` (..., p, D): one configuration, or a batch of them on
    leading axes."""
    q = np.asarray(q, dtype=float)
    if q.shape[-2:] != (metric.p, metric.D):
        raise ConfigurationError(f"landmark positions must have shape ({metric.p}, {metric.D}), got {q.shape}")
    return q


def _tiles(metric: LandmarkMetric, q: np.ndarray, order: int):
    """The pair data of positions ``q`` (..., p, D) in row tiles."""
    return pair_tiles(metric.kernel, _positions(metric, q), order, "landmarks")


def _check_mom(metric: LandmarkMetric, a: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Momenta of shape ``(*batch, p, D)``: the leading axes of the positions."""
    a = np.asarray(a, dtype=float)
    if a.shape != (*batch, metric.p, metric.D):
        raise ConfigurationError(f"momenta must have shape {(*batch, metric.p, metric.D)}, got {a.shape}")
    return a


def landmark_cometric_jet(metric: LandmarkMetric, q: np.ndarray) -> CometricJet:
    """Exact 2-jet of the landmark cometric at ``q`` (flattened chart); refused
    above :data:`jets.DENSE_MAX_BYTES` (``8 (p D)^4`` bytes)."""
    metric.kernel.require_curvature_grade()
    p, D = metric.p, metric.D
    require_dense(8 * (p * D) ** 4, f"landmark jet at p={p}, D={D}")
    (blk,) = _tiles(metric, q, 2)  # p D <= 76 under DENSE_MAX_BYTES: always one tile
    eye_d = np.eye(D)
    delta = np.eye(p)
    fac = delta[:, :, None] - delta[:, None, :]   # fac[c, a, b] = d_ca - d_cb

    ginv = np.einsum("ab,ij->aibj", blk.value, eye_d).reshape(p * D, p * D)
    kg = blk.g[..., None] * blk.diff
    dginv = np.einsum("cab,abm,ij->cmaibj", fac, kg, eye_d).reshape(p * D, p * D, p * D)
    fac2 = np.einsum("cab,dab->cdab", fac, fac)
    ddginv = np.einsum("cdab,abmn,ij->cmdnaibj", fac2, blk.hessian(), eye_d).reshape(
        p * D, p * D, p * D, p * D
    )
    return assemble_jet(np.asarray(q, dtype=float).reshape(-1), ginv, dginv, ddginv)


# --- pair sums ------------------------------------------------------------------
#
# Unit-weight sums over the pairs of a configuration.  A weighted shape sum is
# the same sum on the weighted covectors ``w a`` (:mod:`cometric.shapes`), so
# no function here takes a weight.

def _pairing(a: np.ndarray, u: np.ndarray) -> float:
    """The pairing ``<a, K b> = sum_s a_s . u_s`` of a covector with the field
    values ``u = K b`` its route already holds (``H`` is half of it at ``b = a``)."""
    return float(np.einsum("sm,sm->", a, u))


def _values(blk: PairBlock, a: np.ndarray) -> tuple:
    """One tile's part of the field values ``sum_t K_st a_t``."""
    return blk.value @ a[..., blk.rows.start:, :], blk.value, a


def _force(blk: PairBlock, mixed: np.ndarray) -> tuple:
    """One tile's part of the force rows before the factor -1/2, for ``mixed[s, t] = a_s . b_t + a_t . b_s``."""
    coef = mixed * blk.g
    return blk.contract(coef), coef, None


def _stress_coef(blk: PairBlock, rate: np.ndarray) -> np.ndarray:
    """The stress coefficient ``-(g rate)`` of a field whose radial rate is ``rate``."""
    return -(blk.g * rate)


def _stress(blk: PairBlock, coef: np.ndarray, b: np.ndarray) -> tuple:
    """One tile's part of the stress rows ``sum_t coef b_t``."""
    return coef @ b[blk.rows.start:], coef, b


def _rhs(tiles, a: np.ndarray) -> tuple:
    """Hamilton's equations ``(qdot, pdot)`` for momenta ``a`` (..., p, D); ``qdot``
    is the field values of ``a``, the ones ``H`` pairs with.  The loop writes out
    :func:`_values` of ``a`` and :func:`_force` of ``mixed = a_s . a_t``: at
    p = 2 the two calls would cost 4-7% of the call."""
    qdot, pdot = None, None
    for blk in tiles:
        right = a[..., blk.rows.start:, :]
        dots = a[..., blk.rows, :] @ right.mT  # in one tile numpy's syrk path, as ``a @ a.mT``
        qdot = blk.fold(qdot, blk.value @ right, blk.value, a)
        coef = dots * blk.g
        pdot = blk.fold(pdot, blk.contract(coef), coef, None)
    return qdot, -pdot


def _force_rows(tiles, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``-1/2 sum_t [(a_s.b_t) + (a_t.b_s)] grad K(x_s - x_t)``."""
    return -0.5 * fold_tiles(tiles, lambda blk: _force(
        blk, a[blk.rows] @ b[blk.rows.start:].T + b[blk.rows] @ a[blk.rows.start:].T))


def _stress_rows(tiles, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``-sum_t [(u_s - u_t) . grad K(x_s - x_t)] b_t`` for field values ``u``."""
    return fold_tiles(tiles, lambda blk: _stress(blk, _stress_coef(blk, blk.rate(u)[1]), b))


def _curvature_tile(blk: PairBlock, a: np.ndarray, b: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> tuple:
    """One tile's share of :func:`_curvature_sums`: the three Hessian sums of r11,
    then the parts of the force and stress rows, from four dot products and two
    stress coefficients formed once each."""
    du, rate_a = blk.rate(u_a)
    dv, rate_b = blk.rate(u_b)
    rows, lo = blk.rows, blk.rows.start
    aa, bb = a[rows] @ a[lo:].T, b[rows] @ b[lo:].T
    ab, ba = a[rows] @ b[lo:].T, b[rows] @ a[lo:].T  # [s, t] = a_s . b_t and b_s . a_t
    sa, sb = _stress_coef(blk, rate_a), _stress_coef(blk, rate_b)
    return (
        blk.total(bb, blk.hess_form(du, rate_a, du, rate_a), b, b),
        blk.total(ab, blk.hess_form(du, rate_a, dv, rate_b), a, b),
        blk.total(aa, blk.hess_form(dv, rate_b, dv, rate_b), a, a),
        _force(blk, aa + aa), _force(blk, bb + bb), _force(blk, ab + ba),
        _stress(blk, sa, a), _stress(blk, sb, b), _stress(blk, sa, b), _stress(blk, sb, a),
    )


def _curvature_sums(tiles, a: np.ndarray, b: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> tuple:
    """The pair sums of the curvature terms, from the field values ``u_a`` and ``u_b``:
    ``r11``, the plane's ``(denominator, scale)`` from the pairings with them,
    and the force and stress rows ``[f_aa, f_bb, f_ab, d_aa, d_bb, d_ab, d_ba]``."""
    sums, rows = [], [None] * 7
    for blk in tiles:
        part = _curvature_tile(blk, a, b, u_a, u_b)
        sums.append(part[:3])
        rows = [blk.fold(out, *side) for out, side in zip(rows, part[3:])]
    h_bb, h_ab, h_aa = map(tile_sum, zip(*sums))
    paa, pbb, pab = _pairing(a, u_a), _pairing(b, u_b), _pairing(a, u_b)
    rows[:3] = [-0.5 * f for f in rows[:3]]
    return 0.5 * (h_bb - 2.0 * h_ab + h_aa), (paa * pbb - pab * pab, paa * pbb), rows


def _row_terms(kv: np.ndarray, rows: list, solve) -> tuple[float, float, float]:
    """``(r12, r2, r3)`` from the force and stress rows of :func:`_curvature_sums`, the
    kernel Gram ``kv`` and a solve of it; ``r3 = -3/4 <solve(field), field>`` for the
    bracket field ``d_ab - d_ba``, 0 when that field vanishes."""
    f_aa, f_bb, f_ab, d_aa, d_bb, d_ab, d_ba = rows
    r12 = float(np.einsum("cm,cm->", f_aa, d_bb) + np.einsum("cm,cm->", f_bb, d_aa)
                - np.einsum("cm,cm->", f_ab, d_ab + d_ba))
    r2 = _pairing(f_ab, kv @ f_ab) - _pairing(f_aa, kv @ f_bb)
    field = d_ab - d_ba
    r3 = 0.0 if float(np.abs(field).max()) == 0.0 else -0.75 * _pairing(solve(field), field)
    return r12, r2, r3


# --- landmark routes ------------------------------------------------------------

def hamiltonian(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> float:
    """``H(q, p) = 1/2 sum_a p_a . u_a = 1/2 sum_ab (p_a . p_b) K(q_a - q_b)`` for ``u`` the :func:`velocity`."""
    return 0.5 * _pairing(mom, velocity(metric, q, mom))  # velocity checks mom first


def geodesic_rhs(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> tuple:
    """Hamilton's equations:
    ``qdot_a = sum_b K(q_a-q_b) p_b``, ``pdot_a = -sum_b (p_a.p_b) grad K(q_a-q_b)``.
    ``q`` and ``mom`` are (..., p, D): a batch on leading axes is stepped as
    if each configuration were alone, bit for bit.  ``qdot`` is
    :func:`velocity`, bit for bit, so ``1/2 sum_a p_a . qdot_a`` is
    :func:`hamiltonian`."""
    q = _positions(metric, q)
    tiles = pair_tiles(metric.kernel, q, 1, "landmarks")
    return _rhs(tiles, _check_mom(metric, mom, q.shape[:-2]))


def velocity(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """Raised momenta ``u_a = sum_b K(q_a - q_b) p_b`` (the landmark sharp)."""
    tiles = _tiles(metric, q, 0)
    mom = _check_mom(metric, mom)
    return fold_tiles(tiles, lambda blk: _values(blk, mom))


def force(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Induced-side force:
    ``F(a,b)_c = -1/2 sum_t [(a_c.b_t) + (a_t.b_c)] grad K(q_c - q_t)``;
    in particular ``force(q, p, p)`` is exactly the geodesic ``pdot``."""
    tiles = _tiles(metric, q, 1)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    return _force_rows(tiles, a, b)


def stress(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Induced-side stress:
    ``D(a,b)_d = -sum_t [(u_d - u_t) . grad K(q_d - q_t)] b_t`` with ``u``
    the raised field of ``a``."""
    tiles = _tiles(metric, q, 1)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    return _stress_rows(tiles, velocity(metric, q, a), b)


@_refuses_overflow
def curvature(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> CurvatureBreakdown:
    """Sectional-curvature numerator terms over landmark pairs.

    Same values as running the chart-level forms on
    :func:`landmark_cometric_jet`, but with every contraction collapsed to
    sums over landmark pairs; a single landmark yields exact zeros.  The
    Hessian enters as ``x^T Hess K y = g (x . y) + h (r . x)(r . y)``, so no
    (p, p, D, D) block is formed.
    """
    metric.kernel.require_curvature_grade()
    tiles = _tiles(metric, q, 2)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    require_dense(8 * metric.p**2, f"kernel Gram at p={metric.p}")
    kv = fill_gram(_tiles(metric, q, 0))  # the Gram: r2 and r3 need all of it
    r11, plane, rows = _curvature_sums(tiles, a, b, kv @ a, kv @ b)
    return _breakdown(r11, *_row_terms(kv, rows, lambda field: gram_solve(kv, field, "kernel Gram")), *plane)


# --- state serialization ------------------------------------------------------

def state_from_json(obj: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """Read ``{"D": D, "q": [[...]], "p": [[...]]}``; returns ``(D, q, p)``."""
    if not isinstance(obj, dict) or "D" not in obj or "q" not in obj:
        raise ConfigurationError("landmark state JSON needs 'D' and 'q'")
    D = integer(obj["D"], "ambient dimension D")
    if D < 1:
        raise ConfigurationError(f"bad ambient dimension {D!r}")
    q = float_array(obj["q"], "positions q")
    if q.ndim != 2 or q.shape[1] != D:
        raise ConfigurationError(f"positions must be a (p, {D}) array, got shape {q.shape}")
    if "p" in obj:
        mom = float_array(obj["p"], "momenta p")
        if mom.shape != q.shape:
            raise ConfigurationError(f"momenta shape {mom.shape} does not match positions {q.shape}")
    else:
        mom = np.zeros_like(q)
    check_distinct(q, what="landmarks")
    return D, q, mom

