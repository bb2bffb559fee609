"""Landmark configurations under a kernel cometric.

``p`` labeled points in ``R^D`` carry the cometric
``g^{(a,i)(b,j)}(q) = K(q_a - q_b) delta^{ij}`` on the flattened chart
``x_{(a-1)D + i} = q_a^i``.  This module assembles exact jets of that cometric
straight from kernel derivatives, and specializes the Hamiltonian flow, the
force/stress primitives, and every curvature term so each double loop runs
over landmark pairs instead of the flattened chart.

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


def hamiltonian(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> float:
    """``H(q, p) = 1/2 sum_ab (p_a . p_b) K(q_a - q_b)``."""
    tiles = _tiles(metric, q, 0)
    mom = _check_mom(metric, mom)
    return tile_sum([0.5 * blk.total(mom[blk.rows] @ mom[blk.rows.start:].T, blk.value, mom, mom) for blk in tiles])


def geodesic_rhs(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray, energy: bool = False) -> tuple:
    """Hamilton's equations:
    ``qdot_a = sum_b K(q_a-q_b) p_b``, ``pdot_a = -sum_b (p_a.p_b) grad K(q_a-q_b)``.
    ``q`` and ``mom`` are (..., p, D): a batch on leading axes is stepped as
    if each configuration were alone, bit for bit.  With ``energy`` (one
    configuration only), also :func:`hamiltonian` at ``(q, p)``, bit for bit,
    from the same pair tiles: ``(qdot, pdot, H)``."""
    q = _positions(metric, q)
    tiles = pair_tiles(metric.kernel, q, 1, "landmarks")
    mom = _check_mom(metric, mom, q.shape[:-2])
    qdot, pdot, h = None, None, []
    for blk in tiles:
        right = mom[..., blk.rows.start:, :]
        dots = mom[..., blk.rows, :] @ right.mT  # in one tile numpy's syrk path, as ``mom @ mom.mT``
        coef = dots * blk.g
        qdot = blk.fold(qdot, blk.value @ right, blk.value, mom, None)
        pdot = blk.fold(pdot, blk.contract(coef), coef, None, None)
        if energy:
            h.append(0.5 * blk.total(dots, blk.value, mom, mom))
    return (qdot, -pdot, tile_sum(h)) if energy else (qdot, -pdot)


def velocity(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """Raised momenta ``u_a = sum_b K(q_a - q_b) p_b`` (the landmark sharp)."""
    tiles = _tiles(metric, q, 0)
    mom = _check_mom(metric, mom)
    return fold_tiles(tiles, lambda blk: (blk.value @ mom[blk.rows.start:], blk.value, mom, None))


def _force(blk: PairBlock, a: np.ndarray, b: np.ndarray) -> tuple:
    """One tile's part of the force rows before the factor -1/2; ``mixed[s, t] = a_s . b_t + a_t . b_s``."""
    mixed = a[blk.rows] @ b[blk.rows.start:].T + b[blk.rows] @ a[blk.rows.start:].T
    coef = mixed * blk.g
    return blk.contract(coef), coef, None, None


def _stress(blk: PairBlock, rate: np.ndarray, b: np.ndarray) -> tuple:
    """One tile's part of the stress rows from the radial rate of the raised field: ``-sum_t g rate b_t``."""
    coef = -(blk.g * rate)
    return coef @ b[blk.rows.start:], coef, b, None


def force(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Induced-side force:
    ``F(a,b)_c = -1/2 sum_t [(a_c.b_t) + (a_t.b_c)] grad K(q_c - q_t)``;
    in particular ``force(q, p, p)`` is exactly the geodesic ``pdot``."""
    tiles = _tiles(metric, q, 1)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    return -0.5 * fold_tiles(tiles, lambda blk: _force(blk, a, b))


def stress(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Induced-side stress:
    ``D(a,b)_d = -sum_t [(u_d - u_t) . grad K(q_d - q_t)] b_t`` with ``u``
    the raised field of ``a``."""
    tiles = _tiles(metric, q, 1)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    u = velocity(metric, q, a)
    return fold_tiles(tiles, lambda blk: _stress(blk, blk.rate(u)[1], b))


def _curvature_tile(blk: PairBlock, a: np.ndarray, b: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> tuple:
    """One tile's share of :func:`curvature`: the three Hessian sums of r11 and
    the three pairings, then the parts of the force and stress rows."""
    du, rate_a = blk.rate(u_a)
    dv, rate_b = blk.rate(u_b)
    dots_aa = a[blk.rows] @ a[blk.rows.start:].T
    dots_bb = b[blk.rows] @ b[blk.rows.start:].T
    dots_ab = a[blk.rows] @ b[blk.rows.start:].T  # [s, t] = a_s . b_t
    return (
        blk.total(dots_bb, blk.hess_form(du, rate_a, du, rate_a), b, b),
        blk.total(dots_ab, blk.hess_form(du, rate_a, dv, rate_b), a, b),
        blk.total(dots_aa, blk.hess_form(dv, rate_b, dv, rate_b), a, a),
        blk.total(dots_aa, blk.value, a, a),
        blk.total(dots_bb, blk.value, b, b),
        blk.total(dots_ab, blk.value, a, b),
        _force(blk, a, a), _force(blk, b, b), _force(blk, a, b),
        _stress(blk, rate_a, a), _stress(blk, rate_b, b), _stress(blk, rate_a, b), _stress(blk, rate_b, a),
    )


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
    u_a, u_b = kv @ a, kv @ b

    sums, rows = [], [None] * 7
    for blk in tiles:
        part = _curvature_tile(blk, a, b, u_a, u_b)
        sums.append(part[:6])
        rows = [blk.fold(out, *side) for out, side in zip(rows, part[6:])]
    h_bb, h_ab, h_aa, paa, pbb, pab = map(tile_sum, zip(*sums))
    rows[:3] = [-0.5 * f for f in rows[:3]]
    f_aa, f_bb, f_ab, d_aa, d_bb, d_ab, d_ba = rows

    r11 = 0.5 * (h_bb - 2.0 * h_ab + h_aa)
    r12 = float(np.einsum("cm,cm->", f_aa, d_bb) + np.einsum("cm,cm->", f_bb, d_aa)
                - np.einsum("cm,cm->", f_ab, d_ab + d_ba))

    r2 = float(np.einsum("sm,sm->", f_ab, kv @ f_ab) - np.einsum("sm,sm->", f_aa, kv @ f_bb))

    w = d_ab - d_ba
    if float(np.abs(w).max()) == 0.0:
        r3 = 0.0
    else:
        xi = gram_solve(kv, w, "kernel Gram")
        r3 = -0.75 * float(np.einsum("sm,sm->", xi, w))

    return _breakdown(r11, r12, r2, r3, paa * pbb - pab * pab, paa * pbb)


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

