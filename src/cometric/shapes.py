"""Discrete submanifolds: weighted samples with tangent frames and normal
momenta, moved horizontally by a kernel velocity field.

A shape is ``S`` samples ``x_s`` in ``R^n`` with quadrature weights ``w_s``,
orthonormal tangent frames (``m`` rows per sample; ``m = 0`` makes the shape a
plain landmark cloud with unit weights), and normal projectors
``P_s = I - sum_r t_r t_r^T``.  Momenta are covector *values* ``a_s`` (the
measure sits in the weights); everything pairs through the kernel:

    pairing(a, b)   = sum_st w_s w_t (a_s . b_t) K(x_s - x_t)
    u_a(y)          = sum_t K(y - x_t) a_t w_t

The geodesic system transports samples by the full field values and momenta by
minus the transposed velocity Jacobian; with ``m = 0`` it reduces bit-for-bit
(or to 1e-12) to the landmark system, which is the identity the acceptance
suite enforces.  Force, stress and curvature terms mirror the landmark
formulas with weights and normal projection; the bracket term restricts the
kernel Gram solve to the normal bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBreakdown, _breakdown, _check_finite, _refuses_overflow
from .errors import ConfigurationError, DegenerateConfigurationError
from .jsonio import float_array, integer
from .kernels import KernelSpec, PairBlock, check_distinct, gram_solve, join_rows, pair_tiles, tile_sum

FRAME_TOL = 1e-10  # largest entry error of a frame's Gram or projector accepted as orthonormal

# Largest normal-bundle Gram of the bracket term, in bytes: it is the dense
# (S (n-m))^2 system, and its per-pair frame blocks take as much again, so the
# ceiling is checked before either is allocated.
NORMAL_GRAM_MAX_BYTES = 2**28


@dataclass(frozen=True)
class DiscreteSubmanifold:
    """Samples (S, n), weights (S,), orthonormal tangent frames (S, m, n),
    normal projectors (S, n, n).  Frames and projectors are checked to
    :data:`FRAME_TOL` entry by entry."""

    x: np.ndarray
    w: np.ndarray
    tangents: np.ndarray
    projectors: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise ConfigurationError(f"samples must form a (S, n) array, got shape {x.shape}")
        s, n = x.shape
        w = np.asarray(self.w, dtype=float)
        t = np.asarray(self.tangents, dtype=float)
        pr = np.asarray(self.projectors, dtype=float)
        if w.shape != (s,):
            raise ConfigurationError(f"weights must have shape ({s},), got {w.shape}")
        if np.any(w <= 0.0):
            raise ConfigurationError("weights must be positive")
        if t.ndim != 3 or t.shape[0] != s or t.shape[2] != n:
            raise ConfigurationError(f"tangent frames must have shape ({s}, m, {n}), got {t.shape}")
        if t.shape[1] >= n:
            raise ConfigurationError(f"tangent dimension m={t.shape[1]} must be < n={n}")
        if pr.shape != (s, n, n):
            raise ConfigurationError(f"projectors must have shape ({s}, {n}, {n}), got {pr.shape}")
        gram_err = np.abs(np.einsum("sai,sbi->sab", t, t) - np.eye(t.shape[1])).max(initial=0.0)
        if not gram_err <= FRAME_TOL:  # also refuses NaN
            raise ConfigurationError(f"tangent frames are not orthonormal: |T T^T - I| = {gram_err:.3e}")
        proj_err = np.abs(pr - (np.eye(n) - np.einsum("sai,saj->sij", t, t))).max(initial=0.0)
        if not proj_err <= FRAME_TOL:
            raise ConfigurationError(f"projectors are not I - sum t t^T: max deviation {proj_err:.3e}")
        check_distinct(x, what="samples")

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.tangents.shape[1]

    @property
    def samples(self) -> int:
        return self.x.shape[0]


def _unchecked(x: np.ndarray, w: np.ndarray, tangents: np.ndarray, projectors: np.ndarray) -> DiscreteSubmanifold:
    """A shape built without ``__post_init__``, for fields already validated:
    samples taken from a checked shape, or samples about to meet a pair block,
    which tests the same distances (one check per configuration, not two)."""
    shape = object.__new__(DiscreteSubmanifold)
    shape.__dict__.update(x=x, w=w, tangents=tangents, projectors=projectors)
    return shape


def landmark_shape(q: np.ndarray) -> DiscreteSubmanifold:
    """A landmark cloud as the ``m = 0`` shape: unit weights, empty frames,
    identity projectors."""
    q = np.asarray(q, dtype=float)
    s, n = q.shape
    return DiscreteSubmanifold(
        x=q,
        w=np.ones(s),
        tangents=np.zeros((s, 0, n)),
        projectors=np.broadcast_to(np.eye(n), (s, n, n)).copy(),
    )


def _closed_curve_frames(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Unit tangents by centered differences around a closed polygon, plus the
    normal projectors and a frame-quality indicator (min chord / max chord)."""
    s, n = x.shape
    if s < 3:
        raise ConfigurationError("a closed curve needs at least 3 samples")
    chord = np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)
    norms = np.linalg.norm(chord, axis=1)
    scale = float(np.abs(x).max()) + 1.0
    if float(norms.min()) <= 1e-13 * scale:
        raise DegenerateConfigurationError("curve samples collapsed: centered difference vanished")
    t = chord / norms[:, None]
    proj = np.broadcast_to(np.eye(n), (s, n, n)) - np.einsum("si,sj->sij", t, t)
    quality = float(norms.min() / norms.max())
    return t[:, None, :], np.ascontiguousarray(proj), quality


def closed_curve(x: np.ndarray) -> DiscreteSubmanifold:
    """Shape from ordered samples of a closed curve (m = 1), weighted by the
    polygon arc-length trapezoid rule."""
    x = np.asarray(x, dtype=float)
    tangents, projectors, _ = _closed_curve_frames(x)
    seg = np.linalg.norm(np.roll(x, -1, axis=0) - x, axis=1)
    w = 0.5 * (seg + np.roll(seg, 1))
    return DiscreteSubmanifold(x=x, w=w, tangents=tangents, projectors=projectors)


def rederive_frames(shape: DiscreteSubmanifold) -> tuple[DiscreteSubmanifold, float]:
    """Refresh tangent frames/projectors from the current samples.

    Returns the refreshed shape and a quality number in (0, 1] (ratio of the
    smallest to the largest centered chord; 1.0 for ``m = 0`` where there is
    nothing to derive).  Callers flag degradation instead of failing hard.
    """
    if shape.m == 0:
        return shape, 1.0
    if shape.m != 1:
        raise ConfigurationError(f"frame re-derivation implemented for curves (m=1), got m={shape.m}")
    tangents, projectors, quality = _closed_curve_frames(shape.x)
    return _unchecked(shape.x, shape.w, tangents, projectors), quality


def make_circle(samples: int, radius: float = 1.0, center: tuple[float, float] = (0.0, 0.0)) -> DiscreteSubmanifold:
    """Uniformly sampled circle in R^2 with exact uniform weights ``2 pi r / S``."""
    if samples < 3:
        raise ConfigurationError("a circle needs at least 3 samples")
    if not math.isfinite(radius):
        raise ConfigurationError(f"circle radius must be finite, got {radius!r}")
    if radius <= 0:
        raise ConfigurationError("circle radius must be positive")
    if not (math.isfinite(center[0]) and math.isfinite(center[1])):
        raise ConfigurationError(f"circle center must be finite, got ({center[0]}, {center[1]})")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    x = np.stack([center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)], axis=1)
    t = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
    proj = np.broadcast_to(np.eye(2), (samples, 2, 2)) - np.einsum("smi,smj->sij", t, t)
    w = np.full(samples, 2.0 * np.pi * radius / samples)
    return DiscreteSubmanifold(x=x, w=w, tangents=t, projectors=np.ascontiguousarray(proj))


def _check_mom(shape: DiscreteSubmanifold, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape.x.shape:
        raise ConfigurationError(f"momenta must have shape {shape.x.shape}, got {a.shape}")
    return a


def normality_defect(shape: DiscreteSubmanifold, a: np.ndarray) -> float:
    """``max_s |tangential part of a_s| / |a_s|`` (0 when every row is zero)."""
    a = _check_mom(shape, a)
    if shape.m == 0:
        return 0.0
    normal = np.einsum("sij,sj->si", shape.projectors, a)
    resid = np.linalg.norm(a - normal, axis=1)
    norms = np.linalg.norm(a, axis=1)
    mask = norms > 0.0
    if not np.any(mask):
        return 0.0
    return float((resid[mask] / norms[mask]).max())


def project_normal(shape: DiscreteSubmanifold, a: np.ndarray) -> np.ndarray:
    """Project covector values onto the normal bundle row by row."""
    a = _check_mom(shape, a)
    return np.einsum("sij,sj->si", shape.projectors, a)


def _tiles(spec: KernelSpec, shape: DiscreteSubmanifold, order: int):
    """The pair data of the samples in row tiles."""
    return pair_tiles(spec, shape.x, order, "samples")


def induced_pairing(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> float:
    """``sum_st w_s w_t (a_s . b_t) K(x_s - x_t)``."""
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    return tile_sum([_pairing(a[blk.rows] @ b.T, shape.w, blk) for blk in _tiles(spec, shape, 0)])


def _pairing(dots: np.ndarray, w: np.ndarray, blk: PairBlock) -> float:
    """``sum_st w_s w_t dots_st K_st`` over one tile, for the momentum dots ``a_s . b_t``."""
    return float(np.einsum("st,st->", dots * w[blk.rows, None] * w[None, :], blk.value))


def horizontal_velocity(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray) -> np.ndarray:
    """Field values ``u_a(x_s) = sum_t K(x_s - x_t) a_t w_t`` at the samples."""
    a = _check_mom(shape, a)
    return join_rows([(blk.value * shape.w[None, :]) @ a for blk in _tiles(spec, shape, 0)])


def geodesic_rhs(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, energy: bool = False) -> tuple:
    """Horizontal geodesic system:
    ``xdot_s = u_a(x_s)`` (full field values) and
    ``adot_s = -(Du(x_s))^T a_s`` (Jacobian-transpose transport; weights stay
    fixed).  With ``m = 0`` this is exactly the landmark system.  With
    ``energy``, also ``H = 1/2 induced_pairing(a, a)``, bit for bit, from the
    same pair tiles: ``(xdot, adot, H)``."""
    a = _check_mom(shape, a)
    w = shape.w
    xdot, adot, h = [], [], []
    for blk in _tiles(spec, shape, 1):
        dots = a[blk.rows] @ a.T
        xdot.append((blk.value * w[None, :]) @ a)
        adot.append(-blk.contract(dots * w[None, :] * blk.g))
        if energy:
            h.append(_pairing(dots, w, blk))
    xdot, adot = join_rows(xdot), join_rows(adot)
    return (xdot, adot, 0.5 * tile_sum(h)) if energy else (xdot, adot)


def _force_rows(blk: PairBlock, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unprojected force rows of one tile."""
    mixed = a[blk.rows] @ b.T + b[blk.rows] @ a.T
    return -0.5 * blk.contract(mixed * w[None, :] * blk.g)


def _stress_rows(blk: PairBlock, w: np.ndarray, rate: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unprojected stress rows of one tile."""
    return -(blk.g * rate * w[None, :]) @ b


def _normal(shape: DiscreteSubmanifold, rows: list) -> np.ndarray:
    """Per-tile rows joined and projected onto the normal bundle."""
    return np.einsum("sij,sj->si", shape.projectors, join_rows(rows))


def force_normal(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projected induced-side force:
    ``F_N(a,b)_s = -1/2 P_s sum_t w_t [(a_s.b_t) + (a_t.b_s)] grad K(x_s-x_t)``;
    ``force_normal(a, a)`` matches the normal part of the geodesic ``adot``."""
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    _check_finite(a, b)
    return _normal(shape, [_force_rows(blk, shape.w, a, b) for blk in _tiles(spec, shape, 1)])


def stress_normal(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projected induced-side stress:
    ``D_N(a,b)_s = -P_s sum_t w_t [(u_a(x_s) - u_a(x_t)) . grad K(x_s-x_t)] b_t``."""
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    _check_finite(a, b)
    tiles, w = _tiles(spec, shape, 1), shape.w
    u = join_rows([(blk.value * w[None, :]) @ a for blk in tiles.at(0)])
    return _normal(shape, [_stress_rows(blk, w, blk.rate(u)[1], b) for blk in tiles])


def _normal_basis(shape: DiscreteSubmanifold) -> np.ndarray:
    """Orthonormal normal frames (S, n-m, n) from the projectors (m >= 1)."""
    vals, vecs = np.linalg.eigh(shape.projectors)
    basis = vecs[:, :, shape.m:]  # eigenvalue ~1 block
    return np.ascontiguousarray(np.swapaxes(basis, 1, 2))


def _normal_gram_solve(kv: np.ndarray, shape: DiscreteSubmanifold, w_field: np.ndarray) -> np.ndarray:
    """Solve ``sum_t K_st zeta_t = W_s`` for a normal covector field ``zeta``.

    ``zeta = w xi`` for the field ``xi`` of ``sum_t K_st w_t xi_t = W_s``: the
    weights cancel against the ones the bracket term contracts with, so both
    systems are symmetric.  With ``m = 0`` this is the plain per-component
    kernel Gram solve; otherwise the system is reduced to normal coordinates
    so the solution stays normal.
    """
    if shape.m == 0:
        return gram_solve(kv, w_field, "kernel Gram")
    basis = _normal_basis(shape)  # (S, n-m, n)
    s, r, n = basis.shape
    if 8 * (s * r) ** 2 > NORMAL_GRAM_MAX_BYTES:
        raise ConfigurationError(f"normal-bundle Gram at S={s}, n-m={r} needs {8 * (s * r) ** 2 / 1e9:.3g} GB "
                                 f"(limit {NORMAL_GRAM_MAX_BYTES / 1e9:.3g} GB)")
    w_hat = np.einsum("sri,si->sr", basis, w_field)
    cross = np.einsum("sri,tqi->srtq", basis, basis)  # V_s V_t^T blocks
    mat = (kv[:, None, :, None] * cross).reshape(s * r, s * r)
    zeta_hat = gram_solve(mat, w_hat.reshape(-1), "normal-bundle Gram").reshape(s, r)
    return np.einsum("sri,sr->si", basis, zeta_hat)


def _curvature_tile(blk: PairBlock, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                    u_a: np.ndarray, u_b: np.ndarray) -> tuple:
    """One tile's share of :func:`curvature_terms`: the three Hessian sums of
    r11 and the three pairings, then the unprojected force and stress rows."""
    du, rate_a = blk.rate(u_a)
    dv, rate_b = blk.rate(u_b)
    ww = w[blk.rows, None] * w[None, :]
    dots_aa = (a[blk.rows] @ a.T) * ww
    dots_bb = (b[blk.rows] @ b.T) * ww
    dots_ab = (a[blk.rows] @ b.T) * ww
    return (
        float(np.einsum("st,st->", dots_bb, blk.hess_form(du, rate_a, du, rate_a))),
        float(np.einsum("st,st->", dots_ab, blk.hess_form(du, rate_a, dv, rate_b))),
        float(np.einsum("st,st->", dots_aa, blk.hess_form(dv, rate_b, dv, rate_b))),
        float(np.einsum("st,st->", dots_aa, blk.value)),
        float(np.einsum("st,st->", dots_bb, blk.value)),
        float(np.einsum("st,st->", dots_ab, blk.value)),
        _force_rows(blk, w, a, a), _force_rows(blk, w, b, b), _force_rows(blk, w, a, b),
        _stress_rows(blk, w, rate_a, a), _stress_rows(blk, w, rate_b, b),
        _stress_rows(blk, w, rate_a, b), _stress_rows(blk, w, rate_b, a),
    )


@_refuses_overflow
def curvature_terms(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> CurvatureBreakdown:
    """Curvature numerator terms for normal momenta on a discrete shape.

    Mirrors the landmark formulas with weights and normal projection; reduces
    to them when ``m = 0``.
    """
    spec.require_curvature_grade()
    a = _check_mom(shape, a)
    b = _check_mom(shape, b)
    _check_finite(a, b)
    w = shape.w
    tiles = _tiles(spec, shape, 2)
    kv, u_a, u_b = [], [], []
    for blk in tiles.at(0):  # the Gram: r2 and r3 need all of it
        kw = blk.value * w[None, :]
        kv.append(blk.value)
        u_a.append(kw @ a)
        u_b.append(kw @ b)
    kv, u_a, u_b = join_rows(kv), join_rows(u_a), join_rows(u_b)

    parts = list(zip(*(_curvature_tile(blk, w, a, b, u_a, u_b) for blk in tiles)))
    h_bb, h_ab, h_aa, paa, pbb, pab = map(tile_sum, parts[:6])
    f_aa, f_bb, f_ab, d_aa, d_bb, d_ab, d_ba = (_normal(shape, rows) for rows in parts[6:])

    r11 = 0.5 * (h_bb - 2.0 * h_ab + h_aa)
    r12 = float(np.einsum("s,sm,sm->", w, f_aa, d_bb) + np.einsum("s,sm,sm->", w, f_bb, d_aa)
                - np.einsum("s,sm,sm->", w, f_ab, d_ab + d_ba))

    ww = w[:, None] * w[None, :]
    kw = kv * ww
    r2 = float(np.einsum("sm,sm->", f_ab, kw @ f_ab) - np.einsum("sm,sm->", f_aa, kw @ f_bb))

    w_br = d_ab - d_ba
    if float(np.abs(w_br).max()) == 0.0:
        r3 = 0.0
    else:
        zeta = _normal_gram_solve(kv, shape, w_br)
        r3 = -0.75 * float(np.einsum("sm,sm->", zeta, w_br))

    return _breakdown(r11, r12, r2, r3, paa * pbb - pab * pab, paa * pbb)


# --- serialization -----------------------------------------------------------

def shape_from_json(obj: dict) -> tuple[DiscreteSubmanifold, np.ndarray | None]:
    """Read ``{"n":..,"m":..,"samples":..,"weights":..,"tangents":..,"momenta":..}``;
    momenta are optional."""
    if not isinstance(obj, dict):
        raise ConfigurationError("shape JSON must be an object")
    for key in ("n", "m", "samples", "weights", "tangents"):
        if key not in obj:
            raise ConfigurationError(f"shape JSON is missing {key!r}")
    n, m = integer(obj["n"], "shape n"), integer(obj["m"], "shape m")
    x = float_array(obj["samples"], "shape samples")
    w = float_array(obj["weights"], "shape weights")
    t = float_array(obj["tangents"], "shape tangents")
    if x.ndim != 2 or x.shape[1] != n:
        raise ConfigurationError(f"samples must be (S, {n}), got {x.shape}")
    if m == 0 and t.shape == (x.shape[0], 0):  # empty frames are written as S empty lists
        t = t.reshape(x.shape[0], 0, n)
    if t.shape != (x.shape[0], m, n):
        raise ConfigurationError(f"tangents must be ({x.shape[0]}, {m}, {n}), got {t.shape}")
    proj = np.broadcast_to(np.eye(n), (x.shape[0], n, n)) - np.einsum("smi,smj->sij", t, t)
    shape = DiscreteSubmanifold(x=x, w=w, tangents=t, projectors=np.ascontiguousarray(proj))
    mom = None
    if obj.get("momenta") is not None:
        mom = float_array(obj["momenta"], "shape momenta")
        if mom.shape != x.shape:
            raise ConfigurationError(f"momenta must be {x.shape}, got {mom.shape}")
    return shape, mom


def shape_to_json(shape: DiscreteSubmanifold, momenta: np.ndarray | None = None) -> dict:
    out = {
        "n": int(shape.n),
        "m": int(shape.m),
        "samples": shape.x.tolist(),
        "weights": shape.w.tolist(),
        "tangents": shape.tangents.tolist(),
    }
    if momenta is not None:
        out["momenta"] = np.asarray(momenta, dtype=float).tolist()
    return out
