"""Discrete submanifolds: weighted samples with tangent frames and normal
momenta, moved horizontally by a kernel velocity field.

A shape is ``S`` samples ``x_s`` in ``R^n`` with quadrature weights ``w_s``,
orthonormal tangent frames (``m`` rows per sample; ``m = 0`` makes the shape a
plain landmark cloud with unit weights), and normal projectors
``P_s = I - sum_r t_r t_r^T``.  Momenta are covector *values* ``a_s`` (the
measure sits in the weights); the covector density is ``w_s a_s``, and
everything pairs through the kernel:

    pairing(a, b)   = sum_st (w_s a_s) . (w_t b_t) K(x_s - x_t)
    u_a(y)          = sum_t K(y - x_t) w_t a_t

So every weighted pair sum here is :mod:`cometric.landmark`'s unit-weight sum
on ``(x, w a)``: the weights enter once, as ``w a``, and force and momentum
rows, which carry one ``w_s`` more than the shape's, are divided by it.  The
geodesic system transports samples by the full field values and momenta by
minus the transposed velocity Jacobian.  On :func:`landmark_shape` (``m = 0``,
unit weights) ``w a`` is ``a`` bit for bit, so every route is the landmark
route bit for bit, which is the identity the acceptance suite enforces.
Force, stress and curvature rows are projected to the normal bundle, and the
bracket term restricts the kernel Gram solve to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBreakdown, _breakdown, _check_finite, _refuses_overflow
from .errors import ConfigurationError, DegenerateConfigurationError
from .jets import require_dense
from .jsonio import float_array, integer
from .kernels import KernelSpec, check_distinct, fill_gram, fold_tiles, gram_solve, pair_tiles
from .landmark import _curvature_sums, _force_rows, _pairing, _rhs, _row_terms, _stress_rows, _values

FRAME_TOL = 1e-10  # largest entry error of a frame's Gram or projector accepted as orthonormal


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
        if not np.isfinite(w).all():
            raise ConfigurationError("weights must be finite")
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
    """Uniformly sampled circle in R^2 with exact uniform weights ``2 pi r / S``.

    When ``1e-100 <= r <= 1e100`` and ``max |center| <= 1e4 r`` the samples
    are distinct by construction, and the O(S^2) distinctness check is
    skipped: up to the dense ceiling S = 8 388 608 the nearest samples are
    neighbours a chord ``2 r sin(pi / S) >= 7.49e-7 r`` apart, each coordinate
    is within about ``2.2e-12 r`` of its exact value, and no squared
    difference under- or overflows, so the nearest pair lies more than 3 000
    times outside the ``1e-10 * diameter`` tolerance.  Any other circle is
    checked like every shape."""
    if samples < 3:
        raise ConfigurationError("a circle needs at least 3 samples")
    if not math.isfinite(radius):
        raise ConfigurationError(f"circle radius must be finite, got {radius!r}")
    if radius <= 0:
        raise ConfigurationError("circle radius must be positive")
    if not (math.isfinite(center[0]) and math.isfinite(center[1])):
        raise ConfigurationError(f"circle center must be finite, got ({center[0]}, {center[1]})")
    require_dense(32 * samples, f"circle at S={samples}")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    x = np.stack([center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)], axis=1)
    t = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
    proj = np.broadcast_to(np.eye(2), (samples, 2, 2)) - np.einsum("smi,smj->sij", t, t)
    w = np.full(samples, 2.0 * np.pi * radius / samples)
    distinct = 1e-100 <= radius <= 1e100 and max(abs(center[0]), abs(center[1])) <= 1e4 * radius
    return (_unchecked if distinct else DiscreteSubmanifold)(x, w, t, np.ascontiguousarray(proj))


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


def _weighted(shape: DiscreteSubmanifold, a: np.ndarray) -> np.ndarray:
    """The covector density ``w_s a_s`` of momenta ``a``; ``a`` bit for bit at unit weights."""
    return shape.w[:, None] * _check_mom(shape, a)


def induced_pairing(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> float:
    """``sum_s w_s a_s . u_b(x_s)``, that is ``sum_st w_s w_t (a_s . b_t) K(x_s - x_t)``."""
    wa = _weighted(shape, a)
    return _pairing(wa, horizontal_velocity(spec, shape, b))


def horizontal_velocity(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray) -> np.ndarray:
    """Field values ``u_a(x_s) = sum_t K(x_s - x_t) w_t a_t`` at the samples."""
    wa = _weighted(shape, a)
    return fold_tiles(_tiles(spec, shape, 0), lambda blk: _values(blk, wa))


def geodesic_rhs(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray) -> tuple:
    """Horizontal geodesic system:
    ``xdot_s = u_a(x_s)`` (full field values) and
    ``adot_s = -(Du(x_s))^T a_s`` (Jacobian-transpose transport; weights stay
    fixed): the landmark system on ``(x, w a)``, its momentum rows divided by
    ``w``; on :func:`landmark_shape` it is the landmark system bit for bit.  ``xdot``
    is :func:`horizontal_velocity`, bit for bit, so ``1/2 sum_s w_s a_s .
    xdot_s`` is ``1/2 induced_pairing(a, a)``."""
    xdot, wadot = _rhs(_tiles(spec, shape, 1), _weighted(shape, a))
    return xdot, wadot / shape.w[:, None]


def force_normal(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projected induced-side force:
    ``F_N(a,b)_s = -1/2 P_s sum_t w_t [(a_s.b_t) + (a_t.b_s)] grad K(x_s-x_t)``;
    ``force_normal(a, a)`` matches the normal part of the geodesic ``adot``."""
    _check_finite(_check_mom(shape, a), _check_mom(shape, b))
    wa, wb = _weighted(shape, a), _weighted(shape, b)
    return project_normal(shape, _force_rows(_tiles(spec, shape, 1), wa, wb) / shape.w[:, None])


def stress_normal(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projected induced-side stress:
    ``D_N(a,b)_s = -P_s sum_t w_t [(u_a(x_s) - u_a(x_t)) . grad K(x_s-x_t)] b_t``."""
    _check_finite(_check_mom(shape, a), _check_mom(shape, b))
    u = horizontal_velocity(spec, shape, a)
    wb = _weighted(shape, b)
    return project_normal(shape, _stress_rows(_tiles(spec, shape, 1), u, wb))


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
    require_dense(8 * (s * r) ** 2, f"normal-bundle Gram at S={s}, n-m={r}")
    w_hat = np.einsum("sri,si->sr", basis, w_field)
    mat = np.einsum("sri,tqi->srtq", basis, basis)  # V_s V_t^T blocks
    mat *= kv[:, None, :, None]  # in place: an elementwise product has the same bits either way
    zeta_hat = gram_solve(mat.reshape(s * r, s * r), w_hat.reshape(-1), "normal-bundle Gram").reshape(s, r)
    return np.einsum("sri,sr->si", basis, zeta_hat)


@_refuses_overflow
def curvature_terms(spec: KernelSpec, shape: DiscreteSubmanifold, a: np.ndarray, b: np.ndarray) -> CurvatureBreakdown:
    """Curvature numerator terms for normal momenta on a discrete shape.

    The landmark curvature sums on ``(x, w a, w b)``, their rows projected to
    the normal bundle.  The force rows are then ``w_s`` times the shape's, so
    ``r12`` and ``r2`` carry no weight, and the bracket solve is for ``w xi``
    (:func:`_normal_gram_solve`); on :func:`landmark_shape` these are the
    landmark terms bit for bit.
    """
    spec.require_curvature_grade()
    _check_finite(_check_mom(shape, a), _check_mom(shape, b))
    wa, wb = _weighted(shape, a), _weighted(shape, b)
    require_dense(8 * shape.samples**2, f"kernel Gram at S={shape.samples}")
    kv = fill_gram(_tiles(spec, shape, 0))  # the Gram: r2 and r3 need all of it
    r11, plane, rows = _curvature_sums(_tiles(spec, shape, 2), wa, wb, kv @ wa, kv @ wb)
    rows = [project_normal(shape, x) for x in rows]
    return _breakdown(r11, *_row_terms(kv, rows, lambda field: _normal_gram_solve(kv, shape, field)), *plane)


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
    require_dense(8 * x.shape[0] * n * n, f"shape projectors at S={x.shape[0]}, n={n}")
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
