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

from .curvature import CurvatureBreakdown, _breakdown, _check_finite
from .errors import ConfigurationError
from .jets import CometricJet, assemble_jet
from .jsonio import float_array, integer
from .kernels import GRAM_COND_LIMIT  # noqa: F401  (re-exported: read as landmark.GRAM_COND_LIMIT)
from .kernels import KernelSpec, PairBlock, check_distinct, check_gram_condition, pair_block

# Largest dense landmark jet, in bytes: its second derivative holds (pD)^4
# doubles (4 GB at p=50, D=3), so the ceiling is checked before allocation.
JET_MAX_BYTES = 2**28


@dataclass(frozen=True)
class LandmarkMetric:
    """Kernel + landmark count + ambient dimension.

    Differential operations need a curvature-grade kernel (``2l > n + 2``)
    whose dimension dominates the ambient one (``D <= n``); restricting a
    positive-definite radial profile to a subspace keeps it positive definite,
    extending it does not.
    """

    kernel: KernelSpec
    p: int
    D: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigurationError(f"need at least one landmark, got p={self.p}")
        if self.D < 1:
            raise ConfigurationError(f"ambient dimension must be >= 1, got D={self.D}")
        if self.D > self.kernel.n:
            raise ConfigurationError(
                f"ambient dimension D={self.D} exceeds the kernel dimension n={self.kernel.n}"
            )

    @property
    def dim(self) -> int:
        return self.p * self.D


def _block(metric: LandmarkMetric, q: np.ndarray, order: int) -> PairBlock:
    q = np.asarray(q, dtype=float)
    if q.shape != (metric.p, metric.D):
        raise ConfigurationError(f"landmark positions must have shape ({metric.p}, {metric.D}), got {q.shape}")
    return pair_block(metric.kernel, q, order, what="landmarks")


def _check_mom(metric: LandmarkMetric, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (metric.p, metric.D):
        raise ConfigurationError(f"momenta must have shape ({metric.p}, {metric.D}), got {a.shape}")
    return a


def landmark_cometric_jet(metric: LandmarkMetric, q: np.ndarray) -> CometricJet:
    """Exact 2-jet of the landmark cometric at ``q`` (flattened chart); refused
    above :data:`JET_MAX_BYTES`."""
    metric.kernel.require_curvature_grade()
    p, D = metric.p, metric.D
    if 8 * (p * D) ** 4 > JET_MAX_BYTES:
        raise ConfigurationError(f"dense landmark jet at p={p}, D={D} needs {8 * (p * D) ** 4 / 1e9:.3g} GB "
                                 f"(limit {JET_MAX_BYTES / 1e9:.3g} GB)")
    blk = _block(metric, q, 2)
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
    blk = _block(metric, q, 0)
    mom = _check_mom(metric, mom)
    return 0.5 * float(np.einsum("ab,ab->", mom @ mom.T, blk.value))


def geodesic_rhs(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton's equations:
    ``qdot_a = sum_b K(q_a-q_b) p_b``, ``pdot_a = -sum_b (p_a.p_b) grad K(q_a-q_b)``."""
    blk = _block(metric, q, 1)
    mom = _check_mom(metric, mom)
    return blk.value @ mom, -blk.contract((mom @ mom.T) * blk.g)


def velocity(metric: LandmarkMetric, q: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """Raised momenta ``u_a = sum_b K(q_a - q_b) p_b`` (the landmark sharp)."""
    blk = _block(metric, q, 0)
    return blk.value @ _check_mom(metric, mom)


def _force(blk: PairBlock, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mixed = a @ b.T  # mixed[c, t] = a_c . b_t
    return -0.5 * blk.contract((mixed + mixed.T) * blk.g)


def _stress(blk: PairBlock, rate: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stress from the radial rate of the raised field: ``-sum_t g rate b_t``."""
    return -(blk.g * rate) @ b


def force(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Induced-side force:
    ``F(a,b)_c = -1/2 sum_t [(a_c.b_t) + (a_t.b_c)] grad K(q_c - q_t)``;
    in particular ``force(q, p, p)`` is exactly the geodesic ``pdot``."""
    blk = _block(metric, q, 1)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    return _force(blk, a, b)


def stress(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Induced-side stress:
    ``D(a,b)_d = -sum_t [(u_d - u_t) . grad K(q_d - q_t)] b_t`` with ``u``
    the raised field of ``a``."""
    blk = _block(metric, q, 1)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    return _stress(blk, blk.rate(blk.value @ a)[1], b)


def _gram_solve(kv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve ``K xi = w`` per column, guarding against ill-conditioning.  ``K`` is
    exactly symmetric: its 2-norm condition number is ``max|eig| / min|eig|``."""
    lam = np.abs(np.linalg.eigvalsh(kv))
    check_gram_condition(float(lam.max() / lam.min()) if lam.min() > 0.0 else np.inf, "kernel Gram")
    return np.linalg.solve(kv, w)


def curvature(metric: LandmarkMetric, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> CurvatureBreakdown:
    """Sectional-curvature numerator terms over landmark pairs.

    Same values as running the chart-level forms on
    :func:`landmark_cometric_jet`, but with every contraction collapsed to
    sums over landmark pairs; a single landmark yields exact zeros.  The
    Hessian enters as ``x^T Hess K y = g (x . y) + h (r . x)(r . y)``, so no
    (p, p, D, D) block is formed.
    """
    metric.kernel.require_curvature_grade()
    blk = _block(metric, q, 2)
    a = _check_mom(metric, a)
    b = _check_mom(metric, b)
    _check_finite(a, b)
    kv = blk.value

    du, rate_a = blk.rate(kv @ a)
    dv, rate_b = blk.rate(kv @ b)
    dots_aa = a @ a.T
    dots_bb = b @ b.T
    dots_ab = a @ b.T  # [s, t] = a_s . b_t

    r11 = 0.5 * (
        float(np.einsum("st,st->", dots_bb, blk.hess_form(du, rate_a, du, rate_a)))
        - 2.0 * float(np.einsum("st,st->", dots_ab, blk.hess_form(du, rate_a, dv, rate_b)))
        + float(np.einsum("st,st->", dots_aa, blk.hess_form(dv, rate_b, dv, rate_b)))
    )

    f_aa = _force(blk, a, a)
    f_bb = _force(blk, b, b)
    f_ab = _force(blk, a, b)
    d_aa = _stress(blk, rate_a, a)
    d_bb = _stress(blk, rate_b, b)
    d_ab = _stress(blk, rate_a, b)
    d_ba = _stress(blk, rate_b, a)

    r12 = float(np.einsum("cm,cm->", f_aa, d_bb) + np.einsum("cm,cm->", f_bb, d_aa)
                - np.einsum("cm,cm->", f_ab, d_ab + d_ba))

    r2 = float(np.einsum("sm,sm->", f_ab, kv @ f_ab) - np.einsum("sm,sm->", f_aa, kv @ f_bb))

    w = d_ab - d_ba
    if float(np.abs(w).max()) == 0.0:
        r3 = 0.0
    else:
        xi = _gram_solve(kv, w)
        r3 = -0.75 * float(np.einsum("sm,sm->", xi, w))

    paa = float(np.einsum("st,st->", dots_aa, kv))
    pbb = float(np.einsum("st,st->", dots_bb, kv))
    pab = float(np.einsum("st,st->", dots_ab, kv))
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
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(mom))):
        raise ConfigurationError("landmark state contains non-finite entries")
    check_distinct(q, what="landmarks")
    return D, q, mom


def state_to_json(q: np.ndarray, mom: np.ndarray) -> dict:
    q = np.asarray(q, dtype=float)
    mom = np.asarray(mom, dtype=float)
    return {"D": int(q.shape[1]), "q": q.tolist(), "p": mom.tolist()}
