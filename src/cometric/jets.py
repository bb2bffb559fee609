"""Second-order jet of a cometric at a point.

The jet is the common currency of this package: every curvature form, the
Christoffel oracle and the submersion checks consume exactly this structure,
whether it came from a symbolic chart, a landmark configuration, or a file.

Index layout (fixed everywhere): ``ginv[i, j] = g^{ij}``,
``dginv[s, i, j] = d_s g^{ij}``, ``ddginv[s, t, i, j] = d_s d_t g^{ij}``.
Arrays are frozen read-only so jets can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MetricDegeneracyError

# Largest dense array a route may hold, in bytes: a d-dimensional 2-jet holds
# d^4 doubles (4 GB at d = 150), a kernel Gram p^2.  Every dense builder
# checks it with :func:`require_dense` before it allocates.
DENSE_MAX_BYTES = 2**28


@dataclass(frozen=True)
class CometricJet:
    """Value, first and second derivatives of ``g^{-1}`` at ``x``, plus the
    inverse matrix ``gcov``."""

    x: np.ndarray       # (d,)
    ginv: np.ndarray    # (d, d)
    dginv: np.ndarray   # (d, d, d)
    ddginv: np.ndarray  # (d, d, d, d)
    gcov: np.ndarray    # (d, d), exact inverse of ginv

    @property
    def dim(self) -> int:
        return self.ginv.shape[0]


def require_dense(nbytes: int, what: str) -> None:
    """Refuse a dense array of ``nbytes`` above :data:`DENSE_MAX_BYTES`;
    ``what`` names it (``"landmark jet at p=50, D=3"``)."""
    if nbytes > DENSE_MAX_BYTES:
        raise ConfigurationError(f"dense {what} needs {nbytes} bytes (limit {DENSE_MAX_BYTES} bytes)")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def assemble_jet(x: np.ndarray, ginv: np.ndarray, dginv: np.ndarray, ddginv: np.ndarray) -> CometricJet:
    """Validate symmetries and positivity, invert, and freeze.

    Raises :class:`MetricDegeneracyError` when ``ginv`` is not symmetric
    positive definite (or not finite).  The inverse is computed by Cholesky
    solves; the product ``ginv @ gcov`` is checked against the identity at
    ``1e-12 * cond``.
    """
    x = np.asarray(x, dtype=float)
    ginv = np.asarray(ginv, dtype=float)
    dginv = np.asarray(dginv, dtype=float)
    ddginv = np.asarray(ddginv, dtype=float)
    d = ginv.shape[0]
    if ginv.shape != (d, d) or dginv.shape != (d, d, d) or ddginv.shape != (d, d, d, d):
        raise MetricDegeneracyError(
            f"jet arrays have inconsistent shapes {ginv.shape}, {dginv.shape}, {ddginv.shape}"
        )
    if not (np.all(np.isfinite(ginv)) and np.all(np.isfinite(dginv)) and np.all(np.isfinite(ddginv))):
        raise MetricDegeneracyError("jet contains non-finite entries")
    if not np.allclose(ginv, ginv.T, rtol=0.0, atol=1e-13 * (1.0 + np.abs(ginv).max())):
        raise MetricDegeneracyError("cometric matrix is not symmetric")

    eigs = np.linalg.eigvalsh(0.5 * (ginv + ginv.T))
    if eigs[0] <= 0.0:
        raise MetricDegeneracyError(f"cometric matrix is not positive definite (min eigenvalue {eigs[0]:.3e})")
    cond = float(eigs[-1] / eigs[0])

    try:
        chol = np.linalg.cholesky(ginv)
    except np.linalg.LinAlgError as exc:
        raise MetricDegeneracyError(f"Cholesky factorization failed: {exc}") from exc
    inv_chol = np.linalg.solve(chol, np.eye(d))
    gcov = inv_chol.T @ inv_chol
    gcov = 0.5 * (gcov + gcov.T)
    resid = np.abs(ginv @ gcov - np.eye(d)).max()
    if resid > 1e-12 * max(cond, 1.0):
        raise MetricDegeneracyError(f"inverse residual {resid:.3e} exceeds 1e-12 * cond ({cond:.3e})")

    return CometricJet(
        x=_freeze(x),
        ginv=_freeze(ginv),
        dginv=_freeze(dginv),
        ddginv=_freeze(ddginv),
        gcov=_freeze(gcov),
    )
