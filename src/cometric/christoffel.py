"""Christoffel-symbol route to the sectional-curvature numerator.

This is the cross-oracle for the jet-contraction forms in
:mod:`cometric.curvature`: it converts the cometric jet into a metric jet,
builds Christoffel symbols and the full (1,3) Riemann tensor, and contracts.
Everything classical, nothing shared with the other forms.

Two modes for the Christoffel derivative, chosen by whether a jet provider
is given:

* exact (no provider) — ``dGamma`` from the same 2-jet via the inversion
  identities (zero truncation error; the right choice whenever exact jets
  exist, which covers symbolic charts and landmark configurations alike).
* fd (a provider ``jet_fn: x -> jet``) — fourth-order five-point central
  differences of ``Gamma`` with the fixed step ``h = 2e-5 (1 + |x|)``.

The oracle returns the numerator only; dividing by the plane's Gram
determinant (and deciding when the plane is degenerate) is
:class:`cometric.curvature.CurvatureBreakdown`'s job.

Convention: ``R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``
and the numerator is ``g(R(u,v)v, u)``, positive on round spheres.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .jets import CometricJet

_FD_STEP = 2e-5  # relative step balancing O(h^4) truncation against O(eps/h) rounding


@dataclass(frozen=True)
class MetricJet:
    """2-jet of the covariant metric, derived exactly from a cometric jet via
    ``dg = -g (d g^{-1}) g`` and its derivative."""

    x: np.ndarray
    gcov: np.ndarray    # (d, d)
    dgcov: np.ndarray   # (d, d, d): [s, i, j] = d_s g_ij
    ddgcov: np.ndarray  # (d, d, d, d): [s, t, i, j]
    ginv: np.ndarray


def metric_jet_from_cometric(jet: CometricJet) -> MetricJet:
    """Pairwise products of stacked matrices, O(d^5) (a 3-operand ``einsum`` is O(d^6))."""
    g = jet.gcov
    g_dgi = g @ jet.dginv   # [s] = g (d_s g^{-1})
    dgi_g = jet.dginv @ g   # [s] = (d_s g^{-1}) g
    dg = -(g_dgi @ g)
    ddg = -(dg[None] @ dgi_g[:, None] + g @ jet.ddginv @ g + g_dgi[:, None] @ dg[None])
    return MetricJet(x=jet.x, gcov=g, dgcov=dg, ddgcov=ddg, ginv=jet.ginv)


def christoffel(mj: MetricJet) -> np.ndarray:
    """``Gamma[k, i, j]`` of the Levi-Civita connection (symmetric in i, j)."""
    dg = mj.dgcov
    koszul = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg  # [l, i, j]
    return 0.5 * np.einsum("kl,lij->kij", mj.ginv, koszul)


def christoffel_derivative_exact(jet: CometricJet, mj: MetricJet) -> np.ndarray:
    """``dGamma[s, k, i, j] = d_s Gamma^k_ij`` from exact jet data."""
    dg, ddg = mj.dgcov, mj.ddgcov
    koszul = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    dkoszul = np.einsum("sijl->slij", ddg) + np.einsum("sjil->slij", ddg) - ddg
    return 0.5 * (
        np.einsum("skl,lij->skij", jet.dginv, koszul)
        + np.einsum("kl,slij->skij", mj.ginv, dkoszul)
    )


def christoffel_derivative_fd(jet_fn: Callable[[np.ndarray], CometricJet], x: np.ndarray) -> np.ndarray:
    """Five-point central differences of ``Gamma`` around ``x`` using a jet
    provider, with step ``h = 2e-5 (1 + |x|)``."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = _FD_STEP * (1.0 + float(np.linalg.norm(x)))
    gamma_at = lambda y: christoffel(metric_jet_from_cometric(jet_fn(y)))
    out = np.empty((d, d, d, d))
    for s in range(d):
        step = np.zeros(d)
        step[s] = h
        out[s] = (8.0 * (gamma_at(x + step) - gamma_at(x - step))
                  - (gamma_at(x + 2.0 * step) - gamma_at(x - 2.0 * step))) / (12.0 * h)
    return out


def riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """``R[l, i, j, k]`` with ``R(e_i, e_j) e_k = R^l_{ijk} e_l``."""
    return (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lis,sjk->lijk", gamma, gamma)
        - np.einsum("ljs,sik->lijk", gamma, gamma)
    )


def sectional_numerator_oracle(
    jet: CometricJet,
    u: np.ndarray,
    v: np.ndarray,
    *,
    jet_fn: Callable[[np.ndarray], CometricJet] | None = None,
) -> float:
    """``g(R(u,v)v, u)`` for chart *vectors* ``u``, ``v``.

    Without ``jet_fn`` the Christoffel symbols are differentiated from the
    jet's own second-order data; with it, by five-point central differences of
    ``jet_fn`` with step ``2e-5 (1 + |x|)``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = jet.dim
    if u.shape != (d,) or v.shape != (d,):
        raise ConfigurationError(f"vectors must have shape ({d},), got {u.shape} and {v.shape}")
    mj = metric_jet_from_cometric(jet)
    gamma = christoffel(mj)
    if jet_fn is None:
        dgamma = christoffel_derivative_exact(jet, mj)
    else:
        dgamma = christoffel_derivative_fd(jet_fn, jet.x)
    rm = riemann(gamma, dgamma)
    return float(np.einsum("lijk,l,i,j,k->", rm, mj.gcov @ u, u, v, v))

