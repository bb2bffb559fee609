"""Sectional-curvature numerator of a cometric, in three independent forms.

For covectors ``alpha``, ``beta`` (constant coforms in the chart) the
numerator of the sectional curvature of the plane they span is assembled from
the 2-jet of ``g^{-1}`` alone.  The three routes below share only the input
check and the final bookkeeping, and contract the jet in structurally
different ways:

* :func:`numerator_coordinate` — raw index contractions.  With
  ``w_{ik} = alpha_i beta_k - alpha_k beta_i``,

      R11 = 1/2 w_ik w_jl g^is g^jt g^kl_,st
      R12 = 1/2 w_ik w_jl g^is g^jt_,s g^kl_,t
      R2  = -1/8 w_ik w_jl g^ij_,s g^st g^kl_,t
      R3  = -3/4 w_ik w_jl g^is g^kp_,s g_pq g^jt g^lq_,t

* :func:`numerator_covariant` — second directional derivatives of the scalar
  pairings ``h_ab = <alpha, beta>_{g^{-1}}`` along the raised fields, plus a
  Lie-bracket term.  Returns the total only.

* :func:`numerator_force_stress` — everything through the force covector
  ``F(alpha,beta)_s = 1/2 alpha_i beta_j g^ij_,s`` and the stress vector
  ``D(alpha,beta)^t = alpha_i g^is beta_k g^kt_,s``, computed by
  :func:`force` and :func:`stress` themselves.

All three agree to machine precision; the acceptance suite enforces pairwise
agreement at ``1e-9 * (1 + |value|)`` and agreement with the independent
Christoffel-symbol oracle at ``1e-7 * (1 + |value|)``.

The numerators are tensorial in ``alpha``, ``beta`` even though the
computation fixes their chart components.

Three decisions have their one owner here and are shared by the landmark and
shape routes: non-finite coforms are refused (:func:`_check_finite`), so are
coforms whose products overflow (:func:`_refuses_overflow`), and
:func:`_breakdown` sums the terms and decides when the plane is degenerate
(``sectional`` is then ``None``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .jets import CometricJet

# Relative threshold deciding when the spanned plane counts as degenerate.
PLANE_TOL = 1e-12


@dataclass(frozen=True)
class CurvatureBreakdown:
    """Numerator terms, their total, the plane's Gram determinant, and the
    sectional curvature (``None`` when the plane is degenerate).

    Invariant: ``sectional * denominator == total`` to 1e-12 relative
    whenever ``sectional`` is defined.
    """

    r11: float
    r12: float
    r2: float
    r3: float
    total: float
    denominator: float
    sectional: float | None

    @property
    def r1(self) -> float:
        return self.r11 + self.r12


def _check_coforms(jet: CometricJet, alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = jet.dim
    if alpha.shape != (d,) or beta.shape != (d,):
        raise ConfigurationError(f"coforms must have shape ({d},), got {alpha.shape} and {beta.shape}")
    _check_finite(alpha, beta)
    return alpha, beta


def _check_finite(alpha: np.ndarray, beta: np.ndarray) -> None:
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise ConfigurationError("coforms must be finite")


def _refuses_overflow(route):
    """Wrap a curvature route ``route(..., alpha, beta)`` so that coforms whose
    products overflow the float range are refused with a
    ``ConfigurationError``: numpy overflow raises inside the route instead of
    warning, and the terms it returns, summed as Python floats, must be
    finite."""

    @functools.wraps(route)
    def checked(*args):
        with np.errstate(over="raise"):
            try:
                result = route(*args)
            except FloatingPointError:
                result = math.inf
        terms = dataclasses.astuple(result) if isinstance(result, CurvatureBreakdown) else (result,)
        if all(v is None or math.isfinite(v) for v in terms):
            return result
        top = max(float(np.abs(np.asarray(c, dtype=float)).max(initial=0.0)) for c in args[-2:])
        raise ConfigurationError(f"coforms are too large: a product of them overflows the float range "
                                 f"(largest coform entry {top:.3e})")

    return checked


def _breakdown(r11: float, r12: float, r2: float, r3: float, den: float, scale: float) -> CurvatureBreakdown:
    total = r11 + r12 + r2 + r3
    sectional = total / den if den > PLANE_TOL * max(scale, 1e-300) else None
    return CurvatureBreakdown(
        r11=r11, r12=r12, r2=r2, r3=r3, total=total, denominator=den, sectional=sectional
    )


@_refuses_overflow
def numerator_coordinate(jet: CometricJet, alpha: np.ndarray, beta: np.ndarray) -> CurvatureBreakdown:
    """Coordinate-contraction form, staged so that no einsum spans more than
    four indices (each costs d^indices).  ``U_sk = w_ik g^is``, so ``U_tl = w_jl g^jt``:

    * R11: ``U_sk g^kl_,st U_tl`` — O(d^4);
    * R12: ``U`` into ``g^kl_,t``, then paired with ``w_jl g^jt_,s`` — O(d^4);
    * R2:  ``w`` into ``g^ij_,s`` and ``g^st`` into ``g^kl_,t``, then paired with ``w_jl`` — O(d^4);
    * R3:  ``P_p = U_sk g^kp_,s`` on both sides of ``g_pq`` — O(d^3).
    """
    a, b = _check_coforms(jet, alpha, beta)
    G, dG, ddG = jet.ginv, jet.dginv, jet.ddginv
    w = np.outer(a, b) - np.outer(b, a)
    U = np.einsum("ik,is->sk", w, G)
    r11 = 0.5 * float(np.einsum("sk,stkl,tl->", U, ddG, U))
    Ud = np.einsum("sk,tkl->stl", U, dG)
    r12 = 0.5 * float(np.einsum("jl,sjt,stl->", w, dG, Ud))
    wd = np.einsum("sij,ik->sjk", dG, w)
    Gd = np.einsum("st,tkl->skl", G, dG)
    r2 = -0.125 * float(np.einsum("jl,sjk,skl->", w, wd, Gd))
    P = np.einsum("sk,skp->p", U, dG)
    r3 = -0.75 * float(P @ jet.gcov @ P)

    haa = float(a @ G @ a)
    hbb = float(b @ G @ b)
    hab = float(a @ G @ b)
    return _breakdown(r11, r12, r2, r3, haa * hbb - hab * hab, haa * hbb)


@_refuses_overflow
def numerator_covariant(jet: CometricJet, alpha: np.ndarray, beta: np.ndarray) -> float:
    """Directional-derivative form; returns the scalar numerator only.

    ``R1`` applies the raised fields twice to the pairings, ``R2`` pairs the
    differentials of the pairings, ``R3`` is the squared norm of the bracket
    of the raised fields.
    """
    a, b = _check_coforms(jet, alpha, beta)
    G, dG, ddG = jet.ginv, jet.dginv, jet.ddginv
    u = G @ a  # alpha sharp
    v = G @ b  # beta sharp

    # Gradients and Hessians of the scalar pairings h_ab(x) = a_i b_j g^{ij}(x).
    dh_aa = np.einsum("i,j,tij->t", a, a, dG)
    dh_bb = np.einsum("i,j,tij->t", b, b, dG)
    dh_ab = np.einsum("i,j,tij->t", a, b, dG)
    dd_aa = np.einsum("i,j,stij->st", a, a, ddG)
    dd_bb = np.einsum("i,j,stij->st", b, b, ddG)
    dd_ab = np.einsum("i,j,stij->st", a, b, ddG)

    # Coefficient derivatives of the raised fields: B_z[s, t] = d_s (g^{jt} z_j).
    B_a = np.einsum("j,sjt->st", a, dG)
    B_b = np.einsum("j,sjt->st", b, dG)

    def second_dir(w_first: np.ndarray, B_second: np.ndarray, w_second: np.ndarray,
                   fd: np.ndarray, fdd: np.ndarray) -> float:
        """w_first-sharp applied to (second-sharp applied to f)."""
        return float(w_first @ (B_second @ fd) + w_first @ fdd @ w_second)

    r1 = 0.5 * (
        second_dir(u, B_a, u, dh_bb, dd_bb)
        - second_dir(u, B_b, v, dh_ab, dd_ab)
        - second_dir(v, B_a, u, dh_ab, dd_ab)
        + second_dir(v, B_b, v, dh_aa, dd_aa)
    )
    r2 = 0.25 * (float(dh_ab @ G @ dh_ab) - float(dh_aa @ G @ dh_bb))

    bracket = np.einsum("s,sjt,j->t", u, dG, b) - np.einsum("s,sjt,j->t", v, dG, a)
    r3 = -0.75 * float(bracket @ jet.gcov @ bracket)

    return r1 + r2 + r3


def force(jet: CometricJet, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Chart force covector ``F(alpha,beta)_s = 1/2 alpha_i beta_j g^{ij}_{,s}``
    — half the spatial gradient of the pairing ``<alpha, beta>_{g^{-1}}``."""
    a, b = _check_coforms(jet, alpha, beta)
    return 0.5 * np.einsum("i,j,sij->s", a, b, jet.dginv)


def stress(jet: CometricJet, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Chart stress vector ``D(alpha,beta)^t = alpha_i g^{is} beta_k g^{kt}_{,s}``
    — the derivative of ``beta``-sharp along ``alpha``-sharp."""
    a, b = _check_coforms(jet, alpha, beta)
    return np.einsum("i,is,skt,k->t", a, jet.ginv, jet.dginv, b)


@_refuses_overflow
def numerator_force_stress(jet: CometricJet, alpha: np.ndarray, beta: np.ndarray) -> CurvatureBreakdown:
    """Force/stress form: every term beyond R11 is a pairing of force
    covectors and stress vectors."""
    a, b = _check_coforms(jet, alpha, beta)
    G, ddG = jet.ginv, jet.ddginv
    u = G @ a
    v = G @ b

    f_aa, f_bb, f_ab = force(jet, a, a), force(jet, b, b), force(jet, a, b)
    d_aa, d_bb = stress(jet, a, a), stress(jet, b, b)
    d_ab, d_ba = stress(jet, a, b), stress(jet, b, a)

    hess_aa = np.einsum("i,j,stij->st", a, a, ddG)
    hess_bb = np.einsum("i,j,stij->st", b, b, ddG)
    hess_ab = np.einsum("i,j,stij->st", a, b, ddG)

    r11 = 0.5 * (float(u @ hess_bb @ u) - 2.0 * float(u @ hess_ab @ v) + float(v @ hess_aa @ v))
    r12 = float(f_aa @ d_bb + f_bb @ d_aa - f_ab @ (d_ab + d_ba))
    r2 = float(f_ab @ G @ f_ab) - float(f_aa @ G @ f_bb)
    w = d_ab - d_ba
    r3 = -0.75 * float(w @ jet.gcov @ w)

    haa = float(a @ G @ a)
    hbb = float(b @ G @ b)
    hab = float(a @ G @ b)
    return _breakdown(r11, r12, r2, r3, haa * hbb - hab * hab, haa * hbb)
