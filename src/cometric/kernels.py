"""Radial reproducing kernels and their jets.

Two families:

* ``sobolev_bessel`` — the kernel whose Fourier transform is
  ``(1 + A |xi|^2)^(-l)`` on R^n.  For odd ``n`` (half-integer Matern order
  ``nu = l - n/2``) it has the closed form

      K(r) = c * A^(-n/2) / ((2 pi)^(n/2) 2^(l-1) (l-1)!) * E_nu(|r|/sqrt(A))

  with ``E_nu(t) = t^nu K_nu(t)`` (modified Bessel of the second kind), which
  for half-integer ``nu = k + 1/2`` collapses to ``sqrt(pi/2) e^(-t) P_k(t)``
  with the polynomial ``P_k(t) = sum_j (k+j)! / (j! (k-j)! 2^j) t^(k-j)``.
  Even ``n`` would need integer-order Bessel functions and is rejected.

* ``gaussian`` — ``K(r) = c * exp(-|r|^2 / A)``.  Test-only family: it is not
  the transform of any ``(1+A|xi|^2)^(-l)`` symbol, so the Fourier oracle
  refuses it.

Gradients and Hessians use the recurrence ``d/dt E_nu = -t E_(nu-1)``, which is
free of cancellation; nothing here evaluates a Bessel function numerically.
The only scipy dependency is ``scipy.special.spherical_jn`` inside the
quadrature oracle, whose Bessel order ``n/2 - 1`` is a half-integer.

Smoothness grades: a spec is *value-grade* when ``2l > n`` (continuous kernel)
and *curvature-grade* when ``2l > n + 2`` (C^2 kernel, i.e. Matern order
``nu >= 3/2``).  Jets of order >= 1, and every differential operation built on
top of them, demand curvature grade.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    ConfigurationError,
    DegenerateConfigurationError,
    UnsupportedError,
)
from .jsonio import integer, number

BESSEL_FAMILY = "sobolev_bessel"
GAUSSIAN_FAMILY = "gaussian"


@dataclass(frozen=True)
class KernelSpec:
    """Validated kernel parameters.

    ``n`` is the ambient dimension the kernel's symbol lives in, ``l`` the
    symbol exponent (Bessel family only), ``A`` the squared length scale and
    ``c`` a positive amplitude.
    """

    family: str
    n: int
    l: int | None = None
    A: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in (BESSEL_FAMILY, GAUSSIAN_FAMILY):
            raise ConfigurationError(f"unknown kernel family {self.family!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"kernel dimension n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.A, (int, float)) and math.isfinite(self.A) and self.A > 0):
            raise ConfigurationError(f"kernel scale A must be positive and finite, got {self.A!r}")
        if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0):
            raise ConfigurationError(f"kernel amplitude c must be positive and finite, got {self.c!r}")
        if self.family == BESSEL_FAMILY:
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
        else:
            if self.l is not None:
                raise ConfigurationError("gaussian kernel takes no exponent l")

    @property
    def is_curvature_grade(self) -> bool:
        """True when second-order jets exist everywhere (C^2 kernel)."""
        if self.family == GAUSSIAN_FAMILY:
            return True
        return 2 * self.l > self.n + 2

    def require_curvature_grade(self) -> None:
        if not self.is_curvature_grade:
            raise ConfigurationError(
                f"kernel (n={self.n}, l={self.l}) is not C^2; differential operations need 2l > n+2"
            )


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


def _poly(k: int, t: np.ndarray) -> np.ndarray:
    """P_k(t) by Horner's rule (the operations of ``np.polyval``, without its set-up)."""
    coeffs = _bessel_poly(k)
    acc = coeffs[0]
    for cf in coeffs[1:]:
        acc = acc * t + cf
    return acc


def _radial_profiles(
    spec: KernelSpec, rho: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``(value, g, h)`` at distances ``rho``, from one exp pass: ``grad K(r) = g r``
    and ``Hess K(r) = g I + h r r^T``; profiles above ``order`` are None.

    ``h`` is 0 where ``r = 0``: its ``r r^T`` factor vanishes there, while for
    ``nu = 3/2`` the profile ``E_(nu-2)`` itself diverges.
    """
    if spec.family == GAUSSIAN_FAMILY:
        e = np.exp(-(rho * rho) / spec.A)
        value = spec.c * e
        g = (-2.0 * spec.c / spec.A) * e if order >= 1 else None
        radial = (4.0 * spec.c / spec.A**2) * e if order >= 2 else None
    else:
        if order >= 1:
            spec.require_curvature_grade()
        cst, k = _bessel_const(spec), _bessel_order_k(spec)
        t = rho / math.sqrt(spec.A)
        e = np.exp(-t)
        value = cst * (e * _poly(k, t))
        g = (-cst / spec.A) * (e * _poly(k - 1, t)) if order >= 1 else None
        radial = None
        if order >= 2:
            tt = np.where(rho == 0.0, 1.0, t)
            radial = (cst / spec.A**2) * (e / tt if k == 1 else e * _poly(k - 2, tt))
    h = None if radial is None else np.where(rho == 0.0, 0.0, radial)
    return value, g, h


def _hessian(g: np.ndarray, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``g I + h r r^T`` for displacements ``r`` of shape (..., d)."""
    return g[..., None, None] * np.eye(r.shape[-1]) + h[..., None, None] * np.einsum("...i,...j->...ij", r, r)


def kernel_value(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """K(r) for displacements ``r`` of shape (..., d).  Returns shape (...)."""
    r = np.asarray(r, dtype=float)
    return _radial_profiles(spec, np.sqrt(_pair_dot(r, r)), 0)[0]


def kernel_grad(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """grad K at displacements ``r`` of shape (..., d).  Returns shape (..., d)."""
    r = np.asarray(r, dtype=float)
    return _radial_profiles(spec, np.sqrt(_pair_dot(r, r)), 1)[1][..., None] * r


def kernel_hess(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Hessian of K at displacements ``r`` of shape (..., d).  Returns (..., d, d)."""
    r = np.asarray(r, dtype=float)
    _, g, h = _radial_profiles(spec, np.sqrt(_pair_dot(r, r)), 2)
    return _hessian(g, h, r)


def _pair_differences(x: np.ndarray) -> np.ndarray:
    """``x_s - x_t`` for every pair of rows of ``x`` (p, D), as a (p, p, D)
    view of component-major storage: each component is one contiguous (p, p)
    array, so pair loops run in long strides rather than strides of D."""
    p, d = x.shape
    out = np.empty((d, p, p))
    for m in range(d):
        np.subtract.outer(x[:, m], x[:, m], out=out[m])
    return out.transpose(1, 2, 0)


def _pair_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[..., :] . b[..., :]``, one component at a time (pair arrays are component-major)."""
    out = a[..., 0] * b[..., 0]
    for m in range(1, a.shape[-1]):
        out += a[..., m] * b[..., m]
    return out


@dataclass(frozen=True)
class PairBlock:
    """Kernel data of every ordered pair ``(s, t)`` of one configuration.

    ``diff[s, t] = x_s - x_t`` (p, p, D); ``value``, ``g`` and ``h`` are (p, p)
    with ``K = value``, ``grad K = g diff`` and ``Hess K = g I + h diff diff^T``
    at ``diff[s, t]``.  ``g`` and ``h`` are None above the block's order.
    """

    diff: np.ndarray
    value: np.ndarray
    g: np.ndarray | None
    h: np.ndarray | None

    def contract(self, coef: np.ndarray) -> np.ndarray:
        """``sum_t coef[s, t] diff[s, t]``, shape (p, D)."""
        return np.matmul(coef[:, None, :], self.diff)[:, 0, :]

    def rate(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair differences ``du`` of a field ``u`` (p, D) and ``diff . du``."""
        du = _pair_differences(u)
        return du, _pair_dot(self.diff, du)

    def hess_form(self, du: np.ndarray, rate_u: np.ndarray, dv: np.ndarray, rate_v: np.ndarray) -> np.ndarray:
        """``du^T Hess K dv = g (du . dv) + h (diff . du)(diff . dv)`` per pair."""
        return self.g * _pair_dot(du, dv) + self.h * rate_u * rate_v

    def hessian(self) -> np.ndarray:
        """The dense (p, p, D, D) Hessian block."""
        return _hessian(self.g, self.h, self.diff)


def pair_block(spec: KernelSpec, points: np.ndarray, order: int, *, what: str = "points") -> PairBlock:
    """Differences, distances and kernel profiles up to ``order`` (0, 1 or 2)
    of ``points`` (p, D) in one pass.  Non-finite and coincident rows are
    refused as by :func:`check_distinct`, from the same distances."""
    diff, rho = _distinct_pairs(np.asarray(points, dtype=float), what)
    return PairBlock(diff, *_radial_profiles(spec, rho, order))


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
    obj: dict = {"family": spec.family, "n": spec.n}
    if spec.l is not None:
        obj["l"] = spec.l
    obj["A"] = spec.A
    obj["c"] = spec.c
    return obj


def check_distinct(points: np.ndarray, *, what: str = "points") -> None:
    """Reject non-finite coordinates and coincident rows (tolerance 1e-10 * diameter)."""
    _distinct_pairs(np.asarray(points, dtype=float), what)


def _distinct_pairs(pts: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Pair differences and distances of the rows of ``pts``, after the tests of
    :func:`check_distinct`."""
    if not np.isfinite(pts).all():
        raise ConfigurationError(f"{what} contain non-finite coordinates")
    diff = _pair_differences(pts)
    dist = np.sqrt(_pair_dot(diff, diff))
    if len(pts) >= 2:
        diam = float(dist.max())
        tol = 1e-10 * max(diam, 1e-300)
        off = dist.copy()
        np.fill_diagonal(off, diam + 1.0)
        if float(off.min()) <= tol:
            a, b = np.unravel_index(int(np.argmin(off)), off.shape)
            raise DegenerateConfigurationError(f"coincident {what} {a} and {b} (separation {off[a, b]:.3e})")
    return diff, dist


def gram_matrix(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Matrix K(q_a - q_b) for rows of ``points`` (pairwise distinct).

    Symmetric exactly (the profile sees only squared coordinates), positive
    definite for distinct points by Bochner's theorem.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ConfigurationError(f"points must be a (p, d) array, got shape {pts.shape}")
    return pair_block(spec, pts, 0).value


# Above this condition number a kernel Gram solve is not trustworthy and the
# curvature routines refuse; each caller measures the condition number its own way.
GRAM_COND_LIMIT = 1e12


def check_gram_condition(cond: float, what: str) -> None:
    """Refuse a ``what`` Gram solve whose condition number ``cond`` is not
    finite or exceeds :data:`GRAM_COND_LIMIT`."""
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        raise ConditioningError(f"{what} matrix condition number {cond:.3e} exceeds {GRAM_COND_LIMIT:.0e}")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def kernel_fourier_oracle(spec: KernelSpec, r: np.ndarray, quad_points: int = 100_000) -> float:
    """Independent evaluation of the Bessel kernel straight from its Fourier form.

    Radial n-dimensional inverse transform of ``(1 + A s^2)^(-l)``:

        K(0)   = (2 pi)^(-n) vol(S^(n-1)) * int_0^inf s^(n-1) (1+A s^2)^(-l) ds
        K(rho) = (2 pi)^(-n/2) rho^(1-n/2) * int_0^inf s^(n/2) (1+A s^2)^(-l) J_(n/2-1)(rho s) ds

    evaluated with composite 16-point Gauss-Legendre panels on [0, S], S chosen
    so the analytic tail bound is below 1e-10.  For odd ``n`` the order is
    ``n/2 - 1 = k + 1/2`` and the Bessel function is elementary (DLMF 10.16.1,
    10.47.3): ``J_(k+1/2)(z) = sqrt(2/(pi z)) R_k(z)`` with ``R_(-1)(z) = cos z``
    and ``R_k(z) = z j_k(z)`` (spherical Bessel ``j_k``) for ``k >= 0``.  Still a
    full quadrature on ``quad_points`` nodes; this is the measurement the closed
    form is validated against, not a production path, and it shares nothing
    with the closed form.
    """
    from scipy.special import spherical_jn

    if spec.family != BESSEL_FAMILY:
        raise UnsupportedError(f"kernel family {spec.family!r} has no Fourier-integral definition")
    if quad_points < 1_000:
        raise ConfigurationError("quad_points must be at least 1000")
    r = np.asarray(r, dtype=float)
    rho = float(np.linalg.norm(r))
    n, l, A, c = spec.n, spec.l, spec.A, spec.c

    if rho < 1e-12:
        pref = c * (2 * math.pi) ** (-n) * (2 * math.pi ** (n / 2) / math.gamma(n / 2))
        # tail: pref * A^-l * S^(n-2l) / (2l-n) <= 1e-10
        expo = 2 * l - n
        s_max = (pref * A ** (-l) / (expo * 1e-10)) ** (1.0 / expo)
        s_max = max(s_max, 50.0 / math.sqrt(A))

        def integrand(s: np.ndarray) -> np.ndarray:
            return pref * s ** (n - 1) * (1.0 + A * s * s) ** (-l)

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
            z = rho * s
            riccati = np.cos(z) if k < 0 else spherical_jn(k, z) * z
            del z  # not needed below; the product would otherwise hold one more node-sized array
            return amp * s ** ((n - 1) // 2) * (1.0 + A * s * s) ** (-l) * riccati

    panels = max(4, quad_points // 16)
    edges = np.linspace(0.0, s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    values = integrand(nodes.ravel())  # before the weights exist: lower peak memory
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return float(np.sum(values * weights.ravel()))
