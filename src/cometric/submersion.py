"""Riemannian submersions between symbolic charts and the curvature bookkeeping
that goes with them.

A case bundles a total-space cometric, a base cometric and the projection
expressions; validity means ``Tp`` has full rank and pushes the total cometric
onto the base one (``J G_E J^T = G_B(p(x))``).  For constant base coforms
``alpha``, ``beta`` the numerators then satisfy

    base_numerator = total_numerator + 3/4 * vertical_term

with the total numerator evaluated on the pulled-back coforms ``J^T alpha``
(their values at the point — the numerator is tensorial) and the vertical term
the squared metric norm of the vertical part of the bracket of the two
horizontal lift fields.  ``oneill_check`` reports all three and the residual.

The bracket derivative is exact by default (the lift fields differentiate
through the jet and the projection's :func:`dsl.jet`); ``mode="fd"`` keeps the
plain central-difference route for cross-checks.

Catalog: ``flat`` (plane onto a line), ``product`` (curved x flat-ish factor
with zero vertical term), ``hopf`` (round 3-sphere onto the radius-1/2 sphere;
sectional curvatures 4 = 1 + 3).  The hopf chart is singular where
``|x| = 1`` and ``x3 = 0``; keep sample points away from that ring (the
catalog tests use ``|x| <= 0.6``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsl
from .dsl import Const, Expr, Var
from .charts import CometricDef, cometric_jet, euclidean, sphere_stereographic
from .curvature import numerator_coordinate
from .errors import ConfigurationError, MetricDegeneracyError
from .jets import CometricJet

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class SubmersionCase:
    """Total cometric, base cometric and projection expressions."""

    name: str
    total: CometricDef
    base: CometricDef
    proj: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.proj) != self.base.dim:
            raise ConfigurationError(
                f"projection has {len(self.proj)} components, base dimension is {self.base.dim}"
            )
        for e in self.proj:
            if dsl.max_var(e) > self.total.dim:
                raise ConfigurationError("projection uses more variables than the total space has")

    def _jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``project``, ``jacobian`` and ``jacobian_derivative`` at ``x`` from one
        :func:`dsl.jet` per component (its value equals :func:`dsl.evaluate`)."""
        parts = [dsl.jet(e, x) for e in self.proj]
        return (np.array([v for v, _, _ in parts]), np.array([g for _, g, _ in parts]),
                np.stack([h for _, _, h in parts], axis=1))

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.array([dsl.evaluate(e, x) for e in self.proj])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """``J[r, s] = d_s p^r`` at ``x`` (shape (base_dim, total_dim))."""
        return self._jet(x)[1]

    def jacobian_derivative(self, x: np.ndarray) -> np.ndarray:
        """``dJ[s, r, t] = d_s d_t p^r`` at ``x``."""
        return self._jet(x)[2]


def check_case(case: SubmersionCase, x: np.ndarray, tol: float = 1e-8) -> float:
    """Verify rank and the metric-quotient identity at ``x``; returns the
    worst deviation of ``J G_E J^T`` from ``G_B(p(x))``."""
    x = np.asarray(x, dtype=float)
    jet_e = cometric_jet(case.total, x)
    jac = case.jacobian(x)
    if np.linalg.matrix_rank(jac, tol=1e-10) < case.base.dim:
        raise MetricDegeneracyError(f"projection Jacobian rank-deficient at {x.tolist()}")
    pushed = jac @ jet_e.ginv @ jac.T
    base_g = cometric_jet(case.base, case.project(x)).ginv
    dev = float(np.abs(pushed - base_g).max())
    if dev > tol * (1.0 + float(np.abs(base_g).max())):
        raise MetricDegeneracyError(
            f"{case.name}: pushforward deviates from the base cometric by {dev:.3e} at {x.tolist()}"
        )
    return dev


def pullback_sharp(case: SubmersionCase, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Horizontal lift ``L_alpha(x) = G_E(x) J(x)^T alpha`` of a base coform."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (case.base.dim,):
        raise ConfigurationError(f"base coform must have shape ({case.base.dim},), got {alpha.shape}")
    jet_e = cometric_jet(case.total, x)
    return jet_e.ginv @ (case.jacobian(x).T @ alpha)


def _lift_bracket_exact(jet_e: CometricJet, jac: np.ndarray, djac: np.ndarray,
                        alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """[L_alpha, L_beta](x) with exact field derivatives:
    ``d_s L_gamma = (d_s G_E) J^T gamma + G_E (d_s J)^T gamma``; ``djac[s, r, t]``."""
    la = jet_e.ginv @ (jac.T @ alpha)
    lb = jet_e.ginv @ (jac.T @ beta)
    dla = np.einsum("sij,rj,r->si", jet_e.dginv, jac, alpha) + np.einsum(
        "ij,srj,r->si", jet_e.ginv, djac, alpha
    )
    dlb = np.einsum("sij,rj,r->si", jet_e.dginv, jac, beta) + np.einsum(
        "ij,srj,r->si", jet_e.ginv, djac, beta
    )
    return la @ dlb - lb @ dla  # sum_s L_a^s d_s L_b - (a <-> b)


def _lift_bracket_fd(case: SubmersionCase, x: np.ndarray,
                     alpha: np.ndarray, beta: np.ndarray, h: float | None = None) -> np.ndarray:
    """Same bracket by central differences of the lift fields."""
    d = case.total.dim
    if h is None:
        h = _EPS_CBRT * (1.0 + float(np.linalg.norm(x)))
    la = pullback_sharp(case, x, alpha)
    lb = pullback_sharp(case, x, beta)
    dla = np.empty((d, d))
    dlb = np.empty((d, d))
    for s in range(d):
        step = np.zeros(d)
        step[s] = h
        dla[s] = (pullback_sharp(case, x + step, alpha) - pullback_sharp(case, x - step, alpha)) / (2 * h)
        dlb[s] = (pullback_sharp(case, x + step, beta) - pullback_sharp(case, x - step, beta)) / (2 * h)
    return la @ dlb - lb @ dla


@dataclass(frozen=True)
class OneillRecord:
    x: np.ndarray
    y: np.ndarray
    base_numerator: float
    total_numerator: float
    vertical_term: float
    residual: float
    denominator: float
    base_sectional: float | None
    total_sectional: float | None


def oneill_check(case: SubmersionCase, x: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                 *, mode: str = "exact") -> OneillRecord:
    """Evaluate both sides of the curvature-of-a-submersion identity at ``x``
    for constant base coforms ``alpha``, ``beta``."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    jet_e = cometric_jet(case.total, x)
    y, jac, djac = case._jet(x)
    jet_b = cometric_jet(case.base, y)

    base_bd = numerator_coordinate(jet_b, alpha, beta)
    total_bd = numerator_coordinate(jet_e, jac.T @ alpha, jac.T @ beta)

    if mode == "exact":
        w = _lift_bracket_exact(jet_e, jac, djac, alpha, beta)
    elif mode == "fd":
        w = _lift_bracket_fd(case, x, alpha, beta)
    else:
        raise ConfigurationError(f"unknown bracket mode {mode!r} (want 'exact' or 'fd')")

    # Orthogonal projection onto the horizontal space H = G_E J^T (base coforms).
    mid = jac @ jet_e.ginv @ jac.T
    w_hor = jet_e.ginv @ (jac.T @ np.linalg.solve(mid, jac @ w))
    w_ver = w - w_hor
    vertical = float(w_ver @ jet_e.gcov @ w_ver)

    residual = base_bd.total - total_bd.total - 0.75 * vertical
    return OneillRecord(
        x=x,
        y=y,
        base_numerator=base_bd.total,
        total_numerator=total_bd.total,
        vertical_term=vertical,
        residual=residual,
        denominator=base_bd.denominator,
        base_sectional=base_bd.sectional,
        total_sectional=total_bd.sectional,
    )


# --- catalog -----------------------------------------------------------------

def flat_case() -> SubmersionCase:
    return SubmersionCase(
        name="flat",
        total=euclidean(2),
        base=euclidean(1),
        proj=(Var(1),),
    )


def product_case(factor_a: CometricDef | None = None, factor_b: CometricDef | None = None) -> SubmersionCase:
    """Product of two charts, projected onto the first factor.  Lifted fields
    live in the first factor, so the vertical term vanishes identically."""
    if factor_a is None:
        factor_a = sphere_stereographic(2)
    if factor_b is None:
        factor_b = CometricDef(
            dim=1,
            entries={(1, 1): dsl.add_(Const(1.0), dsl.mul_(Const(0.25), dsl.pow_(Var(1), 2)))},
            name="line(1+x^2/4)",
        )
    da = factor_a.dim
    entries: dict[tuple[int, int], Expr] = dict(factor_a.entries)
    for (i, j), e in factor_b.entries.items():
        entries[(i + da, j + da)] = dsl.shift_vars(e, da)
    total = CometricDef(dim=da + factor_b.dim, entries=entries,
                        name=f"product({factor_a.name}, {factor_b.name})")
    return SubmersionCase(
        name="product",
        total=total,
        base=factor_a,
        proj=tuple(Var(i) for i in range(1, da + 1)),
    )


def hopf_case() -> SubmersionCase:
    """Unit 3-sphere onto the radius-1/2 2-sphere, both in stereographic
    charts.  With ``s = |x|^2``:

        y1 = (2 x1 x3 + x2 (s - 1)) / T,   y2 = (2 x2 x3 - x1 (s - 1)) / T,
        T  = 1 + s^2 - 2 x1^2 - 2 x2^2 + 2 x3^2.
    """
    x1, x2, x3 = Var(1), Var(2), Var(3)
    s = dsl.add_(dsl.add_(dsl.pow_(x1, 2), dsl.pow_(x2, 2)), dsl.pow_(x3, 2))
    sm1 = dsl.sub_(s, Const(1.0))
    t = dsl.add_(
        dsl.sub_(
            dsl.add_(Const(1.0), dsl.pow_(s, 2)),
            dsl.mul_(Const(2.0), dsl.add_(dsl.pow_(x1, 2), dsl.pow_(x2, 2))),
        ),
        dsl.mul_(Const(2.0), dsl.pow_(x3, 2)),
    )
    y1 = dsl.div_(dsl.add_(dsl.mul_(Const(2.0), dsl.mul_(x1, x3)), dsl.mul_(x2, sm1)), t)
    y2 = dsl.div_(dsl.sub_(dsl.mul_(Const(2.0), dsl.mul_(x2, x3)), dsl.mul_(x1, sm1)), t)
    return SubmersionCase(
        name="hopf",
        total=sphere_stereographic(3, 1.0),
        base=sphere_stereographic(2, 0.5),
        proj=(y1, y2),
    )


def catalog_case(name: str) -> SubmersionCase:
    if name == "flat":
        return flat_case()
    if name == "product":
        return product_case()
    if name == "hopf":
        return hopf_case()
    raise ConfigurationError(f"unknown submersion case {name!r} (know flat, product, hopf)")
