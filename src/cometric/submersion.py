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

The bracket derivative is exact: the lift fields differentiate through the
jet and the projection's :func:`dsl.jet`.

Catalog: ``flat`` (plane onto a line), ``product`` (curved x flat-ish factor
with zero vertical term), ``hopf`` (round 3-sphere onto the radius-1/2 sphere;
sectional curvatures 4 = 1 + 3).  The hopf chart is singular where
``|x| = 1`` and ``x3 = 0``; :func:`random_point` keeps its samples inside
``|x| <= 0.6``, away from that ring.
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
        """Projection ``y``, Jacobian ``J[r, s] = d_s p^r`` and its derivative
        ``dJ[s, r, t] = d_s d_t p^r`` at ``x``, from one :func:`dsl.jet` per
        component (its value equals :func:`dsl.evaluate`)."""
        parts = [dsl.jet(e, x) for e in self.proj]
        return (np.array([v for v, _, _ in parts]), np.array([g for _, g, _ in parts]),
                np.stack([h for _, _, h in parts], axis=1))

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.array([dsl.evaluate(e, x) for e in self.proj])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """``J[r, s] = d_s p^r`` at ``x`` (shape (base_dim, total_dim))."""
        return self._jet(x)[1]


def check_case(case: SubmersionCase, x: np.ndarray) -> float:
    """Verify rank and the metric-quotient identity at ``x`` to ``1e-8``
    relative; returns the worst deviation of ``J G_E J^T`` from ``G_B(p(x))``."""
    x = np.asarray(x, dtype=float)
    jet_e = cometric_jet(case.total, x)
    jac = case.jacobian(x)
    if np.linalg.matrix_rank(jac, tol=1e-10) < case.base.dim:
        raise MetricDegeneracyError(f"projection Jacobian rank-deficient at {x.tolist()}")
    pushed = jac @ jet_e.ginv @ jac.T
    base_g = cometric_jet(case.base, case.project(x)).ginv
    dev = float(np.abs(pushed - base_g).max())
    if dev > 1e-8 * (1.0 + float(np.abs(base_g).max())):
        raise MetricDegeneracyError(
            f"{case.name}: pushforward deviates from the base cometric by {dev:.3e} at {x.tolist()}"
        )
    return dev


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


def oneill_check(case: SubmersionCase, x: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> OneillRecord:
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

    w = _lift_bracket_exact(jet_e, jac, djac, alpha, beta)

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


def product_case() -> SubmersionCase:
    """The round 2-sphere times the line with cometric ``1 + x^2/4``, projected
    onto the sphere.  Lifted fields live in the first factor, so the vertical
    term vanishes identically."""
    sphere = sphere_stereographic(2)
    line = dsl.add_(Const(1.0), dsl.mul_(Const(0.25), dsl.pow_(Var(3), 2)))  # the line factor, in x3
    total = CometricDef(dim=3, entries={**sphere.entries, (3, 3): line},
                        name=f"product({sphere.name}, line(1+x^2/4))")
    return SubmersionCase(name="product", total=total, base=sphere, proj=(Var(1), Var(2)))


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


def random_point(case: SubmersionCase, rng: np.random.Generator) -> np.ndarray:
    """A random total-space point where the catalog ``case`` is regular.

    For ``hopf``, a uniform direction scaled to a radius in ``[0.1, 0.6]``,
    away from the chart's singular ring; otherwise uniform in ``[-0.8, 0.8]``
    per coordinate.
    """
    if case.name == "hopf":
        direction = rng.standard_normal(case.total.dim)
        return direction / np.linalg.norm(direction) * rng.uniform(0.1, 0.6)
    return rng.uniform(-0.8, 0.8, size=case.total.dim)
