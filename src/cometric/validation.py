"""Self-validation suites: every numerical claim the package makes, checked.

Each suite exercises one verifiable property — closed-form kernels against a
Fourier quadrature oracle, the coordinate curvature numerator against a
classical Christoffel-symbol computation, conservation laws along geodesics,
and so on.  Suites are deterministic for a fixed seed and are runnable from
the command line (``cometric validate``) or from tests.

Each suite is ``suite(seed, quick)``; it fixes its own kernels and grids and
gates on the shipped tolerances in :data:`TOLERANCES`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import charts, dsl, shapes, submersion
from .christoffel import sectional_numerator_oracle
from .curvature import (
    numerator_coordinate,
    numerator_covariant,
    numerator_force_stress,
)
from .dynamics import IntegratorConfig, _endpoint, integrate, landmark_system, match, shape_system
from .errors import GeometryError
from .jets import CometricJet
from .kernels import KernelSpec, kernel_fourier_oracle, kernel_value
from .landmark import LandmarkMetric, curvature as landmark_curvature, landmark_cometric_jet
from .landmark import force as landmark_force, geodesic_rhs as landmark_rhs
from .landmark import hamiltonian as landmark_hamiltonian, stress as landmark_stress
from .landmark import velocity as landmark_velocity

TOLERANCES: dict[str, float] = {
    "kernel_oracle": 1e-6,
    "christoffel": 1e-7,
    "three_way": 1e-9,
    "constant_curvature": 1e-8,
    "oneill_product": 1e-10,
    "oneill_hopf": 1e-6,
    "landmark_chart": 1e-9,
    "landmark_oracle": 1e-7,
    "energy_drift": 1e-8,
    "linear_drift": 1e-10,
    "angular_drift": 1e-8,
    "halving_low": 12.0,
    "halving_high": 20.0,
    "m0_reduction": 1e-12,
    "normality": 1e-4,
    "match_single": 1e-8,
    "match_roundtrip": 1e-6,
}


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one validation suite."""

    name: str
    passed: bool
    detail: str
    elapsed: float


# ---------------------------------------------------------------------------
# Random cometric generation


_UNARY = ("sin", "cos", "tanh")


def _random_expr(rng: np.random.Generator, dim: int, depth: int) -> dsl.Expr:
    """Random expression tree of the given depth over x1..x<dim>.

    The operation set (+, -, *, sin, cos, tanh, negation) is closed under
    evaluation on all of R^d, so generated cometrics never hit domain errors.
    """
    if depth <= 0:
        if rng.random() < 0.45:
            return dsl.Const(float(rng.uniform(-1.5, 1.5)))
        return dsl.Var(int(rng.integers(1, dim + 1)))
    pick = rng.random()
    if pick < 0.55:
        ops = (dsl.add_, dsl.sub_, dsl.mul_)
        op = ops[int(rng.integers(0, 3))]
        return op(_random_expr(rng, dim, depth - 1), _random_expr(rng, dim, depth - 1))
    if pick < 0.85:
        fn = _UNARY[int(rng.integers(0, len(_UNARY)))]
        return dsl.call_(fn, _random_expr(rng, dim, depth - 1))
    return dsl.neg_(_random_expr(rng, dim, depth - 1))


def random_cometric(rng: np.random.Generator, dim: int) -> tuple[charts.CometricDef, np.ndarray]:
    """Random smooth cometric, positive definite at a random test point.

    Returns the definition and the point.  Each entry is a random tree of
    depth 2 to 4.  Positive definiteness is enforced by adding a constant
    diagonal shift sized from the spectrum of the raw symbol matrix at the
    point, which preserves all derivatives.
    """
    x0 = rng.uniform(-0.7, 0.7, size=dim)
    entries: dict[tuple[int, int], dsl.Expr] = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            entries[(i, j)] = _random_expr(rng, dim, int(rng.integers(2, 5)))
    raw = np.zeros((dim, dim))
    for (i, j), expr in entries.items():
        raw[i - 1, j - 1] = raw[j - 1, i - 1] = dsl.evaluate(expr, x0)
    eigs = np.linalg.eigvalsh(raw)
    shift = 0.25 * (1.0 + float(np.max(np.abs(eigs)))) - float(eigs[0])
    if shift > 0.0:
        for i in range(1, dim + 1):
            entries[(i, i)] = dsl.add_(entries[(i, i)], dsl.Const(shift))
    return charts.CometricDef(dim, entries), x0


# ---------------------------------------------------------------------------
# Conservation-state fixtures


def _normalized_bessel(n: int, l: int, scale: float) -> KernelSpec:
    """Bessel kernel rescaled so that K(0) = 1 (keeps dynamics O(1))."""
    base = KernelSpec("sobolev_bessel", n=n, l=l, A=scale, c=1.0)
    k0 = float(kernel_value(base, np.zeros((1, 1)))[0])
    return KernelSpec("sobolev_bessel", n=n, l=l, A=scale, c=1.0 / k0)


def conservation_states() -> list[tuple[str, LandmarkMetric, np.ndarray, np.ndarray]]:
    """The frozen two- and three-landmark states used by the conservation suite.

    Both keep the landmarks in sustained interaction at bounded separation:
    a symmetric pair on a circular relative orbit, and a rotating triangle.
    Collapsing configurations are useless here — as the points coalesce the
    Gram matrix degenerates and round-off swamps the truncation error.
    """
    spec = _normalized_bessel(3, 3, 0.05)
    pair_q = np.array([[-0.25, 0.0], [0.25, 0.0]])
    pair_p = 5.0 * np.array([[0.0, 1.0], [0.0, -1.0]])
    ang = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]) + 0.3
    tri_q = 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tri_p = 6.0 * np.stack([-np.sin(ang), np.cos(ang)], axis=1)
    return [
        ("pair", LandmarkMetric(spec, 2, 2), pair_q, pair_p),
        ("triangle", LandmarkMetric(spec, 3, 2), tri_q, tri_p),
    ]


# ---------------------------------------------------------------------------
# Suites


def suite_kernel_oracle(seed: int, quick: bool) -> tuple[bool, str]:
    """Closed-form Bessel kernels against the Fourier quadrature oracle."""
    tol = TOLERANCES["kernel_oracle"]
    radii = np.linspace(0.05, 4.0, 20)
    worst = 0.0
    for n, l in ((1, 2), (1, 3), (3, 3)):
        spec = KernelSpec("sobolev_bessel", n=n, l=l, A=1.0, c=1.0)
        closed = kernel_value(spec, radii[:, None])
        for r, v in zip(radii, closed):
            o = kernel_fourier_oracle(spec, float(r))
            worst = max(worst, abs(float(v) - o))
    return worst <= tol, f"max |closed - oracle| = {worst:.3e} (tol {tol:.1e})"


def _christoffel_cases(
    seed: int, quick: bool
) -> list[tuple[charts.CometricDef, CometricJet, np.ndarray, np.ndarray]]:
    """Shared random suite: jets plus constant coforms, over d in {2,3,4}."""
    rng = np.random.default_rng(seed)
    count = 20 if quick else 100
    cases = []
    for idx in range(count):
        dim = 2 + idx % 3
        defn, x0 = random_cometric(rng, dim)
        jet = charts.cometric_jet(defn, x0)
        alpha = rng.standard_normal(dim)
        beta = rng.standard_normal(dim)
        cases.append((defn, jet, alpha, beta))
    return cases


def suite_christoffel(seed: int, quick: bool) -> tuple[bool, str]:
    """Coordinate curvature numerator against the Christoffel/Riemann oracle.

    Runs both oracle modes: exact metric jets, and finite-difference
    Christoffel derivatives (fully independent of the forward-mode second
    derivatives that feed the numerator).
    """
    tol = TOLERANCES["christoffel"]
    worst = 0.0
    for defn, jet, alpha, beta in _christoffel_cases(seed, quick):
        value = numerator_coordinate(jet, alpha, beta).total
        u = jet.ginv @ alpha
        v = jet.ginv @ beta
        scale = 1.0 + abs(value)
        jet_fn = lambda y, d=defn: charts.cometric_jet(d, y)
        for provider in (None, jet_fn):  # exact, then fd
            oracle = sectional_numerator_oracle(jet, u, v, jet_fn=provider)
            worst = max(worst, abs(value - oracle) / scale)
    return worst <= tol, f"max scaled |coordinate - oracle| = {worst:.3e} (tol {tol:.1e})"


def suite_curvature_forms(seed: int, quick: bool) -> tuple[bool, str]:
    """Pairwise agreement of the three curvature-numerator forms."""
    tol = TOLERANCES["three_way"]
    worst = 0.0
    for _, jet, alpha, beta in _christoffel_cases(seed, quick):
        coord = numerator_coordinate(jet, alpha, beta)
        cov = numerator_covariant(jet, alpha, beta)
        fs = numerator_force_stress(jet, alpha, beta)
        scale = 1.0 + abs(coord.total)
        worst = max(
            worst,
            abs(coord.total - cov) / scale,
            abs(coord.total - fs.total) / scale,
            abs(cov - fs.total) / scale,
            abs(coord.r11 - fs.r11) / scale,
            abs(coord.r12 - fs.r12) / scale,
            abs(coord.r2 - fs.r2) / scale,
            abs(coord.r3 - fs.r3) / scale,
        )
    return worst <= tol, f"max scaled pairwise gap = {worst:.3e} (tol {tol:.1e})"


def suite_constant_curvature(seed: int, quick: bool) -> tuple[bool, str]:
    """Round sphere k = +1 and hyperbolic half-plane k = -1 at random points."""
    tol = TOLERANCES["constant_curvature"]
    rng = np.random.default_rng(seed)
    count = 5 if quick else 10
    worst = 0.0
    sphere = charts.sphere_stereographic(2, radius=1.0)
    for _ in range(count):
        x = rng.uniform(-1.5, 1.5, size=2)
        jet = charts.cometric_jet(sphere, x)
        alpha, beta = rng.standard_normal(2), rng.standard_normal(2)
        k = numerator_coordinate(jet, alpha, beta).sectional
        worst = max(worst, abs(k - 1.0))
    hyper = charts.hyperbolic_half_plane()
    for _ in range(count):
        x = np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.4, 2.2)])
        jet = charts.cometric_jet(hyper, x)
        alpha, beta = rng.standard_normal(2), rng.standard_normal(2)
        k = numerator_coordinate(jet, alpha, beta).sectional
        worst = max(worst, abs(k + 1.0))
    return worst <= tol, f"max |k - k_ref| = {worst:.3e} (tol {tol:.1e})"


def suite_oneill(seed: int, quick: bool) -> tuple[bool, str]:
    """Submersion residuals: flat product and the two-to-one sphere map."""
    tol_prod = TOLERANCES["oneill_product"]
    tol_hopf = TOLERANCES["oneill_hopf"]
    rng = np.random.default_rng(seed)
    count = 5 if quick else 10
    worst_prod = 0.0
    case = submersion.product_case()
    for _ in range(count):
        x = submersion.random_point(case, rng)
        alpha = rng.standard_normal(case.base.dim)
        beta = rng.standard_normal(case.base.dim)
        rec = submersion.oneill_check(case, x, alpha, beta)
        worst_prod = max(worst_prod, abs(rec.residual))
    worst_hopf = 0.0
    worst_sec = 0.0
    hopf = submersion.hopf_case()
    for _ in range(count):
        x = submersion.random_point(hopf, rng)
        alpha = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        rec = submersion.oneill_check(hopf, x, alpha, beta)
        worst_hopf = max(worst_hopf, abs(rec.residual))
        worst_sec = max(
            worst_sec, abs(rec.base_sectional - 4.0), abs(rec.total_sectional - 1.0)
        )
    ok = worst_prod <= tol_prod and worst_hopf <= tol_hopf and worst_sec <= tol_hopf
    return ok, (
        f"product residual {worst_prod:.3e} (tol {tol_prod:.1e}); "
        f"round-sphere residual {worst_hopf:.3e}, sectional gap {worst_sec:.3e} "
        f"(tol {tol_hopf:.1e})"
    )


def suite_landmark_identity(seed: int, quick: bool) -> tuple[bool, str]:
    """Specialized landmark curvature against chart-level routes.

    Three routes are compared: the closed-form landmark terms, the coordinate
    numerator on the assembled landmark cometric jet, and the
    finite-difference Christoffel oracle on the same jet.
    """
    tol_chart = TOLERANCES["landmark_chart"]
    tol_oracle = TOLERANCES["landmark_oracle"]
    rng = np.random.default_rng(seed)
    kernels = {
        1: [KernelSpec("sobolev_bessel", n=1, l=2), KernelSpec("sobolev_bessel", n=1, l=3)],
        2: [KernelSpec("sobolev_bessel", n=3, l=3)],
    }
    worst_chart = 0.0
    worst_oracle = 0.0
    for p in (2, 3):
        for dim in (1, 2):
            for spec in kernels[dim]:
                metric = LandmarkMetric(spec, p, dim)
                q = rng.uniform(-1.0, 1.0, size=(p, dim))
                q[:, 0] += 2.5 * np.arange(p)
                a = rng.standard_normal((p, dim))
                b = rng.standard_normal((p, dim))
                own = landmark_curvature(metric, q, a, b)
                jet = landmark_cometric_jet(metric, q)
                chart = numerator_coordinate(jet, a.reshape(-1), b.reshape(-1))
                worst_chart = max(
                    worst_chart,
                    abs(own.total - chart.total),
                    abs(own.r11 - chart.r11),
                    abs(own.r12 - chart.r12),
                    abs(own.r2 - chart.r2),
                    abs(own.r3 - chart.r3),
                )
                u = jet.ginv @ a.reshape(-1)
                v = jet.ginv @ b.reshape(-1)
                jet_fn = lambda y, m=metric, pp=p, dd=dim: landmark_cometric_jet(
                    m, y.reshape(pp, dd)
                )
                oracle = sectional_numerator_oracle(jet, u, v, jet_fn=jet_fn)
                worst_oracle = max(worst_oracle, abs(own.total - oracle))
    single = LandmarkMetric(KernelSpec("sobolev_bessel", n=3, l=3), 1, 2)
    lone = landmark_curvature(
        single, np.array([[0.3, -0.2]]), np.array([[1.0, 0.4]]), np.array([[-0.2, 0.9]])
    )
    exact_zero = (
        lone.total == 0.0 and lone.r11 == 0.0 and lone.r12 == 0.0
        and lone.r2 == 0.0 and lone.r3 == 0.0
    )
    ok = worst_chart <= tol_chart and worst_oracle <= tol_oracle and exact_zero
    return ok, (
        f"chart gap {worst_chart:.3e} (tol {tol_chart:.1e}); "
        f"oracle gap {worst_oracle:.3e} (tol {tol_oracle:.1e}); "
        f"single landmark zero: {exact_zero}"
    )


def suite_conservation(seed: int, quick: bool) -> tuple[bool, str]:
    """Geodesic conservation laws and fourth-order step-halving ratio."""
    parts = []
    ok = True
    ends = []  # the pair's endpoints at dt = 1e-3, 5e-4, 2.5e-4
    for label, metric, q, p in conservation_states():
        system = landmark_system(metric)
        y0 = np.array((q, p))
        ys, report = integrate(system, y0, IntegratorConfig(dt=1e-3, t_final=1.0))
        if label == "pair":
            ends.append(ys[-1])
            for dt in (5e-4, 2.5e-4):
                ends.append(_endpoint(system.rhs, y0, IntegratorConfig(dt=dt, t_final=1.0)))
        good = (
            report.energy_drift <= TOLERANCES["energy_drift"]
            and report.linear_drift <= TOLERANCES["linear_drift"]
            and report.angular_drift <= TOLERANCES["angular_drift"]
        )
        ok = ok and good
        parts.append(
            f"{label}: dH {report.energy_drift:.2e}, dP {report.linear_drift:.2e}, "
            f"dL {report.angular_drift:.2e}"
        )
    ratio = float(
        np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2]))
    )
    low, high = TOLERANCES["halving_low"], TOLERANCES["halving_high"]
    ok = ok and low <= ratio <= high
    parts.append(f"halving ratio {ratio:.2f} (window [{low:g}, {high:g}])")
    return ok, "; ".join(parts)


def suite_m0_reduction(seed: int, quick: bool) -> tuple[bool, str]:
    """Zero-dimensional shapes must reproduce the landmark operations."""
    tol = TOLERANCES["m0_reduction"]
    rng = np.random.default_rng(seed)
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.8, c=1.0)
    p = 3
    metric = LandmarkMetric(spec, p, 2)
    q = rng.uniform(-1.0, 1.0, size=(p, 2))
    q[:, 0] += 2.0 * np.arange(p)
    a = rng.standard_normal((p, 2))
    b = rng.standard_normal((p, 2))
    shape = shapes.landmark_shape(q)
    worst = 0.0

    def gap(x, y):
        return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))

    worst = max(
        worst,
        gap(shapes.horizontal_velocity(spec, shape, a), landmark_velocity(metric, q, a)),
    )
    pair = shapes.induced_pairing(spec, shape, a, a)
    worst = max(worst, abs(0.5 * pair - landmark_hamiltonian(metric, q, a)))
    sx, sa = shapes.geodesic_rhs(spec, shape, a)
    lx, la = landmark_rhs(metric, q, a)
    worst = max(worst, gap(sx, lx), gap(sa, la))
    worst = max(worst, gap(shapes.force_normal(spec, shape, a, b), landmark_force(metric, q, a, b)))
    worst = max(worst, gap(shapes.stress_normal(spec, shape, a, b), landmark_stress(metric, q, a, b)))
    sc = shapes.curvature_terms(spec, shape, a, b)
    lc = landmark_curvature(metric, q, a, b)
    worst = max(
        worst,
        abs(sc.r11 - lc.r11), abs(sc.r12 - lc.r12), abs(sc.r2 - lc.r2),
        abs(sc.r3 - lc.r3), abs(sc.total - lc.total),
    )
    return worst <= tol, f"max landmark gap = {worst:.3e} (tol {tol:.1e})"


def suite_refinement(seed: int, quick: bool) -> tuple[bool, str]:
    """Curvature under circle refinement, and normality transport on a geodesic."""
    tol_norm = TOLERANCES["normality"]
    spec = KernelSpec("sobolev_bessel", n=3, l=3, A=0.5, c=1.0)
    totals = []
    for samples in (32, 64, 128):
        shape = shapes.make_circle(samples)
        theta = np.arctan2(shape.x[:, 1], shape.x[:, 0])
        nu = shape.x / np.linalg.norm(shape.x, axis=1, keepdims=True)
        alpha = np.cos(theta)[:, None] * nu
        beta = np.sin(2.0 * theta)[:, None] * nu
        totals.append(shapes.curvature_terms(spec, shape, alpha, beta).total)
    d1 = abs(totals[1] - totals[0])
    d2 = abs(totals[2] - totals[1])
    monotone = d2 < d1
    shape0 = shapes.make_circle(48)
    theta = np.arctan2(shape0.x[:, 1], shape0.x[:, 0])
    nu = shape0.x / np.linalg.norm(shape0.x, axis=1, keepdims=True)
    a0 = 0.2 * np.cos(2.0 * theta)[:, None] * nu
    system = shape_system(spec, shape0)
    _, report = integrate(system, np.array((shape0.x, a0)), IntegratorConfig(dt=1e-3, t_final=1.0))
    defect = report.normality_max
    ok = monotone and defect is not None and defect <= tol_norm
    return ok, (
        f"totals {totals[0]:.6f} / {totals[1]:.6f} / {totals[2]:.6f}, "
        f"deltas {d1:.2e} > {d2:.2e} ({'monotone' if monotone else 'NOT monotone'}); "
        f"normality defect {defect:.2e} (tol {tol_norm:.1e})"
    )


def suite_matching(seed: int, quick: bool) -> tuple[bool, str]:
    """Geodesic boundary-value matching: closed form and round-trip recovery."""
    tol_single = TOLERANCES["match_single"]
    tol_round = TOLERANCES["match_roundtrip"]
    spec = _normalized_bessel(3, 3, 1.0)
    config = IntegratorConfig(dt=1e-2, t_final=1.0)
    single = LandmarkMetric(spec, 1, 2)
    q0 = np.array([[0.2, -0.1]])
    target = np.array([[0.5, 0.3]])
    k0 = float(kernel_value(spec, np.zeros((1, 1)))[0])
    p_closed = (target - q0) / k0
    res = match(single, q0, target, config)
    err_single = float(np.max(np.abs(res.p0 - p_closed)))
    pair = LandmarkMetric(spec, 2, 2)
    q0_pair = np.array([[0.0, 0.0], [1.0, 0.0]])
    p_true = np.array([[0.3, 0.2], [-0.1, 0.25]])
    q_end = _endpoint(landmark_system(pair).rhs, np.array((q0_pair, p_true)), config)[0]
    res_pair = match(pair, q0_pair, q_end, config)
    err_round = float(np.max(np.abs(res_pair.p0 - p_true)))
    ok = (
        err_single <= tol_single
        and res.converged
        and err_round <= tol_round
        and res_pair.converged
        and res_pair.iterations <= 25
    )
    return ok, (
        f"single gap {err_single:.3e} (tol {tol_single:.1e}); "
        f"round-trip gap {err_round:.3e} in {res_pair.iterations} iterations "
        f"(tol {tol_round:.1e}, limit 25)"
    )


SUITES: dict[str, object] = {
    "kernel_oracle": suite_kernel_oracle,
    "christoffel_oracle": suite_christoffel,
    "curvature_forms": suite_curvature_forms,
    "constant_curvature": suite_constant_curvature,
    "oneill": suite_oneill,
    "landmark_identity": suite_landmark_identity,
    "conservation": suite_conservation,
    "m0_reduction": suite_m0_reduction,
    "refinement": suite_refinement,
    "matching": suite_matching,
}


def run_suites(
    names: list[str] | None = None,
    *,
    seed: int = 0,
    threads: int = 1,
    quick: bool = False,
) -> list[SuiteResult]:
    """Run validation suites and return their results in registry order.

    ``names`` selects a subset (default: all).  ``threads`` > 1 runs suites
    concurrently; results keep registry order regardless.
    """
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError("unknown suite(s): " + ", ".join(sorted(unknown)))

    def run_one(name: str) -> SuiteResult:
        start = time.perf_counter()
        try:
            passed, detail = SUITES[name](seed, quick)
        except GeometryError as exc:
            passed, detail = False, f"error: {exc}"
        return SuiteResult(name, passed, detail, time.perf_counter() - start)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_one, names))
    return [run_one(name) for name in names]


def render_table(results: list[SuiteResult]) -> str:
    """Fixed-width text table of suite results."""
    width = max(len(r.name) for r in results) if results else 4
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.elapsed:7.2f}s  {r.detail}")
    total = sum(r.elapsed for r in results)
    failed = sum(1 for r in results if not r.passed)
    tail = "all suites passed" if failed == 0 else f"{failed} suite(s) FAILED"
    lines.append(f"{'-' * width}  ----  {total:7.2f}s  {tail}")
    return "\n".join(lines)
