"""Riemannian submersions: metric-quotient check and curvature bookkeeping."""

import numpy as np
import pytest

from cometric import dsl, submersion, validation
from cometric.charts import cometric_jet
from cometric.cli import main
from cometric.curvature import numerator_coordinate
from cometric.errors import ConfigurationError, GeometryError, MetricDegeneracyError

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def pullback_sharp(case, x, alpha):
    """Horizontal lift ``L_alpha(x) = G_E(x) J(x)^T alpha`` of a base coform."""
    return cometric_jet(case.total, x).ginv @ (case.jacobian(x).T @ alpha)


def _lift_bracket_fd(case, x, alpha, beta):
    """The bracket ``[L_alpha, L_beta](x)`` by central differences of the lift
    fields, step ``eps^(1/3) (1 + |x|)``: the oracle of the exact bracket."""
    d = case.total.dim
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


def test_flat_case_projection():
    case = submersion.flat_case()
    x = np.array([0.3, -0.8])
    assert np.allclose(case.project(x), np.array([0.3]))
    jac = case.jacobian(x)
    assert jac.shape == (1, 2)
    assert np.allclose(jac, np.array([[1.0, 0.0]]))
    rec = submersion.oneill_check(case, x, np.array([1.0]), np.array([0.5]))
    assert rec.residual == pytest.approx(0.0, abs=1e-15)
    assert rec.base_numerator == 0.0 and rec.total_numerator == 0.0


def test_check_case_metric_quotient():
    rng = np.random.default_rng(30)
    for name in ("flat", "product", "hopf"):
        case = submersion.catalog_case(name)
        for _ in range(5):
            if name == "hopf":
                d = rng.standard_normal(3)
                x = d / np.linalg.norm(d) * rng.uniform(0.1, 0.6)
            else:
                x = rng.uniform(-0.7, 0.7, size=case.total.dim)
            submersion.check_case(case, x)  # raises on failure


def test_check_case_rejects_degenerate_points():
    from cometric import charts, dsl

    # the chart seam |x| = 1, x3 = 0 is singular for the two-to-one sphere map:
    # the projection expressions themselves blow up there
    case = submersion.hopf_case()
    with pytest.raises(GeometryError):
        submersion.check_case(case, np.array([1.0, 0.0, 0.0]))
    # a synthetic projection whose differential loses rank at the origin
    bad = submersion.SubmersionCase(
        name="pinch",
        total=charts.euclidean(2),
        base=charts.euclidean(1),
        proj=(dsl.parse("x1 * x2"),),
    )
    with pytest.raises(MetricDegeneracyError):
        submersion.check_case(bad, np.zeros(2))


def test_product_case_vertical_term_vanishes():
    rng = np.random.default_rng(31)
    case = submersion.product_case()
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, size=3)
        alpha = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        rec = submersion.oneill_check(case, x, alpha, beta)
        assert rec.vertical_term == pytest.approx(0.0, abs=1e-14)
        assert rec.residual == pytest.approx(0.0, abs=1e-10)
        assert rec.base_numerator == pytest.approx(rec.total_numerator, rel=1e-10, abs=1e-12)


def test_hopf_sectionals():
    """Base 4 = total 1 + vertical 3, pointwise, in chart coordinates."""
    rng = np.random.default_rng(32)
    case = submersion.hopf_case()
    for _ in range(5):
        d = rng.standard_normal(3)
        x = d / np.linalg.norm(d) * rng.uniform(0.1, 0.55)
        alpha = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        rec = submersion.oneill_check(case, x, alpha, beta)
        assert rec.base_sectional == pytest.approx(4.0, abs=1e-9)
        assert rec.total_sectional == pytest.approx(1.0, abs=1e-9)
        assert rec.residual == pytest.approx(0.0, abs=1e-9)
        # the vertical term accounts for the full gap: 3 = 4 - 1 after scaling
        assert 0.75 * rec.vertical_term == pytest.approx(
            rec.base_numerator - rec.total_numerator, rel=1e-9, abs=1e-12
        )


def test_pullback_sharp_is_horizontal():
    """Lifted coforms produce horizontal vectors: J maps them onto the base sharp."""
    rng = np.random.default_rng(34)
    case = submersion.hopf_case()
    from cometric import charts

    for _ in range(5):
        d = rng.standard_normal(3)
        x = d / np.linalg.norm(d) * 0.4
        alpha = rng.standard_normal(2)
        lift = pullback_sharp(case, x, alpha)
        y = case.project(x)
        base_jet = charts.cometric_jet(case.base, y)
        assert np.allclose(case.jacobian(x) @ lift, base_jet.ginv @ alpha, atol=1e-12)


def test_exact_and_fd_brackets_agree(monkeypatch):
    """The vertical term of the exact bracket matches that of the
    central-difference bracket, put in its place."""
    rng = np.random.default_rng(35)
    case = submersion.hopf_case()
    d = rng.standard_normal(3)
    x = d / np.linalg.norm(d) * 0.45
    alpha = rng.standard_normal(2)
    beta = rng.standard_normal(2)
    exact = submersion.oneill_check(case, x, alpha, beta)
    monkeypatch.setattr(submersion, "_lift_bracket_exact", 
                        lambda jet_e, jac, djac, a, b: _lift_bracket_fd(case, x, a, b))
    fd = submersion.oneill_check(case, x, alpha, beta)
    assert exact.vertical_term == pytest.approx(fd.vertical_term, rel=1e-6, abs=1e-8)


def test_catalog_case_names():
    assert submersion.catalog_case("product").name == "product"
    with pytest.raises(ConfigurationError):
        submersion.catalog_case("torus")


def _reference_oneill_check(case, x, alpha, beta):
    """The earlier ``oneill_check``: each projection component walked for the
    value, the Jacobian (twice) and the Jacobian derivative separately."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)

    def jacobian(z):
        return np.array([dsl.jet(e, z)[1] for e in case.proj])

    def jacobian_derivative(z):
        return np.stack([dsl.jet(e, z)[2] for e in case.proj], axis=1)

    jet_e = cometric_jet(case.total, x)
    y = np.array([dsl.evaluate(e, x) for e in case.proj])
    jet_b = cometric_jet(case.base, y)
    jac = jacobian(x)
    base_bd = numerator_coordinate(jet_b, alpha, beta)
    total_bd = numerator_coordinate(jet_e, jac.T @ alpha, jac.T @ beta)
    jac2 = jacobian(x)
    djac = jacobian_derivative(x)
    la = jet_e.ginv @ (jac2.T @ alpha)
    lb = jet_e.ginv @ (jac2.T @ beta)
    dla = np.einsum("sij,rj,r->si", jet_e.dginv, jac2, alpha) + np.einsum(
        "ij,srj,r->si", jet_e.ginv, djac, alpha
    )
    dlb = np.einsum("sij,rj,r->si", jet_e.dginv, jac2, beta) + np.einsum(
        "ij,srj,r->si", jet_e.ginv, djac, beta
    )
    w = la @ dlb - lb @ dla
    mid = jac @ jet_e.ginv @ jac.T
    w_hor = jet_e.ginv @ (jac.T @ np.linalg.solve(mid, jac @ w))
    w_ver = w - w_hor
    vertical = float(w_ver @ jet_e.gcov @ w_ver)
    return submersion.OneillRecord(
        x=x, y=y,
        base_numerator=base_bd.total,
        total_numerator=total_bd.total,
        vertical_term=vertical,
        residual=base_bd.total - total_bd.total - 0.75 * vertical,
        denominator=base_bd.denominator,
        base_sectional=base_bd.sectional,
        total_sectional=total_bd.sectional,
    )


def test_one_jet_per_component_is_byte_identical(capsys, monkeypatch):
    """``oneill check`` output and the ``oneill`` suite detail equal, byte for
    byte, those of the four-walk route."""
    runs = []
    for route in (submersion.oneill_check, _reference_oneill_check):
        monkeypatch.setattr(submersion, "oneill_check", route)
        outs = []
        for case in ("flat", "product", "hopf"):
            assert main(["oneill", "check", "--case", case, "--seed", "0"]) == 0
            outs.append(capsys.readouterr().out)
        outs.append(validation.suite_oneill(0, False))
        runs.append(outs)
    assert runs[0] == runs[1]
    assert runs[0][-1][0]
