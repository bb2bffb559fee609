"""Expression DSL: parsing, printing, evaluation, jets, differentiation."""

import numpy as np
import pytest

from cometric import dsl
from cometric.errors import DomainEvaluationError, ParseError
from cometric.submersion import hopf_case
from cometric.validation import random_cometric


def test_parse_basic_arithmetic():
    e = dsl.parse("x1 + 2 * x2")
    assert dsl.evaluate(e, [1.0, 3.0]) == pytest.approx(7.0)
    e = dsl.parse("(x1 - x2) / (1 + x1)")
    assert dsl.evaluate(e, [1.0, 0.5]) == pytest.approx(0.25)


def test_parse_precedence_and_unary():
    assert dsl.evaluate(dsl.parse("2 + 3 * 4"), []) == pytest.approx(14.0)
    assert dsl.evaluate(dsl.parse("-2 ^ 2"), []) == pytest.approx(-4.0)
    assert dsl.evaluate(dsl.parse("(-2) ^ 2"), []) == pytest.approx(4.0)
    # right-associative exponent
    assert dsl.evaluate(dsl.parse("2 ^ 3 ^ 2"), []) == pytest.approx(512.0)


def test_parse_functions():
    e = dsl.parse("exp(sin(x1)) + log(x1) * sqrt(x1)")
    x = 1.7
    want = np.exp(np.sin(x)) + np.log(x) * np.sqrt(x)
    assert dsl.evaluate(e, [x]) == pytest.approx(want, rel=1e-15)


def test_noninteger_exponent_becomes_exp_log():
    e = dsl.parse("x1 ^ 0.5")
    assert dsl.evaluate(e, [4.0]) == pytest.approx(2.0, rel=1e-14)
    # and negative bases are then domain errors, as for any log
    with pytest.raises(DomainEvaluationError):
        dsl.evaluate(e, [-4.0])


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as info:
        dsl.parse("x1 + * 2")
    assert info.value.offset == 5
    with pytest.raises(ParseError):
        dsl.parse("")
    with pytest.raises(ParseError):
        dsl.parse("x0")  # variables are 1-based
    with pytest.raises(ParseError):
        dsl.parse("frob(x1)")


def test_to_string_round_trips():
    texts = [
        "x1 + x2 * x3",
        "(x1 + x2) * x3",
        "x1 - (x2 - x3)",
        "x1 / x2 / x3",
        "-(x1 + 1)",
        "sin(cos(x1)) ^ 3",
        "x1 ^ (-2)",
        "exp(-(x1 * x1))",
        "tanh(x1 - 0.25)",
    ]
    for text in texts:
        e = dsl.parse(text)
        assert dsl.parse(dsl.to_string(e)) == e


def test_round_trip_random_trees():
    """Printing then reparsing reproduces canonical (constructor-built) trees.

    The smart constructors fold constants, which is also what the parser
    does, so trees built through them are fixed points of parse∘to_string.
    """
    rng = np.random.default_rng(7)

    def build(depth):
        if depth == 0:
            if rng.random() < 0.5:
                return dsl.Const(float(np.round(rng.uniform(-3, 3), 3)))
            return dsl.Var(int(rng.integers(1, 4)))
        r = rng.random()
        if r < 0.45:
            op = (dsl.add_, dsl.sub_, dsl.mul_, dsl.div_)[int(rng.integers(0, 4))]
            return op(build(depth - 1), build(depth - 1))
        if r < 0.6:
            return dsl.pow_(build(depth - 1), int(rng.integers(2, 4)))
        if r < 0.8:
            fn = ("sin", "cos", "tanh", "exp")[int(rng.integers(0, 4))]
            return dsl.call_(fn, build(depth - 1))
        return dsl.neg_(build(depth - 1))

    for _ in range(200):
        e = build(int(rng.integers(1, 5)))
        assert dsl.parse(dsl.to_string(e)) == e


def test_smart_constructors_fold_constants():
    one = dsl.Const(1.0)
    zero = dsl.Const(0.0)
    x = dsl.Var(1)
    assert dsl.add_(x, zero) == x
    assert dsl.mul_(x, one) == x
    assert dsl.mul_(x, zero) == zero
    assert dsl.add_(dsl.Const(2.0), dsl.Const(3.0)) == dsl.Const(5.0)
    assert dsl.pow_(x, 1) == x
    assert dsl.pow_(x, 0) == one
    assert dsl.neg_(dsl.neg_(x)) == x
    assert dsl.div_(x, one) == x
    assert dsl.call_("exp", zero) == one


def test_call_keeps_a_constant_outside_the_domain_unfolded():
    """``log(-1)`` is not folded to a number: the call stays in the tree and
    evaluating it is the domain error."""
    bad = dsl.call_("log", dsl.Const(-1.0))
    assert bad == dsl.Call("log", dsl.Const(-1.0))
    with pytest.raises(DomainEvaluationError):
        dsl.evaluate(bad, [])


def test_constant_power_overflow_is_a_domain_error():
    with pytest.raises(DomainEvaluationError, match="overflow in power"):
        dsl.parse("1e300^2")
    with pytest.raises(DomainEvaluationError, match="overflow in power"):
        dsl.pow_(dsl.Const(1e-300), -2)


def test_evaluate_domain_errors():
    for walker in (dsl.evaluate, dsl.jet):
        with pytest.raises(DomainEvaluationError):
            walker(dsl.parse("log(x1)"), [-1.0])
        with pytest.raises(DomainEvaluationError):
            walker(dsl.parse("log(x1)"), [0.0])
        with pytest.raises(DomainEvaluationError):
            walker(dsl.parse("sqrt(x1)"), [-0.5])
        with pytest.raises(DomainEvaluationError):
            walker(dsl.parse("1 / x1"), [0.0])
        with pytest.raises(DomainEvaluationError):
            walker(dsl.parse("x1 ^ (-1)"), [0.0])
        with pytest.raises(DomainEvaluationError):
            walker(dsl.parse("exp(x1)"), [1e6])  # overflow


def test_sqrt_at_zero_has_a_value_but_no_jet():
    e = dsl.parse("sqrt(x1)")
    assert dsl.evaluate(e, [0.0]) == 0.0
    with pytest.raises(DomainEvaluationError):
        dsl.jet(e, [0.0])
    # the evaluated derivative tree refuses the same point
    with pytest.raises(DomainEvaluationError):
        dsl.evaluate(dsl.differentiate(e, 1), [0.0])


def _tree_jet(e, x):
    """Gradient and Hessian from evaluated :func:`dsl.differentiate` trees."""
    d = len(x)
    grads = [dsl.differentiate(e, s) for s in range(1, d + 1)]
    g = np.array([dsl.evaluate(t, x) for t in grads])
    h = np.array([[dsl.evaluate(dsl.differentiate(t, u), x) for u in range(1, d + 1)] for t in grads])
    return g, h


def test_jet_matches_evaluated_derivative_trees():
    """Forward arithmetic against the symbolic route, on random cometric
    entries (d = 2..4), the hopf projection components and every function
    of the language."""
    rng = np.random.default_rng(3)
    texts = ["sqrt(3 + x1 * x2) * log(2 + x2 * x2)", "exp(x1 - x2 ^ 3) / (2 + cos(x1))",
             "tanh(x1 * x2) ^ (-2) - sin(x2) / x1", "x1 ^ 0.5 * (x1 + x2) ^ 4"]
    cases = [(dsl.parse(t), rng.uniform(0.2, 1.2, size=2)) for t in texts for _ in range(5)]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        defn, x = random_cometric(rng, 2 + seed % 3)
        cases += [(e, x) for e in defn.entries.values()]
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.standard_normal(3)
        x *= rng.uniform(0.1, 0.6) / np.linalg.norm(x)
        cases += [(e, x) for e in hopf_case().proj]
    for e, x in cases:
        value, grad, hess = dsl.jet(e, x)
        assert value == dsl.evaluate(e, x)
        g, h = _tree_jet(e, x)
        assert np.abs(grad - g).max() <= 1e-13 * (1.0 + np.abs(g).max())
        assert np.abs(hess - h).max() <= 1e-13 * (1.0 + np.abs(h).max())
        assert np.array_equal(hess, hess.T)


def test_differentiate_against_finite_differences():
    rng = np.random.default_rng(11)
    exprs = [
        "x1 * x2 + sin(x1 * x1)",
        "exp(x1 - x2 * x2) * cos(x2)",
        "tanh(x1) ^ 3 - x2 / (2 + cos(x1))",
        "sqrt(3 + x1 * x1) * log(2 + x2 * x2)",
        "(x1 + 2 * x2) ^ 4",
    ]
    h = 1e-6
    for text in exprs:
        e = dsl.parse(text)
        for _ in range(20):
            x = rng.uniform(-1.2, 1.2, size=2)
            for var in (1, 2):
                d = dsl.evaluate(dsl.differentiate(e, var), x)
                xp = x.copy(); xp[var - 1] += h
                xm = x.copy(); xm[var - 1] -= h
                fd = (dsl.evaluate(e, xp) - dsl.evaluate(e, xm)) / (2 * h)
                assert d == pytest.approx(fd, rel=2e-8, abs=2e-8)


def test_differentiate_constant_is_zero():
    e = dsl.parse("3.5")
    assert dsl.differentiate(e, 1) == dsl.Const(0.0)
    # derivative with respect to an absent variable
    assert dsl.differentiate(dsl.parse("x1 * x1"), 2) == dsl.Const(0.0)


def test_max_var():
    assert dsl.max_var(dsl.parse("x1 + sin(x3) * x2")) == 3


@pytest.mark.parametrize("walk", [dsl.to_string, lambda e: dsl.jet(e, [0.0]), lambda e: dsl.evaluate(e, [0.0]),
                                  lambda e: dsl.differentiate(e, 1), dsl.max_var],
                         ids=["to_string", "jet", "evaluate", "differentiate", "max_var"])
def test_tree_walkers_refuse_what_is_not_an_expression(walk):
    """A foreign object anywhere in a tree is a TypeError naming it, not a
    wrong value: at the root and below an operator."""
    for tree in (object(), dsl.Add(dsl.Var(1), 7)):
        with pytest.raises(TypeError, match="^not an expression: "):
            walk(tree)


def test_differentiate_refuses_an_unknown_function():
    with pytest.raises(TypeError, match="^unknown function 'erf'$"):
        dsl.differentiate(dsl.Call("erf", dsl.Var(1)), 1)


def test_walk_refuses_a_variable_beyond_the_point_and_an_overflowing_power():
    with pytest.raises(DomainEvaluationError, match="^expression uses x3 but the point has dimension 2$"):
        dsl.evaluate(dsl.parse("x1 + x3"), [1.0, 2.0])
    with pytest.raises(DomainEvaluationError, match="^overflow in power: "):
        dsl.jet(dsl.parse("x1^2"), [1e200])
