"""A tiny closed-form expression language over variables ``x1 .. xd``.

Supports literals, ``+ - * / ^`` (with ``^`` restricted to integer exponents;
any other exponent is rewritten through ``exp``/``log`` at parse time), unary
minus, and the functions ``exp, log, sqrt, sin, cos, tanh``.  Precedence,
tightest first: ``^``, unary minus, ``* /``, ``+ -``.

The module provides structural parsing (:func:`parse`), printing
(:func:`to_string`, which round-trips through :func:`parse`), evaluation with
domain checking and one-pass value/gradient/Hessian jets (one tree walker),
and symbolic differentiation with a deliberately minimal,
idempotent simplifier (constant folding plus ``0*x -> 0``, ``x+0 -> x``,
``1*x -> x`` and friends) so printed derivatives stay recognizable.

Expression nodes are frozen dataclasses: structural equality is ``==``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainEvaluationError, ParseError


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add_(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub_(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg_(b)
    return Sub(a, b)


def mul_(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div_(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def pow_(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base) and (exponent >= 0 or base.value != 0.0):
        try:
            return Const(float(base.value**exponent))
        except OverflowError as exc:
            raise DomainEvaluationError(f"overflow in power: {exc}") from exc
    return Pow(base, exponent)


def neg_(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


_FN = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
}


def call_(fn: str, arg: Expr) -> Expr:
    if _is_const(arg):
        try:
            v = _FN[fn](arg.value)
        except (ValueError, OverflowError):
            return Call(fn, arg)
        if math.isfinite(v):
            return Const(v)
    return Call(fn, arg)


# --- parsing ---------------------------------------------------------------

_TOKEN_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_NAME = re.compile(r"^x([1-9]\d*)$")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                e = add_(e, self.term())
            elif ch == "-":
                self.pos += 1
                e = sub_(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                e = mul_(e, self.unary())
            elif ch == "/":
                self.pos += 1
                e = div_(e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        if self._peek() == "-":
            self.pos += 1
            return neg_(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self._peek() != "^":
            return base
        self.pos += 1
        expo = self.unary()  # right-associative, may carry its own sign
        if isinstance(expo, Const) and float(expo.value).is_integer() and abs(expo.value) < 2**31:
            return pow_(base, int(expo.value))
        # Non-integer or non-constant exponent: rewrite b^e as exp(e * log(b)).
        return call_("exp", mul_(expo, call_("log", base)))

    def atom(self) -> Expr:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self._expect(")")
            return e
        m = _TOKEN_NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _TOKEN_IDENT.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            vm = _VAR_NAME.match(name)
            if vm:
                return Var(int(vm.group(1)))
            if name in _FN:
                self._expect("(")
                arg = self.expr()
                self._expect(")")
                return call_(name, arg)
            raise ParseError(f"unknown identifier {name!r}", start)
        raise ParseError(f"unexpected character {ch!r}", self.pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree (minimal simplifications applied)."""
    return _Parser(text).parse()


# --- printing --------------------------------------------------------------

_LEVEL = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Const: 9, Var: 9, Call: 9}


def _render(e: Expr, min_level: int) -> str:
    s: str
    if isinstance(e, Const):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = f"x{e.index}"
    elif isinstance(e, Add):
        s = f"{_render(e.a, 1)} + {_render(e.b, 2)}"
    elif isinstance(e, Sub):
        s = f"{_render(e.a, 1)} - {_render(e.b, 2)}"
    elif isinstance(e, Mul):
        s = f"{_render(e.a, 2)} * {_render(e.b, 3)}"
    elif isinstance(e, Div):
        s = f"{_render(e.a, 2)} / {_render(e.b, 3)}"
    elif isinstance(e, Neg):
        s = f"-{_render(e.a, 3)}"
    elif isinstance(e, Pow):
        expo = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        s = f"{_render(e.base, 9)}^{expo}"
    elif isinstance(e, Call):
        s = f"{e.fn}({_render(e.arg, 0)})"
    else:  # pragma: no cover
        raise TypeError(f"not an expression: {e!r}")
    if _LEVEL[type(e)] < min_level:
        return f"({s})"
    return s


def to_string(e: Expr) -> str:
    """Print ``e`` so that ``parse(to_string(e)) == e``."""
    return _render(e, 0)


# --- evaluation ------------------------------------------------------------

def evaluate(e: Expr, x) -> float:
    """Evaluate at the point ``x`` (0-based sequence; ``Var(i)`` reads ``x[i-1]``)."""
    return _walk(e, x, 0)[0]


def jet(e: Expr, x) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient ``(d,)`` and Hessian ``(d, d)`` at ``x`` (``d = len(x)``)
    by second-order forward arithmetic; raises :class:`DomainEvaluationError`
    wherever the value or a derivative does not exist (``sqrt`` at 0)."""
    return _walk(e, x, len(x))


# First and second derivative factors from the argument v and the value r.
_CHAIN = {
    "exp": lambda v, r: (r, r),
    "sin": lambda v, r: (math.cos(v), -r),
    "cos": lambda v, r: (-math.sin(v), -r),
    "tanh": lambda v, r: (1.0 - r**2, -2.0 * r * (1.0 - r**2)),
}


def _walk(e: Expr, x, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Value with gradient and Hessian in ``x1 .. xn``; first derivatives take
    the operations of evaluated :func:`differentiate` trees.  With ``n = 0`` the
    derivative arrays are empty and only the value's domain is checked."""
    if isinstance(e, Const):
        return e.value, np.zeros(n), np.zeros((n, n))
    if isinstance(e, Var):
        if e.index > len(x):
            raise DomainEvaluationError(f"expression uses x{e.index} but the point has dimension {len(x)}")
        unit = (np.arange(n) == e.index - 1).astype(float)
        return float(x[e.index - 1]), unit, np.zeros((n, n))
    if isinstance(e, (Add, Sub, Mul)):
        a, ga, ha = _walk(e.a, x, n)
        b, gb, hb = _walk(e.b, x, n)
        if isinstance(e, Add):
            return a + b, ga + gb, ha + hb
        if isinstance(e, Sub):
            return a - b, ga - gb, ha - hb
        t = np.outer(ga, gb)
        return a * b, ga * b + a * gb, ha * b + a * hb + (t + t.T)
    if isinstance(e, Div):
        b, gb, hb = _walk(e.b, x, n)
        if b == 0.0:
            raise DomainEvaluationError("division by zero")
        a, ga, ha = _walk(e.a, x, n)
        q = a / b
        g = (ga * b - a * gb) / (b * b)
        t = np.outer(g, gb)
        return q, g, (ha - q * hb - (t + t.T)) / b
    if isinstance(e, Pow):
        b, gb, hb = _walk(e.base, x, n)
        k = e.exponent
        if b == 0.0 and k < 0:
            raise DomainEvaluationError("zero raised to a negative power")
        try:
            v = float(b**k)
            c1 = k * b ** (k - 1) if n and k else 0.0
            c2 = k * (k - 1) * b ** (k - 2) if n and k not in (0, 1) else 0.0
        except OverflowError as exc:
            raise DomainEvaluationError(f"overflow in power: {exc}") from exc
        return v, c1 * gb, c1 * hb + c2 * np.outer(gb, gb)
    if isinstance(e, Neg):
        a, ga, ha = _walk(e.a, x, n)
        return -a, -ga, -ha
    if isinstance(e, Call):
        v, gv, hv = _walk(e.arg, x, n)
        if e.fn == "log" and v <= 0.0:
            raise DomainEvaluationError(f"log of nonpositive value {v!r}")
        if e.fn == "sqrt" and v < 0.0:
            raise DomainEvaluationError(f"sqrt of negative value {v!r}")
        try:
            r = _FN[e.fn](v)
        except (ValueError, OverflowError) as exc:
            raise DomainEvaluationError(f"{e.fn}({v!r}): {exc}") from exc
        if e.fn == "log":
            g = gv / v
            return r, g, hv / v - np.outer(g, g)
        if e.fn == "sqrt":
            if n and r == 0.0:
                raise DomainEvaluationError("sqrt has no derivative at 0")
            g = gv / (2.0 * r)
            return r, g, (hv - 2.0 * np.outer(g, g)) / (2.0 * r)
        f1, f2 = _CHAIN[e.fn](v, r)
        return r, f1 * gv, f1 * hv + f2 * np.outer(gv, gv)
    raise TypeError(f"not an expression: {e!r}")


# --- differentiation -------------------------------------------------------

def differentiate(e: Expr, var: int) -> Expr:
    """Exact partial derivative with respect to ``x{var}`` (1-based)."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.index == var else Const(0.0)
    if isinstance(e, Add):
        return add_(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Sub):
        return sub_(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Mul):
        return add_(mul_(differentiate(e.a, var), e.b), mul_(e.a, differentiate(e.b, var)))
    if isinstance(e, Div):
        num = sub_(mul_(differentiate(e.a, var), e.b), mul_(e.a, differentiate(e.b, var)))
        return div_(num, mul_(e.b, e.b))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        return mul_(mul_(Const(float(e.exponent)), pow_(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return neg_(differentiate(e.a, var))
    if isinstance(e, Call):
        da = differentiate(e.arg, var)
        if e.fn == "exp":
            outer: Expr = call_("exp", e.arg)
        elif e.fn == "log":
            return div_(da, e.arg)
        elif e.fn == "sqrt":
            return div_(da, mul_(Const(2.0), call_("sqrt", e.arg)))
        elif e.fn == "sin":
            outer = call_("cos", e.arg)
        elif e.fn == "cos":
            outer = neg_(call_("sin", e.arg))
        elif e.fn == "tanh":
            outer = sub_(Const(1.0), pow_(call_("tanh", e.arg), 2))
        else:  # pragma: no cover
            raise TypeError(f"unknown function {e.fn!r}")
        return mul_(outer, da)
    raise TypeError(f"not an expression: {e!r}")


# --- structural helpers ----------------------------------------------------

def max_var(e: Expr) -> int:
    """Largest variable index appearing in ``e`` (0 when constant)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Const,)):
        return 0
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_var(e.a), max_var(e.b))
    if isinstance(e, Pow):
        return max_var(e.base)
    if isinstance(e, Neg):
        return max_var(e.a)
    if isinstance(e, Call):
        return max_var(e.arg)
    raise TypeError(f"not an expression: {e!r}")


def shift_vars(e: Expr, offset: int) -> Expr:
    """Rename every ``x{i}`` to ``x{i+offset}`` (used to embed factors in products)."""
    if isinstance(e, Var):
        return Var(e.index + offset)
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return Add(shift_vars(e.a, offset), shift_vars(e.b, offset))
    if isinstance(e, Sub):
        return Sub(shift_vars(e.a, offset), shift_vars(e.b, offset))
    if isinstance(e, Mul):
        return Mul(shift_vars(e.a, offset), shift_vars(e.b, offset))
    if isinstance(e, Div):
        return Div(shift_vars(e.a, offset), shift_vars(e.b, offset))
    if isinstance(e, Pow):
        return Pow(shift_vars(e.base, offset), e.exponent)
    if isinstance(e, Neg):
        return Neg(shift_vars(e.a, offset))
    if isinstance(e, Call):
        return Call(e.fn, shift_vars(e.arg, offset))
    raise TypeError(f"not an expression: {e!r}")
