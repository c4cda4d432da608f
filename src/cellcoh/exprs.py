"""Arithmetic expressions over named coordinates.

Recursive-descent parser for the grammar

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'

with functions sin, cos, exp; whitespace-insensitive, left-associative.
Numbers are exact rationals (integer and decimal literals; a quotient of
two literals is folded into one rational constant).  Syntax errors carry
the character offset.  Differentiation is exact on the supported function
set; evaluation is floating point and broadcasts over numpy arrays of
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import pi

import numpy as np

FUNCTIONS = ("sin", "cos", "exp")
CONSTANTS = ("pi",)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return sub(Const(Fraction(0)), self)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __str__(self):
        return str(self.value)

    @cached_property
    def as_float(self) -> np.float64:
        """The value as a float, converted on the first evaluation only; not
        a field, so equality, hash and repr are those of the value."""
        return np.float64(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Pi(Expr):
    """The circle constant; the one non-rational named constant."""

    def __str__(self):
        return "pi"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str          # '+', '-', '*', '/'
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __str__(self):
        return f"{self.base}^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def __str__(self):
        return f"{self.func}({self.arg})"


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot treat {x!r} as an expression")


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0:
            return ZERO
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return ZERO
        if b.value == 1:
            return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr, position: int = 0) -> Expr:
    """a / b; a constant zero divisor is refused as a ParseError at the
    given position of the source text, since mul would fold 0 * (a / 0)
    away before any evaluation could report it."""
    if isinstance(b, Const):
        if b.value == 0:
            raise ParseError("division by zero", position)
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return Const(a.value / b.value)
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    return BinOp("/", a, b)


def pow_(a: Expr, k: int, position: int = 0) -> Expr:
    """a^k; the constant 0 to a negative power is refused as div refuses a
    constant zero divisor."""
    if k == 0:
        return ONE
    if k == 1:
        return a
    if isinstance(a, Const):
        if a.value == 0 and k < 0:
            raise ParseError("zero to a negative power", position)
        return Const(a.value ** k)
    return Pow(a, k)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str       # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.factor()
            e = mul(e, rhs) if op.text == "*" else div(e, rhs, op.pos)
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return sub(ZERO, self.factor())
        e = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            sign = 1
            tok = self.peek()
            if tok.kind == "op" and tok.text == "-":
                self.advance()
                sign = -1
                tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                raise ParseError("expected integer exponent", tok.pos)
            self.advance()
            e = pow_(e, sign * int(tok.text), caret.pos)
        return e

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(_number(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Pi()
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError("expected expression", tok.pos)


def _number(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        denom = 10 ** len(frac)
        return Fraction(int(whole or "0") * denom + int(frac or "0"), denom)
    return Fraction(int(text))


def parse_expr(text: str) -> Expr:
    """Parse an expression.

    >>> parse_expr("s")
    Var(name='s')
    >>> parse_expr("2*cos(s*t) - 1/3")
    BinOp(op='-', left=BinOp(op='*', left=Const(value=Fraction(2, 1)), right=Call(func='cos', arg=BinOp(op='*', left=Var(name='s'), right=Var(name='t')))), right=Const(value=Fraction(1, 3)))
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Analysis, evaluation, differentiation
# ---------------------------------------------------------------------------

def free_vars(e: Expr) -> set:
    if isinstance(e, (Const, Pi)):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Call):
        return free_vars(e.arg)
    raise TypeError(f"not an expression: {e!r}")


def check_bound(e: Expr, allowed) -> None:
    """Raise on identifiers outside the allowed coordinate names."""
    unknown = free_vars(e) - set(allowed)
    if unknown:
        raise EvalError(
            f"unknown identifier(s) {sorted(unknown)}; "
            f"declared coordinates are {sorted(allowed)}")


def evaluate(e: Expr, env: dict):
    """Value of an expression at one point or at arrays of points.

    Each coordinate in env is a float or a numpy array; arrays broadcast
    against each other and the result takes their common shape, constant
    expressions included (a float when every coordinate is a scalar).
    Division by zero, zero to a negative power and a value that is not
    finite raise EvalError at the first such point.

    >>> evaluate(parse_expr("s^2 + 1"), {"s": np.array([0.0, 1.0, 2.0])})
    array([1., 2., 5.])
    """
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                   for v in env.values()))
    points = dict(zip(env, arrays))
    shape = arrays[0].shape if arrays else ()
    with np.errstate(all="ignore"):
        val = _eval(e, points)
    _raise_at(~np.isfinite(val), "non-finite value", points)
    val = np.broadcast_to(val, shape)
    return val if shape else float(val)


def _raise_at(bad, what: str, points: dict) -> None:
    """Raise EvalError at the first point where bad holds, if any.  The
    mask is broadcast to the points only on a hit: a bad constant over
    zero points is no hit."""
    if not np.any(bad):
        return
    shape = np.broadcast_shapes(*(v.shape for v in points.values()))
    bad = np.broadcast_to(bad, shape)
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), shape)
        at = {name: float(v[i]) for name, v in points.items()}
        raise EvalError(f"{what} at {at}")


def _eval(e: Expr, points: dict):
    if isinstance(e, Const):
        return e.as_float
    if isinstance(e, Pi):
        return np.float64(pi)
    if isinstance(e, Var):
        try:
            return points[e.name]
        except KeyError:
            raise EvalError(f"unknown identifier {e.name!r}") from None
    if isinstance(e, BinOp):
        a, b = _eval(e.left, points), _eval(e.right, points)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        _raise_at(b == 0.0, "division by zero", points)
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, points)
        if e.exponent < 0:
            _raise_at(base == 0.0, "zero to a negative power", points)
        return np.power(base, e.exponent)
    if isinstance(e, Call):
        return getattr(np, e.func)(_eval(e.arg, points))   # sin, cos, exp
    raise TypeError(f"not an expression: {e!r}")


def symbolic_d(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to a coordinate name."""
    if isinstance(e, (Const, Pi)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, BinOp):
        da, db = symbolic_d(e.left, var), symbolic_d(e.right, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        num = sub(mul(da, e.right), mul(e.left, db))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        inner = symbolic_d(e.base, var)
        return mul(mul(Const(Fraction(e.exponent)), pow_(e.base, e.exponent - 1)),
                   inner)
    if isinstance(e, Call):
        inner = symbolic_d(e.arg, var)
        if e.func == "sin":
            return mul(Call("cos", e.arg), inner)
        if e.func == "cos":
            return mul(sub(ZERO, Call("sin", e.arg)), inner)
        return mul(Call("exp", e.arg), inner)
    raise TypeError(f"not an expression: {e!r}")
