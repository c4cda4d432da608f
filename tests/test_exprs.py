import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cellcoh.exprs import (BinOp, Call, Const, EvalError, ParseError, Var,
                           check_bound, evaluate, free_vars, parse_expr,
                           symbolic_d)


def test_single_variable():
    assert parse_expr("s") == Var("s")


def test_rational_constant_folding():
    e = parse_expr("2*cos(s*t) - 1/3")
    assert isinstance(e, BinOp) and e.op == "-"
    assert e.right == Const(Fraction(1, 3))
    assert isinstance(e.left.right, Call)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("s*(")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse_expr("sin(s")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_expr("2 $ 3")
    assert err.value.position == 2


def test_precedence_and_associativity():
    assert evaluate(parse_expr("2-3-4"), {}) == -5
    assert parse_expr("2/3/4") == Const(Fraction(1, 6))
    assert evaluate(parse_expr("2+3*4"), {}) == 14
    assert evaluate(parse_expr("2*3^2"), {}) == 18
    assert evaluate(parse_expr("(2+3)*4"), {}) == 20


def test_unary_minus_and_decimals():
    assert evaluate(parse_expr("-s"), {"s": 2.5}) == -2.5
    assert parse_expr("0.5") == Const(Fraction(1, 2))
    assert evaluate(parse_expr("-2^2"), {}) == -4  # minus binds outside pow


def test_pi_constant():
    assert abs(evaluate(parse_expr("cos(2*pi)"), {}) - 1.0) < 1e-15
    assert free_vars(parse_expr("pi*s")) == {"s"}
    assert symbolic_d(parse_expr("pi"), "s") == Const(Fraction(0))


def test_unknown_identifier_at_bind_time():
    e = parse_expr("s + bogus")
    with pytest.raises(EvalError, match="bogus"):
        check_bound(e, ("s", "t"))
    with pytest.raises(EvalError, match="bogus"):
        evaluate(e, {"s": 1.0})


def test_division_by_zero_reports():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse_expr("1/s"), {"s": 0.0})


def test_symbolic_d_against_finite_differences():
    rng = random.Random(0)
    exprs = [
        "sin(s*t) + cos(s)^2",
        "exp(s - t/3) * s^3",
        "(s + 2*t)^2 / (1 + s^2)",
        "2*cos(s*t) - 1/3",
        "exp(sin(t)) - s/t",
    ]
    h = 1e-6
    for text in exprs:
        e = parse_expr(text)
        for var in ("s", "t"):
            d = symbolic_d(e, var)
            for _ in range(20):
                env = {"s": rng.uniform(0.2, 1.8), "t": rng.uniform(0.2, 1.8)}
                up, dn = dict(env), dict(env)
                up[var] += h
                dn[var] -= h
                approx = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                exact = evaluate(d, env)
                scale = max(1.0, abs(exact))
                assert abs(approx - exact) / scale < 1e-6


def test_derivative_rules():
    assert symbolic_d(parse_expr("s"), "s") == Const(Fraction(1))
    assert symbolic_d(parse_expr("t"), "s") == Const(Fraction(0))
    d = symbolic_d(parse_expr("sin(s)"), "s")
    assert evaluate(d, {"s": 0.3}) == pytest.approx(math.cos(0.3))
    d = symbolic_d(parse_expr("s^3"), "s")
    assert evaluate(d, {"s": 2.0}) == 12.0


def test_integer_exponents_only():
    with pytest.raises(ParseError):
        parse_expr("s^t")
    with pytest.raises(ParseError):
        parse_expr("s^1.5")
    assert evaluate(parse_expr("2^-2"), {}) == 0.25


POINTS = {"s": np.linspace(-1.4, 1.6, 7), "t": np.linspace(0.3, 2.1, 7)}


@pytest.mark.parametrize("text", [
    "7/3", "pi", "s^3 - 2*s*t + 1/2", "(s + t)/(1 + s^2)", "s^-2 + t^5",
    "sin(s*t) + cos(s)^2 - exp(t/3)"])
def test_array_evaluation_equals_pointwise(text):
    e = parse_expr(text)
    got = evaluate(e, POINTS)
    assert got.shape == (7,)       # constants broadcast to the points
    want = [evaluate(e, {"s": float(s), "t": float(t)})
            for s, t in zip(POINTS["s"], POINTS["t"])]
    assert all(isinstance(w, float) for w in want)
    assert np.array_equal(got, want)


def test_scalar_and_array_coordinates_broadcast():
    e = parse_expr("s*t")
    got = evaluate(e, {"s": np.arange(3.0)[:, None], "t": np.arange(4.0)})
    assert np.array_equal(got, np.outer(np.arange(3.0), np.arange(4.0)))
    assert evaluate(parse_expr("t"), {"s": np.zeros(5), "t": 2.0}).shape \
        == (5,)
    # no points, nothing to divide by zero at
    assert evaluate(parse_expr("1/(1-1) + s"), {"s": np.zeros(0)}).shape \
        == (0,)


def test_array_errors_name_the_first_bad_point():
    s = np.array([2.0, 1.0, 0.0, -1.0, 0.0])
    with pytest.raises(EvalError, match=r"division by zero at \{'s': 0\.0\}"):
        evaluate(parse_expr("1/s"), {"s": s})
    with pytest.raises(EvalError, match="zero to a negative power"):
        evaluate(parse_expr("s^-1"), {"s": s})


def test_non_finite_values_raise():
    e = parse_expr("exp(exp(exp(s*4)))")
    assert math.isfinite(evaluate(e, {"s": 0.0}))
    with pytest.raises(EvalError, match=r"non-finite value at \{'s': 1\.0\}"):
        evaluate(e, {"s": 1.0})
    with pytest.raises(EvalError, match=r"non-finite value at \{'s': 1\.0\}"):
        evaluate(e, {"s": np.array([0.0, 0.25, 1.0, 2.0])})
