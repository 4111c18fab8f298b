import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugecalc import ExprDomainError, ExprSyntaxError
from gaugecalc.expr import evaluate, make_callable, parse, to_source


# value oracles below computed by hand
CASES = [
    ("x1^2 + 2*x2", (3.0, 4.0), 17.0),
    ("2 + 3 * 4^2", (0.0,), 50.0),
    ("-x1^2", (2.0,), -4.0),            # unary minus binds below ^
    ("(1 - x1) / (1 + x1)", (3.0,), -0.5),
    ("abs(x1 - 5)", (2.0,), 3.0),
    ("max(x1, x2, 0)", (-1.0, -2.0), 0.0),
    ("min(x1, 2)", (7.0,), 2.0),
    ("sqrt(x1^2)", (-3.0,), 3.0),
    ("floor(x1)", (2.7,), 2.0),
    ("floor(x1)", (-0.3,), -1.0),
    ("exp(0*x1)", (9.0,), 1.0),
    ("dot(2, -1)", (3.0, 4.0), 2.0),
    ("x1^-1", (4.0,), 0.25),
    ("2e-1 + x1", (0.0,), 0.2),
]


@pytest.mark.parametrize("src,point,expected", CASES)
def test_evaluation(src, point, expected):
    node = parse(src, len(point))
    assert evaluate(node, np.array(point)) == pytest.approx(expected, abs=1e-12)


def test_exponent_must_be_integer():
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5", 1)


def test_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse("x3", 2)
    with pytest.raises(ExprSyntaxError):
        parse("x0", 2)


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + $", 1)
    assert err.value.position == 4


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1 + 2 3", 1)


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("sin(x1)", 1)


def test_division_by_zero_tagged():
    node = parse("1 / x1", 1)
    with pytest.raises(ExprDomainError):
        evaluate(node, [0.0])


def test_sqrt_negative_tagged():
    node = parse("sqrt(x1)", 1)
    with pytest.raises(ExprDomainError) as err:
        evaluate(node, [-1.0])
    assert "sqrt" in err.value.path


def test_overflow_tagged():
    with pytest.raises(ExprDomainError) as err:
        evaluate(parse("1 + exp(1000*x1)", 1), [1.0])
    assert err.value.path == ".r.exp"
    with pytest.raises(ExprDomainError) as err:
        evaluate(parse("2 * (x1 + 1)^400", 1), [1e200])
    assert err.value.path == ".r"


def test_dot_requires_constants():
    with pytest.raises(ExprSyntaxError):
        parse("dot(x1, 1)", 2)
    with pytest.raises(ExprSyntaxError):
        parse("dot(1)", 2)


@pytest.mark.parametrize("src", [c[0] for c in CASES])
def test_to_source_round_trips(src):
    node = parse(src, 2)
    again = parse(to_source(node), 2)
    for pt in ([0.3, 0.7], [1.5, -2.0], [4.0, 4.0]):
        try:
            a = evaluate(node, pt)
        except ExprDomainError:
            continue
        assert evaluate(again, pt) == pytest.approx(a, abs=1e-12)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_polynomial_matches_numpy(a, b):
    fn = make_callable(parse("x1^3 - 2*x1*x2 + x2^2", 2))
    expected = a ** 3 - 2 * a * b + b ** 2
    assert fn([a, b]) == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_make_callable_keeps_source():
    fn = make_callable(parse("x1 + 1", 1))
    assert fn.source
    assert evaluate(parse(fn.source, 1), [2.0]) == 3.0
