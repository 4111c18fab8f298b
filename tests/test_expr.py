import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import ExprDomainError, ExprSyntaxError
from gaugecalc.expr import (
    MAX_NESTING,
    BinOp,
    Call,
    Const,
    Dot,
    Neg,
    Pow,
    Var,
    evaluate,
    make_callable,
    parse,
    to_source,
)


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


# -- the compiled evaluators ---------------------------------------------------


def walk(node, x, path=""):
    """The recursive walker that the compiled closures replaced, kept here
    as the reference they must match bit for bit.  The one change: floor of
    a non-finite value raises a tagged error, where the walker let
    math.floor raise OverflowError or ValueError."""
    x = np.asarray(x, dtype=float)
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index])
    if isinstance(node, Neg):
        return -walk(node.operand, x, path + ".neg")
    if isinstance(node, BinOp):
        a = walk(node.left, x, path + ".l")
        b = walk(node.right, x, path + ".r")
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise ExprDomainError("division by zero", path or "<root>")
        return a / b
    if isinstance(node, Pow):
        base = walk(node.base, x, path + ".pow")
        if node.exponent < 0 and base == 0.0:
            raise ExprDomainError("zero raised to a negative power", path or "<root>")
        try:
            return float(base ** node.exponent)
        except OverflowError:
            raise ExprDomainError("power overflows", path or "<root>") from None
    if isinstance(node, Dot):
        return float(np.dot(node.coeffs, x[: len(node.coeffs)]))
    vals = [walk(a, x, f"{path}.{node.name}[{i}]") for i, a in enumerate(node.args)]
    if node.name == "abs":
        return abs(vals[0])
    if node.name == "exp":
        try:
            return math.exp(vals[0])
        except OverflowError:
            raise ExprDomainError("exp overflows", f"{path}.exp") from None
    if node.name == "sqrt":
        if vals[0] < 0.0:
            raise ExprDomainError("sqrt of a negative value", f"{path}.sqrt")
        return math.sqrt(vals[0])
    if node.name == "floor":
        if not math.isfinite(vals[0]):
            raise ExprDomainError("floor of a non-finite value", f"{path}.floor")
        return float(math.floor(vals[0]))
    if node.name == "max":
        return max(vals)
    return min(vals)


def outcome(call):
    """A value, or the path and message of the domain error raised."""
    try:
        return call()
    except ExprDomainError as err:
        return ("error", err.path, str(err))


def same(a, b) -> bool:
    """Equal floats with equal signs of zero, or both NaN, or equal errors."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


ARITY = 3
# domain edges: signed zeros, values whose exp or powers overflow, tiny
# values whose negative powers overflow, negatives for sqrt, non-finite
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 709.0, 710.0, -745.0, 1e-300, -1e-300,
         1e300, -1e300, 1e155, math.inf, -math.inf, math.nan]
values = st.one_of(st.sampled_from(EDGES),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
leaves = st.one_of(
    st.builds(Const, values),
    st.builds(Var, st.integers(0, ARITY - 1)),
    st.builds(Dot, st.tuples(*[st.floats(-10, 10)] * ARITY)),
)


def _grow(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-3, 4)),
        st.builds(lambda n, a: Call(n, (a,)),
                  st.sampled_from(["abs", "exp", "sqrt", "floor"]), children),
        st.builds(lambda n, a: Call(n, tuple(a)), st.sampled_from(["max", "min"]),
                  st.lists(children, min_size=1, max_size=3)),
    )


trees = st.recursive(leaves, _grow, max_leaves=12)
points = st.lists(st.lists(values, min_size=ARITY, max_size=ARITY), min_size=1, max_size=6)


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot:RuntimeWarning")
@settings(derandomize=True, max_examples=400, deadline=None)
@given(trees, points)
def test_compiled_evaluators_match_the_walker(node, rows):
    fn = make_callable(node)
    xs = np.array(rows, dtype=float)
    want = [outcome(lambda: walk(node, x)) for x in xs]
    got = [outcome(lambda: fn(x)) for x in xs]
    assert all(same(a, b) for a, b in zip(want, got))
    assert all(same(a, b) for a, b in zip(want, [outcome(lambda: evaluate(node, x))
                                                 for x in xs]))
    batch = outcome(lambda: fn.many(xs))
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        # the batch raises the error of the first failing row
        assert batch == errors[0]
    else:
        assert batch.shape == (len(rows),)
        assert all(same(a, float(b)) for a, b in zip(want, batch))


def test_a_batch_raises_its_first_failing_row_not_its_first_failing_node():
    # the batch finds row 1's sqrt error before row 0's division by zero,
    # and raises row 0's
    fn = make_callable(parse("sqrt(x1) + 1/x2", 2))
    with pytest.raises(ExprDomainError, match="division by zero") as err:
        fn.many(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert err.value.path == ".r"


def test_floor_of_a_non_finite_value_is_a_domain_error():
    fn = make_callable(parse("floor(1e308*x1*10) + x2", 2))
    with pytest.raises(ExprDomainError) as err:
        fn([0.5, 0.0])
    assert err.value.path == ".l.floor"
    with pytest.raises(ExprDomainError) as err:
        fn.many(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert err.value.path == ".l.floor"


# -- long chains and deep nesting ----------------------------------------------


def test_a_long_chain_sums_left_to_right():
    # a chain's spine compiles and runs in a loop: 5,000 terms nest 5,000 deep
    coeffs = [1.0 / (k + 1) for k in range(5000)]
    fn = make_callable(parse(" + ".join(f"{c!r}*x1" for c in coeffs), 1))
    want = 0.0
    for c in coeffs:
        want = want + c * 0.3
    assert fn([0.3]) == want
    assert fn.many(np.array([[0.3], [0.3]])).tolist() == [want, want]
    assert fn.source.startswith("(" * 4999) and fn.source.endswith(" * x1))")


def test_a_long_power_chain_runs_in_a_loop():
    fn = make_callable(parse("x1" + "^1" * 3000, 1))
    assert fn([1.5]) == 1.5 and fn.source == "(" * 3000 + "x1" + ")^1" * 3000


@pytest.mark.parametrize("src, path", [("1 + 1 + 1/x1 + 1 + 1", ".l.l.r"),
                                       ("x1^2^-1 + 1", ".l"),
                                       ("1 / (x1 - 1) * 2 - 5 / x1", ".r")])
def test_a_failing_link_names_its_path(src, path):
    fn = make_callable(parse(src, 1))
    for call in (lambda: fn([0.0]), lambda: fn.many(np.array([[0.5], [0.0]]))):
        with pytest.raises(ExprDomainError) as err:
            call()
        assert err.value.path == path


def test_nesting_past_the_limit_is_a_syntax_error():
    assert evaluate(parse("(" * (MAX_NESTING - 1) + "x1" + ")" * (MAX_NESTING - 1), 1),
                    [2.0]) == 2.0
    assert abs(evaluate(parse("-" * (MAX_NESTING - 1) + "x1", 1), [2.0])) == 2.0
    for src in ("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, "-" * MAX_NESTING + "x1",
                "abs(" * 3000 + "x1" + ")" * 3000, "(" * 3000 + "x1" + ")" * 3000):
        with pytest.raises(ExprSyntaxError, match=f"nesting deeper than {MAX_NESTING}"):
            parse(src, 1)
