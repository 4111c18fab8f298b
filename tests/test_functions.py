import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import (
    ConvexSet,
    DimensionMismatchError,
    ExprDomainError,
    Gauge,
    InnerMap,
    NonFiniteInputError,
    Oracle,
    ScalarFunction,
    box,
    max_of,
    product_of,
    subdifferential_hull,
    sum_of,
)
from gaugecalc.cli import _OUTER_FUNCTIONS
from gaugecalc.functions import frozen_block, outer_of, precomposed
from gaugecalc.geometry import batch_callable

PLANE = box(2, -5, 5, center=[0, 0])
#: ties, signed zeros and values on both sides of the domain box
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 4.0, 7.0]),
                   st.floats(-8.0, 8.0, allow_nan=False))
ROWS = st.lists(st.lists(VALUES, min_size=2, max_size=2), min_size=1, max_size=8)


def fn(src, convex=False):
    return ScalarFunction.from_expr(src, domain=PLANE, convex=convex)


def same(batch, scalars):
    """Equal floats, signed zeros included."""
    scalars = np.array(scalars, dtype=float)
    return (np.array_equal(batch, scalars)
            and np.array_equal(np.signbit(batch), np.signbit(scalars)))


def composites():
    """Every kind of composite built from parts that carry batch evaluators."""
    f, g = fn("abs(x1) - x2"), fn("x1*x2 + 1")
    a = np.array([[0.5, 0.0], [0.25, -0.25]])
    inner = InnerMap(fn=lambda v: a @ v, jacobian=lambda v: a, in_dim=2, out_dim=2,
                     name="a")
    out = {"sum": sum_of(f, g), "product": product_of(f, g),
           # the pieces x1 and x2 tie on rows with x1 == x2, signed zeros too
           "max": max_of([fn("x1"), fn("x2"), fn("x1 - 1")]),
           "chain1": precomposed(f, inner.many, 2, "f(a)")}
    for name, outer in _OUTER_FUNCTIONS.items():
        out[f"chain2-{name}"] = outer_of(outer, fn("0.5*x1 - x2"), False)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ROWS)
def test_composite_batches_equal_their_scalar_calls(rows):
    xs = np.array(rows, dtype=float)
    for name, comp in composites().items():
        assert getattr(comp.fn, "many", None) is not None, name
        assert same(comp.many(xs), [comp(x) for x in xs]), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ROWS, st.lists(VALUES, min_size=3, max_size=3), st.sampled_from([0, 1, 2]))
def test_partial_blocks_and_their_domains_batch_like_their_scalar_calls(rows, x, lo):
    # a block of the point of a function on a box of R^3: the block's rows
    # leave the box on some rows, so its domain answers both ways
    f = ScalarFunction.from_expr("abs(x1 - x3) + x2^2", domain=box(3, -5, 5), convex=True)
    x = np.clip(np.array(x, dtype=float), -5.0, 5.0)
    hi = lo + 2 if lo < 2 else 3
    vs = np.array(rows, dtype=float)[:, :hi - lo]
    block = frozen_block(f, x, lo, hi, "f|block")
    assert block.domain.dim == hi - lo and block.convex
    assert block.domain.contains_many(vs).tolist() == [block.domain.contains(v) for v in vs]
    assert same(block.many(vs), [block(v) for v in vs])
    full = np.tile(x, (len(vs), 1))
    full[:, lo:hi] = vs
    assert same(block.many(vs), [f(y) for y in full])


def test_max_keeps_the_first_of_tied_values():
    comp = max_of([fn("x1"), fn("x2")])
    xs = np.array([[0.0, -0.0], [-0.0, 0.0], [2.0, 2.0]])
    assert same(comp.many(xs), [max(0.0, -0.0), max(-0.0, 0.0), 2.0])


@pytest.mark.parametrize("build,rows", [
    # a domain error: row 1 fails in the second part, row 2 in the first
    (lambda: sum_of(fn("sqrt(x1)"), fn("sqrt(x2) + 1")), [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]),
    # a non-finite product of finite parts on row 1, a domain error on row 2
    (lambda: product_of(fn("1e200*x1"), fn("1e200*sqrt(x2)")),
     [[0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
    (lambda: outer_of(math.exp, fn("1e3*x1"), False), [[0.0, 0.0], [1.0, 0.0]]),
])
def test_a_failing_batch_raises_the_first_failing_rows_error(build, rows):
    comp = build()
    xs = np.array(rows)
    first = None
    for x in xs:
        try:
            comp(x)
        except Exception as exc:  # noqa: BLE001
            first = exc
            break
    assert first is not None
    with pytest.raises(type(first)) as err:
        comp.many(xs)
    assert str(err.value) == str(first)
    assert isinstance(first, (ExprDomainError, NonFiniteInputError, OverflowError))


@pytest.mark.parametrize("batch", [True, False])
def test_precomposed_batch_equals_the_per_row_composite(batch):
    a = np.array([[0.5, 0.0], [0.25, -0.25]])
    point, rows = (lambda v: a[:, 0] * v[0] + a[:, 1] * v[1],
                   lambda vs: vs[:, :1] * a[:, 0] + vs[:, 1:] * a[:, 1])
    inner = InnerMap(fn=batch_callable(rows) if batch else point, jacobian=lambda v: a,
                     in_dim=2, out_dim=2, name="a")
    f = fn("abs(x1) - x2 + x1*x2")
    xs = np.random.default_rng(7).uniform(-4.0, 4.0, (30, 2))
    got = precomposed(f, inner.many, 2, "f(a)").many(xs)
    assert same(got, [f(inner(x)) for x in xs])


def test_every_composite_keeps_its_parts_domain_and_name():
    f, g = fn("x1", convex=True), fn("x2", convex=True)
    assert sum_of(f, g).domain is PLANE and sum_of(f, g).convex
    assert not product_of(f, g).convex
    assert max_of([f, g]).name == "max(x1,x2)"
    comp = precomposed(f, lambda vs: 0.5 * vs[:, :2], 3, "x1(half)")
    assert comp.domain.dim == 3 and not comp.convex
    with pytest.raises(NonFiniteInputError):
        comp.domain.contains_many(np.array([[0.0, np.inf, 0.0]]))


# -- one reader per oracle: a batch gives one value per row --------------------


def test_a_summed_batch_fails_the_hull_instead_of_broadcasting():
    # a batch evaluator that sums its rows into one value: the hull's fan
    # values would otherwise be that one sum, repeated
    summed = batch_callable(lambda xs: np.sum(np.abs(xs[:, 0]) + xs[:, 1] ** 2))
    f = ScalarFunction(fn=summed, domain=PLANE, convex=True, name="summed")
    with pytest.raises(DimensionMismatchError, match="function summed"):
        subdifferential_hull(f, [0.0, 0.0], Gauge.of_set(box(2)))


def test_a_batch_one_value_short_is_refused():
    f = ScalarFunction(fn=batch_callable(lambda xs: xs[1:, 0] + 1.0), domain=PLANE,
                       name="short")
    with pytest.raises(DimensionMismatchError, match=r"short returned .* \(2,\) for 3 points"):
        f.many(np.zeros((3, 2)))


def test_a_scalar_member_batch_is_refused():
    s = ConvexSet(2, Oracle(member=batch_callable(lambda xs: True), bounding_radius=1.0))
    with pytest.raises(DimensionMismatchError, match="member test"):
        s.contains_many(np.zeros((3, 2)))


def test_a_plain_function_raises_its_first_failing_row():
    # row 1 is NaN and row 2 raises: the NaN comes first
    def plain(x):
        if x[0] == 2.0:
            raise ZeroDivisionError("row 2")
        return math.nan if x[0] == 1.0 else float(x[0])

    f = ScalarFunction(fn=plain, domain=PLANE, name="plain")
    with pytest.raises(NonFiniteInputError, match=r"plain returned nan at \[1\. 0\.\]"):
        f.many(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        f.many(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
    assert f.many(np.array([[0.5, 0.0], [3.0, 1.0]])).tolist() == [0.5, 3.0]


def test_a_plain_member_answers_the_truth_of_what_it_returns():
    answers = [None, 0, 1, "", np.bool_(True)]
    s = ConvexSet(2, Oracle(member=lambda x: answers[int(x[0])], bounding_radius=1.0))
    xs = np.array([[i, 0.0] for i in range(len(answers))])
    assert s.contains_many(xs).tolist() == [bool(a) for a in answers]
    assert [s.contains(x) for x in xs] == [bool(a) for a in answers]


def test_an_inner_map_point_call_checks_the_image_width():
    g = InnerMap(fn=lambda x: np.array([x[0], x[1], 0.0]), jacobian=lambda x: np.eye(3, 2),
                 in_dim=2, out_dim=2, name="wide")
    with pytest.raises(DimensionMismatchError, match="inner map wide"):
        g([0.5, 0.25])


KINKED = ScalarFunction.from_expr("max(0, x1) + x2", box(2))


def test_a_point_call_refuses_a_nan_point():
    # max(0, NaN) is 0: unchecked, the point would read 0.0
    with pytest.raises(NonFiniteInputError, match="vector has non-finite entries"):
        KINKED([math.nan, 0.0])


def test_a_point_call_refuses_a_point_too_wide():
    # unchecked, the third entry would go unread and the point read 0.75
    with pytest.raises(DimensionMismatchError, match="expected dimension 2, got 3"):
        KINKED([0.5, 0.25, 7.0])


def test_a_point_call_refuses_a_point_too_narrow():
    # unchecked, reading x2 would raise an untyped IndexError
    with pytest.raises(DimensionMismatchError, match="expected dimension 2, got 1"):
        KINKED([0.0])


def test_a_batch_refuses_rows_of_the_wrong_width():
    # unchecked, two rows of R^3 would read [0, 0]
    f = ScalarFunction.from_expr("x1 + x2", box(2))
    with pytest.raises(DimensionMismatchError,
                       match=r"expected rows of dimension 2, got shape \(2, 3\)"):
        f.many(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError,
                       match=r"expected rows of dimension 2, got shape \(1, 1, 2\)"):
        f.many([[[0.5, 0.25]]])
