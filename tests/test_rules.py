import math

import numpy as np
import pytest

from gaugecalc import (
    ConditionViolationError,
    Gauge,
    InnerMap,
    ScalarFunction,
    box,
    check_domination,
    interval,
    verify_chain_rule_1,
    verify_chain_rule_2,
    verify_max_rule,
    verify_partial_rule,
    verify_product_rule,
    verify_sum_rule,
)


@pytest.fixture
def plane():
    return box(2, -5, 5, center=[0, 0])


@pytest.fixture
def unit_gauge():
    return Gauge.of_set(box(2))


def fn(src, dom, convex=True):
    return ScalarFunction.from_expr(src, domain=dom, convex=convex)


def test_sum_rule_equality_on_convex(plane, unit_gauge):
    f = fn("abs(x1) + x2^2", plane)
    g = fn("x1^2 + abs(x2)", plane)
    r = verify_sum_rule(f, g, [0.3, 0.5], unit_gauge)
    assert r.verdict == "equality_holds"
    assert r.max_inclusion_gap <= r.tol
    doc = r.to_json()
    assert doc["rule"] == "sum" and doc["verdict"] == "equality_holds"


def test_sum_rule_at_joint_kink(plane, unit_gauge):
    f = fn("abs(x1)", plane)
    g = fn("abs(x1) + x2^2", plane)
    r = verify_sum_rule(f, g, [0.0, 0.2], unit_gauge)
    # d(2|x1|) = [-2, 2] x {0.4} equals [-1,1] + [-1,1] x {0.4}
    assert r.verdict == "equality_holds"


def test_product_rule(plane, unit_gauge):
    f = fn("abs(x1) + x2^2", plane)
    g = fn("x1^2 + abs(x2)", plane)
    r = verify_product_rule(f, g, [0.3, 0.5], unit_gauge)
    assert r.inclusion_holds


def test_product_rule_negative_factor(plane, unit_gauge):
    # one factor negative at x: the scaled-set reflection matters
    f = fn("x1^2 + x2^2 - 2", plane, convex=True)   # f(x) = -1.66 < 0
    g = fn("x1 + 2*x2 + 1", plane, convex=True)
    r = verify_product_rule(f, g, [0.3, 0.5], unit_gauge)
    assert r.inclusion_holds
    # smooth case: the product gradient is exact, so equality must hold
    assert r.verdict == "equality_holds"


def test_chain_rule_2_exponential(plane, unit_gauge):
    h = fn("abs(x1) + x2^2", plane)
    r = verify_chain_rule_2(math.exp, h, [0.0, 0.5], unit_gauge,
                            outer_convex=True, composite_convex=True)
    assert r.verdict == "equality_holds"
    lo, hi = r.details["outer_slope_range"]
    assert lo == pytest.approx(math.exp(0.25), rel=1e-5)
    assert hi == pytest.approx(math.exp(0.25), rel=1e-5)
    # bit-identical to the scale ladder 2^-8 .. 2^-23 that kept only its last step
    u0 = h([0.0, 0.5])
    for k in range(8, 24):
        t = 2.0 ** (-k)
        slopes = ((math.exp(u0) - math.exp(u0 - t)) / t, (math.exp(u0 + t) - math.exp(u0)) / t)
    assert [lo, hi] == [min(slopes), max(slopes)]


def test_chain_rule_2_nonsmooth_outer(plane, unit_gauge):
    h = fn("x1^2 + x2^2", plane)

    def outer(u):  # kink exactly at h(x) for x on the unit circle
        return max(u - 1.0, 0.5 * (u - 1.0))

    r = verify_chain_rule_2(outer, h, [1.0, 0.0], unit_gauge, outer_convex=True,
                            composite_convex=False)
    assert r.inclusion_holds
    lo, hi = r.details["outer_slope_range"]
    assert lo == pytest.approx(0.5, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)


def test_chain_rule_1_linear_inner(plane, unit_gauge):
    f = fn("abs(x1) + x2^2", plane)
    a = np.array([[0.5, 0.0], [0.25, 0.25]])  # contraction for the box gauge
    inner = InnerMap(fn=lambda v: a @ v, jacobian=lambda v: a,
                     in_dim=2, out_dim=2, name="a")
    r = verify_chain_rule_1(f, inner, [0.4, 0.2], unit_gauge, unit_gauge)
    assert r.inclusion_holds


def test_chain_rule_1_condition_violation(plane, unit_gauge):
    inner = InnerMap(fn=lambda v: 2.0 * v, jacobian=lambda v: 2.0 * np.eye(2),
                     in_dim=2, out_dim=2, name="double")
    with pytest.raises(ConditionViolationError) as err:
        check_domination(inner, [0.0, 0.0], unit_gauge, unit_gauge)
    u, w = err.value.witness
    assert unit_gauge.value(inner(u) - inner(w)) > unit_gauge.value(u - w)
    f = fn("x1^2 + x2^2", plane)
    with pytest.raises(ConditionViolationError):
        verify_chain_rule_1(f, inner, [0.0, 0.0], unit_gauge, unit_gauge)


def test_max_rule_equality_on_linear_pieces(plane, unit_gauge):
    f1 = fn("x1 + x2", plane)
    f2 = fn("-x1 + x2", plane)
    r = verify_max_rule([f1, f2], [0.0, 0.3], unit_gauge)
    assert r.verdict == "equality_holds"
    assert r.details["active_indices"] == [0, 1]


def test_max_rule_inactive_piece_ignored(plane, unit_gauge):
    f1 = fn("x1^2 + x2^2", plane)
    f2 = fn("x1^2 + x2^2 - 5", plane)
    r = verify_max_rule([f1, f2], [0.4, -0.2], unit_gauge)
    assert r.verdict == "equality_holds"
    assert r.details["active_indices"] == [0]


def test_max_rule_strict_inclusion(plane, unit_gauge):
    # max(|x1|, -|x2|) = |x1|: the left side is a segment, but the hull of
    # the active subdifferentials is the full cross polytope
    f1 = fn("abs(x1)", plane)
    f2 = fn("-abs(x2)", plane, convex=False)
    r = verify_max_rule([f1, f2], [0.0, 0.0], unit_gauge)
    assert r.verdict == "inclusion_holds"
    assert r.max_inclusion_gap <= r.tol
    assert r.max_equality_gap > 0.5  # the rhs sticks out along x2


def test_partial_rule(plane):
    g1 = Gauge.of_set(interval(-1.0, 1.0))
    f = fn("abs(x1) + x2^2", plane)
    r = verify_partial_rule(f, [0.0, 0.4], g1, g1)
    assert r.verdict == "equality_holds"
    assert r.details["block_dims"] == [1, 1]
