import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import rules, subdiff
from gaugecalc import (
    ConditionViolationError,
    DegenerateGaugeError,
    Gauge,
    InnerMap,
    ScalarFunction,
    Subspace,
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
    r = verify_chain_rule_2(math.exp, h, [0.0, 0.5], unit_gauge, composite_convex=True)
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

    r = verify_chain_rule_2(outer, h, [1.0, 0.0], unit_gauge, composite_convex=False)
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


def test_max_rule_affine_tie_at_a_kink(plane, unit_gauge):
    # a verify-max query of the benchmark's calculus workload: an affine
    # piece tied with a separable |.| sum on its x1 kink; the rule holds with
    # equality for convex pieces
    f1 = fn("1.193164*-min(x1 - 0.429993, 0.429993 - x1)"
            " + 1.181143*-min(x2 - 0.288032, 0.288032 - x2)", plane)
    f2 = fn("-0.973042*x1 + 0.582813*x2 + 0.53142505482", plane)
    r = verify_max_rule([f1, f2], [0.429993, 0.757493], unit_gauge, seed=332146421)
    assert r.details["active_indices"] == [0, 1]
    assert r.verdict == "equality_holds"


def _digits(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=3, max_size=3)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 3), _digits(3, 20), _digits(3, 20), _digits(-10, 10),
       _digits(-5, 5))
def test_sum_and_max_equal_at_the_full_kink(n, c, d, w, a):
    # f = sum c_j |x_j - a_j| and g = sum d_j |x_j - a_j| are convex and
    # kinked in every coordinate at a; so is max(f, w.(x - a)), whose affine
    # piece ties with f there: both rules hold with equality
    dom = box(n, -5, 5, center=[0] * n)
    a = [k / 10 for k in a[:n]]

    def sources(coefs, term):
        return " + ".join(f"{k / 10}*{term(j)}" for j, k in enumerate(coefs[:n]))

    def absum(coefs):
        return sources(coefs, lambda j: f"abs(x{j + 1} - {a[j]})")

    g = Gauge.of_set(box(n))
    r = verify_sum_rule(fn(absum(c), dom), fn(absum(d), dom), a, g)
    assert r.verdict == "equality_holds"
    affine = fn(sources(w, lambda j: f"(x{j + 1} - {a[j]})"), dom)
    r = verify_max_rule([fn(absum(c), dom), affine], a, g)
    assert r.details["active_indices"] == [0, 1]
    assert r.verdict == "equality_holds"


def _criterion_08_fixtures(plane, unit_gauge):
    """Each rule of acceptance criterion 08, and the chain1 rule of
    test_chain_rule_1_linear_inner."""
    f1 = fn("abs(x1) + x2^2", plane)
    f2 = fn("x1^2 + abs(x2)", plane)
    g1 = Gauge.of_set(interval(-1.0, 1.0))
    half = np.array([[0.5, 0.0], [0.25, 0.25]])
    inner = InnerMap(fn=lambda v: half @ v, jacobian=lambda v: half,
                     in_dim=2, out_dim=2, name="a")
    return {
        "sum": lambda: verify_sum_rule(f1, f2, [0.3, 0.5], unit_gauge),
        "product": lambda: verify_product_rule(f1, f2, [0.3, 0.5], unit_gauge),
        "chain2": lambda: verify_chain_rule_2(math.exp, f1, [0.0, 0.5], unit_gauge,
                                              composite_convex=True),
        "max": lambda: verify_max_rule([fn("x1 + x2", plane), fn("-x1 + x2", plane)],
                                       [0.0, 0.3], unit_gauge),
        "partial": lambda: verify_partial_rule(f1, [0.0, 0.4], g1, g1),
        "chain1": lambda: verify_chain_rule_1(f1, inner, [0.4, 0.2], unit_gauge,
                                              unit_gauge),
    }


@pytest.mark.parametrize("rule,hulls", [("sum", 0), ("chain1", 1), ("product", 0),
                                        ("chain2", 0), ("max", 0), ("partial", 0)])
def test_verdicts_read_support_values_not_hulls(rule, hulls, plane, unit_gauge,
                                                count_calls):
    # a verdict solves no LP; chain1 builds the one hull whose vertices its
    # report lists, and sum solves its vertex LPs on the rule fan's own
    # support table: of the 8 hull objectives in the plane, the 3 that a
    # vertex found before attains solve none
    count_calls.wrap(subdiff, "linprog", "lp")
    count_calls.wrap(rules, "subdifferential_hull", "hull")
    r = _criterion_08_fixtures(plane, unit_gauge)[rule]()
    assert r.inclusion_holds
    assert count_calls["hull"] == hulls
    if rule == "sum":
        assert count_calls["lp"] == 5
    elif hulls == 0:
        assert count_calls["lp"] == 0


def test_rule_on_a_gauge_blind_to_every_direction(plane):
    # no direction survives the quotient by the kernel: no verdict, not a
    # vacuous equality over an empty fan
    blind = Gauge.from_callable(lambda v: 0.0, Subspace.full(2), kernel=Subspace.full(2))
    with pytest.raises(DegenerateGaugeError):
        verify_max_rule([fn("abs(x1)", plane), fn("x2", plane)], [0.0, 0.0], blind)


def test_partial_rule(plane):
    g1 = Gauge.of_set(interval(-1.0, 1.0))
    f = fn("abs(x1) + x2^2", plane)
    r = verify_partial_rule(f, [0.0, 0.4], g1, g1)
    assert r.verdict == "equality_holds"
    assert r.details["block_dims"] == [1, 1]


def test_sum_vertices_read_the_rule_fan(plane, unit_gauge):
    # the rule fan opens with the objectives a hull draws with the same
    # seed, so the sum's vertex LPs need no fan of their own
    w = subdiff._reduced_basis(unit_gauge)
    objectives, _ = subdiff._direction_fan(w, subdiff._OBJECTIVE_FAN, 42)
    fan = rules._fan_for(unit_gauge, 42)
    assert np.array_equal(fan[:len(objectives)], np.array(objectives))
    # d(2|x1| + |x2|)(0) = [-2, 2] x [-1, 1]: its four corners
    f, g = fn("abs(x1)", plane), fn("abs(x1) + abs(x2)", plane)
    r = verify_sum_rule(f, g, [0.0, 0.0], unit_gauge)
    assert r.verdict == "equality_holds"
    corners = sorted(map(tuple, np.round(r.details["lhs_vertices"], 6)))
    assert corners == [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)]
