import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import functions, geometry, rules, subdiff
from gaugecalc import (
    ConditionViolationError,
    DegenerateGaugeError,
    DimensionMismatchError,
    Gauge,
    NonFiniteInputError,
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


def test_chain_rule_2_outer_overflow_is_a_typed_error(plane, unit_gauge):
    # exp overflows past about 709.78: at the inner value 720 itself, and on
    # the composite's fan around the inner value 700
    with pytest.raises(NonFiniteInputError, match="overflows near 720.0"):
        verify_chain_rule_2(math.exp, fn("800*x1 + abs(x2)", plane), [0.9, 0.0], unit_gauge)
    h = fn("1000000*x1 + abs(x2)", plane)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteInputError, match="overflows at"):
        verify_chain_rule_2(math.exp, h, [0.0007, 0.0], unit_gauge, composite_convex=True)
    composite = functions.outer_of(math.exp, h, True)
    with pytest.raises(NonFiniteInputError, match="= 1000.0"):
        composite([0.001, 0.0])
    with pytest.raises(NonFiniteInputError, match="= 1000.0"):
        composite.many(np.array([[0.0, 0.0], [0.001, 0.0]]))
    # at the inner value 709.5 exp and its slopes are finite, but the
    # composite's difference quotients overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteInputError, match="difference quotients .* overflow"):
            verify_chain_rule_2(math.exp, fn("800*x1 + abs(x2)", plane), [0.886875, 0.0],
                                unit_gauge)
    assert caught == []


def test_chain_rule_2_right_side_overflow_is_a_typed_error(plane, unit_gauge, monkeypatch):
    # slopes of 1e308 times the inner support values (up to 3 sqrt 2) overflow
    monkeypatch.setattr(rules, "_outer_derivative_range", lambda g, u0: (1e308, 1e308))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteInputError, match="inner support values overflow"):
            verify_chain_rule_2(lambda u: u, fn("3*x1 + 3*x2", plane), [0.5, 0.0], unit_gauge)
    assert caught == []


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


def _pointwise(v):
    return np.array([v[0] * v[2], v[1] - 0.5 * v[2]])


def _rowwise(vs):
    return np.stack([vs[:, 0] * vs[:, 2], vs[:, 1] - 0.5 * vs[:, 2]], axis=1)


@pytest.mark.parametrize("batch", [True, False])
def test_inner_map_batch_equals_its_point_calls(batch):
    inner = InnerMap(fn=geometry.batch_callable(_rowwise) if batch else _pointwise,
                     jacobian=lambda v: None, in_dim=3, out_dim=2, name="m")
    xs = np.random.default_rng(5).standard_normal((40, 3))
    got = inner.many(xs)
    assert got.shape == (40, 2)
    assert np.array_equal(got, np.array([inner(x) for x in xs]))
    assert inner.many(np.zeros((0, 3))).shape == (0, 2)


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("out_dim", [1, 3])
def test_inner_map_images_must_have_its_out_dim(plane, unit_gauge, batch, out_dim):
    # the map returns rows of dimension 2 but declares another out_dim
    inner = InnerMap(fn=geometry.batch_callable(_rowwise) if batch else _pointwise,
                     jacobian=lambda v: np.eye(2, 3), in_dim=3, out_dim=out_dim, name="m")
    with pytest.raises(DimensionMismatchError):
        inner.many(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        check_domination(inner, np.zeros(3), unit_gauge, Gauge.of_set(box(3)))


def test_chain_rule_1_rejects_images_the_outer_gauge_cannot_read(plane, unit_gauge):
    wide = InnerMap(fn=lambda v: np.append(v, 0.0), jacobian=lambda v: np.eye(3, 2),
                    in_dim=2, out_dim=3, name="wide")
    with pytest.raises(DimensionMismatchError):
        verify_chain_rule_1(fn("abs(x1) + x2^2", plane), wide, [0.1, 0.2], unit_gauge,
                            unit_gauge)


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


@pytest.mark.parametrize("rule,hulls", [("sum", 0), ("chain1", 0), ("product", 0),
                                        ("chain2", 0), ("max", 0), ("partial", 0)])
def test_verdicts_read_support_values_not_hulls(rule, hulls, plane, unit_gauge,
                                                count_calls):
    # a verdict solves no LP, and neither do the vertices that sum and
    # chain1 list: the 8 hull objectives in the plane are read from one
    # vertex table of the rule fan's own support values
    count_calls.wrap(subdiff, "linprog", "lp")
    count_calls.wrap(subdiff, "subdifferential_hull", "hull")
    r = _criterion_08_fixtures(plane, unit_gauge)[rule]()
    assert r.inclusion_holds
    assert count_calls["hull"] == hulls
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
    # seed, so the sum's vertex table needs no fan of their own
    w = unit_gauge.reduced
    objectives = subdiff._hull_fan(w, 42)[0]
    dirs, count = rules._fan_for(w, 42)
    assert count == len(objectives) and np.array_equal(dirs[:count], objectives)
    # d(2|x1| + |x2|)(0) = [-2, 2] x [-1, 1]: its four corners
    f, g = fn("abs(x1)", plane), fn("abs(x1) + abs(x2)", plane)
    r = verify_sum_rule(f, g, [0.0, 0.0], unit_gauge)
    assert r.verdict == "equality_holds"
    corners = sorted(map(tuple, np.round(r.details["lhs_vertices"], 6)))
    assert corners == [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)]


@pytest.mark.parametrize("rule", ["sum", "chain1"])
def test_listed_vertices_draw_no_fan(rule, plane, unit_gauge, count_calls, monkeypatch):
    # the hull objectives are the rule fan's opening rows: listing their
    # vertices counts them and draws no fan of its own
    count_calls.wrap(rules, "_direction_fan", "fan")
    listed, during = rules._listed_vertices, []

    def counted(*args):
        before = count_calls["fan"]
        out = listed(*args)
        during.append(count_calls["fan"] - before)
        return out

    monkeypatch.setattr(rules, "_listed_vertices", counted)
    _criterion_08_fixtures(plane, unit_gauge)[rule]()
    assert during == [0] and count_calls["fan"] == 1


@pytest.mark.parametrize("rule", ["sum", "product", "chain2", "max", "partial", "chain1"])
def test_composite_fans_are_evaluated_in_batches(rule, plane, unit_gauge, count_calls):
    # every composite carries its parts' batch evaluators, so a fan costs a
    # few scalar calls (values at x), not one per row
    count_calls.wrap(ScalarFunction, "__call__", "scalar")
    _criterion_08_fixtures(plane, unit_gauge)[rule]()
    assert count_calls["scalar"] <= 10


def test_chain_rule_1_lists_the_pullback_at_a_kink(plane, unit_gauge):
    # y = A x = (0, 0.1): df(y) = [-1, 1] x {0.2}, and A^T df(y) is the
    # segment from (-0.45, 0.05) to (0.55, 0.05)
    f = fn("abs(x1) + x2^2", plane)
    a = np.array([[0.5, 0.0], [0.25, 0.25]])
    inner = InnerMap(fn=lambda v: a @ v, jacobian=lambda v: a, in_dim=2, out_dim=2,
                     name="a")
    r = verify_chain_rule_1(f, inner, [0.0, 0.4], unit_gauge, unit_gauge)
    assert r.verdict == "equality_holds"
    got = np.array(r.details["rhs_vertices"])
    ends = np.array([[-0.45, 0.05], [0.55, 0.05]])
    for end in ends:
        assert np.min(np.linalg.norm(got - end, axis=1)) <= 1e-6
    for z in got:  # every listed vertex lies on the segment
        t = np.clip((z - ends[0]) @ (ends[1] - ends[0]), 0.0, 1.0)
        assert np.linalg.norm(z - ends[0] - t * (ends[1] - ends[0])) <= 1e-6


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_projections_and_pushes_equal_the_row_products(n, k, seed):
    # the rule fan's quotient representatives and its rows pushed through a
    # Jacobian, as stacked products: the floats of one product per row
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((17, n))
    w = Subspace.from_spanning(rng.standard_normal((min(k, n), n)), n)
    want = np.array([w.basis.T @ (w.basis @ v) for v in dirs])
    assert np.array_equal(w.project_many(dirs), want)
    jac = rng.standard_normal((k, n))
    assert np.array_equal(geometry._images(jac, dirs), np.array([jac @ v for v in dirs]))
