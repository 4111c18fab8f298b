import numpy as np
import pytest

from gaugecalc import geometry
from gaugecalc import (
    EmptySublevelError,
    ExprDomainError,
    NotInSetError,
    ScalarFunction,
    box,
    build_core,
    core_is_symmetric,
    in_icr,
    literal_ca_member,
    scale_about,
    set_to_json,
    span_of_difference,
    sublevel_set,
    symmetric_core,
    verify_icr_membership,
    verify_span_equality,
)
from gaugecalc.geometry import ConvexSet, Halfspaces, Sublevel, Vertices, interval


def quadratic_on(domain, convex=True):
    terms = " + ".join(f"x{i + 1}^2" for i in range(domain.dim))
    return ScalarFunction.from_expr(terms, domain=domain, convex=convex)


def test_square_on_skewed_interval():
    # f(x) = x^2 on [-1, 2], level 1: the sublevel set is [-1, 1] and its
    # reflection through 0 is itself, so the core equals [-1, 1]
    dom = interval(-1.0, 2.0, center=0.5)
    f = ScalarFunction.from_expr("x1^2", domain=dom, convex=True)
    s_a = sublevel_set(f, dom, 1.0)
    core = symmetric_core(s_a, [0.0])
    grid = np.linspace(-1.0, 2.0, 301)
    for x in grid:
        assert core.contains([x]) == (abs(x) <= 1.0 + 1e-9)


def test_halfspace_core_stays_halfspaces():
    dom = ConvexSet(2, Halfspaces(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]),
                                  np.array([3.0, 1.0, 2.0, 2.0])))
    core = symmetric_core(dom, [0.5, 0.0])
    assert isinstance(core.representation, Halfspaces)
    # reflection of x <= 3 through 0.5 is x >= -2; tighter left bound wins
    assert core.contains([-1.0, 0.0])
    assert not core.contains([-1.5, 0.0])
    assert core.contains([2.0, 0.0])
    assert not core.contains([2.5, 0.0])
    assert core_is_symmetric(
        build_core(quadratic_on(dom), dom, [0.5, 0.0], level=20.0))


def test_sublevel_core_and_its_scaled_copy_stay_sublevel_sets():
    # x1^2 + x2^2 <= 1 on [-1, 2]^2 about 0: the core is the unit disk inside
    # the box's own core [-1, 1]^2
    dom = box(2, -1, 2, center=[0.5, 0.5])
    core = build_core(quadratic_on(dom), dom, [0.0, 0.0], level=1.0).c_a
    shrunk = scale_about(core, [0.0, 0.0], 0.5, translate_to=[0.2, 0.1])
    for s in (core, shrunk):
        assert isinstance(s.representation, Sublevel)
        assert isinstance(s.representation.base_domain.representation, Halfspaces)
    assert core.contains([0.6, 0.6]) and not core.contains([0.8, 0.8])
    assert not core.contains([1.5, 0.0])
    assert shrunk.contains([0.5, 0.4]) and not shrunk.contains([0.6, 0.5])
    # a derived function has no expression to write
    with pytest.raises(ValueError):
        set_to_json(core)


def test_vertex_core_is_a_reflection_sublevel_set():
    seg = ConvexSet(1, Vertices(np.array([[-1.0], [2.0]])), center=[0.5])
    core = symmetric_core(seg, [0.0])
    assert isinstance(core.representation, Sublevel)
    assert core.representation.base_domain is seg
    for x in np.linspace(-2.0, 3.0, 51):
        assert core.contains([x]) == (abs(x) <= 1.0 + 1e-9)


def test_core_invariants():
    dom = box(2, -4, 4, center=[0, 0])
    f = quadratic_on(dom)
    core = build_core(f, dom, [0.5, 0.0])
    assert core.level == pytest.approx(f([0.5, 0.0]) + 1.0)
    assert core.c_a.contains(core.x0)
    assert core_is_symmetric(core)
    # c_a subset of s_a, sampled
    rng = np.random.default_rng(0)
    for p in core.c_a.sample_members(rng, 32):
        assert core.s_a.contains(p, tol=1e-7)


def test_literal_predicate_differs_from_core_on_asymmetric_set():
    # S = [-1, 2] about 0: the point-by-point scaled-reflection reading
    # accepts 2 (shrink by alpha = 1/2), but 2 cannot belong to any set that
    # is symmetric about 0 inside S
    s = interval(-1.0, 2.0, center=0.0)
    assert literal_ca_member(s, [0.0], [2.0])
    core = symmetric_core(s, [0.0])
    assert not core.contains([2.0])
    assert core.contains([0.9])
    assert literal_ca_member(s, [0.0], [0.9])


def test_literal_predicate_requires_membership():
    s = interval(-1.0, 2.0, center=0.0)
    with pytest.raises(NotInSetError):
        literal_ca_member(s, [0.0], [5.0])


def test_empty_sublevel_raises():
    dom = interval(-1.0, 1.0)
    f = ScalarFunction.from_expr("x1^2 + 10", domain=dom, convex=True)
    with pytest.raises(EmptySublevelError):
        sublevel_set(f, dom, 1.0)
    with pytest.raises(EmptySublevelError):
        build_core(f, dom, [0.0], level=5.0)


def test_core_requires_base_point_in_sublevel():
    s = interval(-1.0, 1.0)
    with pytest.raises(NotInSetError):
        symmetric_core(s, [3.0])


@pytest.mark.parametrize("dim,seed", [(d, s) for d in range(1, 7) for s in (0, 1)])
def test_randomized_span_and_interior_verdicts(dim, seed):
    rng = np.random.default_rng(seed)
    lo = -1.0 - rng.uniform(0, 2)
    hi = 1.0 + rng.uniform(0, 2)
    dom = box(dim, lo, hi, center=[(lo + hi) / 2] * dim)
    shift = rng.uniform(-0.3, 0.3, dim)
    terms = " + ".join(f"(x{i + 1} - {float(shift[i])!r})^2" for i in range(dim))
    f = ScalarFunction.from_expr(terms, domain=dom, convex=True)
    x0 = rng.uniform(-0.2, 0.2, dim)
    core = build_core(f, dom, x0)
    assert verify_span_equality(core)
    assert verify_icr_membership(core)
    assert core_is_symmetric(core)


def test_sublevel_center_is_the_first_least_probe():
    # one batch over the probes picks the center that a per-probe loop picks:
    # the first probe of least value among those at or below the level
    dom = ConvexSet(2, Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                  np.array([2.0, 1.0, 1.0, 3.0])))
    f = ScalarFunction.from_expr("abs(x1 - 0.7) + (x2 + 0.4)^2", domain=dom)
    for level in (0.3, 1.0, 10.0):
        probes = dom.sample_members(np.random.default_rng(0), 64) + [dom.anchor()]
        feasible = [x for x in probes if f(x) <= level + 1e-12 * (1 + abs(level))]
        assert np.array_equal(sublevel_set(f, dom, level).center, min(feasible, key=f))
    with pytest.raises(EmptySublevelError):
        sublevel_set(f, dom, -1.0)


def test_in_icr_reuses_the_span_of_the_same_point(count_calls):
    dom = box(3, -1.0, 2.0, center=[0.5, 0.5, 0.5])
    f = ScalarFunction.from_expr("(x1-0.3)^2 + (x2-0.3)^2 + (x3-0.3)^2", domain=dom)
    s = sublevel_set(f, dom, 1.0)
    x = np.array([0.2, 0.4, 0.3])
    span = span_of_difference(s, x)
    count_calls.wrap(geometry.ConvexSet, "sample_members")
    count_calls.wrap(geometry.Representation, "span")
    assert in_icr(s, x)
    assert count_calls == {"sample_members": 0, "span": 0}
    count_calls.wrap(geometry.ConvexSet, "contains")
    count_calls.wrap(geometry.ConvexSet, "contains_many")
    assert s.span(x) is span
    assert count_calls["contains"] == count_calls["contains_many"] == 0


def test_core_spans_and_interior_probe_only_the_signed_axes(count_calls, monkeypatch):
    # the README core example: both signed axes reach from x0 in S_a and in
    # C_a, so each span is R^n with no member drawn, and in_icr reads the
    # axis probes its span kept; its one membership batch is the member
    # check of x0, one row (of the unchecked entry, after in_icr's check)
    dom = interval(-1.0, 2.0, center=0.5)
    core = build_core(quadratic_on(dom), dom, [0.0], level=1.0)
    count_calls.wrap(geometry.ConvexSet, "sample_members")
    assert verify_span_equality(core)
    assert count_calls["sample_members"] == 0
    rows, members = [], geometry.ConvexSet._contains_checked
    monkeypatch.setattr(
        geometry.ConvexSet, "_contains_checked",
        lambda self, xs, *a, **k: rows.append(np.array(xs)) or members(self, xs, *a, **k))
    assert verify_icr_membership(core)
    assert len(rows) == 1 and rows[0].tolist() == [[0.0]]


def test_the_symmetry_draw_takes_a_few_membership_rounds(count_calls):
    # criterion-02 cores: rounds sized by the acceptance so far fill the
    # 128 members in at most 3 membership batches (of the unchecked entry:
    # the proposals are built finite)
    count_calls.wrap(geometry.ConvexSet, "_contains_checked", "contains_many")
    for i in range(20):
        dim = 1 + i % 6
        rng = np.random.default_rng(1000 + i)
        lo, hi = -1.0 - rng.uniform(0, 2), 1.0 + rng.uniform(0, 2)
        dom = box(dim, lo, hi, center=[(lo + hi) / 2] * dim)
        shift = rng.uniform(-0.3, 0.3, dim)
        terms = " + ".join(f"(x{j + 1} - {float(shift[j])!r})^2" for j in range(dim))
        f = ScalarFunction.from_expr(terms, domain=dom)
        x0 = rng.uniform(-0.2, 0.2, dim)
        c_a = build_core(f, dom, x0, level=max(f(x0), f(dom.center)) + 1.0).c_a
        count_calls["contains_many"] = 0
        c_a.sample_members(np.random.default_rng(0), geometry.SYMMETRY_SAMPLES)
        assert 1 <= count_calls["contains_many"] <= 3


def test_build_core_evaluates_f_at_the_base_point_once(monkeypatch):
    dom = box(2, -5, 5, center=[0, 0])
    f = quadratic_on(dom)
    x0 = np.array([0.5, 0.2])
    rows, many = [], ScalarFunction.many
    monkeypatch.setattr(ScalarFunction, "many",
                        lambda self, xs: rows.extend(np.asarray(xs, float)) or many(self, xs))
    build_core(f, dom, x0)
    # f(x0) for the level, and the sublevel set's membership test of x0:
    # each a one-row batch, so every row of f is a row of a batch
    assert sum(np.array_equal(r, x0) for r in rows) == 2


def test_core_batch_stacks_the_rows_over_their_reflections(count_calls):
    dom = box(2)
    f = ScalarFunction.from_expr("1/(x1 - 0.25) + 1/(x1 - 0.3)", domain=dom)
    s = ConvexSet(2, Sublevel(f, 100.0, dom), center=[0.5, 0.0])
    x0 = np.array([0.5, 0.0])
    core = s.representation.symmetric_core(s, x0).representation.fn

    def two_calls(ys):
        a, b = f.many(ys), f.many(2.0 * x0 - ys)
        return np.where(b > a, b, a)

    ys = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 2))
    ys[7] = 2.0 * x0 - ys[3]  # row 3's reflection: the two values swap
    count_calls.wrap(ScalarFunction, "many")
    assert np.array_equal(core.many(ys), two_calls(ys))
    assert count_calls["many"] == 3
    # the first failing row is the same: a row (x1 = 0.3, path .r) before
    # any reflection (x1 = 0.25 at row 0, path .l), and a reflection only
    # when no row fails
    for bad in ([[0.75, 0.0], [0.3, 0.0]], [[0.75, 0.0], [0.7, 0.0]]):
        bad = np.array(bad)
        with pytest.raises(ExprDomainError) as got:
            core.many(bad)
        with pytest.raises(ExprDomainError) as want:
            two_calls(bad)
        assert str(got.value) == str(want.value)
