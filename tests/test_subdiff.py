import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from gaugecalc import (
    ConvexityFlagError,
    DegenerateGaugeError,
    Gauge,
    KernelViolationError,
    NoFeasibleStepError,
    ScalarFunction,
    Subspace,
    box,
    dir_deriv,
    extract_subgradient,
    fermat_check,
    gen_dir_deriv,
    is_subgradient,
    lebourg_point,
    subdifferential_hull,
)
from gaugecalc import WeightedGrid, geometry, make_function, make_gauge, subdiff
from gaugecalc.errors import LpInfeasibleError
from gaugecalc.geometry import ConvexSet, Halfspaces, Oracle, Vertices, whole_space


@pytest.fixture
def plane():
    return box(2, -5, 5, center=[0, 0])


@pytest.fixture
def unit_gauge():
    return Gauge.of_set(box(2))


def fn(src, dom, convex=True):
    return ScalarFunction.from_expr(src, domain=dom, convex=convex)


# -- directional derivatives --------------------------------------------------


def test_dir_deriv_oracles(plane):
    f = fn("abs(x1) + x2^2", plane)
    assert dir_deriv(f, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert dir_deriv(f, [0.0, 0.0], [-1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert dir_deriv(f, [0.5, 1.0], [0.0, 1.0]) == pytest.approx(2.0, abs=1e-8)
    assert dir_deriv(f, [0.5, 1.0], [1.0, 1.0]) == pytest.approx(3.0, abs=1e-8)


def test_dir_deriv_smooth_accuracy():
    dom = box(1, -5, 5, center=[0])
    f = fn("exp(x1)", dom)
    assert dir_deriv(f, [0.0], [1.0]) == pytest.approx(1.0, abs=1e-8)
    assert dir_deriv(f, [1.0], [-1.0]) == pytest.approx(-math.e, rel=1e-8)


def test_dir_deriv_kink_below_unit_scale():
    dom = box(1, -5, 5, center=[0])
    f = fn("max(0, x1 - 0.001)", dom)
    assert dir_deriv(f, [0.0], [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_dir_deriv_zero_direction(plane):
    assert dir_deriv(fn("x1", plane), [0.0, 0.0], [0.0, 0.0]) == 0.0


def test_dir_deriv_infeasible_direction():
    dom = box(1, 0.0, 1.0, center=[0.5])
    f = fn("x1", dom)
    with pytest.raises(NoFeasibleStepError):
        dir_deriv(f, [1.0], [1.0])


def test_gen_dir_deriv_matches_on_convex(plane, unit_gauge):
    f = fn("abs(x1) + x2^2", plane)
    for x, v in ([(0.0, 0.0), (1.0, 0.0)], [(0.5, 1.0), (0.0, 1.0)],
                 [(0.0, 0.0), (-1.0, 0.0)]):
        dd = dir_deriv(f, x, v)
        gd = gen_dir_deriv(f, x, v, unit_gauge)
        assert gd == pytest.approx(dd, abs=2e-5)


def test_gen_dir_deriv_upper_on_nonregular(plane, unit_gauge):
    # f = -|x| is not regular at 0: the one-sided derivative along +e1 is -1
    # but base points left of 0 have slope +1, so the limsup is +1
    f = fn("-abs(x1)", plane, convex=False)
    assert dir_deriv(f, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(-1.0, abs=1e-9)
    assert gen_dir_deriv(f, [0.0, 0.0], [1.0, 0.0], unit_gauge) >= 1.0 - 1e-6


def test_gen_dir_deriv_does_not_depend_on_the_span_basis():
    # a flat triangle in R^3: its gauge's span is a plane, whose basis is
    # replaced by a rotated basis of the same plane
    tri = ConvexSet(3, Vertices(np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 0.0],
                                          [0.0, -1.0, -1.0]])), center=np.zeros(3))
    g = Gauge.of_set(tri)
    assert g.span.dim == 2
    c, s = math.cos(0.7), math.sin(0.7)
    rotated = Subspace(np.array([[c, s], [-s, c]]) @ g.span.basis, 3)
    assert not np.allclose(rotated.basis, g.span.basis)
    g_rot = dataclasses.replace(g, span=rotated)
    # at a saddle every quotient reads its base point's gradient, which
    # moves with the base point at first order
    f = fn("x1*x2 - x2*x3 + 0.5*x1*x3", whole_space(3), convex=False)
    for d in np.random.default_rng(5).standard_normal((6, 3)):
        want = gen_dir_deriv(f, [0.0, 0.0, 0.0], d, g, seed=3)
        got = gen_dir_deriv(f, [0.0, 0.0, 0.0], d, g_rot, seed=3)
        assert got == pytest.approx(want, rel=1e-6)


# -- subgradient tests --------------------------------------------------------


def test_is_subgradient_interval(plane, unit_gauge):
    f = fn("abs(x1) + abs(x2)", plane)
    assert is_subgradient(f, [0.0, 0.0], [0.5, -0.5], unit_gauge)
    assert is_subgradient(f, [0.0, 0.0], [1.0, 1.0], unit_gauge)
    assert not is_subgradient(f, [0.0, 0.0], [1.5, 0.0], unit_gauge)
    assert not is_subgradient(f, [1.0, 0.0], [0.0, 0.0], unit_gauge)


def test_extract_smooth_gradient(plane, unit_gauge):
    f = fn("x1^2 + x2^2", plane)
    z = extract_subgradient(f, [0.3, -0.2], unit_gauge, objective=[1.0, 1.0])
    assert np.allclose(z, [0.6, -0.4], atol=1e-5)


def test_extract_abs_endpoints(plane, unit_gauge):
    f = fn("abs(x1) + x2^2", plane)
    hi = extract_subgradient(f, [0.0, 0.0], unit_gauge, objective=[1.0, 0.0])
    lo = extract_subgradient(f, [0.0, 0.0], unit_gauge, objective=[-1.0, 0.0])
    assert hi[0] == pytest.approx(1.0, abs=1e-4)
    assert lo[0] == pytest.approx(-1.0, abs=1e-4)


def test_extract_degenerate_gauge():
    g = Gauge.from_callable(lambda v: 0.0, Subspace.full(2), kernel=Subspace.full(2))
    f = fn("x1", box(2, -5, 5, center=[0, 0]))
    with pytest.raises(DegenerateGaugeError):
        extract_subgradient(f, [0.0, 0.0], g)


def test_hull_of_abs_at_kink(plane, unit_gauge):
    f = fn("abs(x1) + x2^2", plane)
    support = subdifferential_hull(f, [0.0, 0.5], unit_gauge)
    pts = np.array(support.subgradients)
    assert np.allclose(np.sort(pts[:, 0]), [-1.0, 1.0], atol=1e-4)
    assert np.allclose(pts[:, 1], 1.0, atol=1e-4)
    doc = support.to_json()
    assert set(doc) == {"base_point", "directions", "support_values", "subgradients"}


def test_hull_support_invariants(plane, unit_gauge):
    f = fn("abs(x1) + abs(x2)", plane)
    support = subdifferential_hull(f, [0.0, 0.0], unit_gauge)
    dirs = np.array(support.directions)
    sups = np.array(support.support_values)
    # every stored subgradient obeys every stored support value
    for z in support.subgradients:
        assert np.all(dirs @ z <= sups + 1e-6)
    # subadditivity spot-check of the support data via the vertex hull
    verts = np.array(support.subgradients)

    def h(v):
        return float(np.max(verts @ v))

    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert h(u + v) <= h(u) + h(v) + 1e-8


def test_fermat_check(plane, unit_gauge):
    f = fn("x1^2 + x2^2", plane)
    assert fermat_check(f, [0.0, 0.0], unit_gauge)["is_critical"]
    res = fermat_check(f, [0.5, 0.0], unit_gauge)
    assert not res["is_critical"]
    assert res["min_derivative"] < -0.5


def test_fermat_names_the_first_of_tied_rows(plane, unit_gauge, monkeypatch):
    # support values that tie up to one ulp name the first tied row,
    # whichever of them is the smaller; the minimum is still reported
    fan = subdiff._direction_fan(unit_gauge.reduced, subdiff._TEST_FAN, 42)
    reports = []
    for bump in (-1.0, 1.0):
        tied = np.full(len(fan), 2.0)
        tied[[3, 6]] = 0.25, np.nextafter(0.25, bump)
        monkeypatch.setattr(subdiff, "_support_values", lambda *a, **k: tied)
        reports.append(fermat_check(fn("x1", plane), [0.0, 0.0], unit_gauge))
        assert reports[-1]["min_derivative"] == float(np.min(tied))
    assert reports[0]["worst_direction"] == reports[1]["worst_direction"] == \
        list(map(float, fan.dense()[3]))


def test_fermat_blind_along_gauge_kernel(plane):
    # gauge of a segment: the quotient only sees the x-axis, so the slice
    # minimum looks critical even though the point is not a minimizer
    seg = ConvexSet(2, Vertices(np.array([[-1.0, 0.0], [1.0, 0.0]])),
                    center=np.zeros(2))
    g = Gauge.of_set(seg)
    f = fn("x1^2 + x2^2", plane)
    assert fermat_check(f, [0.0, 0.7], g)["is_critical"]
    assert f([0.0, 0.7]) > f([0.0, 0.0])
    assert not fermat_check(f, [0.3, 0.0], g)["is_critical"]


# -- mean value witness -------------------------------------------------------


def test_lebourg_quadratic_midpoint(plane, unit_gauge):
    f = fn("x1^2 + x2^2", plane)
    mvp = lebourg_point(f, [-0.5, 0.0], [0.7, 0.4], unit_gauge)
    assert mvp.alpha == pytest.approx(0.5, abs=1e-6)
    assert mvp.residual <= 1e-8
    d = np.array([1.2, 0.4])
    assert float(mvp.zeta @ d) == pytest.approx(f([0.7, 0.4]) - f([-0.5, 0.0]),
                                                abs=1e-6)


def test_lebourg_at_kink(plane, unit_gauge):
    # chord of |x| crossing the kink: the witness lands at 0 where the
    # subdifferential interval covers the secant slope
    f = fn("abs(x1) + x2^2", plane)
    mvp = lebourg_point(f, [-1.0, 0.0], [0.5, 0.0], unit_gauge)
    assert abs(mvp.point[0]) <= 1e-6
    secant = (f([0.5, 0.0]) - f([-1.0, 0.0])) / 1.5
    assert float(mvp.zeta @ [1.0, 0.0]) == pytest.approx(secant, abs=1e-4)
    assert mvp.residual <= 1e-6


def test_lebourg_kernel_chord():
    strip = ConvexSet(2, Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                    np.array([1.0, 1.0])), center=np.zeros(2))
    g = Gauge.of_set(strip)
    dom = box(2, -5, 5, center=[0, 0])
    f = fn("x1^2", dom)  # constant along the kernel (the y-axis)
    mvp = lebourg_point(f, [0.3, -1.0], [0.3, 2.0], g)
    assert mvp.residual <= 1e-9
    f_bad = fn("x2", dom)
    with pytest.raises(KernelViolationError):
        lebourg_point(f_bad, [0.3, -1.0], [0.3, 2.0], g)


def test_lebourg_nonconvex_path(plane, unit_gauge):
    f = fn("x1^3", plane, convex=False)  # nonconvex on the symmetric domain
    mvp = lebourg_point(f, [-1.0, 0.0], [1.0, 0.0], unit_gauge)
    # slope 3 t^2 equals the secant slope 1 at t = 1/sqrt(3),
    # i.e. x = +/- 1/3^(1/4)... the chord parameter solves (2s-1)^2 = 1/3
    expected = 0.5 * (1.0 + 1.0 / math.sqrt(3.0))
    assert 1.0 - mvp.alpha == pytest.approx(expected, abs=1e-3) or \
        1.0 - mvp.alpha == pytest.approx(1.0 - expected, abs=1e-3)
    assert mvp.residual <= 1e-3


# -- oracle-call counts -------------------------------------------------------


def counting_fn(src, dom, convex):
    """An expression function that counts its evaluations in ``.calls``."""
    inner = fn(src, dom, convex)

    def count(x):
        count.calls += 1
        return inner.fn(x)

    count.calls = 0
    return ScalarFunction(fn=count, domain=dom, convex=convex), count


def test_gen_dir_deriv_scans_only_the_reported_shells(plane, unit_gauge, monkeypatch):
    f, calls = counting_fn("abs(x1) + x2^2", plane, convex=False)
    gauge_rows = []
    values = unit_gauge._values_checked
    monkeypatch.setattr(unit_gauge, "_values_checked",
                        lambda us: gauge_rows.append(len(us)) or values(us))
    got = gen_dir_deriv(f, [0.0, 0.5], [1.0, 0.0], unit_gauge)
    # two shells of 12 probes each, plus the base point: 2 * 13 quotients;
    # each shell's probes are gauged in one batch
    assert (calls.calls, gauge_rows) == (52, [12, 12])
    # the value a scan of all 18 shells reports
    assert got == 1.0000000009313226


@pytest.mark.parametrize("convex, budget", [(True, 200), (False, 1100)])
def test_hull_computes_one_fan(plane, unit_gauge, convex, budget):
    # the README subdiff fixture: one fan of 20 rows, not one per objective
    f, calls = counting_fn("abs(x1) + x2^2", plane, convex)
    support = subdifferential_hull(f, [0.0, 0.5], unit_gauge)
    assert calls.calls <= budget
    pts = np.array(support.subgradients)
    assert np.allclose([pts[:, 0].min(), pts[:, 0].max()], [-1.0, 1.0], atol=1e-4)
    assert np.allclose(pts[:, 1], 1.0, atol=1e-4)


def test_hull_reuses_the_frame_rows(count_calls):
    # the objectives open with +/- each basis vector; the fan holds those rows
    # already, so only the random objectives add rows (252 evaluations before)
    count_calls.wrap(ScalarFunction, "__call__", "eval")
    f = fn("abs(x1) + x2^2 + abs(x3)", box(3, -5, 5, center=[0, 0, 0]))
    support = subdifferential_hull(f, [0.0, 0.5, 0.0], Gauge.of_set(box(3)))
    assert count_calls["eval"] <= 200
    pts = np.array(support.subgradients)
    assert np.allclose([pts[:, 0].min(), pts[:, 0].max()], [-1.0, 1.0], atol=1e-4)
    assert np.allclose([pts[:, 2].min(), pts[:, 2].max()], [-1.0, 1.0], atol=1e-4)
    assert np.allclose(pts[:, 1], 1.0, atol=1e-4)


# -- support values per fan --------------------------------------------------


def scalar_dir_deriv(f, x, d, start=None):
    """The one-direction halving ladder that the fan ladder replaced, kept
    here as the reference it must match bit for bit.  It starts at ``start``,
    by default at ``2**-8`` for a function flagged convex and at 1 for any
    other; its early stop reads ``t <= 1e-3``, which accepts the same
    power-of-two steps as the fan ladder's ``t <= 2**-10``."""
    if float(np.linalg.norm(d)) < 1e-14:
        return 0.0
    if start is None:
        start = 2.0 ** -8 if f.convex else 1.0
    t = start
    while t > 1e-7 and not f.domain.contains(x + t * d):
        t *= 0.5
    if t <= 1e-7:
        raise NoFeasibleStepError("no feasible step")
    fx = f(x)
    q_prev = q = None
    last_diff = rich_prev = None
    while t >= 5e-7:
        q_new = (f(x + t * d) - fx) / t
        if q is not None:
            diff = q_new - q
            if abs(diff) <= 1e-10 * (1.0 + abs(q_new)):
                q_prev, q = q, q_new
                break
            last_diff = diff
            rich = 2.0 * q_new - q
            if rich_prev is not None and t <= 1e-3 and \
                    abs(rich - rich_prev) <= 1e-10 * (1.0 + abs(rich)):
                q_prev, q = q, q_new
                break
            rich_prev = rich
        q_prev, q = q, q_new
        t *= 0.5
    if q is None:
        q = (f(x + t * d) - fx) / t
    if q_prev is not None and abs(q - q_prev) <= 0.1 * (1.0 + abs(q)):
        return 2.0 * q - q_prev
    return q


def scalar_gen_dir_deriv(f, x, d, g, seed):
    """The one-direction generalized derivative that draws its own shell
    base points, kept here as the reference the fan path must match."""
    if float(np.linalg.norm(d)) < 1e-14:
        return 0.0
    rng = np.random.default_rng(seed)
    b = g.span.basis
    best = -math.inf
    for j in (16, 17):
        r = 1e-2 * 2.0 ** (-j)
        bases = [x]
        for z in rng.standard_normal((12, x.size)):
            u = b.T @ (b @ z)
            mu = g.value(u)
            scale = mu if (math.isfinite(mu) and mu > 1e-9) else float(np.linalg.norm(u))
            if scale <= 1e-14:
                continue
            y = x + (r / scale) * u
            if f.domain.contains(y):
                bases.append(y)
        for y in bases:
            t = r / 4.0
            while t > 1e-12 and not f.domain.contains(y + t * d):
                t *= 0.5
            if t <= 1e-12:
                continue
            best = max(best, (f(y + t * d) - f(y)) / t)
    return best


def grid_fan(n, seed=7):
    """The weighted grid's extraction fan at a state away from the nodes."""
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.2 + 0.1 * t + 0.3 * t * t
    g = make_gauge(grid)
    w = g.reduced
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, seed, extra=[2.0 * (x - t) / (n * t)])
    return make_function(grid), x, g, fan


def plain(f):
    """``f`` on an oracle domain whose batch evaluators, its own and its
    member test's, are ``f``'s without an axis evaluator: every point along
    a signed axis is written."""
    def value(x):
        return f.fn(x)

    rep = f.domain.representation

    def member(x):
        return rep.member(x)

    value.many = lambda xs: f.fn.many(xs)
    member.many = lambda xs: rep.member.many(xs)
    domain = ConvexSet(f.domain.dim, Oracle(member=member, bounding_radius=rep.bounding_radius),
                       center=f.domain.center)
    return ScalarFunction(fn=value, domain=domain, convex=f.convex, name=f.name)


def test_fan_ladder_matches_the_scalar_ladder_on_the_grid():
    # the fan written dense: every row is a written point, as in the
    # scalar ladder
    f, x, g, fan = grid_fan(300)
    dense = fan.dense()
    got = subdiff._support_values(f, x, subdiff.Fan(dense), g, 7)
    assert got.tolist() == [scalar_dir_deriv(f, x, d) for d in dense]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_fan_ladder_matches_the_scalar_ladder(n, seed):
    # a separable convex expression, base points on and off its kinks and
    # on or a sliver inside the domain's faces (where a row's first
    # feasible step is below the ladder's floor), and random fans with zero
    # and frame rows
    rng = np.random.default_rng(seed)
    a = np.round(rng.uniform(-1, 1, n), 2)
    c = np.round(rng.uniform(0.1, 2, n), 2)
    src = " + ".join(f"{c[j]}*abs(x{j + 1} - {a[j]}) + {c[j] / 3}*x{j + 1}^2"
                     for j in range(n))
    f = fn(src, box(n, -2, 2, center=[0] * n))
    face = rng.choice([-2.0, 2.0], n) * rng.choice([1.0, 1.0 - 1.5e-7], n)
    x = np.choose(rng.integers(0, 3, n), [a, np.round(rng.uniform(-2, 2, n), 3), face])
    dirs = np.vstack([np.eye(n), -np.eye(n), np.zeros((1, n)),
                      rng.standard_normal((int(rng.integers(1, 12)), n))])
    g = Gauge.of_set(box(n))
    want = []
    for d in dirs:
        try:
            want.append(scalar_dir_deriv(f, x, d))
        except NoFeasibleStepError:
            want.append(None)
    feasible = np.array([w is not None for w in want])
    if not feasible.all():
        # a row that leaves the domain at once fails the whole fan
        with pytest.raises(NoFeasibleStepError):
            subdiff._support_values(f, x, subdiff.Fan(dirs), g, seed)
    got = subdiff._support_values(f, x, subdiff.Fan(dirs[feasible]), g, seed)
    assert got.tolist() == [w for w in want if w is not None]


def test_a_smooth_convex_row_makes_three_batch_evaluations(plane, monkeypatch):
    # a quadratic's quotients move by the same amount every octave, so they
    # never settle; the early rule fires at the third step, 2**-10, where the
    # ladder started at 1 fires too, from the same two Richardson values;
    # f(x) before them is a one-row batch
    f = fn("0.7*x1^2 + 1.3*x1*x2 + x2^2 - 0.4*x1", plane)
    x, d = np.array([0.3, -1.1]), np.array([0.6, -0.8])
    rows, many = [], ScalarFunction.many
    monkeypatch.setattr(ScalarFunction, "many",
                        lambda self, xs: rows.append(np.array(xs)) or many(self, xs))
    got = dir_deriv(f, x, d)
    monkeypatch.undo()
    assert len(rows) == 4 and rows[0].tolist() == [x.tolist()]
    assert got == scalar_dir_deriv(f, x, d) == scalar_dir_deriv(f, x, d, start=1.0)


def test_a_settled_convex_row_matches_the_ladder_from_1(plane):
    # the quotients of a piecewise-linear function settle on its first
    # linear stretch, longer than 2**-8: from 1 a few octaves down, from
    # 2**-8 at the second step; the two values are one slope up to rounding
    f = fn("0.37*abs(x1 - 0.3) + 1.3*abs(x2 + 0.2) + 0.11*x1", plane)
    for d in np.random.default_rng(5).standard_normal((8, 2)):
        got = dir_deriv(f, [0.0, 0.0], d)
        assert got == scalar_dir_deriv(f, np.zeros(2), d)
        want = scalar_dir_deriv(f, np.zeros(2), d, start=1.0)
        assert abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("n", [200, 1000])
def test_grid_extraction_evaluates_three_energy_rows_per_fan_row(n):
    # the fan has 2n signed axes and the objective's +/- pair; the energy is
    # quadratic, so each row's ladder takes steps 2**-8, 2**-9 and 2**-10:
    # three steps of the axis evaluator per axis row, in three calls, and
    # three written points per written row
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.2 + 0.1 * t + 0.3 * t * t
    f = make_function(grid)
    rows, steps, energy_many = [], [], f.fn.many

    def many(xs):
        rows.append(len(xs))
        return energy_many(xs)

    many.along = lambda x, cols, s: steps.append(len(s)) or energy_many.along(x, cols, s)
    f.fn.many = many
    extract_subgradient(f, x, make_gauge(grid), objective=2.0 * (x - t) / (n * t))
    assert steps == [2 * n] * 3
    assert rows == [1, 2, 2, 2]  # f(x), a one-row batch, then the three steps


def test_fan_generalized_path_matches_per_row(plane, unit_gauge):
    # the shell base points, their values and gauges are drawn once per fan
    f = fn("abs(x1) - abs(x2) + x1*x2", plane, convex=False)
    x = np.array([0.0, 0.0])
    dirs = np.vstack([np.eye(2), -np.eye(2), [[0.0, 0.0]],
                      np.random.default_rng(3).standard_normal((7, 2))])
    got = subdiff._support_values(f, x, subdiff.Fan(dirs), unit_gauge, 11)
    per_row = [gen_dir_deriv(f, x, d, unit_gauge, seed=11) for d in dirs]
    assert got.tolist() == per_row
    assert per_row == [scalar_gen_dir_deriv(f, x, d, unit_gauge, 11) for d in dirs]


def test_fan_generalized_path_evaluates_base_points_once(plane, unit_gauge):
    f, calls = counting_fn("abs(x1) + x2^2", plane, convex=False)
    dirs = np.vstack([np.eye(2), -np.eye(2)])
    subdiff._support_values(f, np.array([0.0, 0.5]), subdiff.Fan(dirs), unit_gauge, 42)
    # per shell: 13 base values, then one quotient per base point and row
    assert calls.calls == 2 * (13 + 13 * 4)


def test_grid_extraction_makes_no_scalar_calls(count_calls):
    count_calls.wrap(subdiff.ScalarFunction, "__call__", "eval")
    count_calls.wrap(ConvexSet, "contains", "contains")
    n = 1000
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.2 + 0.1 * t + 0.3 * t * t
    closed = 2.0 * (x - t) / (n * t)
    z = extract_subgradient(make_function(grid), x, make_gauge(grid), objective=closed)
    # one scalar call, the base value f(x); every quotient and membership
    # test goes through the grid's batch evaluators
    assert (count_calls["eval"], count_calls["contains"]) == (1, 0)
    assert float(np.linalg.norm(z - closed)) <= 1e-5 * float(np.linalg.norm(closed))


def test_fan_evaluation_allocates_a_few_chunks():
    # with no axis evaluator, the 2,000 points along the signed axes are
    # written a chunk at a time: the 16 MB of the dense fan, or of its
    # points, are never held at once
    f, x, g, fan = grid_fan(1000)
    f = plain(f)
    m = len(fan)
    chunk = subdiff._CHUNK_ELEMENTS * 8
    assert m * x.size * 8 >= 16 * chunk
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        subdiff._support_values(f, x, fan, g, 7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the ladder's per-row state is about 30 row vectors
    assert peak <= 4 * chunk + 32 * m * 8


def test_grid_extraction_traced_peak_is_under_2_mb():
    # n = 1000: the fan's 2,000 signed axes are never written, and the
    # axis evaluators never write their points; the gauge's whole space
    # keeps no frame and reads rows as their own coordinates, so no 8 MB
    # identity basis is written, not even for the default objective (the
    # first basis vector, lifted)
    n = 1000
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.2 + 0.1 * t + 0.3 * t * t
    f = make_function(grid)
    closed = 2.0 * (x - t) / (n * t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = make_gauge(grid)
        z = extract_subgradient(f, x, g, objective=closed)
        extract_subgradient(f, x, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert float(np.linalg.norm(z - closed)) <= 1e-5 * float(np.linalg.norm(closed))
    assert "basis" not in vars(g.reduced)


def oscillating(dom):
    """t * sin(log t) along +x1 from 0: its difference quotients sin(log t)
    swing between -1 and 1 as the step halves, and never settle."""
    def fn_(v):
        s = abs(float(v[0]))
        return s * math.sin(math.log(s)) if s > 0.0 else 0.0

    return ScalarFunction(fn=fn_, domain=dom, convex=False, name="oscillating")


def test_dir_deriv_warns_once_per_call_on_oscillation(plane):
    f = oscillating(plane)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dir_deriv(f, [0.0, 0.0], [1.0, 0.0])
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "oscillate" in str(caught[0].message)
        dir_deriv(f, [0.0, 0.0], [1.0, 0.0])
        assert len(caught) == 2
        # a convex flag vouches for the one-sided derivative: no warning
        f.convex = True
        dir_deriv(f, [0.0, 0.0], [1.0, 0.0])
        assert len(caught) == 2
        # quotients of a smooth function converge from one side: no warning
        dir_deriv(fn("x1^3 - x1", plane, convex=False), [0.3, 0.0], [1.0, 0.0])
        assert len(caught) == 2


# -- direction fans as arrays -------------------------------------------------


def list_frame(w):
    """The list construction of a fan's frame that the array one replaced,
    kept here as the reference it must match with ``==``.  A line's frame is
    +/- its basis vector alone."""
    dirs = []
    for b in w.basis:
        dirs.append(b)
        dirs.append(-b)
    if 1 < w.dim < w.ambient_dim:
        for i in range(w.ambient_dim):
            a = w.basis.T @ (w.basis @ np.eye(w.ambient_dim)[i])
            na = float(np.linalg.norm(a))
            if na > 1e-10:
                dirs.append(a / na)
                dirs.append(-a / na)
    return dirs


def safe_norm(v):
    """The length of ``v``, taken on ``v`` divided by its largest entry
    where the plain sum of squares overflows or underflows."""
    with np.errstate(over="ignore"):
        sq = float(v.dot(v))
    top = float(np.max(np.abs(v), initial=0.0))
    if not np.finfo(float).tiny <= sq < math.inf and top > 0.0:
        return top * math.sqrt(float((v / top).dot(v / top)))
    return math.sqrt(sq)


def list_fan(w, size, seed, extra=()):
    dirs = list_frame(w)
    rows = []
    for v in extra:
        p = w.basis.T @ (w.basis @ v)
        nv = safe_norm(p)
        kept = nv > 1e-14 * safe_norm(v)
        rows.append(len(dirs) if kept else 0)
        if kept:
            dirs.append(p / nv)
            dirs.append(-p / nv)
    rng = np.random.default_rng(seed)
    count = max(size[0] * w.dim, size[1])
    while len(dirs) < count and w.dim > 1:
        u = w.basis.T @ rng.standard_normal(w.dim)
        nu = float(np.linalg.norm(u))
        if nu > 1e-14:
            dirs.append(u / nu)
    return np.array(dirs).reshape(-1, w.ambient_dim), rows


@pytest.mark.parametrize("size", [subdiff._TEST_FAN, subdiff._LP_FAN,
                                  subdiff._OBJECTIVE_FAN, (6, 24)])
def test_fan_matches_the_list_construction(size):
    rng = np.random.default_rng(5)
    for trial in range(150):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        w = Subspace.full(n) if k == n else \
            Subspace.from_spanning(rng.standard_normal((k, n)), n)
        # a random vector, one with no component in w, the zero vector, a
        # long one with no component in w (its projection is rounding noise
        # above an absolute 1e-14) and random vectors whose plain sum of
        # squares overflows or underflows
        outside = np.zeros(n) if w.dim == n else w.complement().basis[0]
        extra = [rng.standard_normal(n), outside, np.zeros(n), 1e6 * outside,
                 2.0 ** 600 * rng.standard_normal(n),
                 2.0 ** -700 * rng.standard_normal(n)][:int(rng.integers(0, 7))]
        seed = int(rng.integers(1 << 20))
        fan = subdiff._direction_fan(w, size, seed, extra)
        want, want_rows = list_fan(w, size, seed, extra)
        # a fan over the whole space opens with +e_i, -e_i for each axis,
        # which are counted and not written
        axes = fan.axes
        assert axes == (2 * n if w.dim == n else 0)
        assert fan.dirs.shape == (want.shape[0] - axes, n) and np.all(fan.dirs == want[axes:])
        dense = fan.dense()
        assert len(fan) == dense.shape[0] and dense.shape == want.shape and np.all(dense == want)
        assert list(fan.extras) == want_rows
        frame = list_frame(w)
        assert fan.frame == len(frame)
        assert np.array_equal(dense[:len(frame)], np.array(frame).reshape(-1, n))
        # written out, every entry of -e_i, its zeros too, carries the sign
        # bit, as in the negated identity
        assert np.array_equal(dense[:axes:2], np.eye(n)[:axes // 2])
        assert np.array_equal(-dense[1:axes:2], np.eye(n)[:axes // 2])
        assert np.all(np.signbit(dense[1:axes:2]))
        assert all(fan.row(r).tobytes() == dense[r].tobytes() for r in range(dense.shape[0]))


@pytest.mark.parametrize("n", [1, 3, 40])
def test_whole_space_random_rows_are_the_identity_products(n):
    # the whole space's random rows are its normal draws, not their products
    # with the identity basis, and are the same bytes; R^1 has none
    w = Subspace.full(n)
    size = (6, 24)
    fan = subdiff._direction_fan(w, size, 11)
    count = max(size[0] * n, size[1]) - 2 * n if n > 1 else 0
    draws = np.random.default_rng(11).standard_normal((count, n))
    want, _ = geometry._units(geometry._images(w.basis.T, draws), 1e-14)
    assert fan.dirs.shape == want.shape and fan.dirs.tobytes() == want.tobytes()


def test_grid_frame_matches_the_list_construction():
    # the whole space's frame is its signed axes: no written row
    n = 1000
    w = Subspace.full(n)
    fan = subdiff._direction_fan(w, (0, 0), 1)
    assert fan.dirs.shape == (0, n) and fan.axes == fan.frame == 2 * n
    assert np.all(fan.dense() == np.array(list_frame(w)))


def signed_zeros(rng, v):
    """``v`` with about a third of its entries replaced by 0.0 or -0.0."""
    v = v.copy()
    flat = v.reshape(-1)
    hit = rng.random(flat.size) < 1 / 3
    flat[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return v


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), chunk=st.integers(1, 40), bases=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_axis_points_are_the_dense_points(n, chunk, bases, seed):
    # a fan over the whole space opens with its signed axes, which are not
    # written; a point along one is its base plus a signed zero with one
    # coordinate written, and must be the same floats, signed zeros
    # included, as the dense product and sum, for any ascending rows (axis
    # and written rows mixed, repeated) over several chunks, from one base
    # point or (``bases`` > 0) from rows of several
    rng = np.random.default_rng(seed)
    fan = subdiff._direction_fan(Subspace.full(n), (2, 4), seed, extra=[rng.standard_normal(n)])
    axes = 2 * n
    fan = subdiff.Fan(np.vstack([fan.dirs, signed_zeros(rng, rng.standard_normal((3, n)))]), axes)
    dense = fan.dense()
    base = signed_zeros(rng, rng.standard_normal((max(bases, 1), n))
                        * 10.0 ** rng.integers(-3, 4))
    rows = np.sort(np.concatenate([
        rng.integers(0, axes, int(rng.integers(1, 2 * axes))),
        rng.integers(0, dense.shape[0], int(rng.integers(0, 2 * dense.shape[0])))]))
    base_rows = rng.integers(0, bases, rows.size) if bases else None
    if not bases:
        base = base[0]
    t = np.where(rng.random(rows.size) < 0.5, 2.0 ** -rng.integers(0, 30, rows.size),
                 rng.uniform(1e-7, 1.0, rows.size))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subdiff, "_CHUNK_ELEMENTS", chunk * n)
        got = fan.at(np.copy, base, rows, t, base_rows)
        want = subdiff.Fan(dense).at(np.copy, base, rows, t, base_rows)
    assert got.shape == (rows.size, n) and got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chunk=st.integers(1, 90), seed=st.integers(0, 2 ** 32 - 1))
def test_grid_ladder_is_the_same_on_the_axis_path(chunk, seed):
    # WeightedGrid(40) without axis evaluators: the extraction fan's
    # ladder, scans and support values read the same floats on the fan
    # with implicit signed axes as on the fan written dense, with base
    # points that hold signed zeros, over several chunks
    rng = np.random.default_rng(seed)
    n = 40
    grid = WeightedGrid(n)
    t = grid.nodes
    x = signed_zeros(rng, t + rng.uniform(-0.4, 1.0) + rng.uniform(-0.5, 0.5) * t)
    f, g = plain(make_function(grid)), make_gauge(grid)
    w = g.reduced
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, seed, extra=[rng.standard_normal(n)])
    assert fan.axes == 2 * n and fan.dirs.shape[0] > 0
    dense = subdiff.Fan(fan.dense())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subdiff, "_CHUNK_ELEMENTS", chunk * n)
        got = subdiff._ladder(f, x, fan)
        want = subdiff._ladder(f, x, dense)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(fan.nonzero_rows(), dense.nonzero_rows())
        assert np.array_equal(fan.negation_pairs(), dense.negation_pairs())
        assert subdiff._support_values(f, x, fan, g, seed).tobytes() == \
            subdiff._support_values(f, x, dense, g, seed).tobytes()


# -- hull LPs ----------------------------------------------------------------


def hull_table(f, x, g, seed=42):
    """The fan (written dense), support values and objective rows of a hull
    at x."""
    w = g.reduced
    fan = subdiff._hull_fan(w, seed)[1]
    sups = subdiff._support_values(f, np.asarray(x, float), fan, g, seed)
    return w, fan.dense(), sups, [*range(fan.frame), *fan.extras]


#: HiGHS's tightest feasibility tolerances: at its default 1e-7 an optimum
#: may overshoot a row by more than the 1e-8 slack, and so the table's exact
#: maximum by more than the 2e-8 the comparisons allow
TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def lp_optimum(w, dirs, sups, row, options=None):
    """The optimum of one row's LP over the slackened support constraints,
    by the per-objective HiGHS solve (presolve retry included) that the
    vertex table replaced below its cap and that still runs past it, with
    HiGHS ``options`` added; None when the constraints are infeasible."""
    full = w.dim == w.ambient_dim
    a_ub = dirs if full else dirs @ w.basis.T
    b_ub = sups + subdiff._LP_SLACK * (1.0 + np.abs(sups))
    c = -(dirs[row] if full else w.basis @ dirs[row])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * w.dim, method="highs",
                  options=options)
    if res.status != 0:
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * w.dim,
                      method="highs", options={**(options or {}), "presolve": False})
    if res.status != 0:
        return None
    return res.x if full else w.basis.T @ res.x


def table_size(w, fan):
    return math.comb(len(fan), w.dim)


def test_the_capped_subset_count_matches_the_full_count():
    # the product stops once it passes the cap, and takes the same branch
    for cap in (0, 1, 7, subdiff._TABLE_SUBSETS, 10 ** 12):
        for m in range(81):
            for k in range(m + 3):
                assert subdiff._subsets_at_most(m, k, cap) == (math.comb(m, k) <= cap)


@pytest.mark.parametrize("src,x,dim", [("abs(x1) + x2^2", [0.0, 0.5], 2),
                                       ("abs(x1) + x2^2 + abs(x3)", [0.0, 0.5, 0.0], 3),
                                       ("max(x1 + x2, x1 - x2, -x1)", [0.0, 0.0], 2)])
def test_skipped_hull_rows_are_attained_by_a_listed_vertex(src, x, dim, count_calls):
    # a hull solves no LP, and every objective row, skipped or not, is
    # attained by a listed vertex to within twice the LP slack (relative)
    # plus the 1e-7 radius within which a face vertex counts as one listed
    # before; no row's own LP finds more than the listed vertices
    count_calls.wrap(subdiff, "linprog", "lp")
    f = fn(src, box(dim, -5, 5, center=[0.0] * dim))
    w, dirs, sups, rows = hull_table(f, x, Gauge.of_set(box(dim)))
    verts = np.array(subdiff._vertices(w, subdiff.Fan(dirs), sups, rows))
    assert count_calls["lp"] == 0
    radius = 1e-7 * (1.0 + float(np.max(np.linalg.norm(verts, axis=1))))
    for r in rows:
        h = float(sups[r])
        best = float(np.max(verts @ dirs[r]))
        assert abs(best - h) <= 2 * subdiff._LP_SLACK * (1.0 + abs(h)) + radius
        assert float(lp_optimum(w, dirs, sups, r, TIGHT) @ dirs[r]) <= \
            best + 2 * subdiff._LP_SLACK * (1.0 + abs(h)) + radius


def test_readme_hull_solves_no_lp(plane, unit_gauge, count_calls):
    # 8 objectives, all answered from one vertex table
    count_calls.wrap(subdiff, "linprog", "lp")
    support = subdifferential_hull(fn("abs(x1) + x2^2", plane), [0.0, 0.5], unit_gauge)
    assert count_calls["lp"] == 0
    assert len(support.directions) == 8 and len(support.subgradients) == 2


@pytest.mark.parametrize("dim,rows", [(2, 12), (3, 18)])
def test_a_hull_builds_one_fan(dim, rows, count_calls, monkeypatch):
    # the frame is built once and the random objectives are drawn once; the
    # support fan is the frame, then +/- each random objective, and in the
    # whole plane or 3-space no random row past them, so no row repeats an
    # objective
    count_calls.wrap(subdiff, "_direction_fan", "fan")
    fans, support = [], subdiff._support_values
    monkeypatch.setattr(subdiff, "_support_values",
                        lambda f, x, fan, *a: fans.append(fan) or support(f, x, fan, *a))
    draws, draw = [], subdiff._random_units
    monkeypatch.setattr(subdiff, "_random_units",
                        lambda w, count, seed: draws.append(count) or draw(w, count, seed))
    f = fn(" + ".join(f"abs(x{i + 1})" for i in range(dim)), box(dim, -5, 5, center=[0.0] * dim))
    hull = subdifferential_hull(f, np.zeros(dim), Gauge.of_set(box(dim)))
    # 4 * dim objectives, the first 2 * dim of them the frame's signed axes
    assert count_calls["fan"] == 1 and [c for c in draws if c] == [2 * dim]
    [fan] = fans
    dense = fan.dense()
    assert len(fan) == dense.shape[0] == rows
    gaps = np.linalg.norm(dense[:, None, :] - dense[None, :, :], axis=2)
    assert np.min(gaps[np.triu_indices(rows, 1)]) > 1e-6
    # the listed directions are the frame, then each random objective once
    assert len(hull.directions) == fan.frame + len(fan.extras)
    assert np.array_equal(np.array(hull.directions)[:fan.frame], dense[:fan.frame])
    assert np.allclose(np.array(hull.directions)[fan.frame:], dense[list(fan.extras)],
                       rtol=0.0, atol=1e-15)


def test_a_line_fan_is_its_two_directions():
    # every unit direction of a line is +/- its basis vector b, so its fans
    # are +/- b, then +/- each extra vector: no random row and no projected
    # axis.  The subgradients are those of the longer fans that repeated b
    f = fn("abs(x1)", box(1, -5, 5, center=[0.0]))
    hull = subdifferential_hull(f, [0.0], Gauge.of_set(box(1)))
    assert np.array_equal(hull.directions, [[1.0], [-1.0]])
    assert np.array_equal(hull.subgradients, [[1.00000002], [-1.00000002]])
    b = np.array([1.0, 2.0, 2.0]) / 3.0
    g = Gauge.of_set(ConvexSet(3, Vertices(np.vstack([b, -b])), center=np.zeros(3)))
    w = g.reduced
    assert len(subdiff._direction_fan(w, subdiff._LP_FAN, 42)) == 2
    assert len(subdiff._direction_fan(w, subdiff._TEST_FAN, 42, extra=[[1.0, 0.0, 0.0]])) == 4
    # d(|x1| + x2)(0) projects onto the line as [1/3, 1] * b
    f3 = fn("abs(x1) + x2", box(3, -5, 5, center=[0.0] * 3), convex=True)
    hull = subdifferential_hull(f3, np.zeros(3), g)
    assert np.allclose(np.abs(hull.directions), b, rtol=0.0, atol=1e-15)
    assert len(hull.directions) == 2
    assert np.array_equal(hull.subgradients, [
        [0.11111110666666664, 0.22222221333333317, 0.22222221333333317],
        [0.33333334000000014, 0.66666668, 0.66666668]])


def test_a_plane_hull_reads_the_extraction_fans_random_rows():
    # over a plane in R^3 the 10 frame rows fill the 8 objectives, so the
    # hull draws no random objective, and its support fan is an extraction
    # fan's: the frame, then 6 random rows.  d(|x1| + |x2 - 0.1| + x1^2)(0)
    # is the segment [-1, 1] x {-1} x {0}; over this plane the random rows
    # pin its projection (the frame alone leaves a vertex 0.47 off it).
    # Over other planes the hull is looser than the projection.
    basis = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    pts = np.vstack([basis, basis.mean(axis=0)])
    g = Gauge.of_set(ConvexSet(3, Vertices(np.vstack([pts, -pts])), center=np.zeros(3)))
    w = g.reduced
    directions, fan = subdiff._hull_fan(w, 42)
    lp_fan = subdiff._direction_fan(w, subdiff._LP_FAN, 42)
    assert len(directions) == fan.frame == 10 and fan.extras == ()
    assert fan.dirs.tobytes() == lp_fan.dirs.tobytes() and len(fan) == 16
    f = fn("abs(x1) + abs(x2 - 0.1) + x1^2", box(3, -5, 5, center=[0.0] * 3))
    hull = subdifferential_hull(f, np.zeros(3), g)
    ends = w.project_many(np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]))
    assert sorted(map(tuple, np.round(hull.subgradients, 6))) == \
        sorted(map(tuple, np.round(ends, 6)))


def test_an_objective_keeps_its_direction_at_any_scale():
    # the objective (1, 1) * 2**k is normalized with an overflow-safe length,
    # so every finite scale gives the bytes of k = 0, with no warning
    f = fn("abs(x1) + abs(x2)", box(2))
    g = Gauge.of_set(box(2))
    want = extract_subgradient(f, [0.0, 0.0], g, objective=[1.0, 1.0])
    assert want.tolist() == pytest.approx([1.0, 1.0], abs=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-700, -60, 0, 600):
            got = extract_subgradient(f, [0.0, 0.0], g, objective=2.0 ** k * np.ones(2))
            assert got.tobytes() == want.tobytes()


def test_an_extra_vector_off_the_space_reads_the_first_frame_row():
    # the projection of a long vector orthogonal to w is rounding noise above
    # an absolute 1e-14 but below a relative one: it adds no row
    w = Subspace.from_spanning(np.random.default_rng(4).standard_normal((2, 3)), 3)
    off = 1e6 * w.complement().basis[0]
    assert float(np.linalg.norm(w.project_many(off[None, :]))) > 1e-14
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, 7, extra=[off])
    assert fan.extras == (0,)
    assert np.array_equal(fan.dirs, subdiff._direction_fan(w, subdiff._LP_FAN, 7).dirs)


def test_a_tied_facet_lists_its_corners(plane, unit_gauge):
    # d(2|x1| + |x2|)(0) = [-2, 2] x [-1, 1]: each axis objective's optimal
    # face is an edge, read whole from the table in lexicographic order
    w = unit_gauge.reduced
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, 42)
    sups = subdiff._support_values(fn("2*abs(x1) + abs(x2)", plane), np.zeros(2), fan,
                                   unit_gauge, 42)
    assert fan.axes == 4
    face = subdiff._optimizer(w, fan, sups)
    for row, ends in [(0, [(2.0, -1.0), (2.0, 1.0)]), (1, [(-2.0, -1.0), (-2.0, 1.0)]),
                      (2, [(-2.0, 1.0), (2.0, 1.0)]), (3, [(-2.0, -1.0), (2.0, -1.0)])]:
        got = face(row)
        assert [tuple(z) for z in got] == sorted(map(tuple, got))
        assert sorted({tuple(np.round(z, 6)) for z in got}) == ends
    corners = subdiff._vertices(w, fan, sups, range(4))
    assert sorted(tuple(np.round(z, 6)) for z in corners) == \
        [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)]
    # one pick is the face's lexicographically smallest vertex
    z = extract_subgradient(fn("2*abs(x1) + abs(x2)", plane), [0.0, 0.0], unit_gauge,
                            objective=[1.0, 0.0])
    assert np.round(z, 6).tolist() == [2.0, -1.0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), proper=st.booleans(),
       shape=st.sampled_from(["polytope", "segment", "point", "inconsistent"]),
       seed=st.integers(0, 1 << 20))
def test_vertex_table_matches_the_lp(dim, proper, shape, seed):
    # random fans in a reduced space of dimension 1-3, whole or inside
    # R^(dim+1); support values of a random polytope, a segment, a point up
    # to noise below the LP slack, or a point with every value lowered (no
    # z meets them all)
    rng = np.random.default_rng(seed)
    n = dim + proper
    w = Subspace.from_spanning(rng.standard_normal((dim, n)), n) if proper \
        else Subspace.full(n)
    fan = subdiff.Fan(subdiff._direction_fan(w, subdiff._LP_FAN, seed,
                                             extra=rng.standard_normal((2, n))).dense())
    dirs = fan.dirs
    assert table_size(w, fan) <= subdiff._TABLE_SUBSETS
    count = {"polytope": dim + 3, "segment": 2}.get(shape, 1)
    points = 3.0 * rng.standard_normal((count, dim)) @ w.basis
    sups = np.max(dirs @ points.T, axis=1)
    if shape == "point":
        sups += rng.uniform(-1e-9, 1e-9, sups.size)
    if shape == "inconsistent":
        sups -= 1e-3
        with pytest.raises(LpInfeasibleError):
            subdiff._optimizer(w, fan, sups)
        assert all(lp_optimum(w, dirs, sups, r) is None for r in range(len(dirs)))
        return
    face = subdiff._optimizer(w, fan, sups)
    b = sups + subdiff._LP_SLACK * (1.0 + np.abs(sups))
    for r in range(len(dirs)):
        got = face(r)
        values = got @ dirs[r]
        best = float(values[0])
        want = float(lp_optimum(w, dirs, sups, r, TIGHT) @ dirs[r])
        assert abs(best - want) <= 2e-8 * (1.0 + abs(want))
        # the face: feasible vertices in w, tied to the maximum, sorted
        assert np.all(np.abs(values - best) <= subdiff._ATTAINED_TOL * (1.0 + abs(best)))
        assert np.all(got @ dirs.T <= b + 1e-9 * (1.0 + np.abs(b)))
        assert np.allclose(got, got @ w.basis.T @ w.basis, atol=1e-9)
        assert [tuple(z) for z in got] == sorted(map(tuple, got))


def vertices_by_pairs(w, dirs, sups, rows):
    """The per-pair dedupe loop that :func:`subdiff._vertices` replaced,
    kept here as the reference it must match float for float."""
    face = subdiff._optimizer(w, subdiff.Fan(dirs), sups)
    grads = []
    for row in rows:
        h = float(sups[row])
        if grads and float(np.max(np.array(grads) @ dirs[row])) >= \
                h - subdiff._ATTAINED_TOL * (1.0 + abs(h)):
            continue
        for z in face(row):
            if not any(np.linalg.norm(z - z0) <= 1e-7 * (1 + np.linalg.norm(z))
                       for z0 in grads):
                grads.append(z)
    return grads


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), noise=st.sampled_from([0.0, 1e-9, 1e-8, 1e-7]),
       seed=st.integers(0, 1 << 20))
def test_vertex_dedupe_matches_the_per_pair_loop(dim, noise, seed):
    # support values of a random polytope raised by noise up to about the
    # dedupe radius, which cuts tiny facets at its corners
    rng = np.random.default_rng(seed)
    w = Subspace.full(dim)
    dirs = subdiff._direction_fan(w, subdiff._LP_FAN, seed,
                                  extra=rng.standard_normal((6, dim))).dense()
    points = 3.0 * rng.standard_normal((dim + 3, dim))
    sups = np.max(dirs @ points.T, axis=1) + rng.uniform(0.0, noise, dirs.shape[0])
    rows = range(dirs.shape[0])
    want = vertices_by_pairs(w, dirs, sups, rows)
    assert [z.tolist() for z in subdiff._vertices(w, subdiff.Fan(dirs), sups, rows)] == \
        [z.tolist() for z in want]


@pytest.mark.parametrize("dim,lps", [(3, 0), (6, 1)])
def test_a_fan_past_the_cap_solves_lps(dim, lps, count_calls):
    # an extraction fan in 6-D has 16 rows and 8,008 six-row subsets, past
    # the cap: its objective solves one LP; in 3-D the table answers it
    count_calls.wrap(subdiff, "linprog", "lp")
    f = fn(" + ".join(f"abs(x{i + 1})" for i in range(dim)),
           box(dim, -5, 5, center=[0.0] * dim))
    g = Gauge.of_set(box(dim))
    w = g.reduced
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, 42, extra=[w.basis[0]])
    assert (table_size(w, fan) > subdiff._TABLE_SUBSETS) == (lps > 0)
    z = extract_subgradient(f, np.zeros(dim), g)
    assert count_calls["lp"] == lps
    assert z[0] == pytest.approx(1.0, abs=1e-6)


def bounds_model(fan, sups):
    """The past-cap LP's model of a whole-space fan: its ``2n`` signed axes
    ``+e_i, -e_i`` as the variable bounds ``-b[2i+1] <= z_i <= b[2i]``, the
    written rows as inequality rows."""
    b = sups + subdiff._LP_SLACK * (1.0 + np.abs(sups))
    axes = 2 * fan.dirs.shape[1]
    return {"A_ub": fan.dirs, "b_ub": b[axes:],
            "bounds": np.column_stack([-b[1:axes:2], b[:axes:2]])}


def assert_feasible(z, model):
    """z meets the model's bounds exactly and its rows to rounding."""
    lo, hi = model["bounds"].T
    assert np.all(lo <= z) and np.all(z <= hi)
    b = model["b_ub"]
    assert np.all(model["A_ub"] @ z <= b + 1e-12 * (1.0 + np.abs(b)))


def lexicographic_optimum(c, model):
    """The lexicographically smallest maximizer of <c, z> over a bounds
    model (``A_ub`` None: the box alone), by sequential HiGHS LPs at TIGHT
    tolerances: the maximum, then the least z_0 on the optimal face, z_0
    fixed there, then the least z_1, and so on; None when HiGHS finds no
    optimum."""
    best = linprog(-c, **model, method="highs", options=TIGHT)
    if best.status != 0:
        return None
    rows = model["A_ub"] is not None
    a_ub = np.vstack([model["A_ub"], -c]) if rows else -c[None, :]
    b_ub = np.append(model["b_ub"] if rows else [], best.fun)
    bounds = np.array(model["bounds"], dtype=float)
    for i in range(c.size):
        res = linprog(np.eye(1, c.size, i)[0], A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                      method="highs", options=TIGHT)
        assert res.status == 0
        bounds[i] = res.x[i]
    return bounds[:, 0]


def test_grid_extraction_is_the_lp_optimum(count_calls):
    # n = 200: far past the cap, the extraction solves no LP; it is a point
    # of the bounds model that reaches HiGHS's optimum (at its tightest
    # tolerances) to within the LP slack
    count_calls.wrap(subdiff, "linprog", "lp")
    n = 200
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.2 + 0.1 * t + 0.3 * t * t
    closed = 2.0 * (x - t) / (n * t)
    f, g = make_function(grid), make_gauge(grid)
    w = g.reduced
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, 42, extra=[closed])
    sups = subdiff._support_values(f, x, fan, g, 42)
    assert table_size(w, fan) > subdiff._TABLE_SUBSETS
    z = extract_subgradient(f, x, g, objective=closed)
    assert count_calls["lp"] == 0
    assert_feasible(z, bounds_model(fan, sups))
    u = fan.row(fan.extras[0])
    want = float(lp_optimum(w, fan.dense(), sups, fan.extras[0], TIGHT) @ u)
    assert abs(float(u @ z) - want) <= subdiff._LP_SLACK * (1.0 + abs(want))


def grid40():
    """WeightedGrid(40), past the cap: its function, state, gauge, closed
    form, reduced space and extraction fan with support values."""
    n = 40
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.2 + 0.1 * t + 0.3 * t * t
    closed = 2.0 * (x - t) / (n * t)
    f, g = make_function(grid), make_gauge(grid)
    w = g.reduced
    fan = subdiff._direction_fan(w, subdiff._LP_FAN, 42, extra=[closed])
    sups = subdiff._support_values(f, x, fan, g, 42)
    assert table_size(w, fan) > subdiff._TABLE_SUBSETS and fan.axes == 2 * n
    return f, x, g, closed, w, fan, sups


def test_the_past_cap_lp_takes_the_signed_axes_as_bounds(count_calls):
    # the signed axes are a box and the objective's pair a slab: the
    # extraction solves no LP and returns the bounds model's
    # lexicographically smallest optimum
    f, x, g, closed, w, fan, sups = grid40()
    count_calls.wrap(subdiff, "linprog", "lp")
    z = extract_subgradient(f, x, g, objective=closed)
    # an objective with no component in w adds no row past the axes: the
    # box's corner, the first upper bound and every other lower bound
    corner = extract_subgradient(f, x, g, objective=np.zeros(w.dim))
    assert count_calls["lp"] == 0
    model = bounds_model(fan, sups)
    assert_feasible(z, model)
    u = fan.row(fan.extras[0])
    own = linprog(-u, **model, method="highs", options=TIGHT)
    assert abs(float(u @ z) + own.fun) <= subdiff._LP_SLACK * (1.0 + abs(own.fun))
    assert np.allclose(z, lexicographic_optimum(u, model), rtol=0.0, atol=1e-10)
    lo, hi = model["bounds"].T
    assert corner.tolist() == [hi[0], *lo[1:]]


def recording_linprog(monkeypatch, statuses=()):
    """Wrap subdiff's linprog to record each call's arguments; the first
    calls report the given ``statuses`` instead of their result."""
    calls, fake = [], list(statuses)

    def wrapped(c, **kwargs):
        calls.append(kwargs)
        res = linprog(c, **kwargs)
        if fake:
            res.status = fake.pop(0)
        return res

    monkeypatch.setattr(subdiff, "linprog", wrapped)
    return calls


def six():
    """A whole-space extraction in R^6, past the cap with 2 random rows
    (8,008 six-row subsets), which HiGHS solves: its function, point,
    gauge, objective, fan and support values."""
    f = fn("abs(x1) + 2*abs(x2) + abs(x3 + x4) + x5^2 + x6^2", box(6, -5, 5, center=[0.0] * 6))
    x, g = np.zeros(6), Gauge.of_set(box(6))
    objective = np.array([1.0, -1.0, 0.5, 0.25, 2.0, 0.0])
    fan = subdiff._direction_fan(g.reduced, subdiff._LP_FAN, 42, extra=[objective])
    assert table_size(g.reduced, fan) == 8008 and fan.dirs.shape[0] == 4
    return f, x, g, objective, fan, subdiff._support_values(f, x, fan, g, 42)


def test_a_fan_with_random_rows_takes_the_signed_axes_as_bounds(monkeypatch):
    f, x, g, objective, fan, sups = six()
    calls = recording_linprog(monkeypatch)
    z = extract_subgradient(f, x, g, objective=objective)
    [call] = calls
    model = bounds_model(fan, sups)
    for key, want in model.items():
        assert np.array_equal(call[key], want)
    # the extraction is that model's optimum, byte for byte, and the dense
    # model's optimum to within the LP slack
    own = linprog(-fan.row(fan.extras[0]), **model, method="highs")
    assert z.tobytes() == own.x.tobytes()
    dense = lp_optimum(g.reduced, fan.dense(), sups, fan.extras[0])
    assert np.allclose(z, dense, rtol=0.0, atol=subdiff._LP_SLACK * (1.0 + np.max(np.abs(dense))))


def test_the_presolve_retry_runs_on_the_bounds_model(monkeypatch):
    f, x, g, objective, fan, sups = six()
    calls = recording_linprog(monkeypatch, statuses=[2])
    z = extract_subgradient(f, x, g, objective=objective)
    first, retry = calls
    assert retry["options"] == {"presolve": False}
    for key in ("A_ub", "b_ub", "bounds"):
        assert retry[key] is first[key]
    # the raw solve of the bounds model finds the same optimum
    raw = linprog(-fan.row(fan.extras[0]), **bounds_model(fan, sups), method="highs",
                  options={"presolve": False})
    assert z.tobytes() == raw.x.tobytes()


def slab_case(kind, n, rng):
    """A box ``lo <= z <= hi`` (some sides of zero width), an objective v
    (some entries 0) and a slab ``floor <= <v, z> <= top`` of the ``kind``:
    ``cut`` (top between the box's least and most value of <v, z>),
    ``corner`` (top at or above the most), ``axis`` (v = +/- e_j, no
    slab), ``tie`` (small integers, top the value at a random corner, so
    sums tie exactly), ``inverted`` (lo > hi somewhere) or ``miss`` (the
    slab lies off the box)."""
    if kind == "tie":
        v = rng.integers(-2, 3, n).astype(float)
        lo = rng.integers(-3, 2, n).astype(float)
        hi = lo + rng.integers(0, 3, n)
    else:
        v = rng.standard_normal(n) * (rng.random(n) < 0.75)
        v /= max(np.linalg.norm(v), 1e-300)
        lo = rng.uniform(-3.0, 1.0, n)
        hi = lo + rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.9)
    most, least = float(v @ np.where(v > 0, hi, lo)), float(v @ np.where(v < 0, hi, lo))
    floor = -math.inf if rng.random() < 0.5 else least - rng.uniform(0.0, 1.0)
    if kind == "cut":
        top = least + rng.uniform(0.0, 1.0) * (most - least)
    elif kind == "corner":
        top = most + (rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.0)
    elif kind == "axis":
        v = np.eye(1, n, rng.integers(n))[0] * rng.choice([-1.0, 1.0])
        top, floor = math.inf, -math.inf
    elif kind == "tie":
        top = float(v @ np.where(rng.random(n) < 0.5, lo, hi))
    elif kind == "inverted":
        top, floor = most, least - 1.0
        lo[rng.integers(n)] += 3.0
    else:  # miss: the whole slab lies below or above the box
        top, floor = (least - 1.0, least - 2.0) if rng.random() < 0.5 else \
            (most + 2.0, most + 1.0)
    return v, lo, hi, top, floor


def slab_model(v, lo, hi, top, floor):
    """The box and slab as a HiGHS bounds model, infinite sides dropped."""
    rows = [(v, top)] * (top < math.inf) + [(-v, -floor)] * (floor > -math.inf)
    return {"A_ub": np.array([a for a, _ in rows]) if rows else None,
            "b_ub": np.array([b for _, b in rows]) if rows else None,
            "bounds": np.column_stack([lo, hi])}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(7, 40),
       kind=st.sampled_from(["cut", "corner", "axis", "tie", "inverted", "miss"]),
       seed=st.integers(0, 1 << 20))
def test_the_slab_optimum_is_the_lexicographic_lp_optimum(n, kind, seed):
    # the closed form against sequential HiGHS LPs; an empty box or a slab
    # off the box is infeasible for both.  Every bound scaled by 2^+/-500
    # (HiGHS reads 1e20 and more as infinite) scales the answer exactly
    v, lo, hi, top, floor = slab_case(kind, n, np.random.default_rng(seed))
    want = lexicographic_optimum(v, slab_model(v, lo, hi, top, floor))
    if want is None:
        assert kind in ("inverted", "miss")
        for s in (1.0, 2.0 ** -500, 2.0 ** 500):
            with pytest.raises(LpInfeasibleError):
                subdiff._slab_optimum(v, s * lo, s * hi, s * top, s * floor)
        return
    z = subdiff._slab_optimum(v, lo, hi, top, floor)
    assert np.all(lo <= z) and np.all(z <= hi)
    assert floor - 1e-12 <= float(v @ z) <= top + 1e-12
    assert np.allclose(z, want, rtol=0.0, atol=1e-9)
    for s in (2.0 ** -500, 2.0 ** 500):
        assert subdiff._slab_optimum(v, s * lo, s * hi, s * top, s * floor).tobytes() == \
            (s * z).tobytes()


@pytest.mark.parametrize("kind", ["inverted", "miss"])
def test_an_empty_box_or_slab_is_infeasible_on_both_paths(kind):
    # a fan of signed axes and the pair +v, -v takes the closed form; the
    # same model with +v written twice reaches HiGHS, and both raise
    n = 12
    v, lo, hi, top, floor = slab_case(kind, n, np.random.default_rng(7))
    axis_sups = np.column_stack([hi, -lo]).ravel()
    for dirs, sups in [([v, -v], [top, -floor]), ([v, -v, v], [top, -floor, top])]:
        face = subdiff._optimizer(Subspace.full(n), subdiff.Fan(np.array(dirs), 2 * n),
                                  np.concatenate([axis_sups, sups]))
        with pytest.raises(LpInfeasibleError):
            face(2 * n)


# -- the convex flag ---------------------------------------------------------


def test_a_false_convex_flag_is_named(plane, unit_gauge):
    f = fn("-abs(x1) + x2^2", plane)
    with pytest.raises(ConvexityFlagError, match="flagged convex"):
        subdifferential_hull(f, [0.0, 0.0], unit_gauge)
    with pytest.raises(ConvexityFlagError):
        fermat_check(f, [0.0, 0.0], unit_gauge)
    # without the flag the generalized path answers: 0 lies in the Clarke
    # subdifferential [-1, 1] x {0}
    f.convex = False
    assert fermat_check(f, [0.0, 0.0], unit_gauge)["is_critical"]


def test_sublinearity_check_reads_only_negation_pairs(plane, unit_gauge):
    # a kink of a convex function: h(v) + h(-v) > 0 on the +/- x1 pair, and
    # unpaired rows are not compared
    f = fn("abs(x1) + x2^2", plane)
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    h = subdiff._support_values(f, np.array([0.0, 0.0]), subdiff.Fan(dirs), unit_gauge)
    assert h[0] + h[1] == pytest.approx(2.0, abs=1e-9)
    assert subdiff.Fan(dirs).negation_pairs().tolist() == [0]


# -- mean value scan ---------------------------------------------------------


@pytest.mark.parametrize("expr,convex", [("abs(x1) + x2^2", True),
                                         ("abs(x1) - abs(x2) + 0.3 * x1", False)])
def test_lebourg_search_makes_no_scalar_call(expr, convex, plane, unit_gauge, monkeypatch):
    # before the extraction at the witness: the point calls f(x) and f(y),
    # each a one-row batch, the 513-point scan as one batch, then one batch
    # per sectioning round
    f = fn(expr, plane, convex=convex)
    events = []
    many, call, extract = ScalarFunction.many, ScalarFunction.__call__, subdiff._extract
    monkeypatch.setattr(ScalarFunction, "many",
                        lambda self, xs: events.append(len(xs)) or many(self, xs))
    monkeypatch.setattr(ScalarFunction, "__call__",
                        lambda self, x: events.append("scalar") or call(self, x))
    monkeypatch.setattr(subdiff, "_extract",
                        lambda *a, **k: events.append("extract") or extract(*a, **k))
    lebourg_point(f, [-0.5, 0.2], [0.7, -0.3], unit_gauge)
    search = events[:events.index("extract")]
    rounds = len(search) - 5
    assert search == ["scalar", 1, "scalar", 1, 513] + [subdiff._SECTIONS] * rounds
    assert 10 <= rounds < subdiff._SECTION_ROUNDS


def sectioning_uncapped(psi, lo, hi, rounds=400):
    """The sectioning search run for ``rounds`` rounds with no stop rule."""
    for _ in range(rounds):
        ts = np.linspace(lo, hi, subdiff._SECTIONS + 2)
        j = int(np.argmin(psi(ts[1:-1]))) + 1
        lo, hi = float(ts[j - 1]), float(ts[j + 1])
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("expr,convex,x,y", [
    ("abs(x1) + x2^2", True, [-0.5, 0.2], [0.7, -0.3]),
    ("max(x1, 2*x2) + 0.5*x1^2", True, [-0.9, 0.1], [0.4, 0.8]),
    ("abs(x1) - abs(x2) + 0.3 * x1", False, [-0.5, 0.2], [0.7, -0.3]),
    ("x1^3 - x1 + abs(x2)", False, [-0.9, -0.4], [0.9, 0.6]),
])
def test_lebourg_stop_rule_returns_the_uncapped_point(expr, convex, x, y, plane, unit_gauge,
                                                      monkeypatch):
    f = fn(expr, plane, convex=convex)
    got = lebourg_point(f, x, y, unit_gauge)
    calls = []
    monkeypatch.setattr(subdiff, "_sectioning",
                        lambda psi, lo, hi: calls.append(1) or sectioning_uncapped(psi, lo, hi))
    want = lebourg_point(f, x, y, unit_gauge)
    assert calls
    assert got.alpha == want.alpha
    assert np.array_equal(got.point, want.point)
    assert np.array_equal(got.zeta, want.zeta)


#: separable terms in one coordinate (``{i}`` its index, ``{a}`` a kink
#: position, ``{c}`` a positive coefficient): convex ones, then others
CONVEX_TERMS = ["{c}*abs(x{i} - {a})", "{c}*x{i}^2", "max(x{i}, {c}*x{i} + {a})",
                "{c}*x{i}", "exp({c}*x{i})"]
OTHER_TERMS = ["-{c}*abs(x{i} - {a})", "x{i}^3 - {c}*x{i}", "-{c}*x{i}^2"]


@st.composite
def lebourg_cases(draw):
    n = draw(st.integers(1, 3))
    convex = draw(st.booleans())
    terms = [draw(st.sampled_from(CONVEX_TERMS if convex else CONVEX_TERMS + OTHER_TERMS))
             .format(i=i + 1, a=draw(st.sampled_from([-0.5, -0.1, 0.0, 0.3])),
                     c=draw(st.sampled_from([0.2, 0.5, 1.0, 2.5])))
             for i in range(n)]
    point = st.lists(st.integers(-100, 100).map(lambda k: k / 100), min_size=n, max_size=n)
    x, y = np.array(draw(point)), np.array(draw(point))
    assume(np.linalg.norm(y - x) >= 0.1)
    return " + ".join(terms), convex, x, y


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=lebourg_cases())
def test_lebourg_witness_is_on_the_chord_and_pairs_to_the_secant(case):
    # random separable expressions and chords: the witness lies on the
    # chord, and its subgradient pairs with y - x to the secant within the
    # tolerance; for a convex function psi(t) = f(x + t d) - target t at
    # the witness is no larger than the scan's smallest value, up to rounding
    expr, convex, x, y = case
    n = x.size
    f = fn(expr, box(n, -5, 5, center=[0.0] * n), convex=convex)
    mvp = lebourg_point(f, x, y, Gauge.of_set(box(n)))
    assert 0.0 < mvp.alpha < 1.0
    assert np.allclose(mvp.point, mvp.alpha * x + (1.0 - mvp.alpha) * y, rtol=0.0, atol=1e-12)
    target = f(y) - f(x)
    assert abs(float(mvp.zeta @ (y - x)) - target) <= \
        subdiff._SECANT_TOL * (1.0 + abs(target))
    if convex:
        ts = np.linspace(0.0, 1.0, 513)
        scan = f.many(x + ts[:, None] * (y - x)) - target * ts
        witness = f(mvp.point) - target * (1.0 - mvp.alpha)
        assert witness <= float(np.min(scan)) + 1e-12 * (1.0 + abs(f(x)))


# -- implicit signed axes ----------------------------------------------------


@st.composite
def expression_fans(draw):
    """A separable expression (convex-flagged or not), a base point on or
    off its kinks (signed zeros included) and a whole-space fan with extra
    vectors that may be axes themselves."""
    n = draw(st.integers(1, 4))
    convex = draw(st.booleans())
    terms = [draw(st.sampled_from(CONVEX_TERMS if convex else CONVEX_TERMS + OTHER_TERMS))
             .format(i=i + 1, a=draw(st.sampled_from([-0.5, -0.1, 0.0, 0.3])),
                     c=draw(st.sampled_from([0.2, 0.5, 1.0, 2.5])))
             for i in range(n)]
    x = np.array(draw(st.lists(st.sampled_from([-0.5, -0.1, 0.0, -0.0, 0.3, 0.71]),
                               min_size=n, max_size=n)))
    extra = draw(st.lists(st.sampled_from(["random", "axis", "zero"]), max_size=3))
    return " + ".join(terms), convex, x, extra, draw(st.integers(0, 2 ** 20))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=expression_fans())
def test_support_values_without_an_axis_evaluator_match_the_dense_fan(case):
    # an expression carries no axis evaluator: its support values on the
    # fan with implicit signed axes, by the ladder or by the generalized
    # path, are the bytes of those on the same fan written dense
    expr, convex, x, kinds, seed = case
    n = x.size
    rng = np.random.default_rng(seed)
    f = fn(expr, box(n, -5, 5, center=[0.0] * n), convex=convex)
    assert f.many_along is None and f.domain.contains_along is None
    extra = [{"random": rng.standard_normal(n), "axis": np.eye(n)[int(rng.integers(n))],
              "zero": np.zeros(n)}[k] for k in kinds]
    g = Gauge.of_set(box(n))
    w = g.reduced
    fan = subdiff._direction_fan(w, subdiff._TEST_FAN, seed, extra)
    assert fan.axes == 2 * n
    dense = subdiff.Fan(fan.dense())
    assert np.array_equal(fan.negation_pairs(), dense.negation_pairs())
    assert np.array_equal(fan.nonzero_rows(), dense.nonzero_rows())
    assert subdiff._support_values(f, x, fan, g, seed).tobytes() == \
        subdiff._support_values(f, x, dense, g, seed).tobytes()
    z = rng.standard_normal(n)
    assert np.array_equal(fan.pairings(z), dense.dirs @ z)


def test_a_written_axis_after_the_signed_axes_is_a_negation_pair():
    # the last signed axis is -e_n; an extra vector e_n opens the written
    # rows, so the two are compared as a pair, as on the dense fan
    fan = subdiff._direction_fan(Subspace.full(2), (2, 4), 3, extra=[[0.0, 2.0]])
    assert fan.extras == (4,) and fan.axes == 4 and np.array_equal(fan.dirs[0], [0.0, 1.0])
    pairs = fan.negation_pairs()
    assert pairs.tolist()[:4] == [0, 2, 3, 4]
    assert np.array_equal(pairs, subdiff.Fan(fan.dense()).negation_pairs())


def test_the_signed_axes_are_the_stacked_identity_rows():
    # one strided view, shared by geometry and subdiff: the bytes of the
    # written +/-eye rows, the sign bit of -0.0 included
    assert subdiff._signed_axes is geometry._signed_axes
    for n in range(1, 6):
        want = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(-1, n)
        assert geometry._signed_axes(n).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 1100), k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_the_whole_space_projection_is_the_two_products(n, k, seed):
    # the identity basis's two stacked products leave each row plus 0.0:
    # the same bytes, signed zeros included, with no n^2 pass
    rng = np.random.default_rng(seed)
    w = Subspace.full(n)
    vs = signed_zeros(rng, rng.standard_normal((k, n)) * 10.0 ** rng.integers(-3, 4))
    if rng.random() < 0.3:
        vs = np.where(rng.random(vs.shape) < 0.5, -0.0, -np.abs(vs))
    want = geometry._images(w.basis.T, geometry._images(w.basis, vs))
    assert w.project_many(vs).tobytes() == want.tobytes()


def sectioning_by_linspace(psi, lo, hi):
    """The sectioning search with ``np.linspace`` rounds, kept here as the
    reference that the fixed fractions must match float for float."""
    for _ in range(subdiff._SECTION_ROUNDS):
        ts = np.linspace(lo, hi, subdiff._SECTIONS + 2)
        j = int(np.argmin(psi(ts[1:-1]))) + 1
        if ts[j - 1] == lo and ts[j + 1] == hi:
            break
        lo, hi = float(ts[j - 1]), float(ts[j + 1])
    return 0.5 * (lo + hi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lo=st.floats(0.0, 1.0), width=st.floats(1e-12, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_sectioning_rounds_are_the_linspace_points(lo, width, seed):
    # random brackets and a potential with random kinks: the same interior
    # points every round, so the same midpoint
    rng = np.random.default_rng(seed)
    hi = lo + width
    kinks = rng.uniform(lo, hi, 3)
    slopes = rng.uniform(-2.0, 2.0, 3)

    def psi(ts):
        return np.sum(slopes * np.abs(ts[:, None] - kinks), axis=1) + 0.3 * ts * ts

    assert subdiff._sectioning(psi, lo, hi) == sectioning_by_linspace(psi, lo, hi)
