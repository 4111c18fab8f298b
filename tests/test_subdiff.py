import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from gaugecalc import WeightedGrid, make_function, make_gauge, subdiff
from gaugecalc.geometry import ConvexSet, Halfspaces, Oracle, Vertices


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
    gauge_calls = []
    value = unit_gauge.value
    monkeypatch.setattr(unit_gauge, "value", lambda v: gauge_calls.append(1) or value(v))
    got = gen_dir_deriv(f, [0.0, 0.5], [1.0, 0.0], unit_gauge)
    # two shells of 12 probes each, plus the base point: 2 * 13 quotients
    assert (calls.calls, len(gauge_calls)) == (52, 24)
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


def scalar_dir_deriv(f, x, d):
    """The one-direction halving ladder that the fan ladder replaced, kept
    here as the reference it must match bit for bit."""
    if float(np.linalg.norm(d)) < 1e-14:
        return 0.0
    t = 1.0
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
    k = g.span.dim
    rng.standard_normal(16 * 12 * k)
    best = -math.inf
    for j in (16, 17):
        r = 1e-2 * 2.0 ** (-j)
        bases = [x]
        for _ in range(12):
            u = g.span.basis.T @ rng.standard_normal(k)
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
    w = subdiff._reduced_basis(g)
    dirs, _ = subdiff._direction_fan(w, subdiff._LP_FAN, seed,
                                     extra=[2.0 * (x - t) / (n * t)])
    return make_function(grid), x, g, np.array(dirs)


def test_fan_ladder_matches_the_scalar_ladder_on_the_grid():
    f, x, g, dirs = grid_fan(300)
    got = subdiff._support_values(f, x, dirs, g, 7)
    assert got.tolist() == [scalar_dir_deriv(f, x, d) for d in dirs]


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
            subdiff._support_values(f, x, dirs, g, seed)
    got = subdiff._support_values(f, x, dirs[feasible], g, seed)
    assert got.tolist() == [w for w in want if w is not None]


def test_fan_generalized_path_matches_per_row(plane, unit_gauge):
    # the shell base points, their values and gauges are drawn once per fan
    f = fn("abs(x1) - abs(x2) + x1*x2", plane, convex=False)
    x = np.array([0.0, 0.0])
    dirs = np.vstack([np.eye(2), -np.eye(2), [[0.0, 0.0]],
                      np.random.default_rng(3).standard_normal((7, 2))])
    got = subdiff._support_values(f, x, dirs, unit_gauge, 11)
    per_row = [gen_dir_deriv(f, x, d, unit_gauge, seed=11) for d in dirs]
    assert got.tolist() == per_row
    assert per_row == [scalar_gen_dir_deriv(f, x, d, unit_gauge, 11) for d in dirs]


def test_fan_generalized_path_evaluates_base_points_once(plane, unit_gauge):
    f, calls = counting_fn("abs(x1) + x2^2", plane, convex=False)
    dirs = np.vstack([np.eye(2), -np.eye(2)])
    subdiff._support_values(f, np.array([0.0, 0.5]), dirs, unit_gauge, 42)
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
    f, x, g, dirs = grid_fan(1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        subdiff._support_values(f, x, dirs, g, 7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    chunk = subdiff._CHUNK_ELEMENTS * 8
    # the fan itself is 16 MB; the ladder's per-row state is about 30 row
    # vectors
    assert dirs.nbytes >= 16 * chunk
    assert peak <= 4 * chunk + 32 * dirs.shape[0] * 8


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
    kept here as the reference it must match with ``==``."""
    dirs = []
    for b in w.basis:
        dirs.append(b)
        dirs.append(-b)
    if w.dim < w.ambient_dim:
        for i in range(w.ambient_dim):
            a = w.project(np.eye(w.ambient_dim)[i])
            na = float(np.linalg.norm(a))
            if na > 1e-10:
                dirs.append(a / na)
                dirs.append(-a / na)
    return dirs


def list_fan(w, size, seed, extra=()):
    dirs = list_frame(w)
    rows = []
    for v in extra:
        p = w.project(v)
        nv = float(np.linalg.norm(p))
        rows.append(len(dirs) if nv > 1e-14 else 0)
        if nv > 1e-14:
            dirs.append(p / nv)
            dirs.append(-p / nv)
    rng = np.random.default_rng(seed)
    count = max(size[0] * w.dim, size[1])
    while len(dirs) < count and w.dim > 0:
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
        # a random vector, one with no component in w, and the zero vector
        outside = np.zeros(n) if w.dim == n else subdiff._complement_rows(w)[0]
        extra = [rng.standard_normal(n), outside, np.zeros(n)][:int(rng.integers(0, 4))]
        seed = int(rng.integers(1 << 20))
        frame = subdiff._frame(w)
        assert np.array_equal(frame, np.array(list_frame(w)).reshape(-1, n))
        dirs, rows = subdiff._direction_fan(w, size, seed, extra)
        want, want_rows = list_fan(w, size, seed, extra)
        assert dirs.shape == want.shape and np.all(dirs == want)
        assert rows == want_rows


def test_grid_frame_matches_the_list_construction():
    w = Subspace.full(1000)
    assert np.all(subdiff._frame(w) == np.array(list_frame(w)))


# -- hull LPs ----------------------------------------------------------------


def hull_table(f, x, g, seed=42):
    """The fan, support values and objective rows of a hull at x."""
    w = subdiff._reduced_basis(g)
    objectives, _ = subdiff._direction_fan(w, subdiff._OBJECTIVE_FAN, seed)
    k = len(subdiff._frame(w))
    dirs, sups, rows = subdiff._support_fan(f, np.asarray(x, float), g, w,
                                            subdiff._LP_FAN, seed, extra=objectives[k:])
    return w, dirs, sups, list(range(k)) + rows


@pytest.mark.parametrize("src,x,dim", [("abs(x1) + x2^2", [0.0, 0.5], 2),
                                       ("abs(x1) + x2^2 + abs(x3)", [0.0, 0.5, 0.0], 3),
                                       ("max(x1 + x2, x1 - x2, -x1)", [0.0, 0.0], 2)])
def test_skipped_hull_rows_are_attained_by_a_listed_vertex(src, x, dim, monkeypatch):
    f = fn(src, box(dim, -5, 5, center=[0.0] * dim))
    w, dirs, sups, rows = hull_table(f, x, Gauge.of_set(box(dim)))
    solved = []
    real = subdiff.linprog

    def record(c, **kwargs):
        solved.append(-np.asarray(c))
        return real(c, **kwargs)

    monkeypatch.setattr(subdiff, "linprog", record)
    verts = np.array(subdiff._vertices(w, dirs, sups, rows))
    skipped = [r for r in rows if not any(np.array_equal(dirs[r], c) for c in solved)]
    assert skipped and len(solved) < len(rows)
    for r in skipped:
        h = float(sups[r])
        best = float(np.max(verts @ dirs[r]))
        assert best >= h - 1e-9 * (1.0 + abs(h))
        # the row's own LP would find nothing better
        lp_best = float(subdiff._optimizer(w, dirs, sups)(r) @ dirs[r])
        assert lp_best <= best + 2e-8 * (1.0 + abs(h))


def test_readme_hull_solves_four_lps(plane, unit_gauge, count_calls):
    # 8 objectives; the two vertices found first attain the other four
    count_calls.wrap(subdiff, "linprog", "lp")
    support = subdifferential_hull(fn("abs(x1) + x2^2", plane), [0.0, 0.5], unit_gauge)
    assert count_calls["lp"] == 4
    assert len(support.directions) == 8 and len(support.subgradients) == 2


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
    h = subdiff._support_values(f, np.array([0.0, 0.0]), dirs, unit_gauge)
    assert h[0] + h[1] == pytest.approx(2.0, abs=1e-9)
    assert subdiff._negation_pairs(dirs).tolist() == [0]


# -- mean value scan ---------------------------------------------------------


def test_lebourg_scan_is_one_batch(plane, unit_gauge, monkeypatch):
    f = fn("abs(x1) - abs(x2) + 0.3 * x1", plane, convex=False)
    batches, scalars = [], []
    many, call = ScalarFunction.many, ScalarFunction.__call__
    monkeypatch.setattr(ScalarFunction, "many",
                        lambda self, xs: batches.append(len(xs)) or many(self, xs))
    monkeypatch.setattr(ScalarFunction, "__call__",
                        lambda self, x: scalars.append(1) or call(self, x))
    lebourg_point(f, [-0.5, 0.2], [0.7, -0.3], unit_gauge)
    # the 513-point scan is one batch, not 513 scalar calls; the scalar
    # calls are f(y), f(x) twice and the ternary refinement's 260
    assert 513 in batches
    assert len(scalars) == 3 + 2 * 130
