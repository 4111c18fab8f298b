import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gaugecalc import (
    AsymmetricSetError,
    Gauge,
    KernelViolationError,
    NonFiniteInputError,
    NotInSetError,
    ScalarFunction,
    UnboundedFunctionError,
    box,
    build_core,
    counterexample_suite,
    empirical_constant,
    interval,
    local_witness,
    scale_about,
    theoretical_constant,
)
from gaugecalc.cli import main as cli_main
from gaugecalc.geometry import ConvexSet, Halfspaces, Sublevel, Vertices


def paraboloid(dom):
    terms = " + ".join(f"x{i + 1}^2" for i in range(dom.dim))
    return ScalarFunction.from_expr(terms, domain=dom, convex=True)


def test_certificate_on_unit_box():
    dom = box(2, -5, 5, center=[0, 0])
    f = paraboloid(dom)
    cert = theoretical_constant(f, box(2), [0, 0], 0.5, pairs=400)
    assert cert.M == pytest.approx(2.0, abs=1e-12)  # sup of x^2+y^2 at a corner
    assert cert.theoretical_L == pytest.approx(2.0 * 1.5 / 0.5, abs=1e-9)
    assert cert.empirical_L <= cert.theoretical_L * (1 + 1e-6)
    assert cert.empirical_L > 0.0
    doc = cert.to_json()
    assert set(doc) == {"theoretical_L", "empirical_L", "M", "epsilon", "pairs", "seed"}


def _seeded_polytope_query(k: int):
    """Query ``k`` of the benchmark's polytope ``lipschitz`` kind at seed 12345
    (``perfbench/workloads.py``): the criterion-03 polytope
    ``{|r (y - p)|_inf <= 1}`` and a convex quadratic, as CLI arguments, with
    the quadratic's maximum over the corners relative to ``p``."""
    rng = np.random.default_rng([12345, k + 1])
    n = int(np.random.default_rng([0x5EED, k % 13 + 1]).integers(2, 5))
    r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    while abs(np.linalg.det(r)) < 1e-2:
        r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    p = rng.uniform(-0.5, 0.5, n)
    q = p + rng.uniform(-0.3, 0.3, n)
    b = np.round(rng.standard_normal((n, n)), 6)
    eps = float(rng.choice([0.25, 0.5, 0.9]))
    seed = int(rng.integers(1 << 30))
    d = [f"(x{j + 1} - {float(q[j])!r})" for j in range(n)]
    rows = ["(" + " + ".join(f"{float(b[i, j])!r}*{d[j]}" for j in range(n)) + ")^2"
            for i in range(n)]
    src = f"({' + '.join(rows)})/{n} + " + " + ".join(f"0.2*{t}^2" for t in d)

    def quad(x):
        y = x - q
        return float(np.sum((b @ y) ** 2) / n + 0.2 * y @ y)

    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n))).reshape(n, -1).T
    m_true = max(0.0, max(quad(p + np.linalg.solve(r, sg)) for sg in signs) - quad(p))
    normals, offsets = np.vstack([r, -r]), np.concatenate([1.0 + r @ p, 1.0 - r @ p])
    doc = {"dim": n, "center": [float(t) for t in p],
           "repr": {"halfspaces": [{"normal": [float(t) for t in a], "offset": float(o)}
                                   for a, o in zip(normals, offsets)]}}
    argv = ["lipschitz", "--set", json.dumps(doc), "--fn", src, "--point",
            json.dumps([float(t) for t in p]), "--eps", repr(eps), "--pairs", "1000",
            "--convex", "--seed", str(seed)]
    return argv, m_true


@pytest.mark.parametrize("k", [46, 47, 77, 115, 117, 122, 273])
def test_polytope_bound_holds_where_a_sampled_m_broke_it(k, capsys):
    # at these seeds a sampled M misses the maximizing corner by enough that
    # the empirical slope exceeds the bound; the polytope's vertices make M exact
    argv, m_true = _seeded_polytope_query(k)
    assert cli_main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == pytest.approx(m_true, rel=1e-12)
    assert doc["empirical_L"] <= doc["theoretical_L"]


def test_epsilon_range_validated():
    dom = box(1, -5, 5, center=[0])
    f = paraboloid(dom)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            theoretical_constant(f, box(1), [0], bad)


def test_asymmetric_set_rejected():
    dom = box(1, -5, 5, center=[0])
    f = paraboloid(dom)
    with pytest.raises(AsymmetricSetError):
        theoretical_constant(f, interval(-1.0, 2.0, center=0.0), [0.0], 0.5)


def test_empirical_constant_linear_function_exact():
    # |u - v| / |u - v| = 1 for every sampled pair
    dom = box(1, -5, 5, center=[0])
    f = ScalarFunction.from_expr("x1", domain=dom, convex=True)
    g = Gauge.of_set(interval(-1.0, 1.0))
    est = empirical_constant(f, g, interval(-0.5, 0.5), pairs=200, seed=1)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_empirical_constant_flags_kernel_violation():
    strip = ConvexSet(2, Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                    np.array([1.0, 1.0])), center=np.zeros(2))
    g = Gauge.of_set(strip)
    dom = box(2, -5, 5, center=[0, 0])
    f = ScalarFunction.from_expr("x2", domain=dom, convex=True)  # varies along kernel
    with pytest.raises(KernelViolationError):
        empirical_constant(f, g, box(2, -0.5, 0.5, center=[0, 0]), pairs=200)


def test_empirical_constant_raises_an_error_of_f_before_a_zero_gauge_pair():
    # f is evaluated at every sampled member before the pairs are read, so
    # its error at the second pair's member wins over the first pair's
    # KernelViolationError (a stand-in gauge reads 0 on every pair)
    region = interval(-0.5, 0.5)
    pts = region.sample_members(np.random.default_rng(3), 4)
    zero = SimpleNamespace(kernel=SimpleNamespace(dim=0), values=lambda us: np.zeros(len(us)))
    f = ScalarFunction(fn=lambda x: math.inf if np.array_equal(x, pts[3]) else x[0],
                       domain=region)
    with pytest.raises(NonFiniteInputError):
        empirical_constant(f, zero, region, pairs=2, seed=3)
    f.fn = lambda x: x[0]
    with pytest.raises(KernelViolationError, match="zero-gauge pair"):
        empirical_constant(f, zero, region, pairs=2, seed=3)


def test_empirical_slopes_read_one_batch_of_f(count_calls):
    # one batch over the sampled members, no point calls, the same slopes
    dom = box(2, -5, 5, center=[0, 0])
    f = ScalarFunction.from_expr("x1^2 - 3*abs(x2) + exp(x1*x2)", domain=dom)
    g = Gauge.of_set(box(2))
    region = box(2, -0.5, 0.5, center=[0, 0])
    pts = region.sample_members(np.random.default_rng(5), 2 * 50)
    want = max(abs(f(pts[2 * i]) - f(pts[2 * i + 1])) / g.value(pts[2 * i] - pts[2 * i + 1])
               for i in range(50))
    count_calls.wrap(ScalarFunction, "__call__")
    count_calls.wrap(ScalarFunction, "many")
    assert empirical_constant(f, g, region, pairs=50, seed=5) == want
    assert count_calls == {"__call__": 0, "many": 1}


def test_a_halfspace_set_lists_its_vertices_once(count_calls):
    # the symmetry check and M read one vertex list, kept on the set
    from gaugecalc import geometry

    count_calls.wrap(geometry, "HalfspaceIntersection", "qhull")
    dom = box(2, -5, 5, center=[0, 0])
    cert = theoretical_constant(paraboloid(dom), box(2), [0, 0], 0.5)
    assert cert.M == 2.0
    assert count_calls["qhull"] == 1


def test_scale_about_halfspaces_and_vertices():
    half = scale_about(box(2), [0.0, 0.0], 0.5)
    assert half.contains([0.49, 0.0]) and not half.contains([0.51, 0.0])
    tri = ConvexSet(2, Vertices(np.array([[0.0, 0], [2.0, 0], [0, 2.0]])),
                    center=np.array([0.5, 0.5]))
    moved = scale_about(tri, [0.0, 0.0], 0.5, translate_to=[1.0, 1.0])
    assert np.allclose(np.sort(moved.representation.points, axis=0),
                       np.sort(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]), axis=0))


def test_local_witness_certifies_lipschitz_ball():
    dom = box(2, -4, 4, center=[0, 0])
    f = paraboloid(dom)
    core = build_core(f, dom, [0.5, 0.0])
    x = np.array([0.8, 0.1])
    w = local_witness(f, core, x, 0.5)
    assert 0.0 < w.lam < 1.0
    assert w.L > 0.0
    # witness region: lam * (C - x0) + x must lie in the domain and carry the
    # Lipschitz inequality for the original gauge
    region = scale_about(core.c_a, core.x0, w.lam, translate_to=x)
    g = Gauge.of_set(ConvexSet(core.c_a.dim, core.c_a.representation, core.x0))
    rng = np.random.default_rng(0)
    pts = region.sample_members(rng, 40)
    for p in pts:
        assert dom.contains(p, tol=1e-7)
    for i in range(0, 38, 2):
        u, v = pts[i], pts[i + 1]
        mu = g.value(u - v)
        if mu > 1e-12 and math.isfinite(mu):
            assert abs(f(u) - f(v)) <= w.L * mu * (1 + 1e-6) + 1e-9


def test_local_witness_requires_interior_point():
    dom = box(2, -4, 4, center=[0, 0])
    f = paraboloid(dom)
    core = build_core(f, dom, [0.5, 0.0])
    with pytest.raises(NotInSetError):
        local_witness(f, core, [4.0, 0.0], 0.5)


def test_counterexample_suite_reproduces_all_sections():
    report = counterexample_suite()
    assert set(report) == {"sqrt_boundary", "floor_quasiconvex", "asymmetric_set",
                           "kernel_blind_stationarity"}
    assert all(section["reproduced"] for section in report.values())
    # frozen anchor values
    assert report["floor_quasiconvex"]["bound"] == pytest.approx(19.0, abs=1e-9)
    assert report["sqrt_boundary"]["probes"][0]["quotient"] == pytest.approx(2.0)
    assert report["asymmetric_set"]["gauge_on_ray"] == pytest.approx(0.0, abs=1e-8)
    assert report["asymmetric_set"]["gauge_negative_side"] == pytest.approx(1.0, abs=1e-8)


def _per_point_m(f, c, p, seed):
    """``M`` one evaluation at a time: the largest ``f(x) - f(p)`` over the
    sampled members and the extreme points, at least 0."""
    pts = c.sample_members(np.random.default_rng(seed), 10 * c.dim * c.dim)
    pts.extend(c.representation.extreme_points())
    fp = f(p)
    return max(0.0, max(f(x) - fp for x in pts))


def test_m_from_one_batch_equals_the_per_point_loop():
    hexagon = ConvexSet(2, Vertices(np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)]
                                              for k in range(6)])), center=np.zeros(2))
    dom = box(2, -5, 5, center=[0, 0])
    disk = ConvexSet(2, Sublevel(paraboloid(dom), 1.0, box(2)), center=np.zeros(2))
    f = ScalarFunction.from_expr("(x1 - 0.3)^2 + abs(x2 + 0.1) - 0.2*x1", domain=dom)
    for c in (box(2), box(3, -2, 2), hexagon, disk):
        p = np.zeros(c.dim)
        g = ScalarFunction.from_expr(" + ".join(f"abs(x{i + 1} - 0.1)" for i in range(c.dim)),
                                     domain=box(c.dim, -5, 5))
        for fn in ((f,) if c.dim == 2 else ()) + (g,):
            assert theoretical_constant(fn, c, p, 0.5, seed=7).M == _per_point_m(fn, c, p, 7)


def test_m_reports_the_first_failing_point():
    # 1e308 * x1 * 10 is finite only at x1 = 0: the batch names the first
    # sampled point that overflows, as one evaluation at a time does
    f = ScalarFunction.from_expr("1e308*x1*10", domain=box(2, -5, 5, center=[0, 0]))
    with pytest.raises(UnboundedFunctionError) as got:
        theoretical_constant(f, box(2), [0, 0], 0.5, seed=3)
    with pytest.raises(NonFiniteInputError) as want:
        _per_point_m(f, box(2), np.zeros(2), 3)
    assert str(got.value) == str(want.value)
