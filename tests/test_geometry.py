import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from gaugecalc import (
    ConvexSet,
    DimensionMismatchError,
    Gauge,
    GaugeCalcError,
    Halfspaces,
    NonFiniteInputError,
    NotInSetError,
    Oracle,
    ScalarFunction,
    SetFormatError,
    Sublevel,
    Subspace,
    Vertices,
    box,
    check_symmetry,
    in_icr,
    interval,
    kernel_of_gauge,
    minkowski_gauge,
    set_from_json,
    set_to_json,
    span_of_difference,
    spot_check_convexity,
    theoretical_constant,
)


def diamond():
    return ConvexSet(2, Vertices(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])),
                     center=np.zeros(2))


def strip():
    return ConvexSet(2, Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                   np.array([1.0, 1.0])), center=np.zeros(2))


# -- vectors and subspaces ---------------------------------------------------


def test_as_vector_validation():
    from gaugecalc.geometry import as_vector
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(NonFiniteInputError):
        as_vector([1.0, math.nan])
    assert as_vector(2.0).shape == (1,)


def test_subspace_orthonormal_invariant():
    s = Subspace.from_spanning([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 3.0]], 3)
    assert s.dim == 2
    gram = s.basis @ s.basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_subspace_project_residual():
    s = Subspace.from_spanning([[1.0, 0.0, 0.0]], 3)
    x = np.array([2.0, 3.0, 0.0])
    assert np.allclose(s.project(x), [2.0, 0.0, 0.0])
    assert s.residual(x) == pytest.approx(3.0)
    assert s.contains([5.0, 0.0, 0.0])
    assert not s.contains([0.0, 1.0, 0.0])


def test_subspace_intersect():
    a = Subspace.from_spanning([[1.0, 0, 0], [0, 1.0, 0]], 3)
    b = Subspace.from_spanning([[0, 1.0, 0], [0, 0, 1.0]], 3)
    c = a.intersect(b)
    assert c.dim == 1
    assert c.contains([0.0, 7.0, 0.0])


# -- membership --------------------------------------------------------------


def test_box_membership():
    s = box(3)
    assert s.contains([0.5, -0.5, 1.0])
    assert not s.contains([1.1, 0.0, 0.0])
    assert s.contains(s.center)


def test_hull_membership():
    tri = ConvexSet(2, Vertices(np.array([[0.0, 0], [1.0, 0], [0, 1.0]])))
    assert tri.contains([1 / 3, 1 / 3])  # centroid
    assert tri.contains([0.0, 0.0])      # a vertex
    assert not tri.contains([0.6, 0.6])  # beyond the hypotenuse


def test_hull_membership_honours_tol():
    tri = ConvexSet(2, Vertices(np.array([[0.0, 0], [1.0, 0], [0, 1.0]])))
    # facet slacks 1e-8/sqrt(2) and 1e-6/sqrt(2) beyond the hypotenuse
    assert not tri.contains([0.5 + 1e-8, 0.5], 1e-12)
    assert tri.contains([0.5 + 1e-6, 0.5], 1e-3)
    assert tri.contains([0.5, 0.5], 1e-12)


def test_sublevel_membership():
    base = box(1, -3, 3, center=[0])
    s = ConvexSet(1, Sublevel(fn=lambda x: float(x[0] ** 2), level=1.0,
                              base_domain=base), center=np.zeros(1))
    assert s.contains([0.9])
    assert not s.contains([1.5])


def test_oracle_midpoint_spot_check():
    disk = ConvexSet(2, Oracle(member=lambda x: float(np.linalg.norm(x)) <= 1.0,
                               bounding_radius=2.0), center=np.zeros(2))
    assert spot_check_convexity(disk)


def _ball_rejection(s, radius, rng, n):
    """Normal draws about the anchor until one is a member; after 50 misses,
    the next draw bisected toward the anchor."""
    anchor = s.anchor()
    out = []
    for _ in range(n):
        for _ in range(50):
            cand = anchor + radius * rng.standard_normal(s.dim) / math.sqrt(s.dim)
            if s.contains(cand):
                break
        else:
            cand = anchor + radius * rng.standard_normal(s.dim) / math.sqrt(s.dim)
            if not s.contains(cand):
                lo, hi = 0.0, 1.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    if s.contains(anchor + mid * (cand - anchor)):
                        lo = mid
                    else:
                        hi = mid
                cand = anchor + lo * (cand - anchor)
        out.append(cand)
    return out


@pytest.mark.parametrize("member, radius", [
    (lambda x: float(np.linalg.norm(x)) <= 1.0, 2.0),
    (lambda x: abs(float(x[0])) <= 1.0, 1e9),
], ids=["disk", "strip"])
def test_oracle_samples_are_ball_rejection_draws(member, radius):
    s = ConvexSet(2, Oracle(member=member, bounding_radius=radius), center=np.zeros(2))
    got = s.sample_members(np.random.default_rng(3), 24)
    want = _ball_rejection(s, radius, np.random.default_rng(3), 24)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_anchor_inside():
    h = ConvexSet(2, Halfspaces(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]),
                                np.array([3.0, 1.0, 2.0, 2.0])))
    assert h.contains(h.anchor())


def test_sample_members_stay_inside():
    rng = np.random.default_rng(0)
    for s in (box(3), diamond(), strip()):
        for p in s.sample_members(rng, 32):
            assert s.contains(p, tol=1e-7)


# -- span / icr / symmetry ---------------------------------------------------


def test_span_of_segment_is_one_dimensional():
    seg = ConvexSet(2, Vertices(np.array([[-1.0, 0.0], [1.0, 0.0]])),
                    center=np.zeros(2))
    sp = span_of_difference(seg, [0.0, 0.0])
    assert sp.dim == 1
    assert sp.contains([5.0, 0.0])


def test_in_icr_box():
    s = box(2)
    assert in_icr(s, [0.0, 0.0])
    assert not in_icr(s, [1.0, 0.0])
    with pytest.raises(NotInSetError):
        in_icr(s, [2.0, 0.0])


def test_in_icr_hull():
    tri = ConvexSet(2, Vertices(np.array([[0.0, 0], [1.0, 0], [0, 1.0]])))
    assert in_icr(tri, [0.25, 0.25])
    assert not in_icr(tri, [0.0, 0.0])


def test_in_icr_segment_relative():
    # relative interior of a flat set: interior within its own span
    seg = ConvexSet(2, Vertices(np.array([[-1.0, 0.0], [1.0, 0.0]])))
    assert in_icr(seg, [0.3, 0.0])
    assert not in_icr(seg, [1.0, 0.0])


def test_check_symmetry():
    assert check_symmetry(box(2), [0.0, 0.0])
    assert not check_symmetry(box(2, 0.0, 1.0, center=[0.25, 0.25]), [0.25, 0.25])
    assert check_symmetry(diamond(), [0.0, 0.0])
    shifted = ConvexSet(2, Vertices(np.array([[0.0, 0], [2.0, 0], [1.0, 1], [1.0, -1]])),
                        center=np.array([1.0, 0.0]))
    assert check_symmetry(shifted, [1.0, 0.0])


def test_symmetry_ignores_redundant_rows():
    square = box(2)
    padded = ConvexSet(2, Halfspaces(np.vstack([square.representation.normals, [[1.0, 0.0]]]),
                                     np.append(square.representation.offsets, 5.0)),
                       center=np.zeros(2))
    assert check_symmetry(padded, [0.0, 0.0])
    f = ScalarFunction.from_expr("x1^2 + x2^2", domain=padded, convex=True)
    cert = theoretical_constant(f, padded, [0.0, 0.0], 0.5)
    assert cert.M == pytest.approx(2.0, rel=1e-12)  # the padded square's corners
    assert cert.theoretical_L == pytest.approx(3.0 * cert.M)


def test_symmetry_ignores_interior_vertices():
    square = ConvexSet(2, Vertices(np.array([[1.0, 1], [-1.0, 1], [-1.0, -1], [1.0, -1],
                                             [0.3, 0.2]])), center=np.zeros(2))
    assert check_symmetry(square, [0.0, 0.0])
    tri = ConvexSet(2, Vertices(np.array([[0.0, 0], [1.0, 0], [0, 1.0]])))
    assert not check_symmetry(tri, [0.25, 0.25])
    assert not check_symmetry(interval(-1.0, math.inf, center=0.0), [0.0])


# -- gauges -------------------------------------------------------------------


def test_box_gauge_is_max_abs():
    g = Gauge.of_set(box(4))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-3, 3, 4)
        assert g.value(x) == pytest.approx(float(np.max(np.abs(x))), abs=1e-10)


def test_diamond_gauge_is_l1_norm():
    g = Gauge.of_set(diamond())
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        assert g.value(x) == pytest.approx(float(np.sum(np.abs(x))), rel=1e-12)
    assert g.value([0.5, 0.0]) == 0.5


def _facet_gauge(points, center, x):
    """max a.x / (b - a.c) over the facets a.y <= b of the hull."""
    hull = ConvexHull(points)
    a, b = hull.equations[:, :-1], -hull.equations[:, -1]
    return max(0.0, float(np.max(a @ x / (b - a @ center))))


@pytest.mark.parametrize("dim", [2, 3])
def test_vertex_gauge_matches_hull_facets(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        points = rng.standard_normal((6 + 2 * dim, dim))
        center = points.mean(axis=0) + 0.1 * rng.standard_normal(dim)
        g = Gauge.of_set(ConvexSet(dim, Vertices(points), center=center))
        for x in 3.0 * rng.standard_normal((8, dim)):
            assert g.value(x) == pytest.approx(_facet_gauge(points, center, x), rel=1e-12)


def test_vertex_gauge_on_flat_sets_in_r3():
    rng = np.random.default_rng(7)
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]  # columns: plane, plane, normal
    seg = ConvexSet(3, Vertices(np.array([-frame[:, 0], 2.0 * frame[:, 0]])),
                    center=np.zeros(3))
    g = Gauge.of_set(seg)
    assert g.span.dim == 1
    assert g.value(1.5 * frame[:, 0]) == pytest.approx(0.75, rel=1e-12)
    assert g.value(-0.5 * frame[:, 0]) == pytest.approx(0.5, rel=1e-12)
    assert math.isinf(g.value(frame[:, 0] + 1e-3 * frame[:, 1]))
    flat = rng.standard_normal((3, 2))  # triangle vertices in plane coordinates
    center = flat.mean(axis=0)
    tri = ConvexSet(3, Vertices(flat @ frame[:, :2].T), center=frame[:, :2] @ center)
    g = Gauge.of_set(tri)
    assert g.span.dim == 2
    for u in rng.standard_normal((8, 2)):
        assert g.value(frame[:, :2] @ u) == pytest.approx(_facet_gauge(flat, center, u),
                                                          rel=1e-12)
    assert math.isinf(g.value(frame @ np.array([0.3, 0.2, 0.1])))


def _conic_gauge(points, center, x):
    """Reference gauge, one LP over conic weights of the vertices:
    min sum(mu) s.t. sum mu_i (v_i - c) = x, mu >= 0; infeasible means inf."""
    res = linprog(np.ones(len(points)), A_eq=(points - center).T, b_eq=x,
                  bounds=[(0, None)] * len(points), method="highs")
    return float(res.fun) if res.status == 0 else math.inf


def _vertex_cases():
    rng = np.random.default_rng(11)
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    cases = [(rng.standard_normal((7, 2)), None), (rng.standard_normal((11, 3)), None),
             (np.array([-frame[:, 0], 2.0 * frame[:, 0]]), frame[:, 1:]),
             (rng.standard_normal((3, 2)) @ frame[:, :2].T, frame[:, 2:])]
    return rng, cases


@pytest.mark.parametrize("case", range(4), ids=["hull2d", "hull3d", "segment3d", "triangle3d"])
def test_vertex_sets_agree_with_the_conic_weights_lp(case):
    rng, cases = _vertex_cases()
    points, normals = cases[case]
    dim = points.shape[1]
    center = points.mean(axis=0)
    s = ConvexSet(dim, Vertices(points), center=center)
    g = Gauge.of_set(s)
    span = Subspace.from_spanning(points - center, dim)
    for d in rng.standard_normal((12, dim)):
        x = span.project(d)
        want = _conic_gauge(points, center, x)
        assert g.value(x) == pytest.approx(want, rel=1e-8)
        for t in (0.5, 0.9, 1.1, 2.0):  # members iff the reference gauge is at most 1
            assert s.contains(center + t * x / want) == (t <= 1.0)
        assert in_icr(s, center + 0.5 * x / want)
        assert not in_icr(s, center + x / want)
        if normals is not None:  # off the affine hull
            off = x + 0.1 * normals[:, 0]
            assert math.isinf(_conic_gauge(points, center, off))
            assert math.isinf(g.value(off))
            assert not s.contains(center + 0.1 * normals[:, 0])


def _loop_ratio_gauge(normals, offsets, center, x, tol):
    """The per-row loop the masked ratio formula replaced."""
    nx = float(np.linalg.norm(x))
    den = offsets - normals @ center
    val = 0.0
    for ni, di, bi in zip(normals @ x, den, offsets):
        if ni <= tol * nx * 1e-3:
            continue
        if di <= tol * (1.0 + abs(bi)):
            return math.inf
        val = max(val, ni / di)
    return val


def test_masked_ratio_gauge_is_bit_identical_to_the_row_loop():
    rng = np.random.default_rng(12)
    seen_inf = 0
    for _ in range(300):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        normals = rng.standard_normal((m, n))
        center = rng.standard_normal(n)
        offsets = normals @ center + rng.uniform(0.0, 2.0, m)
        through = rng.random(m) < 0.2  # rows through the center
        offsets[through] = (normals @ center)[through]
        s = ConvexSet(n, Halfspaces(normals, offsets), center=center)
        g = Gauge(span=Subspace.full(n), kernel=Subspace.zero(n), set=s)
        xs = list(rng.standard_normal((4, n)))
        a = normals[int(rng.integers(m))]
        xs += [x - (a @ x) / (a @ a) * a for x in xs]  # a.x ~ 0: under the rising cut
        for x in xs:
            got = s.representation.gauge(g, x)
            want = _loop_ratio_gauge(normals, offsets, center, x, g.tol)
            assert got == want
            seen_inf += math.isinf(want)
    assert seen_inf > 0


def _criterion_03_polytope(rng, n):
    r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    p = rng.uniform(-0.5, 0.5, n)
    rows = Halfspaces(np.vstack([r, -r]), np.concatenate([1.0 + r @ p, 1.0 - r @ p]))
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n))).reshape(n, -1).T
    return rows, [p + np.linalg.solve(r, s) for s in signs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_halfspace_extreme_points_are_the_corners(n):
    rows, corners = _criterion_03_polytope(np.random.default_rng(n), n)
    got = rows.extreme_points()
    assert len(got) == len(corners)
    for c in corners:
        assert min(float(np.linalg.norm(v - c)) for v in got) <= 1e-12 * (1 + np.linalg.norm(c))


def test_halfspace_extreme_points_empty_without_a_bounded_interior():
    ray = interval(-1.0, math.inf, center=0.0).representation
    flat = Halfspaces(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]),
                      np.array([0.0, 0.0, 1.0, 1.0]))
    quadrant = Halfspaces(np.array([[1.0, 0], [0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 1.5]))
    prism = Halfspaces(np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), np.ones(4))
    for rows in (ray, strip().representation, flat, quadrant, prism, box(16).representation):
        assert rows.extreme_points() == []
    assert len(box(12).representation.extreme_points()) == 4096  # inside the guard


def test_bisection_gauge_on_oracle_disk():
    disk = ConvexSet(2, Oracle(member=lambda x: float(np.linalg.norm(x)) <= 2.0,
                               bounding_radius=3.0), center=np.zeros(2))
    g = Gauge.of_set(disk)
    assert g.span.dim == 2 and g.kernel.dim == 0
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3, 3, (10, 2)):
        assert g.value(x) == pytest.approx(0.5 * float(np.linalg.norm(x)), rel=1e-8)


def test_bisection_gauge_on_sublevel_ball():
    ball = ConvexSet(3, Sublevel(fn=lambda x: float(x @ x), level=4.0, base_domain=box(3, -5, 5)),
                     center=np.zeros(3))
    g = Gauge.of_set(ball)
    assert g.span.dim == 3 and g.kernel.dim == 0
    rng = np.random.default_rng(5)
    for x in rng.uniform(-3, 3, (10, 3)):
        assert g.value(x) == pytest.approx(0.5 * float(np.linalg.norm(x)), rel=1e-8)


def test_gauge_off_span_is_infinite():
    seg = ConvexSet(2, Vertices(np.array([[-1.0, 0.0], [1.0, 0.0]])),
                    center=np.zeros(2))
    g = Gauge.of_set(seg)
    assert g.value([0.5, 0.0]) == pytest.approx(0.5, rel=1e-6)
    assert math.isinf(g.value([0.0, 1.0]))


def test_gauge_zero_at_origin():
    assert Gauge.of_set(box(2)).value([0.0, 0.0]) == 0.0


def test_strip_kernel():
    g = Gauge.of_set(strip())
    assert g.span.dim == 2
    assert g.kernel.dim == 1
    assert g.kernel.contains([0.0, 1.0])
    assert g.value([0.0, 100.0]) == 0.0
    assert g.value([2.0, 5.0]) == pytest.approx(2.0, abs=1e-9)


def test_kernel_probing_for_oracle():
    # same strip but behind a membership oracle: kernel found by probing
    s = ConvexSet(2, Oracle(member=lambda x: abs(float(x[0])) <= 1.0,
                            bounding_radius=1e9), center=np.zeros(2))
    g = Gauge.of_set(s)
    assert g.kernel.dim == 1
    assert g.kernel.contains([0.0, 1.0])


def test_ray_gauge():
    g = Gauge.of_set(interval(-1.0, math.inf, center=0.0))
    assert g.value([3.0]) == 0.0
    assert g.value([-0.5]) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 50.0),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_gauge_positive_homogeneity(alpha, x1, x2, x3):
    g = Gauge.of_set(box(3))
    x = np.array([x1, x2, x3])
    assert g.value(alpha * x) == pytest.approx(alpha * g.value(x), rel=1e-9, abs=1e-9)


def test_gauge_symmetry_on_symmetric_set():
    g = Gauge.of_set(diamond())
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        assert g.value(-x) == pytest.approx(g.value(x), rel=1e-6, abs=1e-9)


def test_gauge_scaling_consistency():
    # doubling the set halves the gauge
    g1 = Gauge.of_set(box(2, -1, 1, center=[0, 0]))
    g2 = Gauge.of_set(box(2, -2, 2, center=[0, 0]))
    x = np.array([0.7, -0.3])
    assert g2.value(x) == pytest.approx(0.5 * g1.value(x), abs=1e-10)


def test_gauge_from_callable_respects_span():
    g = Gauge.from_callable(lambda v: float(np.linalg.norm(v)),
                            Subspace.from_spanning([[1.0, 0.0]], 2))
    assert g.value([2.0, 0.0]) == pytest.approx(2.0)
    assert math.isinf(g.value([0.0, 1.0]))


def test_kernel_of_gauge_trivial_for_bounded_set():
    assert kernel_of_gauge(Gauge.of_set(box(3))).dim == 0


# -- serialization ------------------------------------------------------------


def test_json_round_trip_halfspaces():
    s = box(2, -1, 2, center=None)
    doc = set_to_json(s)
    again = set_from_json(json.loads(json.dumps(doc)))
    for p in ([0.0, 0.0], [1.5, 1.5], [2.5, 0.0], [-1.0, 2.0]):
        assert s.contains(p) == again.contains(p)


def test_json_round_trip_vertices():
    s = diamond()
    again = set_from_json(set_to_json(s))
    assert np.allclose(again.center, s.center)
    assert again.contains([0.4, 0.4])
    assert not again.contains([0.8, 0.8])


def test_json_round_trip_sublevel_with_expression():
    from gaugecalc.expr import make_callable, parse
    base = box(1, -3, 3, center=[0])
    fn = make_callable(parse("x1^2", 1))
    s = ConvexSet(1, Sublevel(fn=fn, level=1.0, base_domain=base),
                  center=np.zeros(1))
    again = set_from_json(set_to_json(s))
    assert again.contains([0.5])
    assert not again.contains([1.5])


def test_json_wide_normal_is_a_dimension_error():
    doc = {"dim": 2, "repr": {"halfspaces": [{"normal": [1.0, 0.0], "offset": 1.0},
                                             {"normal": [1.0, 0.0, 0.0], "offset": 1.0}]}}
    with pytest.raises(DimensionMismatchError):
        set_from_json(doc)


def test_json_nan_is_a_non_finite_error():
    doc = json.loads('{"dim": 1, "repr": {"halfspaces": [{"normal": [1], "offset": NaN}]},'
                     ' "center": [0]}')
    with pytest.raises(NonFiniteInputError):
        set_from_json(doc)
    with pytest.raises(NonFiniteInputError):
        set_from_json({"dim": 1, "repr": {"vertices": [[0.0], [math.inf]]}})


def test_json_missing_key_is_a_format_error():
    no_fn = {"level": 1.0, "base_domain": set_to_json(box(1))}
    for doc in ({"repr": {"vertices": [[0.0]]}},
                {"dim": 1, "repr": {"halfspaces": [{"normal": [1.0]}]}},
                {"dim": 1, "repr": {"sublevel": no_fn}}):
        with pytest.raises(SetFormatError):
            set_from_json(doc)


def test_json_unknown_representation_is_a_format_error():
    with pytest.raises(SetFormatError) as info:
        set_from_json({"dim": 2, "repr": {"ellipsoid": {"radii": [1.0, 2.0]}}})
    assert isinstance(info.value, GaugeCalcError)


def test_oracle_sets_not_serializable():
    s = ConvexSet(1, Oracle(member=lambda x: True, bounding_radius=1.0))
    with pytest.raises(ValueError):
        set_to_json(s)


def test_contains_many_matches_contains():
    hexagon = ConvexSet(2, Vertices(np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)]
                                              for k in range(6)])), center=np.zeros(2))
    pts = np.random.default_rng(2).uniform(-1.2, 1.2, (40, 2))
    for s in (box(2), hexagon, ConvexSet(2, Oracle(member=lambda v: v @ v <= 1.0,
                                                   bounding_radius=1.0))):
        assert s.contains_many(pts).tolist() == [s.contains(p) for p in pts]
    with pytest.raises(DimensionMismatchError):
        box(2).contains_many(np.zeros((3, 3)))


def test_contains_many_uses_the_member_batch_evaluator():
    calls = []

    def member(v):
        calls.append(1)
        return bool(v @ v <= 1.0)

    member.many = lambda xs: np.einsum("ij,ij->i", xs, xs) <= 1.0
    ball = ConvexSet(2, Oracle(member=member, bounding_radius=1.0))
    pts = np.random.default_rng(3).uniform(-1.2, 1.2, (30, 2))
    assert ball.contains_many(pts).tolist() == [bool(p @ p <= 1.0) for p in pts]
    assert calls == []
    with pytest.raises(NonFiniteInputError):
        ball.contains_many(np.array([[0.0, math.nan]]))


def test_scalar_function_many():
    calls = []

    def fn(v):
        calls.append(1)
        return 1.0 / v[0]

    f = ScalarFunction(fn=fn, domain=box(1), name="inv")
    # no batch evaluator: one scalar call per row, with the scalar call's error
    assert f.many(np.array([[1.0], [2.0], [4.0]])).tolist() == [1.0, 0.5, 0.25]
    assert len(calls) == 3
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteInputError):
        f.many(np.array([[1.0], [0.0]]))
    fn.many = lambda xs: 1.0 / xs[:, 0]
    calls.clear()
    assert f.many(np.array([[1.0], [2.0], [4.0]])).tolist() == [1.0, 0.5, 0.25]
    assert calls == []
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteInputError, match="inv"):
        f.many(np.array([[1.0], [0.0]]))


def test_scalar_function_many_raises_the_first_failing_rows_error():
    # row 0 overflows to inf, row 1 takes the square root of a negative value:
    # one scalar call per row fails at row 0, and so does the batch
    f = ScalarFunction.from_expr("1e308*x1*10 + sqrt(x2)", domain=box(2))
    xs = np.array([[1.0, 1.0], [0.0, -1.0]])
    with pytest.raises(NonFiniteInputError):
        f(xs[0])
    with pytest.raises(NonFiniteInputError):
        f.many(xs)
