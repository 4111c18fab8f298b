import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull
from scipy.special import ndtr

from gaugecalc.geometry import DEFAULT_TOL
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
    UsageError,
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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_a_full_rank_subspace_has_the_identity_basis(n):
    rng = np.random.default_rng(n)
    rotated = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for s in (Subspace(rotated, n), Subspace(-np.eye(n), n),
              Subspace.from_spanning(rng.standard_normal((n + 2, n)), n),
              Subspace.full(n).intersect(Subspace(rotated, n))):
        assert s.dim == n and s.is_full
        assert np.array_equal(s.basis, np.eye(n))
    # rows are their own coordinates: the same array, in and out
    vs = rng.standard_normal((3, n))
    s = Subspace(rotated, n)
    assert s.coords(vs) is vs and s.lift(vs) is vs


def test_subspace_project_residual():
    s = Subspace.from_spanning([[1.0, 0.0, 0.0]], 3)
    x = np.array([2.0, 3.0, 0.0])
    assert np.allclose(s.project_many(x[None, :]), [[2.0, 0.0, 0.0]])
    assert s.residuals(x[None, :])[0] == pytest.approx(3.0)
    assert s.contains([5.0, 0.0, 0.0])
    assert not s.contains([0.0, 1.0, 0.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), data=st.data())
def test_subspace_coordinates_and_complement(n, data):
    # random spanning families of every rank (redundant rows included), and
    # rotated full-rank frames, which are the whole space
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        w = Subspace(np.linalg.qr(rng.standard_normal((n, n)))[0], n)
    else:
        k = data.draw(st.integers(0, n))
        family = rng.standard_normal((k, n))
        extra = rng.standard_normal((int(rng.integers(0, 3)), k)) @ family
        w = Subspace.from_spanning(np.vstack([family, extra]), n)
        assert w.dim == k
    vs = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-3, 4)
    vs[rng.random(vs.shape) < 0.2] = -0.0
    cs = w.coords(vs)
    assert cs.shape == (5, w.dim)
    assert (w.lift(cs) + 0.0).tobytes() == w.project_many(vs).tobytes()
    if w.is_full:
        # rows are their own coordinates: the input's bytes, in and out
        assert w.coords(vs).tobytes() == vs.tobytes() and w.lift(vs).tobytes() == vs.tobytes()
    c = w.complement()
    assert c.dim + w.dim == n and c.ambient_dim == n
    assert np.allclose(c.basis @ c.basis.T, np.eye(c.dim), atol=1e-12)
    assert np.allclose(c.basis @ w.basis.T, 0.0, atol=1e-12)
    axes = w.unit_axes()
    assert np.allclose(np.linalg.norm(axes, axis=1), 1.0) and np.all(w.contains_many(axes))
    assert axes.shape[0] == np.count_nonzero(np.linalg.norm(w.basis, axis=0) > 1e-10)


@pytest.mark.parametrize("tol", [np.array([1e-9, 1e-9]), 0.0, 1.0, -1e-9, math.nan, "1e-9",
                                 None])
def test_a_gauge_tolerance_is_a_real_number_in_0_1(tol):
    with pytest.raises(UsageError, match="real number in \\(0, 1\\)"):
        Gauge.of_set(box(2), tol=tol)
    g = Gauge.of_set(box(2), tol=np.float64(1e-6))
    assert g.value([0.5, 0.25]) == pytest.approx(0.5)


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


def _flat_pairs():
    """A segment in the plane and a triangle in a plane of R^3, each as a
    halfspace set (a pair of opposite rows for each flat direction) and as
    a vertex set, about the same center, with a function and a point to
    take its subdifferential at."""
    segment = (Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                          np.array([0.0, 0.0, 1.0, 1.0])),
               Vertices(np.array([[0.0, -1.0], [0.0, 1.0]])), np.zeros(2),
               "x1 + abs(x2)", np.zeros(2))
    pts = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
    normals, offsets = [np.ones(3), -np.ones(3)], [0.0, 0.0]
    for i in range(3):  # the in-plane outer normal of the edge opposite vertex i
        a, b = pts[(i + 1) % 3], pts[(i + 2) % 3]
        e = (b - a) / np.linalg.norm(b - a)
        inward = (pts[i] - a) - ((pts[i] - a) @ e) * e
        normals.append(-inward / np.linalg.norm(inward))
        offsets.append(float(normals[-1] @ a))
    triangle = (Halfspaces(np.array(normals), np.array(offsets)), Vertices(pts),
                np.zeros(3), "abs(x1 - x2) + x3", np.zeros(3))
    return {"segment": segment, "triangle": triangle}


@pytest.mark.parametrize("case", ["segment", "triangle"])
def test_flat_halfspace_and_vertex_sets_agree(case):
    from gaugecalc import subdifferential_hull

    rows, hull, center, src, x = _flat_pairs()[case]
    n = center.size
    sets = [ConvexSet(n, rep, center=center) for rep in (rows, hull)]
    gauges = [Gauge.of_set(s) for s in sets]
    want_dim = n - 1
    inside = 0.5 * (sets[1].representation.points[0] - center)  # halfway to a vertex
    off = np.ones(n) / math.sqrt(n) if n == 3 else np.array([1.0, 0.0])  # normal to the set
    grads = []
    for s, g in zip(sets, gauges):
        assert (g.span.dim, g.kernel.dim) == (want_dim, 0)
        assert in_icr(s, center) and in_icr(s, center + inside)
        assert not in_icr(s, sets[1].representation.points[0])
        assert g.value(inside) == pytest.approx(0.5, rel=1e-9)
        assert g.value(off) == math.inf
        f = ScalarFunction.from_expr(src, domain=box(n, -5, 5), convex=True)
        grads.append(sorted(map(tuple, np.round(subdifferential_hull(f, x, g).subgradients, 6))))
    assert grads[0] == grads[1]
    if case == "segment":
        assert grads[0] == [(0.0, -1.0), (0.0, 1.0)]


def test_halfspace_span_solves_no_lp_at_an_interior_point(monkeypatch):
    from gaugecalc import geometry

    calls = []
    monkeypatch.setattr(geometry, "linprog", lambda *a, **k: calls.append(1))
    assert span_of_difference(box(3), np.zeros(3)).dim == 3
    assert in_icr(box(3), np.zeros(3))
    assert calls == []


def test_interior_halfspace_span_is_the_identity_with_no_probe(count_calls):
    from gaugecalc import geometry

    s = geometry.ConvexSet(3, geometry.Halfspaces(
        [[1.0, 2.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]],
        [4.0, 1.0, 2.0, 3.0]), center=np.zeros(3))
    count_calls.wrap(geometry, "linprog")
    count_calls.wrap(geometry.ConvexSet, "contains")
    count_calls.wrap(geometry.ConvexSet, "contains_many")
    for base in (np.zeros(3), np.array([0.5, -0.25, 0.75])):
        span = s.representation.span(s, base)
        assert np.array_equal(span.basis, np.eye(3))
    assert dict(count_calls) == {"linprog": 0, "contains": 0, "contains_many": 0}
    assert np.array_equal(geometry.Gauge.of_set(box(2)).span.basis, np.eye(2))


def test_check_symmetry():
    assert check_symmetry(box(2), [0.0, 0.0])
    assert not check_symmetry(box(2, 0.0, 1.0, center=[0.25, 0.25]), [0.25, 0.25])
    assert check_symmetry(diamond(), [0.0, 0.0])
    shifted = ConvexSet(2, Vertices(np.array([[0.0, 0], [2.0, 0], [1.0, 1], [1.0, -1]])),
                        center=np.array([1.0, 0.0]))
    assert check_symmetry(shifted, [1.0, 0.0])


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_symmetry_does_not_depend_on_the_row_scale(scale):
    # the box x in [-1, 2], y in [-1, 1] (its vertices) and the slab x in
    # [-1, 2] (one LP per row) are not symmetric about 0 however their rows
    # are written; the slab x in [-1, 1] is
    normals = scale * np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    box_ = ConvexSet(2, Halfspaces(normals, scale * np.array([2.0, 1.0, 1.0, 1.0])),
                     center=np.zeros(2))
    assert not check_symmetry(box_, [0.0, 0.0])
    for right, want in ((2.0, False), (1.0, True)):
        slab = ConvexSet(2, Halfspaces(normals[:2], scale * np.array([right, 1.0])),
                         center=np.zeros(2))
        assert check_symmetry(slab, [0.0, 0.0]) == want


@pytest.mark.parametrize("normal, offset", [(1e-200, 1e200), (1e-10, 1e300)])
def test_symmetry_skips_a_row_whose_offset_over_its_norm_overflows(normal, offset):
    # such a row is stored as written and bounds nothing: the box keeps its
    # 4 vertices, and the slab's per-row LPs are not handed an infinite bound
    rows = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0], [normal, 0]])
    box_ = ConvexSet(2, Halfspaces(rows, np.array([1.0, 1.0, 1.0, 1.0, offset])),
                     center=np.zeros(2))
    assert len(box_.representation.extreme_points()) == 4
    assert check_symmetry(box_, [0.0, 0.0])
    slab = ConvexSet(2, Halfspaces(rows[[0, 1, 4]], np.array([1.0, 1.0, offset])),
                     center=np.zeros(2))
    assert check_symmetry(slab, [0.0, 0.0]) and not check_symmetry(slab, [0.5, 0.0])


def _unit_rows(seed, n, kind):
    """A box (rows +/- e_i, half-widths in [0.5, 2]) or a criterion-03
    polytope (rows +/- r, r = I + 0.3 N, offsets 1 +/- r.p), symmetric
    about its center p: normals, offsets and p."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.5, 0.5, n)
    if kind == "box":
        r, half = np.eye(n), rng.uniform(0.5, 2.0, n)
    else:
        r, half = np.eye(n) + 0.3 * rng.standard_normal((n, n)), np.ones(n)
    return np.vstack([r, -r]), np.concatenate([half + r @ p, half - r @ p]), p


def _answers(s, p):
    """What a set answers, each as bytes or a plain value: membership,
    relative interior and span at the center and a corner point, the
    kernel, gauges, symmetry, extreme points, seeded samples and the M of
    a Lipschitz certificate."""
    rng = np.random.default_rng(5)
    pts = p + rng.uniform(-2.5, 2.5, (40, s.dim))
    rep = s.representation  # a corner point: the first n rows active
    edge = np.linalg.lstsq(rep.normals[:s.dim], rep.offsets[:s.dim], rcond=None)[0]
    g = Gauge.of_set(s)
    f = ScalarFunction.from_expr(" + ".join(f"x{i + 1}^2" for i in range(s.dim)),
                                 domain=box(s.dim, -100, 100), convex=True)
    return {"contains": s.contains_many(pts).tobytes(),
            "icr": [in_icr(s, x) for x in (p, edge)],
            "span_dim": [span_of_difference(s, x).dim for x in (p, edge)],
            "kernel_dim": kernel_of_gauge(g).dim,
            "gauge": g.values(pts - p).tobytes(),
            "symmetric": [check_symmetry(s, p), check_symmetry(s, p + 0.1)],
            "extreme": np.array(s.representation.extreme_points()).tobytes(),
            "sample": np.array(s.sample_members(np.random.default_rng(7), 20)).tobytes(),
            "M": theoretical_constant(f, s, p, 0.5).M}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       kind=st.sampled_from(["box", "polytope"]), data=st.data())
def test_each_row_scaled_by_its_own_power_of_two_is_the_same_set(seed, n, kind, data):
    # a row and its offset times 2**k (k in [-900, 900], one per row) is the
    # same halfspace: the stored rows are the unit-scale set's bytes, so
    # every answer is equal, and a JSON round trip keeps those rows
    normals, offsets, p = _unit_rows(seed, n, kind)
    frac = np.log2(np.linalg.norm(normals, axis=1)) % 1.0
    assume(np.all(np.abs(frac - 0.5) > 1e-6))  # away from the 2**(j + 1/2) boundaries
    ks = np.array(data.draw(st.lists(st.integers(-900, 900), min_size=2 * n, max_size=2 * n)))
    unit = ConvexSet(n, Halfspaces(normals, offsets), center=p)
    scaled = ConvexSet(n, Halfspaces(np.ldexp(normals, ks[:, None]), np.ldexp(offsets, ks)),
                       center=p)
    for s in (scaled, set_from_json(json.loads(json.dumps(set_to_json(scaled))))):
        assert s.representation.normals.tobytes() == unit.representation.normals.tobytes()
        assert s.representation.offsets.tobytes() == unit.representation.offsets.tobytes()
    assert _answers(scaled, p) == _answers(unit, p)


@pytest.mark.parametrize("kind", ["box", "polytope", "zero-row", "overflow-row"])
def test_scaled_and_core_sets_store_what_a_fresh_build_stores(kind, count_calls):
    # the two sets built from stored rows reuse their norms; a zero row,
    # and a row stored as written because its offset overflowed, take the
    # fresh build, where a new offset may scale that row
    from gaugecalc import geometry

    normals, offsets, p = _unit_rows(3, 3, "polytope" if kind == "polytope" else "box")
    if kind == "zero-row":
        normals, offsets = np.vstack([normals, np.zeros(3)]), np.append(offsets, 1.0)
    if kind == "overflow-row":
        normals, offsets = np.vstack([normals, [1e-300, 0.0, 0.0]]), np.append(offsets, 1e300)
    s = ConvexSet(3, Halfspaces(normals, offsets), center=p)
    rep, q, factor = s.representation, p + 0.25, 1e-300 if kind == "overflow-row" else 0.5
    count_calls.wrap(geometry, "_row_norms")
    scaled, core = rep.scaled(s, p, factor, q), rep.symmetric_core(s, p)
    assert (count_calls["_row_norms"] == 0) == (kind in ("box", "polytope"))
    fresh = (Halfspaces(rep.normals.copy(), factor * rep.offsets + rep.normals @ (q - factor * p)),
             Halfspaces(np.vstack([rep.normals, -rep.normals]),
                        np.concatenate([rep.offsets, rep.offsets - 2.0 * (rep.normals @ p)])))
    for got, want in zip((scaled, core), fresh):
        for field in ("normals", "offsets", "_norms"):
            assert getattr(got.representation, field).tobytes() == getattr(want, field).tobytes()
    if kind == "overflow-row":  # the smaller offset lets the scaled set's row scale
        assert scaled.representation.normals[-1, 0] != 1e-300


def lp_symmetric(s, p):
    """The per-row support LP test that a halfspace set without a vertex
    list still takes, kept as the reference for the vertex test."""
    rep = s.representation
    norms = np.linalg.norm(rep.normals, axis=1)
    keep = norms > 1e-14
    for a, b in zip(rep.normals[keep] / norms[keep, None], rep.offsets[keep] / norms[keep]):
        low = linprog(a, A_ub=rep.normals, b_ub=rep.offsets, bounds=[(None, None)] * s.dim,
                      method="highs")
        if low.status != 0 or 2.0 * (a @ p) - low.fun > b + 1e-8 * (1.0 + abs(b)):
            return False
    return True


def test_halfspace_symmetry_reads_the_vertices(monkeypatch):
    # random polytopes symmetric about p, then with one offset moved by
    # 1e-3 (asymmetric) or 1e-12 (within the tolerance): the reflected
    # vertices give the LP reference's verdict, with no LP once the
    # Chebyshev centre is known; unbounded, flat and past-guard sets keep
    # the LPs
    from gaugecalc import geometry

    rng = np.random.default_rng(11)
    real, calls = geometry.linprog, []

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(geometry, "linprog", counted)
    verdicts = []
    for trial in range(45):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n + 3, n))
        p = rng.standard_normal(n)
        c = rng.uniform(0.5, 2.0, n + 3)
        normals, offsets = np.vstack([a, -a]), np.concatenate([c + a @ p, c - a @ p])
        offsets[int(rng.integers(offsets.size))] += [0.0, 1e-3, 1e-12][trial % 3]
        s = ConvexSet(n, Halfspaces(normals, offsets), center=p)
        s.representation.anchor(s)  # the Chebyshev centre, one LP per set
        calls.clear()
        got = check_symmetry(s, p)
        assert calls == []
        assert got == lp_symmetric(s, p)
        verdicts.append(got)
    assert True in verdicts and False in verdicts
    flat = ConvexSet(2, Halfspaces(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]),
                                   np.array([1.0, 1.0, 0.0, 0.0])), center=np.zeros(2))
    slab = ConvexSet(2, Halfspaces(np.array([[1.0, 0], [-1.0, 0]]), np.array([1.0, 1.0])),
                     center=np.zeros(2))
    for s, p, want in [(flat, [0.0, 0.0], True), (flat, [0.5, 0.0], False),
                       (slab, [0.0, 3.0], True), (box(16), np.zeros(16), True)]:
        calls.clear()
        assert check_symmetry(s, p) == want
        assert calls


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
        x = span.project_many(d[None, :])[0]
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
        for x, got in zip(xs, g.values(np.array(xs))):
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


def _unit_discs():
    dom = box(2, -2, 2)
    return [ConvexSet(2, Sublevel(ScalarFunction.from_expr("x1^2 + x2^2", dom), 1.0, dom),
                      center=np.zeros(2)),
            ConvexSet(2, Oracle(member=lambda x: float(x @ x) <= 1.0, bounding_radius=2.0),
                      center=np.zeros(2))]


@pytest.mark.parametrize("k", [-200, -45, 0, 45, 200])
def test_bisection_gauges_are_positively_homogeneous(k):
    # the bracket's 0 and inf bounds scale with |x|: bounds fixed at 1e-12
    # and 1e15 read 0.0 for 2**-45 x and inf for 2**200 x
    x = np.array([0.6, -0.3])
    for s in _unit_discs():
        g = Gauge.of_set(s)
        assert g.value(x) == pytest.approx(math.hypot(*x), rel=1e-8)
        assert g.value(2.0 ** k * x) == pytest.approx(2.0 ** k * g.value(x), rel=g.tol)
        assert g.value([1e16, 0.0]) == pytest.approx(1e16, rel=1e-8)
        assert g.value([1e-13, 0.0]) == pytest.approx(1e-13, rel=1e-8)


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


def _lp_gauge(normals, offsets, center, u):
    """Reference gauge of ``{x : A x <= b}`` about ``p``, one LP:
    min t subject to A u <= t (b - A p), t >= 0; infeasible means inf."""
    res = linprog([1.0], A_ub=-(offsets - normals @ center)[:, None], b_ub=-(normals @ u),
                  bounds=[(0.0, None)], method="highs")
    return float(res.fun) if res.status == 0 else math.inf


def _random_polytope(seed, n, kind):
    """A random polytope about an interior center, as halfspaces and (when
    bounded) as vertices: full-dimensional; "flat" in a k < n plane (a
    pair of opposite rows per normal direction); or "kernel", the k-dim
    polytope times the other n - k directions (unbounded, lineality n - k).
    Returns (halfspace set, vertex set or None, span frame, kernel frame)."""
    rng = np.random.default_rng(seed)
    k = n if kind == "full" or n == 1 else int(rng.integers(1, n))
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    inner, outer = frame[:, :k], frame[:, k:]
    coords = rng.standard_normal((k + 3, k))
    if k == 1:
        rows = np.array([[1.0, -coords.max()], [-1.0, coords.min()]])
    else:
        rows = ConvexHull(coords).equations  # a.y + e <= 0
    origin = rng.standard_normal(n)
    normals = rows[:, :-1] @ inner.T
    offsets = normals @ origin - rows[:, -1]
    if kind == "flat":
        normals = np.vstack([normals, outer.T, -outer.T])
        offsets = np.concatenate([offsets, outer.T @ origin, -(outer.T @ origin)])
    center = origin + inner @ coords.mean(axis=0)
    rows_set = ConvexSet(n, Halfspaces(normals, offsets), center=center)
    hull = None if kind == "kernel" else ConvexSet(n, Vertices(origin + coords @ inner.T),
                                                    center=center)
    return rows_set, hull, inner, outer


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       kind=st.sampled_from(["full", "flat", "kernel"]))
def test_batch_gauges_match_the_lp_and_the_point_values(seed, n, kind):
    # every row against the min-t LP of the halfspace rows, and the batch
    # byte for byte against one point value per row
    rows_set, hull, inner, outer = _random_polytope(seed, n, kind)
    rep = rows_set.representation
    rng = np.random.default_rng(seed + 1)
    draws = 3.0 * rng.standard_normal((10, n))
    us = np.vstack([draws @ inner @ inner.T, draws[:3], np.zeros((1, n))])
    if kind == "kernel" and outer.shape[1]:  # zero on the kernel, unchanged along it
        kern = draws[:3, :outer.shape[1]] @ outer.T
        us = np.vstack([us, kern, us[:3] + kern])
    want = [_lp_gauge(rep.normals, rep.offsets, rows_set.center, u) for u in us]
    for s in (rows_set, hull):
        if s is None:
            continue
        g = Gauge.of_set(s)
        got = g.values(us)
        assert got.tobytes() == np.array([g.value(u) for u in us]).tobytes()
        for u, a, b in zip(us, got, want):
            if math.isinf(b):
                assert math.isinf(a), (u, a)
            else:
                assert a == pytest.approx(b, rel=1e-7, abs=1e-9), u


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


def walked_member(s, x, tol=DEFAULT_TOL):
    """Reference membership of one point, the per-point formula of each
    representation: a halfspace set's slacks; a vertex set's affine
    residual, then its facet rows' slacks; a sublevel set's base domain,
    then ``fn(x) <= level``; an oracle's member callback."""
    rep = s.representation
    if isinstance(rep, Halfspaces):
        return bool(np.all(rep.offsets - rep.normals @ x >= -tol * (1.0 + np.abs(rep.offsets))))
    if isinstance(rep, Vertices):
        base, span = rep.affine_hull
        d = x - base
        return bool(np.linalg.norm(d - span.basis.T @ (span.basis @ d))
                    <= tol * (1.0 + np.linalg.norm(x))
                    and walked_member(ConvexSet(s.dim, rep.facets), x, tol))
    if isinstance(rep, Sublevel):
        return (walked_member(rep.base_domain, x, tol)
                and float(rep.fn(x)) <= rep.level + tol * (1.0 + abs(rep.level)))
    return bool(rep.member(x))


def test_contains_many_matches_contains():
    hexagon = ConvexSet(2, Vertices(np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)]
                                              for k in range(6)])), center=np.zeros(2))
    segment = ConvexSet(2, Vertices(np.array([[-1.0, -0.5], [1.0, 0.5]])))
    pts = np.random.default_rng(2).uniform(-1.2, 1.2, (40, 2))
    pts[:8] = np.linspace(-1.2, 1.2, 8)[:, None] * [1.0, 0.5]  # on the segment's line
    for s in (box(2), hexagon, segment, ConvexSet(2, Oracle(member=lambda v: v @ v <= 1.0,
                                                            bounding_radius=1.0))):
        want = [walked_member(s, p) for p in pts]
        assert s.contains_many(pts).tolist() == want
        assert [s.contains(p) for p in pts] == want
        assert any(want) and not all(want)
    # the unit box written with normals and offsets 1e-200 is stored as the
    # unit box, so its slack tolerance does not let in points far outside
    unit = box(2).representation
    tiny = ConvexSet(2, Halfspaces(1e-200 * unit.normals, 1e-200 * unit.offsets))
    far = np.vstack([pts, [1e190, 0.0]])
    assert tiny.contains_many(far).tolist() == box(2).contains_many(far).tolist()
    assert not tiny.contains([1e190, 0.0])
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


# -- batched sampler, membership and reach probes ------------------------------


def _scalar_chords(s, rng, n):
    """The halfspace sampler one chord at a time: one draw of dim + 1
    normals, the first dim a direction (made unit), the normal CDF of the
    last a uniform fraction of the longest step along it (capped at 1e3)."""
    rep, anchor = s.representation, s.anchor()
    slack = rep.offsets - rep.normals @ anchor
    out = []
    for _ in range(n):
        draw = rng.standard_normal(s.dim + 1)
        d, frac = draw[:-1], ndtr(draw[-1])
        nd = math.sqrt(np.sum(d * d))
        if nd < 1e-14:
            out.append(anchor.copy())
            continue
        d = d / nd
        rates = rep.normals @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(rates > 1e-14, slack / np.maximum(rates, 1e-300), np.inf)
        tmax = min(float(np.min(steps)), 1e3)
        out.append(anchor + frac * max(tmax, 0.0) * d)
    return out


def _scalar_dirichlet(s, rng, n):
    """The vertex sampler one Dirichlet weight vector at a time."""
    m = s.representation.points.shape[0]
    return [s.representation.points.T @ rng.dirichlet(np.ones(m)) for _ in range(n)]


def _scalar_sample(s, rng, n, pulled=None):
    """The rejection sampler one proposal and one membership test at a time:
    the first of 50 proposals that is a member, else the next proposal
    bisected toward the anchor.  ``pulled`` collects the bisected outputs."""
    rep = s.representation
    if isinstance(rep, Halfspaces):
        return _scalar_chords(s, rng, n)
    if isinstance(rep, Vertices):
        return _scalar_dirichlet(s, rng, n)
    if isinstance(rep, Sublevel):
        def propose():
            return _scalar_sample(rep.base_domain, rng, 1, pulled)[0]
    else:
        def propose():
            return s.anchor() + rep.bounding_radius * rng.standard_normal(s.dim) / math.sqrt(s.dim)
    anchor = s.anchor()
    out = []
    for _ in range(n):
        for _ in range(50):
            cand = propose()
            if s.contains(cand):
                break
        else:
            cand = propose()
            if not s.contains(cand):
                lo, hi = 0.0, 1.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    if s.contains(anchor + mid * (cand - anchor)):
                        lo = mid
                    else:
                        hi = mid
                cand = anchor + lo * (cand - anchor)
                if pulled is not None:
                    pulled.append(cand)
        out.append(cand)
    return out


def _lopsided_box():
    return ConvexSet(2, Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                                             [1.0, 1.0]]),
                                   np.array([2.0, 1.0, 1.5, 1.0, 2.5])))


def _sampled_sets():
    disk = ConvexSet(2, Oracle(member=lambda x: float(np.linalg.norm(x)) <= 1.0,
                               bounding_radius=2.0), center=np.zeros(2))
    # about 3% of the proposals land in the slab, so some outputs take the
    # pull-inside path
    slab = ConvexSet(2, Oracle(member=lambda x: abs(float(x[0])) <= 0.05,
                               bounding_radius=2.0), center=np.zeros(2))
    dom = _lopsided_box()
    sub = ConvexSet(2, Sublevel(ScalarFunction.from_expr("(x1-0.4)^2 + 3*(x2+0.2)^2", dom),
                                0.6, dom), center=[0.4, -0.2])
    tri = ConvexSet(2, Vertices(np.array([[-1.0, -1.0], [2.0, -0.5], [0.0, 1.5]])))
    return {"oracle disk": disk, "oracle slab": slab, "sublevel": sub,
            "sublevel core": sub.representation.symmetric_core(sub, np.array([0.3, -0.1])),
            "vertex core": tri.representation.symmetric_core(tri, np.array([0.2, 0.0]))}


@pytest.mark.parametrize("name", list(_sampled_sets()))
def test_block_sampler_equals_one_proposal_at_a_time(name, monkeypatch):
    # rounds sized by acceptance, rewound to the proposals the loop consumes;
    # the slab accepts about 3% of its proposals, so its rounds reach the cap
    # of 51 proposals per missing output and some outputs are pulled inside
    from gaugecalc import geometry

    pulled, pull = [], geometry._pull_inside
    monkeypatch.setattr(geometry, "_pull_inside",
                        lambda *args: pulled.append(pull(*args)) or pulled[-1])
    for n in (1, 40, 128, 300):
        s, want_pulled = _sampled_sets()[name], []
        pulled.clear()
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = s.sample_members(rng, n)
        want = _scalar_sample(s, ref_rng, n, want_pulled)
        assert np.array_equal(np.array(got), np.array(want))
        assert rng.random() == ref_rng.random()
        assert np.array_equal(np.array(pulled), np.array(want_pulled))
        if name == "oracle slab" and n >= 40:
            assert want_pulled


def _flagged_disk(bad: set, hits: list) -> ConvexSet:
    """The disk of radius 0.8 as a sublevel set over the unit box, whose
    function reads inf (and notes it in ``hits``) at the points of ``bad``."""
    def fn(x):
        if x.tobytes() in bad:
            hits.append(x)
            return math.inf
        return float(x @ x)

    dom = box(2)
    return ConvexSet(2, Sublevel(ScalarFunction(fn, dom, name="flagged"), 0.64, dom),
                     center=np.zeros(2))


def _proposal_stream(n: int):
    """The disk's samples by the one-proposal loop from seed 3, and its
    proposals (the box's chords) from the same seed, past the loop's last."""
    want = _scalar_sample(_flagged_disk(set(), []), np.random.default_rng(3), n)
    stream = box(2).sample_members(np.random.default_rng(3), 4 * n)
    used = next(i for i, y in enumerate(stream) if np.array_equal(y, want[-1])) + 1
    return want, stream, used


def test_an_error_past_the_last_consumed_proposal_does_not_surface():
    # every proposal after the loop's last is bad: an oversized last round
    # meets one, reruns at one proposal per missing output and meets none
    want, stream, used = _proposal_stream(128)
    hits = []
    s = _flagged_disk({y.tobytes() for y in stream[used:]}, hits)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(np.array(s.sample_members(rng, 128)), np.array(want))
    _scalar_sample(s, ref_rng, 128)
    assert rng.random() == ref_rng.random()
    assert hits  # the oversized round did reach a bad proposal


@pytest.mark.parametrize("where", ["middle", "last"])
def test_an_error_the_loop_meets_surfaces_unchanged(where):
    want, stream, used = _proposal_stream(128)
    bad = stream[used // 2 if where == "middle" else used - 1]
    with pytest.raises(NonFiniteInputError) as ref:
        _scalar_sample(_flagged_disk({bad.tobytes()}, []), np.random.default_rng(3), 128)
    with pytest.raises(NonFiniteInputError) as got:
        _flagged_disk({bad.tobytes()}, []).sample_members(np.random.default_rng(3), 128)
    assert str(got.value) == str(ref.value) and "flagged returned inf" in str(got.value)


def test_halfspace_chords_equal_the_per_sample_loop():
    for s in (_lopsided_box(), box(3), interval(-1.0, math.inf, center=0.0)):
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        assert np.array_equal(np.array(s.sample_members(rng, 50)),
                              np.array(_scalar_chords(s, ref_rng, 50)))
        assert rng.random() == ref_rng.random()


def test_a_chord_block_equals_one_chord_calls():
    ray_plane = ConvexSet(2, Halfspaces(np.array([[1.0, 1.0]]), np.array([1.0])),
                          center=[0.0, 0.0])
    for s in (box(3), interval(-1.0, 2.0), ray_plane):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        block = s.sample_members(rng, 25)
        assert np.array_equal(np.array(block),
                              np.array([s.sample_members(ref_rng, 1)[0] for _ in range(25)]))
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_vertex_samples_equal_the_per_sample_dirichlet_loop(m):
    s = ConvexSet(3, Vertices(np.random.default_rng(m).standard_normal((m, 3))))
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    assert np.array_equal(np.array(s.sample_members(rng, 30)),
                          np.array(_scalar_dirichlet(s, ref_rng, 30)))
    assert rng.random() == ref_rng.random()


def _membership_cases():
    half = ConvexSet(2, Halfspaces(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                   np.array([0.0, 2.0, 1.0, 1.0])))
    # sqrt raises for x1 < -0.01, where the base domain x1 >= 0 already
    # rejects the row
    root = ConvexSet(2, Sublevel(ScalarFunction.from_expr("sqrt(x1 + 0.01) + x2^2", half),
                                 1.0, half), center=[0.25, 0.0])
    sampled = _sampled_sets()
    core = sampled["sublevel core"]
    return {"halfspaces": half, "sublevel": root,
            "sublevel core": root.representation.symmetric_core(root, np.array([0.5, 0.1])),
            "scaled core": core.representation.scaled(core, np.array([0.3, -0.1]), 0.5,
                                                      np.zeros(2)),
            "vertex core": sampled["vertex core"]}


@pytest.mark.parametrize("name", list(_membership_cases()))
def test_contains_many_equals_contains_row_by_row(name):
    s = _membership_cases()[name]
    pts = np.random.default_rng(4).uniform(-1.5, 2.5, (300, 2))
    for tol in (DEFAULT_TOL, 1e-3):
        want = [walked_member(s, p, tol) for p in pts]
        assert s.contains_many(pts, tol).tolist() == want
        assert [s.contains(p, tol) for p in pts] == want
        assert any(want) and not all(want)
    with pytest.raises(NonFiniteInputError):
        s.contains_many(np.array([[0.5, 0.0], [math.inf, 0.0]]))


def test_sublevel_batches_skip_rows_outside_the_base_domain():
    s = _membership_cases()["sublevel"]
    with pytest.raises(GaugeCalcError, match="sqrt"):
        s.representation.fn.many(np.array([[-1.0, 0.0]]))
    assert s.contains_many(np.array([[-1.0, 0.0], [0.25, 0.5]])).tolist() == [False, True]
    assert not s.contains([-1.0, 0.0])


def _scalar_reaches(s, x, d):
    """Does some halving step t <= 1 keep x + t d in the set?"""
    t = 1.0
    while t >= 1e-12:
        if s.contains(x + t * d):
            return True
        t *= 0.5
    return False


def test_batched_reach_probes_equal_the_scalar_halving():
    from gaugecalc.geometry import _reaches
    rng = np.random.default_rng(6)
    dirs = np.vstack([rng.standard_normal((40, 2)), np.eye(2), -np.eye(2)])
    for s in (_lopsided_box(), _membership_cases()["sublevel"], _sampled_sets()["vertex core"]):
        for x in ([0.0, 0.0], [2.0, 0.5], [-1.0, -1.0], [0.25, 1.0], [3.0, 3.0]):
            x = np.array(x)
            assert _reaches(s, x, dirs).tolist() == [_scalar_reaches(s, x, d) for d in dirs]


def test_derived_batch_evaluators_equal_their_scalar_calls():
    # each derived evaluator against its formula at one point: a sublevel
    # core's reflected maximum (the first value on ties, as max keeps), a
    # scaled copy's pulled-back value, a vertex core's reflection test; a
    # point call is the batch on one row
    cases, sampled = _membership_cases(), _sampled_sets()
    f, x0 = cases["sublevel"].representation.fn, np.array([0.5, 0.1])
    g, y0 = sampled["sublevel"].representation.fn, np.array([0.3, -0.1])
    tri = ConvexSet(2, Vertices(np.array([[-1.0, -1.0], [2.0, -0.5], [0.0, 1.5]])))
    formulas = {
        "sublevel core": lambda y: max(f(y), f(2.0 * x0 - y)),
        "scaled core": lambda y: max(g(y0 + y / 0.5), g(2.0 * y0 - (y0 + y / 0.5))),
        "vertex core": lambda y: 0.0 if walked_member(tri, 2.0 * np.array([0.2, 0.0]) - y)
        else 1.0,
    }
    for name, formula in formulas.items():
        s = cases[name]
        rep = s.representation
        pts = np.random.default_rng(9).uniform(-1.5, 2.5, (200, 2))
        rows = pts[rep.base_domain.contains_many(pts)]
        want = [formula(y) for y in rows]
        assert np.array_equal(rep.fn.many(rows), want)
        assert [rep.fn(y) for y in rows] == want
        assert 0 < len(rows) < len(pts)
        with pytest.raises(ValueError):
            set_to_json(s)


def test_a_subspace_refuses_a_nan_point():
    # unchecked, the whole plane would hold (NaN, 0) and a line would not
    line = Subspace.from_spanning([[1.0, 1.0]], 2)
    for span in (Subspace.full(2), line):
        with pytest.raises(NonFiniteInputError, match="vector has non-finite entries"):
            span.contains([math.nan, 0.0])


def test_a_subspace_refuses_a_point_of_another_width():
    # unchecked, the whole plane would hold (0, 0, 0)
    with pytest.raises(DimensionMismatchError, match="expected dimension 2, got 3"):
        Subspace.full(2).contains([0.0, 0.0, 0.0])


def test_a_subspace_refuses_a_string():
    # unchecked, numpy would raise an untyped ValueError
    line = Subspace.from_spanning([[1.0, 1.0]], 2)
    with pytest.raises(DimensionMismatchError, match="expected a numeric vector"):
        line.contains("ab")
