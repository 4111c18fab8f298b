import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import (
    EXAMPLES,
    NonFiniteInputError,
    WeightedGrid,
    make_function,
    make_gauge,
    mu_l2,
    phi_l2,
    run_all,
    run_example,
    subdiff_l2,
)


@pytest.fixture(scope="module")
def grid():
    return WeightedGrid(1000)


def test_grid_invariants(grid):
    assert grid.nodes[0] == pytest.approx(0.0005)
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.nodes > 0)
    assert float(np.sum(grid.weights)) == pytest.approx(1.0, abs=1e-12)
    # midpoint rule is exact for affine integrands
    assert grid.inner(grid.nodes, np.ones(grid.n)) == pytest.approx(0.5, abs=1e-12)


def test_phi_zero_at_nodes(grid):
    assert phi_l2(grid, grid.nodes) == 0.0
    z = subdiff_l2(grid, grid.nodes)
    assert float(np.max(np.abs(z))) <= 1e-10


def test_phi_matches_integral(grid):
    # x(t) = t + t^2: integral of t^3 dt = 1/4, midpoint error O(n^-2)
    x = grid.nodes + grid.nodes ** 2
    assert phi_l2(grid, x) == pytest.approx(0.25, abs=1e-5)


def test_phi_infinite_below_floor(grid):
    x = grid.nodes.copy()
    x[3] = -1.5
    assert phi_l2(grid, x) == math.inf
    f = make_function(grid)
    with pytest.raises(NonFiniteInputError):
        f(x)


def test_mu_constant_field(grid):
    # integral of t^2 / t dt = 1/2 for v(t) = t (midpoint-exact: integrand t)
    assert mu_l2(grid, grid.nodes) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_subdiff_representations(grid):
    x = grid.nodes + 0.5 * grid.nodes ** 2
    pairing = subdiff_l2(grid, x, representation="pairing")
    eucl = subdiff_l2(grid, x, representation="euclidean")
    assert np.allclose(eucl, grid.weights * pairing)
    assert np.allclose(pairing, grid.nodes)  # 2 (x - t)/t = t here
    with pytest.raises(ValueError):
        subdiff_l2(grid, x, representation="weird")


def test_pairing_is_the_weighted_gradient(grid):
    rng = np.random.default_rng(3)
    x = grid.nodes + 0.01 * rng.standard_normal(grid.n)
    a = subdiff_l2(grid, x, representation="pairing")
    v = rng.standard_normal(grid.n)
    h = 1e-6
    q = (phi_l2(grid, x + h * v) - phi_l2(grid, x - h * v)) / (2 * h)
    assert q == pytest.approx(grid.inner(a, v), rel=1e-6, abs=1e-8)


def test_make_gauge_norm(grid):
    g = make_gauge(grid)
    v = np.ones(grid.n)
    assert g.value(v) == pytest.approx(mu_l2(grid, v), abs=1e-9)
    assert g.value(2.5 * v) == pytest.approx(2.5 * mu_l2(grid, v), rel=1e-9)
    assert g.kernel.dim == 0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_grid_gauge_of_a_point_whose_squared_norm_leaves_the_float_range(scale):
    # the plain sums of squares overflow to inf or underflow to 0
    g = make_gauge(WeightedGrid(4))
    with np.errstate(over="raise"):
        assert g.value([scale, 0.0, 0.0, 0.0]) == pytest.approx(
            math.sqrt(2.0) * scale, rel=1e-15, abs=0.0)
        assert g.span.contains(np.array([scale, -scale, 0.0, scale]))
        assert mu_l2(WeightedGrid(4), [0.0, scale, 0.0, 0.0]) == pytest.approx(
            math.sqrt(2.0 / 3.0) * scale, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("name", EXAMPLES)
def test_worked_examples_pass(name):
    report = run_example(name, n=200)
    assert report["passed"], report


def test_inner_chain_rejects_shortcut():
    report = run_example("inner_chain", n=200)
    assert report["agrees_with"] == "pullback"
    assert report["shortcut_rel_error"] > 10 * report["tolerance"]


def test_run_all_keys():
    out = run_all(n=100)
    assert set(out) == set(EXAMPLES)
    assert all(r["passed"] for r in out.values())


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        run_example("nope", n=10)


def test_batch_evaluators_match_the_scalar_calls(grid):
    f = make_function(grid)
    rng = np.random.default_rng(0)
    xs = grid.nodes + 0.1 * rng.standard_normal((40, grid.n))
    xs[5, 7] = -1.5
    xs[6, 9] = -1.0 - 1e-13  # inside the membership fuzz, outside the energy's box
    inside = f.domain.contains_many(xs)
    assert inside.tolist() == [f.domain.contains(x) for x in xs]
    assert not inside[5] and inside[6]
    ok = np.delete(xs, [5, 6], axis=0)
    assert f.many(ok).tolist() == [f(x) for x in ok]
    with pytest.raises(NonFiniteInputError):
        f.many(xs[4:7])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 1200), seed=st.integers(0, 2 ** 32 - 1))
def test_axis_evaluators_match_the_batch_evaluators(n, seed):
    # the energy's axis evaluator replaces one term of phi(x): within 4 ulp
    # of phi of the written row's batch value, and +inf exactly where the
    # written row leaves the box; the box's axis evaluator tests the
    # written coordinate and the base's others, the same truth values as the
    # batch test, bases with a coordinate below -1 - 1e-12 included
    rng = np.random.default_rng(seed)
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + rng.uniform(-0.9, 1.5) + rng.uniform(-0.5, 0.5) * t \
        + 0.05 * rng.standard_normal(n)
    x = np.maximum(x, -1.0)
    low = rng.random(n) < rng.choice([0.0, 0.5 / n, 2.0 / n])
    x[low] = rng.choice([-1.5, -1.0 - 1e-12, -1.0 - 1e-13], int(low.sum()))
    f = make_function(grid)
    k = int(rng.integers(1, 4 * n + 2))
    cols = rng.integers(0, n, k)
    # signed steps of at most 1, as a ladder or a feasibility halving takes
    steps = rng.choice([-1.0, 1.0], k) * np.where(
        rng.random(k) < 0.5, 2.0 ** -rng.integers(0, 30, k), rng.uniform(1e-7, 1.0, k))
    pts = np.repeat(x[None], k, axis=0)
    pts[np.arange(k), cols] += steps
    member, energy = f.domain.representation.member.many, f.fn.many
    assert member.along(x, cols, steps).tolist() == member(pts).tolist()
    got, want = energy.along(x, cols, steps), energy(pts)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    # phi's sum of terms at the base, also when a base coordinate leaves the box
    phi = float(np.sum(grid.weights * (x - t) ** 2 / t))
    ulp = np.spacing(np.maximum(phi, want[finite]))
    assert np.all(np.abs(got[finite] - want[finite]) <= 4 * ulp)


def test_the_function_checks_its_axis_values(grid):
    f = make_function(grid)
    x = grid.nodes.copy()
    along = f.many_along
    assert along(x, np.array([3, 3]), np.array([0.5, -0.25])).tolist() == \
        f.many(np.array([x, x]) + np.array([[0.0] * 3 + [0.5] + [0.0] * (grid.n - 4),
                                            [0.0] * 3 + [-0.25] + [0.0] * (grid.n - 4)])).tolist()
    with pytest.raises(NonFiniteInputError, match="grid-energy"):
        along(x, np.array([3, 7]), np.array([0.5, -2.0]))
    assert f.domain.contains_along(x, np.array([7]), np.array([-2.0])).tolist() == [False]
    with pytest.raises(NonFiniteInputError):
        f.domain.contains_along(x, np.array([7]), np.array([np.inf]))
