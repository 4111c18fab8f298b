import json
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
from gaugecalc import weighted_l2


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


def _reference_phi(grid, x):
    """The discretized energy one point at a time."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -1.0):
        return math.inf
    return float(np.sum(grid.weights * (x - grid.nodes) ** 2 / grid.nodes))


def _reference_check(psi, x, candidate, seed, num_dirs=16, h=1e-6):
    """The directional check one direction at a time: a fresh draw, a
    normalization and two psi calls per direction."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_dirs):
        d = rng.standard_normal(x.size)
        d /= float(np.linalg.norm(d))
        q = (psi(x + h * d) - psi(x - h * d)) / (2.0 * h)
        p = float(candidate @ d)
        worst = max(worst, abs(q - p) / (1.0 + abs(p)))
    return worst


def _reference_example(name, n, seed):
    """A worked example's report, every energy and gradient evaluated one
    point at a time."""
    grid = WeightedGrid(n)
    t = grid.nodes
    x = t + 0.5 * t * t
    phi_x = _reference_phi(grid, x)
    outer = {"exp_chain": (math.exp, math.exp),
             "sum": (lambda p: p + math.exp(p), lambda p: 1.0 + math.exp(p)),
             "product": (lambda p: p * math.exp(p), lambda p: (1.0 + p) * math.exp(p))}
    if name in outer:
        g, dg = outer[name]
        factor = dg(phi_x)
        err = _reference_check(lambda v: g(_reference_phi(grid, v)), x,
                               factor * (grid.weights * (2.0 * (x - t) / t)), seed)
        return {"example": name, "n": n, "factor": factor, "max_rel_error": err,
                "tolerance": 1e-6, "passed": bool(err <= 1e-6)}
    if name == "inner_chain":
        def psi(v):
            return _reference_phi(grid, t * v)

        err_p = _reference_check(psi, x, 2.0 * grid.weights * t * (x - 1.0), seed)
        err_s = _reference_check(psi, x, 2.0 * grid.weights * (x - t), seed)
        return {"example": name, "n": n, "pullback_rel_error": err_p,
                "shortcut_rel_error": err_s,
                "agrees_with": "pullback" if err_p < err_s else "shortcut",
                "tolerance": 1e-6, "passed": bool(err_p <= 1e-6)}
    d = t + 0.1 - x
    target = _reference_phi(grid, t + 0.1) - phi_x

    def slope(tau):
        z = x + tau * d
        return float(grid.weights * (2.0 * (z - t) / t) @ d)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) <= target:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    residual = abs(slope(tau) - target)
    return {"example": name, "n": n, "tau": tau, "alpha": 1.0 - tau, "expected_tau": 0.5,
            "residual": residual, "tolerance": 1e-9,
            "passed": bool(abs(tau - 0.5) <= 1e-9 and residual <= 1e-9)}


@pytest.mark.parametrize("n", [1, 2, 3, 200])
@pytest.mark.parametrize("seed", [0, 42, 9173])
def test_examples_match_the_point_at_a_time_reference(n, seed):
    for name in EXAMPLES:
        assert json.dumps(run_example(name, n=n, seed=seed)) == \
            json.dumps(_reference_example(name, n, seed))


@pytest.mark.parametrize("name", ["exp_chain", "sum", "product", "inner_chain"])
def test_an_example_evaluates_its_probes_in_one_batch(name, count_calls, monkeypatch):
    # the energy at the base (phi_l2, a one-row batch), then one batch of
    # the 16 directions' 32 probe rows, read by every candidate gradient
    rows, energy = [], weighted_l2._energy_rows
    monkeypatch.setattr(weighted_l2, "_energy_rows",
                        lambda grid, xs: rows.append(xs.shape) or energy(grid, xs))
    count_calls.wrap(weighted_l2, "_directional_check")
    assert run_example(name, n=200)["passed"]
    assert count_calls["_directional_check"] == 1
    assert rows == [(1, 200), (32, 200)]


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
    # phi_l2 is a one-row batch of the row evaluator: the same float per
    # row, +inf at the rows below the box
    rows = weighted_l2._energy_rows(grid, xs)
    assert rows.tolist() == [phi_l2(grid, x) for x in xs]
    assert rows[5] == rows[6] == math.inf
    # a row holding NaN reads +inf when an entry is below -1, NaN otherwise
    xs[7, 0], xs[5, 0] = math.nan, math.nan
    rows = weighted_l2._energy_rows(grid, xs[[5, 7]])
    assert rows[0] == phi_l2(grid, xs[5]) == math.inf
    assert math.isnan(rows[1]) and math.isnan(phi_l2(grid, xs[7]))


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
