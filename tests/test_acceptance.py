"""Acceptance gate: one test per criterion, run with ``pytest -v`` for one
pass/fail line each.  Default seed 42 throughout; grid size n = 1000."""

import json
import math

import numpy as np
import pytest

from gaugecalc import (
    Gauge,
    ScalarFunction,
    WeightedGrid,
    box,
    build_core,
    counterexample_suite,
    dir_deriv,
    extract_subgradient,
    fermat_check,
    gen_dir_deriv,
    interval,
    make_function,
    make_gauge,
    phi_l2,
    run_all,
    run_example,
    subdiff_l2,
    subdifferential_hull,
    sublevel_set,
    symmetric_core,
    theoretical_constant,
    verify_icr_membership,
    verify_max_rule,
    verify_partial_rule,
    verify_product_rule,
    verify_span_equality,
    verify_sum_rule,
    verify_chain_rule_2,
)
from gaugecalc.cli import main as cli_main
from gaugecalc.geometry import ConvexSet, Halfspaces, Vertices

SEED = 42


def _expr_fn(src, dom, convex=True):
    return ScalarFunction.from_expr(src, domain=dom, convex=convex)


def test_criterion_01_gauge_correctness():
    rng = np.random.default_rng(SEED)
    for n in range(1, 9):
        g = Gauge.of_set(box(n))
        for x in rng.uniform(-3.0, 3.0, size=(125, n)):
            assert abs(g.value(x) - float(np.max(np.abs(x)))) <= 1e-8
    ray = interval(-1.0, math.inf, center=0.0)
    g = Gauge.of_set(ray)
    for v in (0.3, 1.0, 5.7):
        assert abs(g.value([v])) <= 1e-8
        assert abs(g.value([-v]) - v) <= 1e-8


def test_criterion_02_symmetrization():
    dom = interval(-1.0, 2.0, center=0.5)
    f = _expr_fn("x1^2", dom)
    core = symmetric_core(sublevel_set(f, dom, 1.0), [0.0])
    for x in np.linspace(-1.0, 2.0, 10000):
        assert core.contains([x]) == (abs(x) <= 1.0 + 1e-9)
    for i in range(20):
        dim = 1 + i % 6
        rng = np.random.default_rng(1000 + i)
        lo = -1.0 - rng.uniform(0, 2)
        hi = 1.0 + rng.uniform(0, 2)
        sdom = box(dim, lo, hi, center=[(lo + hi) / 2] * dim)
        shift = rng.uniform(-0.3, 0.3, dim)
        terms = " + ".join(f"(x{j + 1} - {float(shift[j])!r})^2" for j in range(dim))
        sf = _expr_fn(terms, sdom)
        x0 = rng.uniform(-0.2, 0.2, dim)
        # a level admitting the domain center keeps the probed sublevel set
        # visibly nonempty in every dimension
        c = build_core(sf, sdom, x0, level=max(sf(x0), sf(sdom.center)) + 1.0)
        assert verify_span_equality(c)
        assert verify_icr_membership(c)


def test_criterion_03_slope_bound():
    rng = np.random.default_rng(SEED)
    for i in range(50):
        n = 2 + i % 5
        r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        while abs(np.linalg.det(r)) < 1e-3:
            r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        p = rng.uniform(-0.5, 0.5, n)
        poly = ConvexSet(n, Halfspaces(np.vstack([r, -r]),
                                       np.concatenate([1.0 + r @ p, 1.0 - r @ p])),
                         center=p.copy())
        signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n))).reshape(n, -1).T
        corners = [p + np.linalg.solve(r, s) for s in signs]
        b = rng.standard_normal((n, n))
        a = b.T @ b / n + 0.2 * np.eye(n)
        q = p + rng.uniform(-0.3, 0.3, n)

        def quad(x, a=a, q=q):
            d = np.asarray(x, float) - q
            return float(d @ a @ d)

        f = ScalarFunction(fn=quad, domain=box(n, -100, 100, center=[0] * n),
                           convex=True, name="quad")
        for eps in (0.25, 0.5, 0.9):
            cert = theoretical_constant(f, poly, p, eps, seed=SEED, pairs=100)
            m_corners = max(quad(v) for v in corners) - quad(p)
            assert cert.M == pytest.approx(m_corners, rel=1e-12), f"fixture {i}"
            assert cert.empirical_L <= cert.theoretical_L * (1.0 + 1e-6), \
                f"fixture {i}, eps {eps}: {cert.empirical_L} > {cert.theoretical_L}"


def test_criterion_04_boundary_blowup_counterexample():
    report = counterexample_suite(seed=SEED)["sqrt_boundary"]
    assert report["reproduced"]
    seen = {probe["n"]: probe for probe in report["probes"]}
    for n in (4, 16, 64, 256):
        assert seen[n]["quotient"] >= math.sqrt(n) / 2.0


def test_criterion_05_regularity_of_convex_functions():
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        b0 = rng.standard_normal((n, n))
        a = b0.T @ b0 / n
        b = rng.standard_normal(n)
        c = rng.uniform(0.0, 2.0, n)

        def fx(x, a=a, b=b, c=c):
            x = np.asarray(x, float)
            return float(x @ a @ x + b @ x + c @ np.abs(x))

        f = ScalarFunction(fn=fx, domain=box(n, -10, 10, center=[0] * n),
                           convex=True, name="piecewise-quad")
        g = Gauge.of_set(box(n))
        x = rng.uniform(-1.0, 1.0, n)
        v = rng.standard_normal(n)
        v /= float(np.linalg.norm(v))
        one_sided = dir_deriv(f, x, v)
        generalized = gen_dir_deriv(f, x, v, g)
        assert abs(generalized - one_sided) <= 1e-5 * (1.0 + abs(one_sided))


def test_criterion_06_extraction():
    g = Gauge.of_set(box(2))
    dom = box(2, -5, 5, center=[0, 0])
    smooth = _expr_fn("x1^2 + x2^2", dom)
    kinked = _expr_fn("abs(x1) + x2^2", dom)
    cases = [(smooth, [0.3, -0.2]), (kinked, [0.0, 0.5])]
    for f, x in cases:
        for d in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-2.0, 0.5]):
            z = extract_subgradient(f, x, g, objective=d, seed=SEED)
            dd = dir_deriv(f, x, d)
            assert abs(float(z @ d) - dd) <= 1e-5 * (1.0 + abs(dd))
    support = subdifferential_hull(kinked, [0.0, 0.5], g, seed=SEED)
    first = np.sort(np.array(support.subgradients)[:, 0])
    assert abs(first[0] + 1.0) <= 1e-4 and abs(first[-1] - 1.0) <= 1e-4


def test_criterion_07_weighted_grid_demo():
    grid = WeightedGrid(1000)
    assert phi_l2(grid, grid.nodes) == 0.0
    assert float(np.max(np.abs(subdiff_l2(grid, grid.nodes)))) <= 1e-10

    f = make_function(grid)
    g = make_gauge(grid)
    t = grid.nodes
    states = (t + 0.2, t + 0.5, t - 0.4, t + 1.0, t + t * t + 0.3)
    for k, x in enumerate(states):
        closed = subdiff_l2(grid, x, representation="euclidean")
        z = extract_subgradient(f, x, g, objective=closed, seed=SEED)
        rel = float(np.linalg.norm(z - closed) / np.linalg.norm(closed))
        assert rel <= 1e-5, f"state {k}: relative error {rel}"

    reports = run_all(n=1000, seed=SEED)
    x0 = t + 0.5 * t * t
    phi0 = phi_l2(grid, x0)
    expected = {"exp_chain": math.exp(phi0), "sum": 1.0 + math.exp(phi0),
                "product": (1.0 + phi0) * math.exp(phi0)}
    for name, factor in expected.items():
        rep = reports[name]
        assert rep["passed"] and rep["max_rel_error"] <= 1e-5
        assert abs(rep["factor"] - factor) <= 1e-5 * (1.0 + abs(factor))
    assert abs(run_example("lebourg", n=1000)["alpha"] - 0.5) <= 1e-6


def test_criterion_08_calculus_rules():
    dom = box(2, -5, 5, center=[0, 0])
    g = Gauge.of_set(box(2))
    f1 = _expr_fn("abs(x1) + x2^2", dom)
    f2 = _expr_fn("x1^2 + abs(x2)", dom)
    x = [0.3, 0.5]

    r = verify_sum_rule(f1, f2, x, g, seed=SEED)
    assert r.inclusion_holds and r.verdict == "equality_holds"
    r = verify_product_rule(f1, f2, x, g, seed=SEED)
    assert r.inclusion_holds
    r = verify_product_rule(_expr_fn("x1^2 + x2^2", dom),
                            _expr_fn("x1 + 2*x2 + 1", dom), x, g, seed=SEED)
    assert r.verdict == "equality_holds"
    r = verify_chain_rule_2(math.exp, f1, [0.0, 0.5], g, composite_convex=True, seed=SEED)
    assert r.inclusion_holds and r.verdict == "equality_holds"
    r = verify_max_rule([_expr_fn("x1 + x2", dom), _expr_fn("-x1 + x2", dom)],
                        [0.0, 0.3], g, seed=SEED)
    assert r.inclusion_holds and r.verdict == "equality_holds"
    g1 = Gauge.of_set(interval(-1.0, 1.0))
    r = verify_partial_rule(f1, [0.0, 0.4], g1, g1, seed=SEED)
    assert r.inclusion_holds and r.verdict == "equality_holds"
    # strict inclusion: the hull of active subdifferentials overshoots
    r = verify_max_rule([_expr_fn("abs(x1)", dom),
                         _expr_fn("-abs(x2)", dom, convex=False)],
                        [0.0, 0.0], g, seed=SEED)
    assert r.inclusion_holds and r.verdict == "inclusion_holds"
    assert r.max_equality_gap > r.tol


def test_criterion_09_fermat_and_kernel_blindness():
    dom = box(2, -5, 5, center=[0, 0])
    g = Gauge.of_set(box(2))
    fixtures = [
        (_expr_fn("x1^2 + x2^2", dom), [0.0, 0.0]),
        (_expr_fn("abs(x1) + abs(x2)", dom), [0.0, 0.0]),
        (_expr_fn("(x1 - 0.3)^2 + abs(x2 + 0.2)", dom), [0.3, -0.2]),
    ]
    for f, minimizer in fixtures:
        assert fermat_check(f, minimizer, g, seed=SEED)["is_critical"]
    dom1 = box(1, -5, 5, center=[0])
    f1 = _expr_fn("abs(x1 - 0.5)", dom1)
    assert fermat_check(f1, [0.5], Gauge.of_set(box(1)), seed=SEED)["is_critical"]

    segment = ConvexSet(2, Vertices(np.array([[-1.0, 0.0], [1.0, 0.0]])),
                        center=np.zeros(2))
    gs = Gauge.of_set(segment)
    f = _expr_fn("x1^2 + x2^2", dom)
    for y in (-1.0, 0.0, 0.7):
        assert fermat_check(f, [0.0, y], gs, seed=SEED)["is_critical"]
    assert f([0.0, 0.7]) > f([0.0, 0.0])


def test_criterion_10_determinism(tmp_path):
    from gaugecalc.geometry import set_to_json
    box_doc = json.dumps(set_to_json(box(2)))
    commands = [
        ["lipschitz", "--set", box_doc, "--fn", "x1^2 + x2^2",
         "--point", "[0, 0]", "--eps", "0.5", "--pairs", "500",
         "--seed", "42", "--convex"],
        ["subdiff", "--set", box_doc, "--fn", "abs(x1) + x2^2",
         "--point", "[0.0, 0.5]", "--seed", "42", "--convex"],
        ["counterexamples", "--seed", "42"],
    ]
    for k, cmd in enumerate(commands):
        paths = [tmp_path / f"run_{k}_{j}.json" for j in (0, 1)]
        for path in paths:
            assert cli_main(cmd + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
