"""Seeded query generators for the three benchmark workloads, each with an
independent reference check.

Query ``i`` of a workload is generated from the seed and ``i`` alone (see
:class:`Draws`), so a seed fixes every input and no two queries of a run
share one.  Each workload cycles through a fixed schedule of query kinds, so
the mix is the same for every seed.

A check returns a :class:`Verdict`.  A query *fails* when it raises, returns
an unexpected exit code, or misses its reference at the tolerance the program
states for that output.  A failed answer is also *wrong* when it contradicts
the reference where the program claims exactness: ``inf`` where a finite
value is due, a wrong stationarity verdict on the convex path, a value off by
more than :data:`GROSS` relative.  Generalized derivatives and rule verdicts
are sampled by the program's own account, so their misses fail without being
wrong.  An answer within what the program states but outside a stricter
target the benchmark also checks is a *shortfall*: the query succeeds and the
miss is reported with the known defects.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial import ConvexHull

#: the gauge tolerance every certify query passes as ``--tol``
GAUGE_TOL = 1e-9
#: relative accuracy extract_subgradient states for attained support values
SUPPORT_TOL = 1e-5
#: lebourg_point's default tolerance on the secant pairing
LEBOURG_TOL = 1e-6
#: an answer this far off its reference is wrong, not merely imprecise
GROSS = 1e-6


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""
    error: float = 0.0  # the measured miss, for the failure report
    short: bool = False  # ok, but misses a stricter target than the program states

    def __post_init__(self):
        self.ok, self.wrong, self.error = bool(self.ok), bool(self.wrong), float(self.error)


PASS = Verdict(True)


def _miss(reason: str, error: float = 0.0, wrong: bool = False) -> Verdict:
    return Verdict(False, wrong, reason, error)


def _shortfall(reason: str, error: float) -> Verdict:
    return Verdict(True, False, reason, error, short=True)


class Draws:
    """The random draws of query ``i``: ``num`` from the seed and ``i`` picks
    the numbers; ``shape`` from ``i`` modulo the workload's block picks sizes,
    dimensions, terms and branches.  What a query costs then hardly depends on
    the seed, and every block of a run holds the same shapes."""

    def __init__(self, seed: int, i: int, block: int):
        self.num = np.random.default_rng([seed, i + 1])
        self.shape = np.random.default_rng([0x5EED, i % block + 1])

    def same_shape(self) -> "Draws":
        """These draws with the shape every query of its kind shares."""
        shared = copy.copy(self)
        shared.shape = np.random.default_rng([0x5EED, 0])
        return shared


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    convex: bool = False      # carries --convex
    generalized: bool = False  # takes the gen_dir_deriv path


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def num(v: float) -> str:
    """Shortest round-tripping literal the expression parser accepts."""
    return repr(float(v))


def vec(v) -> str:
    return json.dumps([float(t) for t in v])


def hs_doc(normals, offsets, center) -> str:
    return json.dumps({
        "dim": int(np.asarray(normals).shape[1]),
        "repr": {"halfspaces": [{"normal": [float(t) for t in a], "offset": float(b)}
                                for a, b in zip(normals, offsets)]},
        "center": [float(t) for t in center]})


def vx_doc(points, center) -> str:
    return json.dumps({"dim": int(np.asarray(points).shape[1]),
                       "repr": {"vertices": [[float(t) for t in p] for p in points]},
                       "center": [float(t) for t in center]})


def box_rows(n: int, lo, hi):
    normals = np.vstack([np.eye(n), -np.eye(n)])
    offsets = np.concatenate([np.broadcast_to(hi, n), -np.broadcast_to(lo, n)])
    return normals, offsets


def ratio_gauge(normals, offsets, center, x) -> float:
    """Closed-form gauge of {a.y <= b} about ``center``: max a.x / (b - a.c)."""
    num_ = normals @ x
    den = offsets - normals @ center
    scale = 1e-12 * max(1.0, float(np.linalg.norm(x)))
    up = num_ > scale
    if np.any(den[up] <= 1e-12):
        return math.inf
    return float(np.max(num_[up] / den[up])) if np.any(up) else 0.0


def hull_gauge(points, center, x) -> float:
    """Vertex-set gauge from the facet form of the hull, then the ratio."""
    hull = ConvexHull(points)
    return ratio_gauge(hull.equations[:, :-1], -hull.equations[:, -1], center, x)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def check_value(kind: str, value, ref: float, tol: float) -> Verdict:
    """Compare a reported gauge-like value (``"inf"`` allowed) to a reference."""
    if ref == math.inf or value == "inf":
        if ref == math.inf and value == "inf":
            return PASS
        return _miss(f"{kind}: finite/inf mismatch", wrong=True)
    err = rel_err(float(value), ref)
    if err <= tol:
        return PASS
    return _miss(f"{kind}: misses --tol {tol:g}", err, wrong=err > GROSS)


def unit(rng, n: int) -> np.ndarray:
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def run_cli(argv: list) -> tuple:
    """Issue one CLI query in-process; returns (exit code, stdout, stderr)."""
    from gaugecalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_json(kind: str, result):
    """Parsed JSON of a CLI result, or a failing verdict."""
    rc, out, err = result
    if rc == 1 and kind.startswith("verify/"):
        return None, _miss(f"{kind}: inclusion reported violated")
    if rc != 0:
        message = re.sub(r"\d+", "#", (err.strip().splitlines() or [""])[0])
        return None, _miss(f"{kind}: exit {rc} ({message})")
    return json.loads(out), None


# ---------------------------------------------------------------------------
# certify: gauge, lipschitz, core and counterexamples through the CLI
# ---------------------------------------------------------------------------


def _gauge_query(kind: str, set_doc: str, x, ref: float, span_dim: int,
                 kernel_dim: int) -> Query:
    argv = ["gauge", "--set", set_doc, "--point", vec(x), "--tol", repr(GAUGE_TOL)]

    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        if (doc["span_dim"], doc["kernel_dim"]) != (span_dim, kernel_dim):
            return _miss(f"{kind}: span/kernel dims", wrong=True)
        return check_value(kind, doc["value"], ref, GAUGE_TOL)

    return Query(kind, lambda: run_cli(argv), check)


def _box_gauge(d) -> Query:
    rng = d.num
    n = int(d.shape.integers(1, 9))
    lo = -rng.uniform(0.5, 2.0, n)
    hi = rng.uniform(0.5, 2.0, n)
    c = lo + (hi - lo) * rng.uniform(0.3, 0.7, n)
    a, b = box_rows(n, lo, hi)
    x = rng.uniform(-3.0, 3.0, n)
    return _gauge_query("gauge/box", hs_doc(a, b, c), x, ratio_gauge(a, b, c, x), n, 0)


def _polytope_rows(rng, n: int):
    """Criterion-03 polytope {|r (y - p)|_inf <= 1} as halfspaces."""
    r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    while abs(np.linalg.det(r)) < 1e-2:
        r = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    p = rng.uniform(-0.5, 0.5, n)
    return r, p, np.vstack([r, -r]), np.concatenate([1.0 + r @ p, 1.0 - r @ p])


def _polytope_gauge(d) -> Query:
    rng = d.num
    n = int(d.shape.integers(2, 7))
    _, p, a, b = _polytope_rows(rng, n)
    x = rng.uniform(-2.0, 2.0, n)
    return _gauge_query("gauge/polytope", hs_doc(a, b, p), x,
                        ratio_gauge(a, b, p, x), n, 0)


def _ray_or_slab_gauge(d, cycle: int) -> Query:
    rng = d.num
    if cycle % 2 == 0:
        lo = rng.uniform(0.5, 3.0)
        v = rng.uniform(0.1, 6.0) * (1 if rng.random() < 0.5 else -1)
        ref = 0.0 if v > 0 else -v / lo
        doc = hs_doc([[-1.0]], [lo], [0.0])
        return _gauge_query("gauge/ray", doc, [v], ref, 1, 0)
    n = int(d.shape.integers(2, 4))
    u = unit(rng, n)
    h = rng.uniform(0.3, 2.0)
    x = rng.uniform(-2.0, 2.0, n)
    on_kernel = d.shape.random() < 0.5
    if on_kernel:
        x = x - (u @ x) * u
    ref = 0.0 if on_kernel else abs(u @ x) / h
    doc = hs_doc([u, -u], [h, h], np.zeros(n))
    return _gauge_query("gauge/slab-kernel" if on_kernel else "gauge/slab",
                        doc, x, ref, n, n - 1)


def _segment(rng, n: int = 2):
    u = unit(rng, n)
    c = rng.uniform(-0.5, 0.5, n)
    a, b = rng.uniform(0.5, 2.0, 2)
    return u, c, a, b, np.array([c - a * u, c + b * u])


def _flat_triangle(rng):
    """A triangle in a random plane of R^3: (orthonormal 3x2 basis, 2-D points)."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    ang = rng.uniform(0.0, 2 * np.pi) + np.array([0.0, 2.1, 4.2]) + rng.uniform(-0.3, 0.3, 3)
    pts2 = np.c_[np.cos(ang), np.sin(ang)] * rng.uniform(0.6, 1.5, (3, 1))
    return q[:, :2], q[:, 2], pts2


def _vertex_offspan(d, cycle: int) -> Query:
    rng = d.num
    if cycle % 2 == 0:
        u, c, _, _, pts = _segment(rng)
        x = rng.uniform(0.2, 2.0) * np.array([-u[1], u[0]]) + rng.uniform(-1, 1) * u
        return _gauge_query("gauge/segment-offspan", vx_doc(pts, c), x, math.inf, 1, 0)
    basis, normal, pts2 = _flat_triangle(rng)
    c = basis @ pts2.mean(axis=0)
    x = basis @ rng.uniform(-0.5, 0.5, 2) + rng.uniform(0.2, 1.0) * normal
    return _gauge_query("gauge/triangle-offspan", vx_doc(pts2 @ basis.T, c), x,
                        math.inf, 2, 0)


def _polygon_gauge(d) -> Query:
    rng = d.num
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, 6))
    pts = np.c_[np.cos(ang), np.sin(ang)] * rng.uniform(0.6, 1.4, (6, 1))
    pts += rng.uniform(-0.5, 0.5, 2)
    hull = ConvexHull(pts)
    c = pts[hull.vertices].mean(axis=0)
    x = unit(rng, 2) * rng.uniform(0.2, 2.0)
    return _gauge_query("gauge/polygon", vx_doc(pts, c), x, hull_gauge(pts, c, x), 2, 0)


def _polytope3_gauge(d) -> Query:
    rng = d.num
    pts = rng.standard_normal((int(d.shape.integers(8, 13)), 3))
    c = pts.mean(axis=0)
    x = unit(rng, 3) * rng.uniform(0.2, 2.0)
    return _gauge_query("gauge/polytope3", vx_doc(pts, c), x, hull_gauge(pts, c, x), 3, 0)


def _vertex_onspan(d, cycle: int) -> Query:
    rng = d.num
    if cycle % 2 == 0:
        u, c, a, b, pts = _segment(rng)
        s = rng.uniform(0.2, 2.0) * (1 if rng.random() < 0.5 else -1)
        ref = s / b if s > 0 else -s / a
        return _gauge_query("gauge/segment", vx_doc(pts, c), s * u, ref, 1, 0)
    basis, _, pts2 = _flat_triangle(rng)
    y = unit(rng, 2) * rng.uniform(0.2, 2.0)
    c2 = pts2.mean(axis=0)
    return _gauge_query("gauge/triangle", vx_doc(pts2 @ basis.T, basis @ c2),
                        basis @ y, hull_gauge(pts2, c2, y), 2, 0)


class QuadForm:
    """Convex quadratic sum_k (B_k.(x - q))^2 / n + 0.2 |x - q|^2 as source and
    as an independent numpy evaluator."""

    def __init__(self, rng, n: int, q):
        self.b = np.round(rng.standard_normal((n, n)), 6)
        self.q = np.asarray(q, dtype=float)
        self.n = n

    def source(self) -> str:
        d = [f"(x{j + 1} - {num(self.q[j])})" for j in range(self.n)]
        rows = ["(" + " + ".join(f"{num(self.b[k, j])}*{d[j]}" for j in range(self.n)) + ")^2"
                for k in range(self.n)]
        ridge = " + ".join(f"0.2*{t}^2" for t in d)
        return f"({' + '.join(rows)})/{self.n} + {ridge}"

    def __call__(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.q
        return float(np.sum((self.b @ d) ** 2) / self.n + 0.2 * d @ d)


def _lipschitz_check(kind: str, eps: float, pairs: int, m_ref: float, exact_m: bool):
    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        m, emp, theo = doc["M"], doc["empirical_L"], doc["theoretical_L"]
        if doc["pairs"] != pairs or doc["epsilon"] != eps:
            return _miss(f"{kind}: echo mismatch", wrong=True)
        if rel_err(theo, m * (1 + eps) / (1 - eps)) > GAUGE_TOL:
            return _miss(f"{kind}: bound arithmetic", wrong=True)
        if exact_m and rel_err(m, m_ref) > GAUGE_TOL:
            return _miss(f"{kind}: M differs from the vertex maximum",
                         rel_err(m, m_ref), wrong=True)
        if m > m_ref * (1 + GAUGE_TOL) + GAUGE_TOL:
            return _miss(f"{kind}: M exceeds the true supremum", wrong=True)
        if emp > theo * (1 + GAUGE_TOL):
            # M is sampled on halfspace sets, by the program's own account
            return _miss(f"{kind}: empirical_L > theoretical_L",
                         emp / theo - 1.0, wrong=exact_m)
        return PASS

    return check


def _lipschitz_polytope(d) -> Query:
    rng = d.num
    n = int(d.shape.integers(2, 5))
    r, p, a, b = _polytope_rows(rng, n)
    f = QuadForm(rng, n, p + rng.uniform(-0.3, 0.3, n))
    eps = float(rng.choice([0.25, 0.5, 0.9]))
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n))).reshape(n, -1).T
    m_true = max(0.0, max(f(p + np.linalg.solve(r, s)) for s in signs) - f(p))
    argv = ["lipschitz", "--set", hs_doc(a, b, p), "--fn", f.source(), "--point", vec(p),
            "--eps", repr(eps), "--pairs", "1000", "--convex", "--seed",
            str(int(rng.integers(1 << 30)))]
    return Query("lipschitz/polytope", lambda: run_cli(argv),
                 _lipschitz_check("lipschitz/polytope", eps, 1000, m_true, False),
                 convex=True)


def _lipschitz_vertices(d) -> Query:
    rng = d.num
    ang = np.sort(rng.uniform(0.0, np.pi, 3))
    half = np.c_[np.cos(ang), np.sin(ang)] * rng.uniform(0.6, 1.4, (3, 1))
    p = rng.uniform(-0.5, 0.5, 2)
    pts = np.vstack([p + half, p - half])
    f = QuadForm(rng, 2, p + rng.uniform(-0.3, 0.3, 2))
    eps = float(np.round(rng.uniform(0.3, 0.8), 6))
    m_ref = max(0.0, max(f(v) for v in pts) - f(p))
    argv = ["lipschitz", "--set", vx_doc(pts, p), "--fn", f.source(), "--point", vec(p),
            "--eps", repr(eps), "--pairs", "10", "--convex", "--seed",
            str(int(rng.integers(1 << 30)))]
    return Query("lipschitz/vertices", lambda: run_cli(argv),
                 _lipschitz_check("lipschitz/vertices", eps, 10, m_ref, True),
                 convex=True)


def _core(d, dim: int) -> Query:
    """Criterion-02 sublevel core of a shifted quadratic on a box."""
    rng = d.num
    kind = f"core/{dim}d"
    lo = -1.0 - rng.uniform(0, 2)
    hi = 1.0 + rng.uniform(0, 2)
    mid = (lo + hi) / 2
    a, b = box_rows(dim, lo, hi)
    shift = np.round(rng.uniform(-0.3, 0.3, dim), 6)
    src = " + ".join(f"(x{j + 1} - {num(shift[j])})^2" for j in range(dim))
    x0 = np.round(rng.uniform(-0.2, 0.2, dim), 6)

    def f(x):
        return float(np.sum((np.asarray(x) - shift) ** 2))

    level = max(f(x0), f(np.full(dim, mid))) + 1.0
    argv = ["core", "--set", hs_doc(a, b, np.full(dim, mid)), "--fn", src,
            "--point", vec(x0), "--level", repr(level), "--convex"]

    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        if doc["x0"] != [float(t) for t in x0] or doc["level"] != level:
            return _miss(f"{kind}: echo mismatch", wrong=True)
        for key in ("symmetric", "span_equal", "base_in_relative_interior"):
            if doc[key] is not True:
                return _miss(f"{kind}: {key} is false", wrong=True)
        return PASS

    return Query(kind, lambda: run_cli(argv), check, convex=True)


def _counterexamples(d) -> Query:
    rng = d.num
    argv = ["counterexamples", "--seed", str(int(rng.integers(1 << 30)))]

    def check(result):
        doc, bad = cli_json("counterexamples", result)
        if bad:
            return bad
        if not all(sec["reproduced"] for sec in doc.values()):
            return _miss("counterexamples: not reproduced", wrong=True)
        for probe in doc["sqrt_boundary"]["probes"]:
            # |phi(1) - phi(1 - 1/n)| * n with phi(u) = -sqrt(1 - |u|)
            if rel_err(probe["quotient"], math.sqrt(probe["n"])) > GAUGE_TOL:
                return _miss("counterexamples: boundary quotient", wrong=True)
        asym = doc["asymmetric_set"]
        if abs(asym["gauge_on_ray"]) > GAUGE_TOL or \
                rel_err(asym["gauge_negative_side"], 1.0) > GAUGE_TOL:
            return _miss("counterexamples: ray gauge", wrong=True)
        blind = doc["kernel_blind_stationarity"]
        if not blind["fermat"]["is_critical"] or rel_err(blind["value_at_probe"], 0.49) > 1e-12:
            return _miss("counterexamples: kernel blindness", wrong=True)
        return PASS

    return Query("counterexamples", lambda: run_cli(argv), check)


def _certify_schedule(d, cycle: int, slot: int) -> Query:
    """Five cheap queries, three 1-D cores and five heavy queries per cycle,
    so ``query_p50_ms`` falls in the middle of the 1-D core band."""
    return [
        lambda: _box_gauge(d),
        lambda: _core(d, 1),
        lambda: _polytope_gauge(d),
        lambda: _ray_or_slab_gauge(d, cycle),
        lambda: _core(d, 2),
        lambda: _vertex_offspan(d, cycle),
        lambda: _core(d, 1),
        lambda: _lipschitz_vertices(d),
        lambda: _counterexamples(d),
        lambda: _core(d, 2),
        lambda: _core(d, 3),
        lambda: _core(d, 1),
        lambda: _core(d, 2),
    ][slot]()


#: certify queries that fail at this commit: every on-span vertex gauge
#: misses its --tol, and lipschitz on a polytope can certify a bound below
#: the empirical slope (one query in a few hundred)
_CERTIFY_DEFECTS = (_polygon_gauge, _polytope3_gauge, lambda d: _vertex_onspan(d, 0),
                    lambda d: _vertex_onspan(d, 1), _lipschitz_polytope)


# ---------------------------------------------------------------------------
# calculus: subdiff, fermat, lebourg and verify at kinks through the CLI
# ---------------------------------------------------------------------------


class Separable:
    """f(x) = sum_j c_j |x_j - a_j| over kinked coordinates plus
    q_j (x_j - b_j)^2 over smooth ones, the absolute values printed with abs,
    max or min so the parser's variadic calls are exercised.  Its (Clarke)
    subdifferential is a box: at a kink of coordinate j the interval
    [-|c_j|, |c_j|], elsewhere the point c_j sign(x_j - a_j) or
    2 q_j (x_j - b_j)."""

    def __init__(self, d, n: int, convex: bool = True, first_var: int = 0):
        rng = d.num
        self.n = n
        self.kinked = d.shape.random(n) < 0.5
        self.kinked[d.shape.integers(n)] = True
        self.c = np.where(self.kinked, np.round(rng.uniform(0.3, 2.0, n), 6), 0.0)
        if not convex:
            self.c *= np.where(d.shape.random(n) < 0.5, -1.0, 1.0)
        self.a = np.round(rng.uniform(-0.5, 0.5, n), 6)
        self.q = np.where(self.kinked, 0.0, np.round(rng.uniform(0.2, 1.5, n), 6))
        self.b = np.round(rng.uniform(-0.5, 0.5, n), 6)
        self.form = d.shape.integers(0, 3, n)
        self.first_var = first_var

    def source(self) -> str:
        terms = []
        for j in range(self.n):
            v = f"x{self.first_var + j + 1}"
            if not self.kinked[j]:
                terms.append(f"+ {num(self.q[j])}*({v} - {num(self.b[j])})^2")
                continue
            u, w = f"{v} - {num(self.a[j])}", f"{num(self.a[j])} - {v}"
            absval = [f"abs({u})", f"max({u}, {w})", f"-min({u}, {w})"][self.form[j]]
            terms.append(f"{'-' if self.c[j] < 0 else '+'} {num(abs(self.c[j]))}*{absval}")
        return " ".join(terms).lstrip("+ ")

    def _own(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)[self.first_var:self.first_var + self.n]

    def __call__(self, x) -> float:
        x = self._own(x)
        return float(np.sum(self.c * np.abs(x - self.a) + self.q * (x - self.b) ** 2))

    def box(self, x, kink_tol: float = 0.0):
        """Coordinate bounds of the subdifferential at x."""
        x = self._own(x)
        kink = self.kinked & (np.abs(x - self.a) <= kink_tol)
        point = self.c * np.sign(x - self.a) + 2.0 * self.q * (x - self.b)
        c = np.abs(self.c)
        return np.where(kink, -c, point), np.where(kink, c, point)

    def support(self, x, v) -> float:
        lo, hi = self.box(x)
        v = np.asarray(v, dtype=float)
        return float(np.sum(np.where(v >= 0, hi * v, lo * v)))

    def kink_point(self, d) -> np.ndarray:
        """A point on the kinks of a random nonempty subset of the kinked
        coordinates; every other coordinate at least 0.05 from its kink or
        from the minimizer of its quadratic."""
        on = self.kinked & (d.shape.random(self.n) < 0.5)
        on[d.shape.choice(np.flatnonzero(self.kinked))] = True
        centre = np.where(self.kinked, self.a, self.b)
        off = centre + d.num.choice([-1.0, 1.0], self.n) * d.num.uniform(0.05, 0.8, self.n)
        return np.where(on, self.a, np.round(off, 6))

    def critical_point(self) -> np.ndarray:
        """Every kink hit and every quadratic at its minimum: 0 is a subgradient."""
        return np.where(self.kinked, self.a, self.b)


def in_box(z, lo, hi) -> float:
    """Largest relative violation of lo <= z <= hi."""
    z = np.asarray(z, dtype=float)
    over = np.maximum(lo - z, z - hi) / (1.0 + np.abs(z))
    return float(max(0.0, np.max(over)))


def _gauge_set(d, n: int) -> str:
    rng = d.num
    if d.shape.random() < 0.5:
        a, b = box_rows(n, -1.0, 1.0)
        return hs_doc(a, b, np.zeros(n))
    _, p, a, b = _polytope_rows(rng, n)
    return hs_doc(a, b, p)


def _flags(convex: bool, d) -> list:
    return ["--seed", str(int(d.num.integers(1 << 30)))] + (["--convex"] if convex else [])


def _subdiff(d, n: int, convex: bool) -> Query:
    f = Separable(d, n, convex=convex)
    x = f.kink_point(d)
    kind = "subdiff" if convex else "subdiff/generalized"
    argv = ["subdiff", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--point", vec(x)] + _flags(convex, d)

    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        lo, hi = f.box(x)
        grads = np.array(doc["subgradients"])
        worst = max(in_box(z, lo, hi) for z in grads)
        for v, s in zip(doc["directions"], doc["support_values"]):
            h = f.support(x, v)
            attained = float(np.max(grads @ np.asarray(v)))
            worst = max(worst, abs(s - h) / (1 + abs(h)), abs(attained - h) / (1 + abs(h)))
        if worst > SUPPORT_TOL:
            return _miss(f"{kind}: support misses the exact subdifferential",
                         worst, wrong=convex and worst > 100 * SUPPORT_TOL)
        return PASS

    return Query(kind, lambda: run_cli(argv), check, convex=convex,
                 generalized=not convex)


def _fermat(d, n: int, convex: bool) -> Query:
    f = Separable(d, n, convex=convex)
    x = f.critical_point() if d.shape.random() < 0.5 else f.kink_point(d)
    axes = np.vstack([np.eye(n), -np.eye(n)])
    ref_min = min(f.support(x, v) for v in axes)
    kind = "fermat" if convex else "fermat/generalized"
    argv = ["fermat", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--point", vec(x)] + _flags(convex, d)

    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        if doc["is_critical"] != (ref_min >= 0.0):
            return _miss(f"{kind}: wrong stationarity verdict", wrong=convex)
        h = f.support(x, doc["worst_direction"])
        err = abs(doc["min_derivative"] - h) / (1 + abs(h))
        if doc["min_derivative"] > ref_min + SUPPORT_TOL * (1 + abs(ref_min)):
            return _miss(f"{kind}: missed a descent axis", wrong=convex)
        if err > SUPPORT_TOL:
            return _miss(f"{kind}: min_derivative misses the exact derivative", err,
                         wrong=convex and err > 100 * SUPPORT_TOL)
        return PASS

    return Query(kind, lambda: run_cli(argv), check, convex=convex,
                 generalized=not convex)


def _lebourg(d, n: int, convex: bool) -> Query:
    rng = d.num
    f = Separable(d, n, convex=convex)
    x = np.round(rng.uniform(-1.0, 1.0, n), 6)
    y = np.round(rng.uniform(-1.0, 1.0, n), 6)
    while np.linalg.norm(y - x) < 0.3:
        y = np.round(rng.uniform(-1.0, 1.0, n), 6)
    kind = "lebourg" if convex else "lebourg/generalized"
    argv = ["lebourg", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--point", vec(x), "--point2", vec(y)] + _flags(convex, d)

    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        alpha, z, zeta = doc["alpha"], np.array(doc["point"]), np.array(doc["zeta"])
        if not 0.0 <= alpha <= 1.0 or \
                np.max(np.abs(z - (alpha * x + (1 - alpha) * y))) > 1e-9:
            return _miss(f"{kind}: witness off the chord", wrong=True)
        target = f(y) - f(x)
        gap = abs(float(zeta @ (y - x)) - target) / (1 + abs(target))
        lo, hi = f.box(z, kink_tol=1e-5)
        off = in_box(zeta, lo, hi)
        if gap > LEBOURG_TOL:
            return _miss(f"{kind}: secant pairing misses", gap,
                         wrong=convex and gap > 1e-3)
        if off > SUPPORT_TOL:
            return _miss(f"{kind}: zeta outside the exact subdifferential", off,
                         wrong=convex and off > 100 * SUPPORT_TOL)
        return PASS

    return Query(kind, lambda: run_cli(argv), check, convex=convex,
                 generalized=not convex)


def _rule_check(kind: str, extra: Optional[Callable[[dict], Verdict]] = None):
    """Inclusion is a theorem for every rule fixture: exit 0 is required."""

    def check(result):
        doc, bad = cli_json(kind, result)
        if bad:
            return bad
        if doc["verdict"] not in ("equality_holds", "inclusion_holds"):
            return _miss(f"{kind}: exit 0 with verdict {doc['verdict']}", wrong=True)
        return extra(doc) if extra else PASS

    return check


def _verify_sum(d, n: int) -> Query:
    f, g = Separable(d, n), Separable(d, n)
    x = f.kink_point(d)
    # also hit some of g's kinks, where that keeps clear of f's
    clear = ~f.kinked | (np.abs(g.a - f.a) >= 0.05)
    x = np.where(g.kinked & clear & (d.shape.random(n) < 0.5), g.a, x)
    argv = ["verify", "sum", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--fn2", g.source(), "--point", vec(x)] + _flags(True, d)

    def lhs_inside(doc):
        lo1, hi1 = f.box(x)
        lo2, hi2 = g.box(x)
        off = max(in_box(z, lo1 + lo2, hi1 + hi2)
                  for z in doc["details"]["lhs_vertices"])
        if off > SUPPORT_TOL:
            return _miss("verify/sum: lhs vertex outside the exact subdifferential", off,
                         wrong=off > 100 * SUPPORT_TOL)
        return PASS

    return Query("verify/sum", lambda: run_cli(argv), _rule_check("verify/sum", lhs_inside),
                 convex=True)


def _verify_max(d, n: int) -> Query:
    rng = d.num
    f = Separable(d, n)
    x = f.kink_point(d)
    w = np.round(rng.uniform(-1.0, 1.0, n), 6)
    tie = d.shape.random() < 0.5
    beta = f(x) - float(w @ x) - (0.0 if tie else 0.5)
    src2 = " + ".join(f"{num(w[j])}*x{j + 1}" for j in range(n)) + f" + {num(beta)}"
    argv = ["verify", "max", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--fn2", src2, "--point", vec(x)] + _flags(True, d)

    def active(doc):
        vals = doc["details"]["values"]
        if rel_err(vals[0], f(x)) > 1e-12 or \
                rel_err(vals[1], float(w @ x) + beta) > 1e-12:
            return _miss("verify/max: piece values", wrong=True)
        if doc["details"]["active_indices"] != ([0, 1] if tie else [0]):
            return _miss("verify/max: active set", wrong=True)
        return PASS

    return Query("verify/max", lambda: run_cli(argv), _rule_check("verify/max", active),
                 convex=True)


def _verify_partial(d) -> Query:
    n1 = int(d.shape.integers(1, 3))
    f1, f2 = Separable(d, n1), Separable(d, 1, first_var=n1)
    x = np.concatenate([f1.kink_point(d), f2.kink_point(d)])
    a1, b1 = box_rows(n1, -1.0, 1.0)
    a2, b2 = box_rows(1, -1.0, 1.0)
    argv = ["verify", "partial", "--set", hs_doc(a1, b1, np.zeros(n1)),
            "--set2", hs_doc(a2, b2, np.zeros(1)),
            "--fn", f"{f1.source()} + {f2.source()}", "--point", vec(x)] + _flags(True, d)
    return Query("verify/partial", lambda: run_cli(argv), _rule_check("verify/partial"),
                 convex=True)


def _verify_chain2(d, n: int) -> Query:
    f = Separable(d, n)
    x = f.kink_point(d)
    outer = str(d.shape.choice(["exp", "square", "abs"]))
    u0 = f(x)
    slope = {"exp": (math.exp(u0),) * 2, "square": (2 * u0,) * 2,
             "abs": (math.copysign(1.0, u0),) * 2 if u0 != 0 else (-1.0, 1.0)}[outer]
    argv = ["verify", "chain2", "--outer", outer, "--set", _gauge_set(d, n),
            "--fn", f.source(), "--point", vec(x)] + _flags(True, d)

    def outer_range(doc):
        d = doc["details"]
        if rel_err(d["inner_value"], u0) > 1e-12:
            return _miss("verify/chain2: inner value", wrong=True)
        lo, hi = d["outer_slope_range"]
        err = max(0.0, (lo - slope[0]) / (1 + abs(slope[0])),
                  (slope[1] - hi) / (1 + abs(slope[1])))
        if err > SUPPORT_TOL:
            return _miss("verify/chain2: outer slope range misses the derivative", err,
                         wrong=err > 100 * SUPPORT_TOL)
        return PASS

    return Query("verify/chain2", lambda: run_cli(argv),
                 _rule_check("verify/chain2", outer_range), convex=True, generalized=True)


def _verify_chain1(d, n: int) -> Query:
    f = Separable(d, n)
    x = 2.0 * f.kink_point(d)  # the CLI's inner map is x -> x / 2
    argv = ["verify", "chain1", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--point", vec(x)] + _flags(True, d)

    def pullback(doc):
        lo, hi = f.box(x / 2)
        off = max(in_box(z, lo / 2, hi / 2)
                  for z in doc["details"]["rhs_vertices"])
        if off > SUPPORT_TOL:
            return _miss("verify/chain1: pullback vertex outside the exact set", off,
                         wrong=off > 100 * SUPPORT_TOL)
        return PASS

    return Query("verify/chain1", lambda: run_cli(argv),
                 _rule_check("verify/chain1", pullback), convex=True, generalized=True)


def _verify_product(d, n: int) -> Query:
    f, g = Separable(d, n), Separable(d, n)
    x = f.kink_point(d)
    argv = ["verify", "product", "--set", _gauge_set(d, n), "--fn", f.source(),
            "--fn2", g.source(), "--point", vec(x)] + _flags(True, d)

    def values(doc):
        d = doc["details"]
        if rel_err(d["f_at_x"], f(x)) > 1e-12 or rel_err(d["g_at_x"], g(x)) > 1e-12:
            return _miss("verify/product: factor values", wrong=True)
        return PASS

    return Query("verify/product", lambda: run_cli(argv),
                 _rule_check("verify/product", values), convex=True, generalized=True)


#: calculus queries that fail at this commit: verify partial always exits
#: 2, verify max and sum at points with several kinks can report violated
_CALCULUS_DEFECTS = (lambda d: _verify_sum(d, int(d.shape.integers(2, 4))),
                     lambda d: _verify_max(d, int(d.shape.integers(2, 4))),
                     _verify_partial)

#: the slowest generalized queries, one per four cycles: the rules whose
#: composite the CLI never flags convex, and subdiff without --convex
_SLOW = (_verify_chain2, _verify_chain1, _verify_product,
         lambda d, n: _subdiff(d, n, False))


def _calculus_schedule(d, cycle: int, slot: int) -> Query:
    """Seven --convex queries and three generalized ones per cycle.

    ``query_p50_ms`` falls in the middle of the band of the four convex
    subdiff queries: the three faster convex queries sit below it and the
    three generalized ones above.  The ten slowest
    queries of a run set ``query_tail_ms``: the few slow rules, then the
    upper part of the band of lebourg queries without --convex.  Those share
    one expression shape, so the band is narrow and the tail steady, and the
    tail stays on the generalized path when the slow rules speed up."""
    dim = int(d.shape.integers(2, 4))
    first, second = (_fermat, _lebourg) if cycle % 2 == 0 else (_lebourg, _fermat)
    slow = _SLOW[(cycle // 4) % 4] if cycle % 4 == 0 else None
    return [
        lambda: _subdiff(d, dim, True),
        lambda: first(d.same_shape(), 2, False),
        lambda: _fermat(d, dim, True),
        lambda: _subdiff(d, dim, True),
        lambda: _fermat(d, dim, True),
        lambda: second(d.same_shape(), 2, False),
        lambda: _lebourg(d, dim, True),
        lambda: _subdiff(d, dim, True),
        lambda: _subdiff(d, dim, True),
        lambda: slow(d, 2) if slow else _lebourg(d.same_shape(), 2, False),
    ][slot]()


# ---------------------------------------------------------------------------
# grid: Python-API extraction on the weighted grid, and the worked examples
# ---------------------------------------------------------------------------


def _grid_state(rng, t: np.ndarray) -> np.ndarray:
    while True:
        a, b, c = rng.uniform(-0.4, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 1.0)
        x = t + a + b * t + c * t * t
        if np.min(x) > -0.95 and np.linalg.norm(x - t) > 0.05 * math.sqrt(t.size):
            return x


def _grid_extract(d, lo: int, hi: int) -> Query:
    rng = d.num
    n = int(d.shape.integers(lo, hi))
    t = (np.arange(n) + 0.5) / n
    x = _grid_state(rng, t)
    closed = 2.0 * (x - t) / (n * t)  # Euclidean gradient of sum (x - t)^2 / (n t)
    seed = int(rng.integers(1 << 30))

    def run():
        import gaugecalc

        grid = gaugecalc.WeightedGrid(n)
        return gaugecalc.extract_subgradient(gaugecalc.make_function(grid), x,
                                             gaugecalc.make_gauge(grid),
                                             objective=closed, seed=seed)

    def check(z):
        # what extract_subgradient states: the support value in the objective
        # direction is attained to SUPPORT_TOL; here against the exact value
        z = np.asarray(z)
        h = float(np.linalg.norm(closed))
        attained = abs(float(z @ closed) / h - h) / (1.0 + h)
        if attained > SUPPORT_TOL:
            return _miss("grid/extract: support value misses the exact one", attained,
                         wrong=attained > 100 * SUPPORT_TOL)
        err = float(np.linalg.norm(z - closed) / h)
        if err > 100 * SUPPORT_TOL:
            return _miss("grid/extract: far from the closed form", err, wrong=True)
        if err > SUPPORT_TOL:
            # one coordinate's directional derivative can be off by more,
            # about one extraction in a hundred at n >= 700
            return _shortfall("grid/extract: misses the closed form by more than "
                              f"{SUPPORT_TOL:g} relative", err)
        return PASS

    return Query("grid/extract", run, check, convex=True)


def _grid_example(d, name: str) -> Query:
    rng = d.num
    n = int(d.shape.integers(200, 1001))
    seed = int(rng.integers(1 << 30))
    t = (np.arange(n) + 0.5) / n
    phi0 = float(np.sum((0.5 * t * t) ** 2 / t) / n)
    factor = {"exp_chain": math.exp(phi0), "sum": 1.0 + math.exp(phi0),
              "product": (1.0 + phi0) * math.exp(phi0)}.get(name)
    kind = f"grid/{name}"

    def run():
        from gaugecalc import weighted_l2

        return weighted_l2.run_example(name, n=n, seed=seed)

    def check(doc):
        if not doc["passed"]:
            return _miss(f"{kind}: example reports failure", wrong=True)
        if factor is not None:
            if rel_err(doc["factor"], factor) > 1e-9:
                return _miss(f"{kind}: factor", rel_err(doc["factor"], factor), wrong=True)
            if doc["max_rel_error"] > SUPPORT_TOL:
                return _miss(f"{kind}: directional check", doc["max_rel_error"], wrong=True)
        elif name == "inner_chain" and doc["agrees_with"] != "pullback":
            return _miss(f"{kind}: prefers the shortcut formula", wrong=True)
        elif name == "lebourg" and abs(doc["alpha"] - 0.5) > 1e-6:
            return _miss(f"{kind}: witness off the midpoint", wrong=True)
        return PASS

    return Query(kind, run, check, convex=True)


def _grid_schedule(d, cycle: int, slot: int) -> Query:
    """Three extractions and seven examples per cycle; two of the examples
    are cheaper and one dearer than exp_chain and sum, which appear twice,
    so ``query_p50_ms`` falls in their band."""
    return [
        lambda: _grid_example(d, "lebourg"),
        lambda: _grid_example(d, "exp_chain"),
        lambda: _grid_extract(d, 200, 450),
        lambda: _grid_example(d, "sum"),
        lambda: _grid_example(d, "product"),
        lambda: _grid_extract(d, 450, 750),
        lambda: _grid_example(d, "exp_chain"),
        lambda: _grid_example(d, "sum"),
        lambda: _grid_example(d, "inner_chain"),
        lambda: _grid_extract(d, 750, 1001),
    ][slot]()


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int                     # queries per schedule cycle
    schedule: Callable             # (rng, cycle index, slot) -> Query
    block_cycles: int              # cycles that hold each heavy query once
    trace_cycles: int              # leading cycles in the fixed traced set
    cover_cycles: int              # ... plus the first query of each kind here
    warmup_slot: int               # slot whose query warms the process up
    defects: tuple = ()            # builders of the queries that fail today
    defect_rounds: int = 0         # ... each issued this often after timing

    def query(self, seed: int, i: int) -> Query:
        draws = Draws(seed, i, self.cycle * self.block_cycles)
        return self.schedule(draws, i // self.cycle, i % self.cycle)

    def trace_set(self, seed: int) -> list:
        """The fixed query set of a traced run: the leading cycles, plus the
        first query of every kind they lack within the cover cycles."""
        queries, kinds = [], set()
        for i in range(self.cover_cycles * self.cycle):
            q = self.query(seed, i)
            if i < self.trace_cycles * self.cycle or q.kind not in kinds:
                queries.append(q)
                kinds.add(q.kind)
        return queries

    def defect_set(self, seed: int) -> list:
        """The queries that fail at this commit, kept out of the timed loop
        (whose operations must all succeed) and checked after it, so that
        every run still reports the failures."""
        count = len(self.defects)
        return [self.defects[k % count](Draws(seed, (1 << 20) + k, 1 << 30))
                for k in range(self.defect_rounds * count)]

    def warmup(self, seed: int) -> Query:
        return self.schedule(Draws(seed, -1, 1), 0, self.warmup_slot)


WORKLOADS = {
    "certify": Workload("certify", 13, _certify_schedule, block_cycles=2, trace_cycles=2,
                        cover_cycles=2, warmup_slot=1, defects=_CERTIFY_DEFECTS,
                        defect_rounds=2),
    "calculus": Workload("calculus", 10, _calculus_schedule, block_cycles=4,
                         trace_cycles=3, cover_cycles=16, warmup_slot=0,
                         defects=_CALCULUS_DEFECTS, defect_rounds=3),
    "grid": Workload("grid", 10, _grid_schedule, block_cycles=1, trace_cycles=2,
                     cover_cycles=2, warmup_slot=2),
}
