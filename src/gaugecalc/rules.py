"""Subdifferential calculus rules as sampled support-function inequalities.

A Clarke subdifferential is determined by its support function, the
(generalized) directional derivative ``f°(x; .)``, and each calculus rule is
an inequality between support functions (Clarke 1983, §2.3).  Each verifier
reads the composite's own support values on one direction fan and compares
them with the rule's combination of its parts' support values along the same
directions; no polytope is extracted for a verdict.  A rule report states
whether the inclusion (and possibly equality) holds up to tolerance on the
fan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConditionViolationError, DegenerateGaugeError
from .functions import ScalarFunction, max_of, product_of, sum_of
from .geometry import ConvexSet, Gauge, Oracle, Subspace, as_vector
from .subdiff import (
    _OBJECTIVE_FAN,
    _direction_fan,
    _reduced_basis,
    _signed,
    _support_values,
    _vertices,
    subdifferential_hull,
)

DEFAULT_RULE_TOL = 1e-4
#: fan size (per_dim, floor) of the comparison; max-rule activity tolerance
_RULE_FAN, _ACTIVE_TOL = (6, 24), 1e-9
#: gauge-domination check: sample radius around x, pairs, relative tolerance
_DOMINATION_RADIUS, _DOMINATION_PAIRS, _DOMINATION_TOL = 0.1, 64, 1e-6

#: a support function read on a whole fan: direction rows in, values out
Support = Callable[[np.ndarray], np.ndarray]


@dataclass
class RuleReport:
    rule: str
    verdict: str  # "equality_holds" | "inclusion_holds" | "violated"
    max_inclusion_gap: float  # max over directions of h_lhs - h_rhs
    max_equality_gap: float   # max over directions of |h_lhs - h_rhs|
    tol: float
    num_directions: int
    details: dict

    @property
    def inclusion_holds(self) -> bool:
        return self.verdict in ("equality_holds", "inclusion_holds")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "verdict": self.verdict,
            "max_inclusion_gap": float(self.max_inclusion_gap),
            "max_equality_gap": float(self.max_equality_gap),
            "tol": float(self.tol),
            "num_directions": int(self.num_directions),
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# support-function machinery
# ---------------------------------------------------------------------------


def _projected(g: Gauge, dirs: np.ndarray) -> np.ndarray:
    """Each row's quotient representative in the reduced space of g."""
    w = _reduced_basis(g)
    return np.array([w.project(v) for v in dirs])


def _support(f: ScalarFunction, x, g: Gauge, seed: int) -> Support:
    """Support function of f's subdifferential at x relative to g: the
    estimator the hulls read, along each row's quotient representative (so
    that it also accepts directions from outside the reduced space)."""
    return lambda dirs: _support_values(f, x, _projected(g, dirs), g, seed)


def _scaled(h: Support, c: float) -> Support:
    """Support function of c * S from the support function h of S; a
    negative c reflects the set."""
    if c >= 0.0:
        return lambda dirs: c * h(dirs)
    return lambda dirs: -c * h(-dirs)


def _compare(rule: str, dirs: np.ndarray, hl: np.ndarray, hr: np.ndarray,
             details: dict) -> RuleReport:
    """The verdict from both sides' support values on the rule fan."""
    gap = hl - hr
    gap_in = float(np.max(gap))
    gap_eq = float(np.max(np.abs(gap)))
    scale = max(1.0, float(np.max(np.abs(hl))), float(np.max(np.abs(hr))))
    tol = DEFAULT_RULE_TOL
    if gap_in <= tol * scale and gap_eq <= tol * scale:
        verdict = "equality_holds"
    elif gap_in <= tol * scale:
        verdict = "inclusion_holds"
    else:
        verdict = "violated"
    return RuleReport(rule=rule, verdict=verdict, max_inclusion_gap=float(gap_in),
                      max_equality_gap=float(gap_eq), tol=tol,
                      num_directions=len(dirs), details=details)


def _fan_for(g: Gauge, seed: int = 42) -> np.ndarray:
    """The rule fan: the direction fan of the reduced space, then +/- each
    normalized sum and difference of two basis vectors.  Its opening rows
    are the objectives :func:`subdifferential_hull` draws with the same
    seed."""
    w = _reduced_basis(g)
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span")
    dirs, _ = _direction_fan(w, _RULE_FAN, seed)
    pairs = [(w.basis[i] + s * w.basis[j]) / math.sqrt(2.0)
             for i in range(w.dim) for j in range(i + 1, w.dim) for s in (1.0, -1.0)]
    return np.vstack([dirs, _signed([np.array(pairs).reshape(-1, w.ambient_dim)])])


def _product_gauge(g1: Gauge, g2: Gauge) -> Gauge:
    """Gauge on the product space: max of the factor gauges."""
    n1, n2 = g1.dim, g2.dim
    n = n1 + n2

    def embed(basis: np.ndarray, offset: int, width: int) -> np.ndarray:
        out = np.zeros((basis.shape[0], n))
        out[:, offset:offset + width] = basis
        return out

    span = Subspace.from_spanning(
        np.vstack([embed(g1.span.basis, 0, n1), embed(g2.span.basis, n1, n2)]), n)
    kernel = Subspace.from_spanning(
        np.vstack([embed(g1.kernel.basis, 0, n1), embed(g2.kernel.basis, n1, n2)]), n)

    def fn(v):
        v = np.asarray(v, dtype=float)
        return max(g1.value(v[:n1]), g2.value(v[n1:]))

    return Gauge.from_callable(fn, span, kernel=kernel)


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


def verify_sum_rule(f: ScalarFunction, g: ScalarFunction, x, gauge: Gauge,
                    seed: int = 42) -> RuleReport:
    """Subdifferential of f + g against the Minkowski sum of the factors'.

    The report also lists the vertices of the sum's sampled subdifferential,
    read from the sum's support values on the rule fan: its opening rows
    are the objectives of :func:`subdifferential_hull`.
    """
    x = as_vector(x, f.domain.dim)
    dirs = _fan_for(gauge, seed)
    rows = _projected(gauge, dirs)
    hl = _support_values(sum_of(f, g), x, rows, gauge, seed)
    hr = _support(f, x, gauge, seed)(dirs) + _support(g, x, gauge, seed)(dirs)
    w = _reduced_basis(gauge)
    objectives, _ = _direction_fan(w, _OBJECTIVE_FAN, seed)
    lhs = _vertices(w, rows, hl, range(len(objectives)))
    return _compare("sum", dirs, hl, hr,
                    {"x": list(map(float, x)),
                     "lhs_vertices": [list(map(float, z)) for z in lhs]})


def verify_product_rule(f: ScalarFunction, g: ScalarFunction, x, gauge: Gauge,
                        seed: int = 42) -> RuleReport:
    """Subdifferential of f * g against f(x) dg + g(x) df.

    A negative factor value reflects its scaled summand.
    """
    x = as_vector(x, f.domain.dim)
    fx, gx = f(x), g(x)
    dirs = _fan_for(gauge, seed)
    h_g = _scaled(_support(g, x, gauge, seed), fx)
    h_f = _scaled(_support(f, x, gauge, seed), gx)
    return _compare("product", dirs, _support(product_of(f, g), x, gauge, seed)(dirs),
                    h_g(dirs) + h_f(dirs),
                    {"x": list(map(float, x)), "f_at_x": fx, "g_at_x": gx})


def _outer_derivative_range(g: Callable[[float], float], u0: float) -> tuple[float, float]:
    """The interval between the one-sided slopes of a scalar outer function
    at u0; for a g that is piecewise C^1 near u0 this interval is its Clarke
    subdifferential there."""
    t = 2.0 ** -23
    right = (g(u0 + t) - g(u0)) / t
    left = (g(u0) - g(u0 - t)) / t
    return min(left, right), max(left, right)


def verify_chain_rule_2(g: Callable[[float], float], h: ScalarFunction, x,
                        gauge: Gauge, composite_convex: bool = False,
                        seed: int = 42) -> RuleReport:
    """Scalar post-composition: d(g o h)(x) against [dg(h(x))] * dh(x).

    The outer multiplier interval lies between the one-sided slopes of g at
    h(x); the support function of a scaled set is convex in the multiplier,
    so the interval's endpoints bound it.
    """
    x = as_vector(x, h.domain.dim)
    comp = ScalarFunction(fn=lambda v: float(g(h(v))), domain=h.domain,
                          convex=composite_convex, name=f"outer({h.name})")
    u0 = h(x)
    a_lo, a_hi = _outer_derivative_range(g, u0)
    dirs = _fan_for(gauge, seed)
    h_inner = _support(h, x, gauge, seed)
    # each sign of the slopes reads the inner support function once; a
    # negative slope reflects the set
    signs = {1.0 if a >= 0.0 else -1.0 for a in (a_lo, a_hi)}
    sides = {s: h_inner(s * dirs) for s in signs}
    hr = np.max([abs(a) * sides[1.0 if a >= 0.0 else -1.0] for a in {a_lo, a_hi}], axis=0)
    return _compare("chain2", dirs, _support(comp, x, gauge, seed)(dirs), hr,
                    {"x": list(map(float, x)), "inner_value": float(u0),
                     "outer_slope_range": [float(a_lo), float(a_hi)]})


@dataclass
class InnerMap:
    """A differentiable map used as the inner factor of a pre-composition."""

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]  # (out_dim, in_dim)
    in_dim: int
    out_dim: int
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(as_vector(x, self.in_dim)), dtype=float)


def check_domination(inner: InnerMap, x, gauge_out: Gauge, gauge_in: Gauge,
                     seed: int = 42) -> None:
    """Sampled check that the inner map contracts the gauges near x:
    mu(g(u) - g(w)) <= p(u - w).  Raises with the witness pair on failure."""
    x = as_vector(x, inner.in_dim)
    rng = np.random.default_rng(seed)
    tol = _DOMINATION_TOL
    for _ in range(_DOMINATION_PAIRS):
        u = x + _DOMINATION_RADIUS * rng.standard_normal(inner.in_dim)
        w = x + _DOMINATION_RADIUS * rng.standard_normal(inner.in_dim)
        lhs = gauge_out.value(inner(u) - inner(w))
        rhs = gauge_in.value(u - w)
        if not math.isfinite(rhs):
            continue
        if lhs > rhs * (1.0 + tol) + tol:
            raise ConditionViolationError(
                f"gauge of the image difference ({lhs:.6g}) exceeds the gauge of "
                f"the argument difference ({rhs:.6g})", witness=(u, w))


def verify_chain_rule_1(f: ScalarFunction, inner: InnerMap, x, gauge_out: Gauge,
                        gauge_in: Gauge, seed: int = 42) -> RuleReport:
    """Pre-composition with a smooth map: d(f o g)(x) against
    {J(x)^T zeta : zeta in df(g(x))}, whose support function is
    v -> f°(g(x); J(x) v).

    Requires the gauge-domination hypothesis on the inner map, checked by
    sampling.  The report also lists the pulled-back vertices of the outer
    function's sampled subdifferential.
    """
    x = as_vector(x, inner.in_dim)
    check_domination(inner, x, gauge_out, gauge_in, seed=seed)
    radius = 10.0 * (1.0 + float(np.linalg.norm(x)))
    domain_x = ConvexSet(inner.in_dim,
                         Oracle(member=lambda v: True, bounding_radius=radius),
                         center=x)
    comp = ScalarFunction(fn=lambda v: f(inner(v)), domain=domain_x,
                          name=f"{f.name}({inner.name})")
    y = inner(x)
    outer = subdifferential_hull(f, y, gauge_out, seed=seed).subgradients
    jac = np.asarray(inner.jacobian(x), dtype=float)
    dirs = _fan_for(gauge_in, seed)
    pushed = np.array([jac @ v for v in dirs]).reshape(len(dirs), inner.out_dim)
    return _compare("chain1", dirs, _support(comp, x, gauge_in, seed)(dirs),
                    _support(f, y, gauge_out, seed)(pushed),
                    {"x": list(map(float, x)),
                     "rhs_vertices": [list(map(float, jac.T @ z)) for z in outer]})


def verify_max_rule(fs: Sequence[ScalarFunction], x, gauge: Gauge,
                    seed: int = 42) -> RuleReport:
    """Pointwise max: d(max f_i)(x) against the hull of the active pieces'."""
    x = as_vector(x, fs[0].domain.dim)
    vals = [fi(x) for fi in fs]
    peak = max(vals)
    active = [i for i, v in enumerate(vals) if v >= peak - _ACTIVE_TOL * (1 + abs(peak))]
    dirs = _fan_for(gauge, seed)
    pieces = [_support(fs[i], x, gauge, seed)(dirs) for i in active]
    return _compare("max", dirs, _support(max_of(list(fs)), x, gauge, seed)(dirs),
                    np.max(pieces, axis=0),
                    {"x": list(map(float, x)), "active_indices": active,
                     "values": [float(v) for v in vals]})


def verify_partial_rule(f: ScalarFunction, x, gauge_1: Gauge, gauge_2: Gauge,
                        seed: int = 42) -> RuleReport:
    """Joint subdifferential against the product of the partial ones.

    The product-space gauge is the max of the factor gauges; the right-hand
    side is the Cartesian product of the partial subdifferentials at the
    frozen complementary block.
    """
    n1, n2 = gauge_1.dim, gauge_2.dim
    x = as_vector(x, n1 + n2)
    x1, x2 = x[:n1], x[n1:]
    prod_gauge = _product_gauge(gauge_1, gauge_2)

    def freeze_second(v1):
        return f(np.concatenate([np.atleast_1d(v1), x2]))

    def freeze_first(v2):
        return f(np.concatenate([x1, np.atleast_1d(v2)]))

    radius = 10.0 * (1.0 + float(np.linalg.norm(x)))
    dom1 = ConvexSet(n1, Oracle(member=lambda v: f.domain.contains(
        np.concatenate([np.atleast_1d(v), x2])), bounding_radius=radius), center=x1)
    dom2 = ConvexSet(n2, Oracle(member=lambda v: f.domain.contains(
        np.concatenate([x1, np.atleast_1d(v)])), bounding_radius=radius), center=x2)
    f1 = ScalarFunction(fn=freeze_second, domain=dom1, convex=f.convex,
                        name=f"{f.name}|block1")
    f2 = ScalarFunction(fn=freeze_first, domain=dom2, convex=f.convex,
                        name=f"{f.name}|block2")
    dirs = _fan_for(prod_gauge, seed)
    h_1, h_2 = _support(f1, x1, gauge_1, seed), _support(f2, x2, gauge_2, seed)
    return _compare("partial", dirs, _support(f, x, prod_gauge, seed)(dirs),
                    h_1(dirs[:, :n1]) + h_2(dirs[:, n1:]),
                    {"x": list(map(float, x)),
                     "block_dims": [int(n1), int(n2)]})
