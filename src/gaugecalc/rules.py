"""Subdifferential calculus rules as sampled support-function inequalities.

A Clarke subdifferential is determined by its support function, the
(generalized) directional derivative ``f°(x; .)``, and each calculus rule is
an inequality between support functions (Clarke 1983, §2.3).  Each verifier
reads the composite's own support values on one direction fan and compares
them with the rule's combination of its parts' support values along the same
directions; no polytope is extracted for a verdict.  A rule report states
whether the inclusion (and possibly equality) holds up to tolerance on the
fan.  The vertices a report lists (the sum's left side, chain1's right side)
come from the vertex table of that same support table, with no LP.  The
composites themselves are built by :mod:`gaugecalc.functions`, so a fan of a
composite is evaluated in batches of its parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConditionViolationError,
    DegenerateGaugeError,
    NonFiniteInputError,
)
from .functions import (
    ScalarFunction,
    frozen_block,
    max_of,
    outer_of,
    precomposed,
    product_of,
    sum_of,
)
from .geometry import (Gauge, Subspace, _first_max, _images, _values, as_rows, as_vector,
                       batch_callable)
from .subdiff import Fan, _direction_fan, _objective_count, _signed, _support_values, _vertices

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


def _support(f: ScalarFunction, x, g: Gauge, seed: int) -> Support:
    """Support function of f's subdifferential at x relative to g: the
    estimator the hulls read, along each row's quotient representative in
    g's reduced space (so that it also accepts directions from outside
    it)."""
    return lambda dirs: _support_values(f, x, Fan(g.reduced.project_many(dirs)), g, seed)


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


def _fan_for(w: Subspace, seed: int = 42) -> tuple[np.ndarray, int]:
    """The rule fan of the reduced space ``w``, written out whole (the
    whole space's frame too): its direction fan, then +/- each normalized
    sum and difference of two basis vectors; and how many of its opening
    rows are the hull objectives of the same seed."""
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span")
    fan = _direction_fan(w, _RULE_FAN, seed)
    pairs = [(w.basis[i] + s * w.basis[j]) / math.sqrt(2.0)
             for i in range(w.dim) for j in range(i + 1, w.dim) for s in (1.0, -1.0)]
    return np.vstack([fan.dense(), _signed([np.array(pairs).reshape(-1, w.ambient_dim)])]), \
        _objective_count(w, fan.frame)


def _listed_vertices(w: Subspace, rows: Fan, sups: np.ndarray,
                     objectives: int) -> list[list[float]]:
    """The vertices of the set whose support values along the rows of the
    rule fan (its quotient representatives) are ``sups``: the optimal faces
    of the fan's ``objectives`` opening rows, the hull objectives, in the
    vertex table of the fan's own support values."""
    return [list(map(float, z)) for z in _vertices(w, rows, sups, range(objectives))]


def _product_gauge(g1: Gauge, g2: Gauge) -> Gauge:
    """Gauge on the product space: max of the factor gauges, each read on
    a batch of rows at once (the first factor's value on ties, as ``max``
    keeps)."""
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

    return Gauge.from_callable(
        batch_callable(lambda vs: _first_max([g1._values_checked(vs[:, :n1]),
                                              g2._values_checked(vs[:, n1:])])),
        span, kernel=kernel)


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


def verify_sum_rule(f: ScalarFunction, g: ScalarFunction, x, gauge: Gauge,
                    seed: int = 42) -> RuleReport:
    """Subdifferential of f + g against the Minkowski sum of the factors'.

    The report also lists the vertices of the sum's sampled subdifferential,
    read from the sum's support values on the rule fan, whose opening rows
    are the hull objectives.
    """
    x = as_vector(x, f.domain.dim)
    w = gauge.reduced
    dirs, objectives = _fan_for(w, seed)
    rows = Fan(w.project_many(dirs))
    hl = _support_values(sum_of(f, g), x, rows, gauge, seed)
    hr = _support_values(f, x, rows, gauge, seed) + _support_values(g, x, rows, gauge, seed)
    return _compare("sum", dirs, hl, hr, {"x": list(map(float, x)), "lhs_vertices":
                                          _listed_vertices(w, rows, hl, objectives)})


def verify_product_rule(f: ScalarFunction, g: ScalarFunction, x, gauge: Gauge,
                        seed: int = 42) -> RuleReport:
    """Subdifferential of f * g against f(x) dg + g(x) df.

    A negative factor value reflects its scaled summand.
    """
    x = as_vector(x, f.domain.dim)
    fx, gx = f(x), g(x)
    dirs = _fan_for(gauge.reduced, seed)[0]
    h_g = _scaled(_support(g, x, gauge, seed), fx)
    h_f = _scaled(_support(f, x, gauge, seed), gx)
    return _compare("product", dirs, _support(product_of(f, g), x, gauge, seed)(dirs),
                    h_g(dirs) + h_f(dirs),
                    {"x": list(map(float, x)), "f_at_x": fx, "g_at_x": gx})


def _outer_derivative_range(g: Callable[[float], float], u0: float) -> tuple[float, float]:
    """The interval between the one-sided slopes of a scalar outer function
    at u0; for a g that is piecewise C^1 near u0 this interval is its Clarke
    subdifferential there.  Raises :class:`NonFiniteInputError` when g
    overflows there."""
    t = 2.0 ** -23
    try:
        right = (g(u0 + t) - g(u0)) / t
        left = (g(u0) - g(u0 - t)) / t
    except OverflowError:
        raise NonFiniteInputError(f"the outer function overflows near {u0}") from None
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
    u0 = h(x)
    a_lo, a_hi = _outer_derivative_range(g, u0)
    dirs = _fan_for(gauge.reduced, seed)[0]
    hl = _support(outer_of(g, h, composite_convex), x, gauge, seed)(dirs)
    h_inner = _support(h, x, gauge, seed)
    # each sign of the slopes reads the inner support function once; a
    # negative slope reflects the set
    signs = {1.0 if a >= 0.0 else -1.0 for a in (a_lo, a_hi)}
    sides = {s: h_inner(s * dirs) for s in signs}
    with np.errstate(over="ignore"):
        hr = np.max([abs(a) * sides[1.0 if a >= 0.0 else -1.0] for a in {a_lo, a_hi}], axis=0)
    if not np.all(np.isfinite(hr)):
        raise NonFiniteInputError(f"the outer slopes [{a_lo:.6g}, {a_hi:.6g}] times the "
                                  "inner support values overflow")
    return _compare("chain2", dirs, hl, hr,
                    {"x": list(map(float, x)), "inner_value": float(u0),
                     "outer_slope_range": [float(a_lo), float(a_hi)]})


@dataclass
class InnerMap:
    """A differentiable map used as the inner factor of a pre-composition.

    ``fn`` maps a point to its image; it is read by
    :func:`~gaugecalc.geometry._values`, one image row per point (a batch
    evaluator, as :func:`~gaugecalc.geometry.batch_callable` attaches,
    takes point rows and gives image rows).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]  # (out_dim, in_dim)
    in_dim: int
    out_dim: int
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        """The image of one point, checked here: a one-row batch."""
        return self._images(as_vector(x, self.in_dim)[None, :])[0]

    def many(self, xs) -> np.ndarray:
        """The images of the rows of ``xs`` (checked here), one row each.
        Raises :class:`DimensionMismatchError` unless the images are rows of
        dimension :attr:`out_dim`."""
        return self._images(as_rows(xs, self.in_dim))

    def _images(self, xs: np.ndarray) -> np.ndarray:
        return _values(self.fn, xs, f"inner map {self.name or '<anonymous>'}", width=self.out_dim)


def check_domination(inner: InnerMap, x, gauge_out: Gauge, gauge_in: Gauge,
                     seed: int = 42) -> None:
    """Sampled check that the inner map contracts the gauges near x:
    mu(g(u) - g(w)) <= p(u - w).  The pairs are one normal block (the
    draws of u then w, pair by pair); the map reads each side's points in
    one batch, and each side's gauges are one batch.  Raises with the first
    violating pair as the witness."""
    x = as_vector(x, inner.in_dim)
    rng = np.random.default_rng(seed)
    tol = _DOMINATION_TOL
    pairs = x + _DOMINATION_RADIUS * rng.standard_normal((_DOMINATION_PAIRS, 2, inner.in_dim))
    us, ws = pairs[:, 0], pairs[:, 1]
    # the map's images are not checked where they come out, so their differences are
    lhs = gauge_out.values(inner._images(us) - inner._images(ws))
    rhs = gauge_in._values_checked(us - ws)
    bad = np.flatnonzero(np.isfinite(rhs) & (lhs > rhs * (1.0 + tol) + tol))
    if bad.size:
        i = int(bad[0])
        raise ConditionViolationError(
            f"gauge of the image difference ({lhs[i]:.6g}) exceeds the gauge of "
            f"the argument difference ({rhs[i]:.6g})", witness=(us[i], ws[i]))


def verify_chain_rule_1(f: ScalarFunction, inner: InnerMap, x, gauge_out: Gauge,
                        gauge_in: Gauge, seed: int = 42) -> RuleReport:
    """Pre-composition with a smooth map: d(f o g)(x) against
    {J(x)^T zeta : zeta in df(g(x))}, whose support function is
    v -> f°(g(x); J(x) v).

    Requires the gauge-domination hypothesis on the inner map, checked by
    sampling.  The report also lists the vertices of the right side, read,
    as the sum rule's left side is, from its support values on the rule fan.
    The composite and the domination check map their points in batches
    (:meth:`InnerMap.many`); ``g(x)`` is the map's one point call.
    """
    x = as_vector(x, inner.in_dim)
    check_domination(inner, x, gauge_out, gauge_in, seed=seed)
    comp = precomposed(f, inner.many, inner.in_dim, f"{f.name}({inner.name})")
    y = inner(x)
    jac = np.asarray(inner.jacobian(x), dtype=float)
    w = gauge_in.reduced
    dirs, objectives = _fan_for(w, seed)
    rows = Fan(w.project_many(dirs))
    hl = _support_values(comp, x, rows, gauge_in, seed)
    hr = _support(f, y, gauge_out, seed)(_images(jac, dirs))
    return _compare("chain1", dirs, hl, hr, {"x": list(map(float, x)), "rhs_vertices":
                                             _listed_vertices(w, rows, hr, objectives)})


def verify_max_rule(fs: Sequence[ScalarFunction], x, gauge: Gauge,
                    seed: int = 42) -> RuleReport:
    """Pointwise max: d(max f_i)(x) against the hull of the active pieces'."""
    x = as_vector(x, fs[0].domain.dim)
    vals = [fi(x) for fi in fs]
    peak = max(vals)
    active = [i for i, v in enumerate(vals) if v >= peak - _ACTIVE_TOL * (1 + abs(peak))]
    w = gauge.reduced
    dirs = _fan_for(w, seed)[0]
    rows = Fan(w.project_many(dirs))
    pieces = [_support_values(fs[i], x, rows, gauge, seed) for i in active]
    return _compare("max", dirs, _support_values(max_of(list(fs)), x, rows, gauge, seed),
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
    prod_gauge = _product_gauge(gauge_1, gauge_2)
    f1 = frozen_block(f, x, 0, n1, f"{f.name}|block1")
    f2 = frozen_block(f, x, n1, n1 + n2, f"{f.name}|block2")
    dirs = _fan_for(prod_gauge.reduced, seed)[0]
    h_1 = _support(f1, x[:n1], gauge_1, seed)
    h_2 = _support(f2, x[n1:], gauge_2, seed)
    return _compare("partial", dirs, _support(f, x, prod_gauge, seed)(dirs),
                    h_1(dirs[:, :n1]) + h_2(dirs[:, n1:]),
                    {"x": list(map(float, x)),
                     "block_dims": [int(n1), int(n2)]})
