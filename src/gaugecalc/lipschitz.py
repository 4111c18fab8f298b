"""Gauge-relative Lipschitz constants: bound certificates, empirical
estimation, local witness balls, and the counterexample falsification suite.

For a convex function bounded above on a symmetric convex set, the slope
bound on the eps-shrunk copy of the set is ``M (1 + eps) / (1 - eps)`` where
``M`` is the sup of the function over the set relative to its center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricSetError,
    KernelViolationError,
    NoFeasibleStepError,
    NonFiniteInputError,
    NotInSetError,
    UnboundedFunctionError,
    UsageError,
)
from .functions import ScalarFunction
from .geometry import (
    ConvexSet,
    Gauge,
    as_vector,
    check_symmetry,
    in_icr,
    interval,
)
from .symmetrize import SublevelCore

KERNEL_GAUGE_EPS = 1e-12
KERNEL_VALUE_EPS = 1e-9
#: members sampled for ``M``, per squared dimension
M_SAMPLES_PER_DIM2 = 10


@dataclass
class LipschitzCertificate:
    gauge: Gauge
    region: ConvexSet
    theoretical_L: float
    empirical_L: float
    epsilon: float
    M: float
    sample_pairs: int
    seed: int = 42

    def to_json(self) -> dict:
        return {
            "theoretical_L": float(self.theoretical_L),
            "empirical_L": float(self.empirical_L),
            "M": float(self.M),
            "epsilon": float(self.epsilon),
            "pairs": int(self.sample_pairs),
            "seed": int(self.seed),
        }


@dataclass
class LocalWitness:
    x: np.ndarray
    lam: float  # witness ball radius in gauge units ("lambda")
    L: float

    def to_json(self) -> dict:
        return {"x": list(map(float, self.x)), "lambda": float(self.lam),
                "L": float(self.L)}


def scale_about(c: ConvexSet, p, factor: float, translate_to=None) -> ConvexSet:
    """``factor * (C - p) + q`` with q defaulting to p."""
    p = as_vector(p, c.dim)
    q = p if translate_to is None else as_vector(translate_to, c.dim)
    return c.representation.scaled(c, p, factor, q)


def theoretical_constant(f: ScalarFunction, c: ConvexSet, p, eps: float,
                         seed: int = 42, pairs: int = 0) -> LipschitzCertificate:
    """Certificate with the sup-based slope bound on the eps-shrunk set.

    ``M`` is the largest ``f(x) - f(p)`` over ``M_SAMPLES_PER_DIM2 * dim**2``
    sampled members and the set's extreme points, evaluated in one batch.
    A convex function attains its sup at a vertex, so ``M`` is exact for
    convex functions on every vertex set and on every bounded halfspace set
    with interior (below the vertex-count guard of
    ``Halfspaces.extreme_points``).  Otherwise (sublevel
    and oracle sets, unbounded or flat halfspace sets, non-convex functions)
    ``M`` is a sampled lower bound of the sup, and so is the certified bound.
    ``pairs > 0`` additionally runs the empirical estimator on the shrunk
    region.
    """
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    p = as_vector(p, c.dim)
    if not check_symmetry(c, p):
        raise AsymmetricSetError("set is not symmetric about the given point")
    rng = np.random.default_rng(seed)
    pts = c.sample_members(rng, M_SAMPLES_PER_DIM2 * c.dim * c.dim)
    pts.extend(c.representation.extreme_points())
    try:
        fp = f(p)
        m_val = max(0.0, float(np.max(f.many(np.array(pts)) - fp)))
    except NonFiniteInputError as exc:
        raise UnboundedFunctionError(str(exc)) from exc
    theoretical = m_val * (1.0 + eps) / (1.0 - eps)
    region = scale_about(c, p, eps)
    c_centered = c if c.center is not None else ConvexSet(c.dim, c.representation, p)
    gauge = Gauge.of_set(c_centered)
    empirical = 0.0
    if pairs > 0:
        empirical = empirical_constant(f, gauge, region, pairs=pairs, seed=seed)
    return LipschitzCertificate(gauge=gauge, region=region, theoretical_L=theoretical,
                                empirical_L=empirical, epsilon=eps, M=m_val,
                                sample_pairs=pairs, seed=seed)


def empirical_constant(f: ScalarFunction, g: Gauge, region: ConvexSet,
                       pairs: int = 10000, seed: int = 42) -> float:
    """Max sampled slope |f(u) - f(v)| / mu(u - v).

    Pairs with vanishing gauge are skipped unless the function differs across
    them, which contradicts any gauge-Lipschitz hypothesis and raises
    :class:`KernelViolationError`.  After the kernel-direction probes, f is
    evaluated at every sampled member in one batch, so an error of f (at its
    first failing member) comes before any pair's gauge value or
    :class:`KernelViolationError`, even one from an earlier pair.  The
    pairs' gauges are one batch too, and the first zero-gauge pair across
    which f varies raises.
    """
    rng = np.random.default_rng(seed)
    pts = region.sample_members(rng, 2 * pairs)
    # zero-gauge pairs have probability zero under generic sampling, so the
    # kernel directions are probed deliberately
    if g.kernel.dim > 0:
        for k in g.kernel.basis:
            for base in pts[: min(8, len(pts))]:
                for step in (1e-3, 1.0):
                    other = base + step * k
                    if not region.contains(other):
                        continue
                    dfk = abs(f(other) - f(base))
                    if dfk > KERNEL_VALUE_EPS:
                        raise KernelViolationError(
                            f"function varies by {dfk:.3g} along a kernel direction")
    pts = np.array(pts).reshape(len(pts), region.dim)
    values = f.many(pts)
    mus = g.values(pts[0::2] - pts[1::2])
    gaps = np.abs(values[0::2] - values[1::2])
    zero = mus <= KERNEL_GAUGE_EPS
    varies = np.flatnonzero(zero & (gaps > KERNEL_VALUE_EPS))
    if varies.size:
        raise KernelViolationError(
            f"function varies by {gaps[varies[0]]:.3g} across a zero-gauge pair")
    live = ~zero & np.isfinite(mus)
    return float((gaps[live] / mus[live]).max(initial=0.0))


def local_witness(f: ScalarFunction, core: SublevelCore, x, eps: float) -> LocalWitness:
    """Witness ball on which the function is gauge-Lipschitz near ``x``.

    Searches the largest step t keeping ``x + t (x - x0)`` inside the domain,
    shrinks the core by ``t / (1 + t)`` about its center, translates it to
    ``x``, and certifies the slope bound on that copy.
    """
    x = as_vector(x, f.domain.dim)
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    if not in_icr(f.domain, x):
        raise NotInSetError("point fails the relative-interior probing of the domain")
    d = x - core.x0
    t = 1.0
    if np.linalg.norm(d) < 1e-14:
        pass  # the center itself: any t works, keep t = 1
    elif f.domain.contains(x + t * d):
        while t < 2.0 ** 20 and f.domain.contains(x + 2.0 * t * d):
            t *= 2.0
    else:
        while t > 1e-12 and not f.domain.contains(x + t * d):
            t *= 0.5
        if t <= 1e-12:
            raise NoFeasibleStepError("no positive step along x - x0 stays in the domain")
    sigma = t / (1.0 + t)
    shrunk = scale_about(core.c_a, core.x0, sigma, translate_to=x)
    cert = theoretical_constant(f, shrunk, x, eps)
    # cert.theoretical_L is relative to the gauge of the shrunk copy, which is
    # the original gauge divided by sigma
    return LocalWitness(x=x, lam=eps * sigma, L=cert.theoretical_L / sigma)


# ---------------------------------------------------------------------------
# Counterexample falsification suite
# ---------------------------------------------------------------------------


def counterexample_suite(seed: int = 42) -> dict:
    """Reproduce the three failure modes of the slope bound.

    (a) a convex function whose slope blows up at the gauge-unit boundary, so
        the eps-shrink is necessary; (b) a quasiconvex (integer part) function
        breaking the bound entirely; (c) an asymmetric set whose degenerate
        gauge contradicts any Lipschitz claim.
    """
    report = {}

    # (a) slope blow-up toward the boundary of the unit ball
    def sqrt_phi(x):
        return -math.sqrt(1.0 - abs(float(x[0])))

    probes = []
    ok_a = True
    for n in (4, 16, 64, 256):
        u, v = 1.0, 1.0 - 1.0 / n
        quotient = abs(sqrt_phi([u]) - sqrt_phi([v])) * n
        bound = math.sqrt(n) / 2.0
        probes.append({"n": n, "quotient": quotient, "lower_bound": bound,
                       "exceeds": bool(quotient >= bound)})
        ok_a = ok_a and quotient >= bound
    report["sqrt_boundary"] = {"probes": probes, "reproduced": ok_a}

    # (b) integer part: quasiconvex but not convex, bound fails
    eps = 0.9
    m_floor = 1.0  # sup of floor - floor(0) on [-1, 1]
    bound_b = m_floor * (1 + eps) / (1 - eps)
    quotients = []
    ok_b = False
    for n in (4, 16, 64, 256):
        q = abs(math.floor(-1.0 / n) - math.floor(1.0 / n)) / (2.0 / n)
        quotients.append({"n": n, "quotient": q})
        ok_b = ok_b or q > bound_b
    report["floor_quasiconvex"] = {"epsilon": eps, "bound": bound_b,
                                   "quotients": quotients, "reproduced": ok_b}

    # (c) asymmetric set: the gauge vanishes on the unbounded ray
    ray = interval(-1.0, math.inf, center=0.0)
    g = Gauge.of_set(ray)
    neg_x = ScalarFunction.from_expr("-x1", domain=ray, convex=True, name="-x")
    mu_plus = g.value([1.0])
    mu_minus = g.value([-1.0])
    delta = abs(neg_x([1.0]) - neg_x([0.0]))
    kernel_flagged = False
    try:
        empirical_constant(neg_x, g, interval(0.0, 4.0, center=2.0),
                           pairs=64, seed=seed)
    except KernelViolationError:
        kernel_flagged = True
    reproduced_c = (mu_plus <= 1e-8 and abs(mu_minus - 1.0) <= 1e-8
                    and delta > KERNEL_VALUE_EPS and kernel_flagged)
    report["asymmetric_set"] = {
        "gauge_on_ray": mu_plus,
        "gauge_negative_side": mu_minus,
        "value_gap_across_zero_gauge": delta,
        "kernel_violation_flagged": kernel_flagged,
        "reproduced": bool(reproduced_c),
    }
    return report
