"""Sublevel sets and their symmetric cores.

Given a convex function on a convex set and a base point, the sublevel set at
a level above the base value is symmetrized by intersecting it with its own
reflection through the base point.  The resulting core is convex, symmetric
about the base point, and spans the same subspace as the sublevel set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptySublevelError, NotInSetError
from .functions import ScalarFunction
from .geometry import (
    ConvexSet,
    Sublevel,
    _member,
    as_vector,
    check_symmetry,
    in_icr,
    span_of_difference,
)

#: member probes (and their seed) that look for a sublevel set's center
_SUBLEVEL_PROBES, _SUBLEVEL_SEED = 64, 0
#: scales alpha at which literal_ca_member tries the scaled reflection
_ALPHA_GRID = tuple(2.0 ** (-k) for k in range(21))
#: largest span residual of a basis row at which verify_span_equality holds
_SPAN_TOL = 1e-8


@dataclass
class SublevelCore:
    s_a: ConvexSet          # sublevel set
    c_a: ConvexSet          # symmetric core, centered at x0
    x0: np.ndarray
    level: float
    source: ScalarFunction

    def to_json(self) -> dict:
        return {
            "fn": self.source.name,
            "x0": list(map(float, self.x0)),
            "level": float(self.level),
        }


def sublevel_set(f: ScalarFunction, domain: ConvexSet, level: float) -> ConvexSet:
    """``{x in domain : f(x) <= level}`` as a sublevel-representation set,
    centered at the first probe of least value (sampled domain members and
    the domain's anchor, evaluated in one batch)."""
    rng = np.random.default_rng(_SUBLEVEL_SEED)
    candidates = domain.sample_members(rng, _SUBLEVEL_PROBES)
    try:
        candidates.append(domain.anchor())
    except NotInSetError:
        pass
    values = f.many(np.array(candidates))
    feasible = np.flatnonzero(values <= level + 1e-12 * (1 + abs(level)))
    if not feasible.size:
        raise EmptySublevelError(
            f"level {level} lies below the function value at every probe point")
    best = candidates[feasible[np.argmin(values[feasible])]]
    return ConvexSet._centered(domain.dim, Sublevel(fn=f, level=level, base_domain=domain), best)


def symmetric_core(s_a: ConvexSet, x0) -> ConvexSet:
    """The intersection of the sublevel set with its reflection through x0.

    Convex, symmetric about x0, contains x0, and preserves the span of the
    sublevel set.  Halfspace sets stay halfspace sets; a sublevel set of f
    becomes the sublevel set of ``max(f(y), f(2 x0 - y))`` over its base
    domain's core; vertex and oracle sets become the sublevel set, inside
    themselves, of a reflection membership test.
    """
    x0 = _member(s_a, x0, "base point is not in the sublevel set")
    return s_a.representation.symmetric_core(s_a, x0)


def literal_ca_member(s_a: ConvexSet, x0, x) -> bool:
    """Per-point scaled-reflection membership predicate.

    True iff some alpha in the grid keeps both the alpha-scaled point and its
    alpha-scaled reflection inside the sublevel set; every alpha's two
    points are tested in one batch.  Kept alongside
    :func:`symmetric_core` so the two symmetrization readings can be compared;
    on asymmetric sets this predicate does not describe a symmetric set.
    """
    x0 = as_vector(x0, s_a.dim)
    x = _member(s_a, x, "probe point is not in the sublevel set")
    steps = np.array(_ALPHA_GRID)[:, None] * (x - x0)
    inside = s_a.contains_many(np.vstack([x0 + steps, x0 - steps]))
    return bool(np.any(inside[:len(_ALPHA_GRID)] & inside[len(_ALPHA_GRID):]))


def build_core(f: ScalarFunction, domain: ConvexSet, x0,
               level: Optional[float] = None) -> SublevelCore:
    """Construct the sublevel set and its symmetric core about ``x0``.

    The default level is f(x0) + 1, which keeps the sublevel set
    full-dimensional in generic cases.
    """
    x0 = as_vector(x0, domain.dim)
    f0 = f(x0)
    if level is None:
        level = f0 + 1.0
    if f0 > level + 1e-12 * (1 + abs(level)):
        raise EmptySublevelError("level is below the function value at x0")
    s_a = sublevel_set(f, domain, level)
    c_a = symmetric_core(s_a, x0)
    return SublevelCore(s_a=s_a, c_a=c_a, x0=x0, level=float(level), source=f)


def verify_span_equality(core: SublevelCore) -> bool:
    """Do the core and the sublevel set span the same subspace?"""
    span_s = span_of_difference(core.s_a, core.x0)
    span_c = span_of_difference(core.c_a, core.x0)
    return (span_s.dim == span_c.dim
            and bool(np.all(span_c.residuals(span_s.basis) <= _SPAN_TOL))
            and bool(np.all(span_s.residuals(span_c.basis) <= _SPAN_TOL)))


def verify_icr_membership(core: SublevelCore) -> bool:
    """Is the base point in the relative algebraic interior of the sublevel set?"""
    return in_icr(core.s_a, core.x0)


def core_is_symmetric(core: SublevelCore) -> bool:
    return check_symmetry(core.c_a, core.x0)
