"""Directional derivatives and gauge-relative Clarke subdifferentials.

A vector is a subgradient at x when its pairing with every direction is
dominated by the (generalized) directional derivative there.  All direction
sampling happens inside span(gauge) intersected with the orthogonal
complement of the gauge kernel: along kernel directions the gauge cannot see
movement, so subgradients are quotient representatives that annihilate it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DegenerateGaugeError,
    KernelViolationError,
    LpInfeasibleError,
    NoBracketError,
    NoFeasibleStepError,
    SupportMismatchError,
)
from .functions import ScalarFunction
from .geometry import Gauge, Subspace, _complement_rows, as_vector

_STEP_FLOOR = 5e-7
_SETTLE_TOL = 1e-10


def dir_deriv(f: ScalarFunction, x, d) -> float:
    """One-sided directional derivative by a halving difference ladder.

    The ladder starts at the largest feasible step <= 1, stops once two
    consecutive quotients agree or the step hits the floor, and applies one
    Richardson step (which is exact for affine-in-t error and a no-op once
    the quotients have settled, e.g. at a kink of a piecewise-linear
    function).
    """
    x = as_vector(x, f.domain.dim)
    d = as_vector(d, f.domain.dim)
    if float(np.linalg.norm(d)) < 1e-14:
        return 0.0
    t = 1.0
    # the floor sits well above the membership tolerance so that boundary
    # fuzz is not mistaken for a feasible sliver
    while t > 1e-7 and not f.domain.contains(x + t * d):
        t *= 0.5
    if t <= 1e-7:
        raise NoFeasibleStepError("no feasible step from x along d inside the domain")
    fx = f(x)
    q_prev: Optional[float] = None
    q: Optional[float] = None
    oscillations = 0
    last_diff = None
    rich_prev: Optional[float] = None
    while t >= _STEP_FLOOR:
        q_new = (f(x + t * d) - fx) / t
        if q is not None:
            diff = q_new - q
            if abs(diff) <= _SETTLE_TOL * (1.0 + abs(q_new)):
                q_prev, q = q, q_new
                break
            if last_diff is not None and diff * last_diff < 0:
                oscillations += 1
            last_diff = diff
            # extrapolated values settling across two octaves means the
            # remaining error is beyond quadratic; stop early (but only at
            # steps small enough that coarse-scale structure is resolved)
            rich = 2.0 * q_new - q
            if rich_prev is not None and t <= 1e-3 and \
                    abs(rich - rich_prev) <= _SETTLE_TOL * (1.0 + abs(rich)):
                q_prev, q = q, q_new
                break
            rich_prev = rich
        q_prev, q = q, q_new
        t *= 0.5
    if q is None:
        # the feasible sliver is below the ladder floor; use it directly
        q = (f(x + t * d) - fx) / t
    if not f.convex and oscillations >= 3:
        warnings.warn("difference quotients oscillate; the one-sided derivative "
                      "may not exist at this point", RuntimeWarning, stacklevel=2)
    if q_prev is not None and abs(q - q_prev) <= 0.1 * (1.0 + abs(q)):
        return 2.0 * q - q_prev
    return q


def gen_dir_deriv(f: ScalarFunction, x, d, g: Gauge, shells: int = 18,
                  probes: int = 12, seed: int = 42, r0: float = 1e-2) -> float:
    """Generalized (upper) directional derivative.

    Scans geometrically shrinking gauge-shells of base points around x,
    takes one difference quotient per base point with a step tied to the
    shell radius, and reports the max over the two innermost shells as the
    limsup surrogate.
    """
    x = as_vector(x, f.domain.dim)
    d = as_vector(d, f.domain.dim)
    if float(np.linalg.norm(d)) < 1e-14:
        return 0.0
    rng = np.random.default_rng(seed)
    k = g.span.dim
    shell_max = []
    for j in range(shells):
        r = r0 * 2.0 ** (-j)
        best = -math.inf
        bases = [x]
        for _ in range(probes):
            if k == 0:
                break
            u = g.span.basis.T @ rng.standard_normal(k)
            mu = g.value(u)
            scale = mu if (math.isfinite(mu) and mu > 1e-9) else float(np.linalg.norm(u))
            if scale <= 1e-14:
                continue
            y = x + (r / scale) * u
            if f.domain.contains(y):
                bases.append(y)
        for y in bases:
            t = r / 4.0
            while t > 1e-12 and not f.domain.contains(y + t * d):
                t *= 0.5
            if t <= 1e-12:
                continue
            best = max(best, (f(y + t * d) - f(y)) / t)
        shell_max.append(best)
    tail = [v for v in shell_max[-2:] if math.isfinite(v)]
    if not tail:
        raise NoFeasibleStepError("no feasible probe near x for this direction")
    return max(tail)


def _reduced_basis(g: Gauge) -> Subspace:
    """span(gauge) intersected with the orthogonal complement of its kernel."""
    if g.kernel.dim == 0:
        w = g.span
    else:
        comp = Subspace(_complement_rows(g.kernel), g.span.ambient_dim)
        w = g.span.intersect(comp)
    if w.dim == w.ambient_dim:
        # canonicalize: probing may return any rotated frame of R^n
        return Subspace.full(w.ambient_dim)
    return w


def _support_value(f: ScalarFunction, x, v, g: Gauge, seed: int = 42) -> float:
    """Directional derivative for convex-flagged functions, generalized
    directional derivative otherwise."""
    if f.convex:
        return dir_deriv(f, x, v)
    return gen_dir_deriv(f, x, v, g, seed=seed)


def _direction_fan(w: Subspace, rng: np.random.Generator, count: int,
                   extra=None) -> list[np.ndarray]:
    dirs = []
    for b in w.basis:
        dirs.append(b)
        dirs.append(-b)
    if w.dim < w.ambient_dim:
        # projected ambient axes: boxy support sets have their facet normals
        # here, and the basis rows alone can be an arbitrarily rotated frame
        for i in range(w.ambient_dim):
            a = w.project(np.eye(w.ambient_dim)[i])
            na = float(np.linalg.norm(a))
            if na > 1e-10:
                dirs.append(a / na)
                dirs.append(-a / na)
    if extra is not None:
        for v in extra:
            nv = float(np.linalg.norm(v))
            if nv > 1e-14:
                dirs.append(v / nv)
                dirs.append(-v / nv)
    while len(dirs) < count and w.dim > 0:
        u = w.basis.T @ rng.standard_normal(w.dim)
        nu = float(np.linalg.norm(u))
        if nu > 1e-14:
            dirs.append(u / nu)
    return dirs


def is_subgradient(f: ScalarFunction, x, zeta, g: Gauge, tol: float = 1e-6,
                   num_dirs: Optional[int] = None, seed: int = 42) -> bool:
    """Support-inequality check <zeta, v> <= f'(x; v) on sampled directions.

    Sampled verdict: a True is exact on the tested fan only.  Directions are
    quotient representatives (kernel directions are excluded by
    construction).
    """
    x = as_vector(x, f.domain.dim)
    zeta = as_vector(zeta, f.domain.dim)
    w = _reduced_basis(g)
    if w.dim == 0:
        return float(np.linalg.norm(zeta)) <= tol
    rng = np.random.default_rng(seed)
    if num_dirs is None:
        num_dirs = max(4 * w.dim, 16)
    for v in _direction_fan(w, rng, num_dirs, extra=[w.project(zeta)]):
        sup = _support_value(f, x, v, g, seed=seed)
        if float(zeta @ v) > sup + tol * (1.0 + abs(sup)):
            return False
    return True


def extract_subgradient(f: ScalarFunction, x, g: Gauge, objective=None,
                        num_dirs: Optional[int] = None, seed: int = 42,
                        slack: float = 1e-8) -> np.ndarray:
    """Subgradient maximizing <zeta, objective> over the support constraints.

    The feasible polytope {z : <z, v> <= f'(x; v) for sampled v} is an outer
    approximation of the subdifferential; including +/- of every reduced
    basis vector pins singleton subdifferentials exactly.  When the support
    value in the objective direction is not attained up to tolerance, the
    constraint fan is inconsistent with a compact subdifferential and
    :class:`SupportMismatchError` is raised.
    """
    x = as_vector(x, f.domain.dim)
    w = _reduced_basis(g)
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span; the quotient "
                                   "is zero-dimensional")
    rng = np.random.default_rng(seed)
    if objective is None:
        obj = w.basis[0]
    else:
        obj = w.project(as_vector(objective, f.domain.dim))
        if float(np.linalg.norm(obj)) < 1e-14:
            obj = w.basis[0]
    obj = obj / float(np.linalg.norm(obj))
    if num_dirs is None:
        num_dirs = max(2 * w.dim, 16)
    dirs = _direction_fan(w, rng, num_dirs, extra=[obj])
    sups = [_support_value(f, x, v, g, seed=seed) for v in dirs]
    a_ub = np.asarray(dirs) @ w.basis.T
    b_ub = np.array([s + slack * (1.0 + abs(s)) for s in sups])
    c = -(w.basis @ obj)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * w.dim,
                  method="highs")
    if res.status != 0:
        # presolve misclassifies near-equality constraint pairs with tiny
        # right-hand sides as inconsistent; the raw solve handles them
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * w.dim,
                      method="highs", options={"presolve": False})
    if res.status != 0:
        raise LpInfeasibleError(
            "support constraints are infeasible (noisy derivative estimates)",
        )
    target = _support_value(f, x, obj, g, seed=seed)
    attained = float(-res.fun)
    if abs(attained - target) > 1e-5 * (1.0 + abs(target)):
        raise SupportMismatchError(
            f"support value {target:.6g} in the objective direction is not "
            f"attained (got {attained:.6g})")
    return w.basis.T @ res.x


@dataclass
class SupportSet:
    """Sampled description of a subdifferential at a base point."""

    base_point: np.ndarray
    directions: list
    support_values: list
    subgradients: list

    def to_json(self) -> dict:
        return {
            "base_point": list(map(float, self.base_point)),
            "directions": [list(map(float, v)) for v in self.directions],
            "support_values": [float(s) for s in self.support_values],
            "subgradients": [list(map(float, z)) for z in self.subgradients],
        }


def subdifferential_hull(f: ScalarFunction, x, g: Gauge,
                         num_objectives: Optional[int] = None,
                         seed: int = 42) -> SupportSet:
    """Extract subgradients along many objectives and record support values.

    The returned vertices describe the subdifferential up to the sampled
    objective fan (exact for polytopal subdifferentials once the fan covers
    the facet normals).
    """
    x = as_vector(x, f.domain.dim)
    w = _reduced_basis(g)
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span")
    rng = np.random.default_rng(seed)
    if num_objectives is None:
        num_objectives = max(4 * w.dim, 8)
    objectives = _direction_fan(w, rng, num_objectives)
    sups = []
    grads: list[np.ndarray] = []
    for v in objectives:
        sups.append(_support_value(f, x, v, g, seed=seed))
        z = extract_subgradient(f, x, g, objective=v, seed=seed)
        if not any(np.linalg.norm(z - z0) <= 1e-7 * (1 + np.linalg.norm(z))
                   for z0 in grads):
            grads.append(z)
    return SupportSet(base_point=x, directions=objectives,
                      support_values=sups, subgradients=grads)


def fermat_check(f: ScalarFunction, x, g: Gauge, tol: float = 1e-6,
                 num_dirs: Optional[int] = None, seed: int = 42) -> dict:
    """Is zero a subgradient at x (stationarity in the quotient directions)?"""
    x = as_vector(x, f.domain.dim)
    w = _reduced_basis(g)
    if w.dim == 0:
        return {"is_critical": True, "min_derivative": 0.0, "worst_direction": None}
    rng = np.random.default_rng(seed)
    if num_dirs is None:
        num_dirs = max(4 * w.dim, 16)
    worst_val = math.inf
    worst_dir = None
    for v in _direction_fan(w, rng, num_dirs):
        sup = _support_value(f, x, v, g, seed=seed)
        if sup < worst_val:
            worst_val = sup
            worst_dir = v
    return {
        "is_critical": bool(worst_val >= -tol),
        "min_derivative": float(worst_val),
        "worst_direction": None if worst_dir is None else list(map(float, worst_dir)),
    }


@dataclass
class MeanValuePoint:
    point: np.ndarray
    alpha: float  # the witness is alpha * x + (1 - alpha) * y
    zeta: np.ndarray
    residual: float  # |<zeta, y - x> - (f(y) - f(x))|

    def to_json(self) -> dict:
        return {"point": list(map(float, self.point)), "alpha": float(self.alpha),
                "zeta": list(map(float, self.zeta)), "residual": float(self.residual)}


def lebourg_point(f: ScalarFunction, x, y, g: Gauge, seed: int = 42,
                  tol: float = 1e-6) -> MeanValuePoint:
    """Mean value witness: a segment point whose subdifferential pairs with
    y - x to give exactly f(y) - f(x).

    When the chord is a kernel direction the function must be constant along
    it, and any quotient subgradient (which annihilates the kernel) works.
    Otherwise the crossing parameter of the monotone map
    t -> f'(x + t(y-x); y-x) - (f(y) - f(x)) is bisected; for non-convex
    functions a grid scan locates a sign change first.
    """
    x = as_vector(x, f.domain.dim)
    y = as_vector(y, f.domain.dim)
    d = y - x
    target = f(y) - f(x)
    mu = g.value(d)
    if mu <= 1e-12:
        if abs(target) > 1e-9:
            raise KernelViolationError(
                f"function varies by {target:.3g} along a zero-gauge chord")
        z = 0.5 * (x + y)
        zeta = extract_subgradient(f, z, g, seed=seed)
        return MeanValuePoint(point=z, alpha=0.5, zeta=zeta,
                              residual=abs(float(zeta @ d) - target))

    # the potential psi(t) = f(x + t d) - target * t takes equal values at the
    # chord endpoints, so an interior extremum exists and carries a
    # subgradient pairing exactly to the secant slope.  Extremizing function
    # values (instead of root-finding on derivative estimates) stays sharp at
    # kinks.
    fx = f(x)

    def psi(t: float) -> float:
        return f(x + t * d) - target * t

    def ternary(lo: float, hi: float, sign: float) -> float:
        for _ in range(130):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if sign * psi(m1) <= sign * psi(m2):
                hi = m2
            else:
                lo = m1
        return 0.5 * (lo + hi)

    if f.convex:
        t_star = ternary(0.0, 1.0, +1.0)
    else:
        grid = np.linspace(0.0, 1.0, 513)
        vals = np.array([psi(t) for t in grid])
        i_min = int(np.argmin(vals[1:-1])) + 1
        i_max = int(np.argmax(vals[1:-1])) + 1
        drop = vals[0] - vals[i_min]
        rise = vals[i_max] - vals[0]
        scale = 1e-12 * (1.0 + abs(fx))
        if max(drop, rise) <= scale:
            t_star = 0.5  # the potential is flat: every point is a witness
        elif drop >= rise:
            t_star = ternary(grid[i_min - 1], grid[i_min + 1], +1.0)
        else:
            t_star = ternary(grid[i_max - 1], grid[i_max + 1], -1.0)
        if not 0.0 < t_star < 1.0:
            raise NoBracketError("no interior extremum of the chord potential")
    z = x + t_star * d
    zeta_hi = extract_subgradient(f, z, g, objective=d, seed=seed)
    zeta_lo = extract_subgradient(f, z, g, objective=-d, seed=seed)
    hi = float(zeta_hi @ d)
    lo = float(zeta_lo @ d)
    width = hi - lo
    if target > hi + tol * (1.0 + abs(target)) or target < lo - tol * (1.0 + abs(target)):
        raise SupportMismatchError(
            f"pairing range [{lo:.6g}, {hi:.6g}] at the witness point misses the "
            f"secant slope {target:.6g}")
    theta = 0.5 if width <= 1e-14 else min(1.0, max(0.0, (target - lo) / width))
    zeta = (1.0 - theta) * zeta_lo + theta * zeta_hi
    return MeanValuePoint(point=z, alpha=1.0 - t_star, zeta=zeta,
                          residual=abs(float(zeta @ d) - target))
