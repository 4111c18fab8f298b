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

#: gen_dir_deriv: PROBES base points per shell of gauge radius R0 * 2**-j, j < SHELLS
_SHELLS, _PROBES, _R0 = 18, 12, 1e-2
#: fan sizes (per_dim, floor) of subgradient and stationarity tests, of
#: extraction LPs and of a hull's objectives; relative LP constraint slack
_TEST_FAN, _LP_FAN, _OBJECTIVE_FAN = (4, 16), (2, 16), (4, 8)
_LP_SLACK = 1e-8


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


def gen_dir_deriv(f: ScalarFunction, x, d, g: Gauge, seed: int = 42) -> float:
    """Generalized (upper) directional derivative.

    Reports the max over the two innermost of 18 geometrically shrinking
    gauge-shells of base points around x (radii ``1e-2 * 2**-16`` and
    ``1e-2 * 2**-17``), one difference quotient per base point with a step
    tied to the shell radius, as the limsup surrogate.
    """
    x = as_vector(x, f.domain.dim)
    d = as_vector(d, f.domain.dim)
    if float(np.linalg.norm(d)) < 1e-14:
        return 0.0
    rng = np.random.default_rng(seed)
    k = g.span.dim
    # the outer shells are not scanned, since only the two innermost are
    # reported; their probes' normals are still drawn so that the innermost
    # shells see the same base points and every reported value stays
    # bit-identical to a scan of all the shells
    rng.standard_normal((_SHELLS - 2) * _PROBES * k)
    best = -math.inf
    for j in (_SHELLS - 2, _SHELLS - 1):
        r = _R0 * 2.0 ** (-j)
        bases = [x]
        for _ in range(_PROBES):
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
    if not math.isfinite(best):
        raise NoFeasibleStepError("no feasible probe near x for this direction")
    return best


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


def _frame(w: Subspace) -> list[np.ndarray]:
    """+/- each basis vector and, in a proper subspace, each projected axis:
    the rows every direction fan in ``w`` opens with."""
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
    return dirs


def _direction_fan(w: Subspace, size: tuple[int, int], seed: int,
                   extra=()) -> tuple[list[np.ndarray], list[int]]:
    """The frame rows, +/- each projected extra vector, then random unit
    directions in ``w`` up to ``max(per_dim * w.dim, floor)``.  Also the row
    of each extra vector (its negation is the next row), or 0, the first
    basis vector, for one with no component in ``w``."""
    dirs = _frame(w)
    rows = []
    for v in extra:
        p = w.project(v)
        nv = float(np.linalg.norm(p))
        rows.append(len(dirs) if nv > 1e-14 else 0)
        if nv > 1e-14:
            dirs.append(p / nv)
            dirs.append(-p / nv)
    rng = np.random.default_rng(seed)
    count = max(size[0] * w.dim, size[1])
    while len(dirs) < count and w.dim > 0:
        u = w.basis.T @ rng.standard_normal(w.dim)
        nu = float(np.linalg.norm(u))
        if nu > 1e-14:
            dirs.append(u / nu)
    return dirs, rows


def _support_fan(f: ScalarFunction, x, g: Gauge, w: Subspace, size, seed: int,
                 extra=()) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """:func:`_direction_fan` with f's support value along each row."""
    dirs, rows = _direction_fan(w, size, seed, extra)
    sups = np.array([_support_value(f, x, v, g, seed) for v in dirs])
    return np.array(dirs).reshape(-1, w.ambient_dim), sups, rows


def _maximize(w: Subspace, dirs, sups, rows: list[int]) -> list[np.ndarray]:
    """For each row, the z maximizing <z, dirs[row]> over the outer
    approximation {z : <z, v> <= h(v) for every fan row v} of the
    subdifferential; the optimum must attain that row's support value."""
    a_ub = dirs @ w.basis.T
    b_ub = sups + _LP_SLACK * (1.0 + np.abs(sups))
    out = []
    for row in rows:
        c = -(w.basis @ dirs[row])
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
        target = float(sups[row])
        attained = float(-res.fun)
        if abs(attained - target) > 1e-5 * (1.0 + abs(target)):
            raise SupportMismatchError(
                f"support value {target:.6g} in the objective direction is not "
                f"attained (got {attained:.6g})")
        out.append(w.basis.T @ res.x)
    return out


def _extract(f: ScalarFunction, x, g: Gauge, objective, seed: int,
             signs=(1,)) -> list[np.ndarray]:
    """Subgradients maximizing <z, s * objective> for each sign s on one fan
    at x; the objective defaults to the first reduced basis vector."""
    w = _reduced_basis(g)
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span; the quotient "
                                   "is zero-dimensional")
    obj = w.basis[0] if objective is None else as_vector(objective, f.domain.dim)
    dirs, sups, rows = _support_fan(f, x, g, w, _LP_FAN, seed, extra=[obj])
    return _maximize(w, dirs, sups, [rows[0] + (s < 0) for s in signs])


def is_subgradient(f: ScalarFunction, x, zeta, g: Gauge, tol: float = 1e-6,
                   seed: int = 42) -> bool:
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
    dirs, sups, _ = _support_fan(f, x, g, w, _TEST_FAN, seed, extra=[zeta])
    return bool(np.all(dirs @ zeta <= sups + tol * (1.0 + np.abs(sups))))


def extract_subgradient(f: ScalarFunction, x, g: Gauge, objective=None,
                        seed: int = 42) -> np.ndarray:
    """Subgradient maximizing <zeta, objective> over the support constraints
    of one direction fan at x that holds +/- the objective (by default the
    first reduced basis vector).  Raises :class:`SupportMismatchError` when
    the optimum misses the objective's support value."""
    return _extract(f, as_vector(x, f.domain.dim), g, objective, seed)[0]


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


def subdifferential_hull(f: ScalarFunction, x, g: Gauge, seed: int = 42) -> SupportSet:
    """Extract subgradients along many objectives and record support values.

    One fan per base point holds +/- every objective (the frame objectives
    are its own opening rows), and every objective's LP reads its support
    values.  The vertices describe the subdifferential up to the sampled
    objective fan (exact for polytopal subdifferentials once the fan covers
    the facet normals).
    """
    x = as_vector(x, f.domain.dim)
    w = _reduced_basis(g)
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span")
    objectives, _ = _direction_fan(w, _OBJECTIVE_FAN, seed)
    # the objectives open with the frame rows, which the fan holds already
    k = len(_frame(w))
    dirs, sups, rows = _support_fan(f, x, g, w, _LP_FAN, seed, extra=objectives[k:])
    rows = list(range(k)) + rows
    grads: list[np.ndarray] = []
    for z in _maximize(w, dirs, sups, rows):
        if not any(np.linalg.norm(z - z0) <= 1e-7 * (1 + np.linalg.norm(z))
                   for z0 in grads):
            grads.append(z)
    return SupportSet(base_point=x, directions=objectives,
                      support_values=[float(sups[r]) for r in rows],
                      subgradients=grads)


def fermat_check(f: ScalarFunction, x, g: Gauge, tol: float = 1e-6,
                 seed: int = 42) -> dict:
    """Is zero a subgradient at x (stationarity in the quotient directions)?"""
    x = as_vector(x, f.domain.dim)
    w = _reduced_basis(g)
    if w.dim == 0:
        return {"is_critical": True, "min_derivative": 0.0, "worst_direction": None}
    dirs, sups, _ = _support_fan(f, x, g, w, _TEST_FAN, seed)
    i = int(np.argmin(sups))
    return {"is_critical": bool(sups[i] >= -tol), "min_derivative": float(sups[i]),
            "worst_direction": list(map(float, dirs[i]))}


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
        zeta = _extract(f, z, g, None, seed)[0]
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
    zeta_hi, zeta_lo = _extract(f, z, g, d, seed, signs=(1, -1))
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
