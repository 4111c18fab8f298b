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
    ConvexityFlagError,
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
#: a hull objective is attained by a vertex found so far when the vertex
#: reaches its support value to within this relative margin
_ATTAINED_TOL = 1e-9
#: relative tolerance of the sublinearity check of a convex flag
_SUBLINEAR_TOL = 1e-6
#: rows of one batch evaluation hold at most this many coordinates, so a fan
#: is evaluated in chunks of half a megabyte whatever its size
_CHUNK_ELEMENTS = 1 << 16


def _at(op, base: np.ndarray, dirs: np.ndarray, rows: np.ndarray, t: np.ndarray,
        base_rows: Optional[np.ndarray] = None) -> np.ndarray:
    """``op`` (a batch evaluator: point rows in, one value per row out) at
    the points ``base + t[i] * dirs[rows[i]]``, or with ``base_rows`` at
    ``base[base_rows[i]] + t[i] * dirs[rows[i]]``, a chunk at a time."""
    size = max(1, _CHUNK_ELEMENTS // max(dirs.shape[1], 1))
    buf = np.empty((min(size, rows.size), dirs.shape[1]))
    out = []
    for lo in range(0, rows.size, size):
        pts = buf[:rows.size - lo] if rows.size - lo < size else buf
        np.take(dirs, rows[lo:lo + size], axis=0, out=pts)
        pts *= t[lo:lo + size, None]
        pts += base if base_rows is None else base[base_rows[lo:lo + size]]
        out.append(np.array(op(pts)))  # a copy: the result may view the reused buffer
    return np.concatenate(out) if out else np.empty(0)


def _nonzero_rows(dirs: np.ndarray) -> np.ndarray:
    """The rows a derivative is taken along; the others read 0."""
    return np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", dirs, dirs)) >= 1e-14)


def _ladder(f: ScalarFunction, x: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided directional derivatives of f at x along the rows of ``dirs``
    by halving difference ladders run in lockstep, and the number of sign
    changes between consecutive quotient differences on each row.

    Each step evaluates every row whose ladder is still running as one
    batch; each row keeps its own step, stopping rules and Richardson step,
    so its value is the one a ladder on that row alone would give.
    """
    m = dirs.shape[0]
    out = np.zeros(m)
    oscillations = np.zeros(m, dtype=int)
    live = _nonzero_rows(dirs)
    if live.size == 0:
        return out, oscillations
    t = np.ones(m)
    # the floor sits well above the membership tolerance so that boundary
    # fuzz is not mistaken for a feasible sliver
    search = live
    while search.size:
        inside = _at(f.domain.contains_many, x, dirs, search, t[search])
        search = search[~inside]
        t[search] *= 0.5
        search = search[t[search] > 1e-7]
    if np.any(t[live] <= 1e-7):
        raise NoFeasibleStepError("no feasible step from x along d inside the domain")
    fx = f(x)

    def quotients(rows):
        return (_at(f.many, x, dirs, rows, t[rows]) - fx) / t[rows]

    q, q_prev = np.zeros(m), np.zeros(m)
    has_q, has_prev = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    last_diff, rich_prev = np.zeros(m), np.zeros(m)
    has_diff, has_rich = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    run = live[t[live] >= _STEP_FLOOR]
    while run.size:
        q_new = quotients(run)
        seen, q_old = has_q[run], q[run]
        diff = q_new - q_old
        settled = seen & (np.abs(diff) <= _SETTLE_TOL * (1.0 + np.abs(q_new)))
        moving = seen & ~settled
        oscillations[run[moving & has_diff[run] & (diff * last_diff[run] < 0)]] += 1
        last_diff[run[moving]] = diff[moving]
        has_diff[run[moving]] = True
        # extrapolated values settling across two octaves means the
        # remaining error is beyond quadratic; stop early (but only at
        # steps small enough that coarse-scale structure is resolved)
        rich = 2.0 * q_new - q_old
        early = moving & has_rich[run] & (t[run] <= 1e-3) & \
            (np.abs(rich - rich_prev[run]) <= _SETTLE_TOL * (1.0 + np.abs(rich)))
        rich_prev[run[moving]] = rich[moving]
        has_rich[run[moving]] = True
        q_prev[run], has_prev[run] = q_old, seen
        q[run], has_q[run] = q_new, True
        run = run[~(settled | early)]
        t[run] *= 0.5
        run = run[t[run] >= _STEP_FLOOR]
    sliver = live[~has_q[live]]
    if sliver.size:
        # the feasible sliver is below the ladder floor; use it directly
        q[sliver] = quotients(sliver)
    q, q_prev, has_prev = q[live], q_prev[live], has_prev[live]
    extrapolate = has_prev & (np.abs(q - q_prev) <= 0.1 * (1.0 + np.abs(q)))
    out[live] = np.where(extrapolate, 2.0 * q - q_prev, q)
    return out, oscillations


def dir_deriv(f: ScalarFunction, x, d) -> float:
    """One-sided directional derivative by a halving difference ladder.

    The ladder starts at the largest feasible step <= 1, stops once two
    consecutive quotients agree or the step hits the floor, and applies one
    Richardson step (which is exact for affine-in-t error and a no-op once
    the quotients have settled, e.g. at a kink of a piecewise-linear
    function).  This is the one-row case of the lockstep ladder that a
    direction fan runs through :func:`_support_values`, where each step is
    one batch call of :meth:`ScalarFunction.many`.  For a function not
    flagged convex, quotients that oscillate raise one ``RuntimeWarning``.
    """
    x = as_vector(x, f.domain.dim)
    d = as_vector(d, f.domain.dim)
    values, oscillations = _ladder(f, x, d[None, :])
    if not f.convex and oscillations[0] >= 3:
        warnings.warn("difference quotients oscillate; the one-sided derivative "
                      "may not exist at this point", RuntimeWarning, stacklevel=2)
    return float(values[0])


def _generalized(f: ScalarFunction, x: np.ndarray, dirs: np.ndarray, g: Gauge,
                 seed: int) -> np.ndarray:
    """Generalized directional derivatives along the rows of ``dirs``.

    The shell base points, their values and their gauges do not depend on
    the direction, so they are drawn and evaluated once for the whole fan;
    every (base point, row) quotient of a shell is then one batch.
    """
    m = dirs.shape[0]
    out = np.zeros(m)
    live = _nonzero_rows(dirs)
    if live.size == 0:
        return out
    rng = np.random.default_rng(seed)
    k = g.span.dim
    # the outer shells are not scanned, since only the two innermost are
    # reported; their probes' normals are still drawn so that the innermost
    # shells see the same base points and every reported value stays
    # bit-identical to a scan of all the shells
    rng.standard_normal((_SHELLS - 2) * _PROBES * k)
    best = np.full(m, -math.inf)
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
        ys = np.array(bases)
        fy = f.many(ys)
        base_rows = np.repeat(np.arange(len(bases)), live.size)
        dir_rows = np.tile(live, len(bases))
        t = np.full(base_rows.size, r / 4.0)
        search = np.arange(base_rows.size)
        while search.size:
            inside = _at(f.domain.contains_many, ys, dirs, dir_rows[search], t[search],
                         base_rows[search])
            search = search[~inside]
            t[search] *= 0.5
            search = search[t[search] > 1e-12]
        ok = t > 1e-12
        base_rows, dir_rows, t = base_rows[ok], dir_rows[ok], t[ok]
        quotients = (_at(f.many, ys, dirs, dir_rows, t, base_rows) - fy[base_rows]) / t
        np.maximum.at(best, dir_rows, quotients)
    if not np.all(np.isfinite(best[live])):
        raise NoFeasibleStepError("no feasible probe near x for this direction")
    out[live] = best[live]
    return out


def gen_dir_deriv(f: ScalarFunction, x, d, g: Gauge, seed: int = 42) -> float:
    """Generalized (upper) directional derivative.

    Reports the max over the two innermost of 18 geometrically shrinking
    gauge-shells of base points around x (radii ``1e-2 * 2**-16`` and
    ``1e-2 * 2**-17``), one difference quotient per base point with a step
    tied to the shell radius, as the limsup surrogate.  This is the one-row
    case of :func:`_support_values` for a function not flagged convex.
    """
    x = as_vector(x, f.domain.dim)
    d = as_vector(d, f.domain.dim)
    return float(_generalized(f, x, d[None, :], g, seed)[0])


def _negation_pairs(dirs: np.ndarray) -> np.ndarray:
    """The rows i whose next row is exactly -dirs[i], compared a chunk of
    rows at a time."""
    m, n = dirs.shape
    size = max(1, _CHUNK_ELEMENTS // max(n, 1))
    out = [np.empty(0, dtype=int)]
    for lo in range(0, m - 1, size):
        hi = min(lo + size, m - 1)
        out.append(lo + np.flatnonzero(np.all(dirs[lo + 1:hi + 1] == -dirs[lo:hi], axis=1)))
    return np.concatenate(out)


def _support_values(f: ScalarFunction, x: np.ndarray, dirs: np.ndarray, g: Gauge,
                    seed: int = 42) -> np.ndarray:
    """Support values of f's subdifferential at x along the rows of
    ``dirs``: directional derivatives for convex-flagged functions,
    generalized directional derivatives otherwise, one fan at a time.

    A convex function's one-sided derivative is sublinear, so on every
    pair of consecutive rows v, -v (a fan's frame and extra rows come in
    such pairs) ``h(v) + h(-v) >= 0`` must hold; where it fails beyond a
    relative 1e-6, the convex flag is wrong and
    :class:`ConvexityFlagError` is raised.
    """
    if not f.convex:
        return _generalized(f, x, dirs, g, seed)
    h = _ladder(f, x, dirs)[0]
    i = _negation_pairs(dirs)
    total = h[i] + h[i + 1]
    bad = np.flatnonzero(total < -_SUBLINEAR_TOL * (1.0 + np.abs(h[i]) + np.abs(h[i + 1])))
    if bad.size:
        j = int(bad[0])
        raise ConvexityFlagError(
            f"function {f.name or '<anonymous>'} is flagged convex, but its one-sided "
            f"derivatives at {list(map(float, x))} along +/-{list(map(float, dirs[i[j]]))} "
            f"sum to {float(total[j]):.6g} < 0, which no convex function allows")
    return h


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


def _images(m: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """``m @ v`` for each row v of ``vs``: the same floats as one product
    per row (a stacked product multiplies each row on its own)."""
    return np.matmul(m, vs[:, :, None])[..., 0]


def _norms(vs: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``vs``, the same floats as one call
    per row."""
    return np.sqrt(np.matmul(vs[:, None, :], vs[:, :, None])[:, 0, 0])


def _signed(halves: list[np.ndarray], tail: Optional[np.ndarray] = None) -> np.ndarray:
    """Each row of the ``halves`` blocks followed by its negation, block by
    block, then the rows of ``tail``, written once into one array."""
    m = sum(h.shape[0] for h in halves)
    out = np.empty((2 * m + (0 if tail is None else tail.shape[0]), halves[0].shape[1]))
    pos = 0
    for h in halves:
        end = pos + 2 * h.shape[0]
        out[pos:end:2] = h
        np.negative(h, out=out[pos + 1:end:2])
        pos = end
    if tail is not None:
        out[pos:] = tail
    return out


def _units(vs: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``vs`` longer than ``floor``, normalized, and which rows
    those were."""
    norms = _norms(vs)
    keep = norms > floor
    return vs[keep] / norms[keep, None], keep


def _frame_halves(w: Subspace) -> list[np.ndarray]:
    """The basis vectors and, in a proper subspace, the unit projected axes:
    the frame is +/- each of these rows."""
    if w.dim == w.ambient_dim:
        return [w.basis]
    # projected ambient axes: boxy support sets have their facet normals
    # here, and the basis rows alone can be an arbitrarily rotated frame;
    # axis i projects to basis.T @ (column i of basis)
    axes = _images(w.basis.T, np.ascontiguousarray(w.basis.T))
    return [w.basis, _units(axes, 1e-10)[0]]


def _frame(w: Subspace) -> np.ndarray:
    """+/- each basis vector and, in a proper subspace, each projected axis:
    the rows every direction fan in ``w`` opens with."""
    return _signed(_frame_halves(w))


def _direction_fan(w: Subspace, size: tuple[int, int], seed: int,
                   extra=()) -> tuple[np.ndarray, list[int]]:
    """The frame rows, +/- each projected extra vector, then random unit
    directions in ``w`` up to ``max(per_dim * w.dim, floor)``.  Also the row
    of each extra vector (its negation is the next row), or 0, the first
    basis vector, for one with no component in ``w``."""
    n = w.ambient_dim
    halves = _frame_halves(w)
    opening = 2 * sum(h.shape[0] for h in halves)
    # w.project of each extra vector (all zero when w is {0})
    extra = np.asarray(extra, dtype=float).reshape(-1, n)
    units, keep = _units(_images(w.basis.T, _images(w.basis, extra)), 1e-14)
    rows = np.where(keep, opening + 2 * (np.cumsum(keep) - 1), 0).tolist()
    halves.append(units)
    have = opening + 2 * units.shape[0]
    rng = np.random.default_rng(seed)
    count = max(size[0] * w.dim, size[1])
    randoms = []
    while have < count and w.dim > 0:
        # one draw of w.dim normals per missing row, in order, as a loop
        # drawing a row at a time would take them
        u, _ = _units(_images(w.basis.T, rng.standard_normal((count - have, w.dim))), 1e-14)
        randoms.append(u)
        have += u.shape[0]
    return _signed(halves, np.vstack(randoms) if randoms else None), rows


def _support_fan(f: ScalarFunction, x, g: Gauge, w: Subspace, size, seed: int,
                 extra=()) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """:func:`_direction_fan` with f's support value along each row."""
    dirs, rows = _direction_fan(w, size, seed, extra)
    return dirs, _support_values(f, x, dirs, g, seed), rows


def _optimizer(w: Subspace, dirs, sups):
    """The solver of one row's LP: the z maximizing <z, dirs[row]> over the
    outer approximation {z : <z, v> <= h(v) for every fan row v} of the
    subdifferential; the optimum must attain that row's support value."""
    # in the whole space the basis is the identity: the rows are their own
    # coordinates
    full = w.dim == w.ambient_dim
    a_ub = dirs if full else dirs @ w.basis.T
    b_ub = sups + _LP_SLACK * (1.0 + np.abs(sups))

    def solve(row: int) -> np.ndarray:
        c = -(dirs[row] if full else w.basis @ dirs[row])
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
        return res.x if full else w.basis.T @ res.x

    return solve


def _vertices(w: Subspace, dirs, sups, rows) -> list[np.ndarray]:
    """The distinct optima of the rows' LPs (see :func:`_optimizer`).

    A row that a vertex found so far attains is skipped: that vertex is an
    optimum of the row's LP, since it is feasible and reaches the row's
    support value to within a relative 1e-9, and the LP optimum lies at most
    the constraint slack above it.
    """
    solve = _optimizer(w, dirs, sups)
    grads: list[np.ndarray] = []
    for row in rows:
        h = float(sups[row])
        if grads and float(np.max(np.array(grads) @ dirs[row])) >= \
                h - _ATTAINED_TOL * (1.0 + abs(h)):
            continue
        z = solve(row)
        if not any(np.linalg.norm(z - z0) <= 1e-7 * (1 + np.linalg.norm(z))
                   for z0 in grads):
            grads.append(z)
    return grads


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
    solve = _optimizer(w, dirs, sups)
    return [solve(rows[0] + (s < 0)) for s in signs]


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
    return SupportSet(base_point=x, directions=list(objectives),
                      support_values=[float(sups[r]) for r in rows],
                      subgradients=_vertices(w, dirs, sups, rows))


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
        # psi at every grid point, as one batch of the points x + t d
        vals = f.many(x + grid[:, None] * d) - target * grid
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
