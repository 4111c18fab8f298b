"""Directional derivatives and gauge-relative Clarke subdifferentials.

A vector is a subgradient at x when its pairing with every direction is
dominated by the (generalized) directional derivative there.  All direction
sampling happens inside span(gauge) intersected with the orthogonal
complement of the gauge kernel: along kernel directions the gauge cannot see
movement, so subgradients are quotient representatives that annihilate it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass, replace
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
    NonFiniteInputError,
    SupportMismatchError,
)
from .functions import ScalarFunction
from .geometry import (Gauge, Subspace, _row_norms, _signed_axes, _units, as_vector,
                       halving_steps)

_STEP_FLOOR = 5e-7
_SETTLE_TOL = 1e-10
#: a ladder stops early only at steps of at most _EARLY_STEP; a convex-flagged
#: function's ladder starts two octaves above it, the fewest steps at which
#: that rule can fire (every step is a power of two)
_EARLY_STEP = 2.0 ** -10
_CONVEX_START = 4.0 * _EARLY_STEP

#: gen_dir_deriv: PROBES base points per shell, at each of the gauge radii RADII
_PROBES, _RADII = 12, (1e-2 * 2.0 ** -16, 1e-2 * 2.0 ** -17)
#: fan sizes (per_dim, floor) of subgradient and stationarity tests, of
#: extraction LPs and of a hull's objectives; relative LP constraint slack
_TEST_FAN, _LP_FAN, _OBJECTIVE_FAN = (4, 16), (2, 16), (4, 8)
_LP_SLACK = 1e-8
#: a hull objective is attained by a vertex found so far, and a vertex lies
#: on an objective's optimal face, when it reaches the optimum to within this
#: relative margin
_ATTAINED_TOL = 1e-9
#: most ``w.dim``-row subsets of a fan whose vertex table is built; past it
#: every objective solves its own LP, or a box cut by one slab its closed
#: form (see :func:`_optimizer`).  A table vertex meets every row to a
#: relative _FEASIBLE_TOL; a subset of unit rows is singular when its
#: |determinant| is at most _SINGULAR_DET
_TABLE_SUBSETS, _FEASIBLE_TOL, _SINGULAR_DET = 4096, 1e-9, 1e-12
_INFEASIBLE = "support constraints are infeasible (noisy derivative estimates)"
#: relative tolerance of the sublinearity check of a convex flag
_SUBLINEAR_TOL = 1e-6
#: tolerances of a subgradient test's support inequality, of the
#: stationarity test and of a mean value witness's secant pairing
_SUBGRADIENT_TOL, _CRITICAL_TOL, _SECANT_TOL = 1e-6, 1e-6, 1e-6
#: a stationarity report names the first fan row within this relative margin
#: of the smallest support value, so values that tie up to rounding name one row
_TIE_TOL = 1e-12
#: a mean value search evaluates _SECTIONS interior chord points per round,
#: one batch each; a bracket at most 2/512 wide stops moving within about 20
#: rounds, so the cap is never what ends a search
_SECTIONS, _SECTION_ROUNDS = 14, 64
#: the interior points of a round on [lo, hi] are lo + k * (hi - lo) / 15 for
#: k in 1..14, the same floats as ``np.linspace(lo, hi, 16)[1:-1]``
_SECTION_INDEX = np.arange(1.0, _SECTIONS + 1.0)
#: rows of one batch evaluation hold at most this many coordinates, so a fan
#: is evaluated in chunks of half a megabyte whatever its size
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class Fan:
    """A direction fan: ``axes`` signed axes (row ``2j`` is ``+e_j``, row
    ``2j + 1`` is ``-e_j``), counted and never written, then the rows
    ``dirs``.  Its first ``frame`` rows are its frame; ``extras`` holds the
    row of each extra vector (its negation is the next row), 0 for one with
    no component in the fan's space (see :func:`_direction_fan`)."""

    dirs: np.ndarray
    axes: int = 0
    extras: tuple = ()
    frame: int = 0

    def __len__(self) -> int:
        return self.axes + self.dirs.shape[0]

    def row(self, r: int) -> np.ndarray:
        return _signed_axes(self.dirs.shape[1])[r] if r < self.axes else self.dirs[r - self.axes]

    def dense(self) -> np.ndarray:
        """Every row written into one matrix.  Only small fans are read
        this way: a rule fan, a vertex table's rows and a hull's listed
        objectives."""
        return np.vstack([_signed_axes(self.dirs.shape[1]), self.dirs]) if self.axes \
            else self.dirs

    def pairings(self, z: np.ndarray) -> np.ndarray:
        """``<v, z>`` for every row ``v``: ``+/- z[j]`` along ``+/- e_j``."""
        axes = self.axes
        out = np.empty(len(self))
        out[:axes:2] = z[:axes // 2]
        np.negative(z[:axes // 2], out=out[1:axes:2])
        out[axes:] = self.dirs @ z
        return out

    def nonzero_rows(self) -> np.ndarray:
        """The rows a derivative is taken along; the others read 0.  The
        signed axes are not measured."""
        return np.concatenate([np.arange(self.axes),
                               self.axes + np.flatnonzero(_row_norms(self.dirs) >= 1e-14)])

    def negation_pairs(self) -> np.ndarray:
        """The rows i whose next row is exactly the negation of row i.
        Among the signed axes those are the even rows; the last axis and the
        first written row are compared as vectors, and the written rows a
        chunk at a time."""
        dirs, axes = self.dirs, self.axes
        m, n = dirs.shape
        size = max(1, _CHUNK_ELEMENTS // max(n, 1))
        out = [np.arange(0, axes, 2)]
        if axes and m and np.all(dirs[0] == -self.row(axes - 1)):
            out.append(np.array([axes - 1]))
        for lo in range(0, m - 1, size):
            hi = min(lo + size, m - 1)
            out.append(axes + lo +
                       np.flatnonzero(np.all(dirs[lo + 1:hi + 1] == -dirs[lo:hi], axis=1)))
        return np.concatenate(out)

    def bounds(self, b: np.ndarray):
        """One value per row, split into the box of the signed axes
        ``-b[2i+1] <= z_i <= b[2i]`` as ``(lo, hi)`` rows (or ``(None,
        None)``) and the rest: the variable bounds of a past-cap LP, or the
        box that the closed form of :func:`_slab_optimum` reads."""
        axes = self.axes
        return np.column_stack([-b[1:axes:2], b[:axes:2]]) if axes else (None, None), b[axes:]

    def with_extras(self, w: Subspace, extra) -> "Fan":
        """This fan's frame, then +/- each ``extra`` vector projected onto
        ``w`` and normalized.  The row of a vector whose projection is at
        most a relative 1e-14 of its own length (every vector when ``w`` is
        {0}) is 0, the first frame row, and it adds none."""
        extra = np.asarray(extra, dtype=float).reshape(-1, w.ambient_dim)
        units, keep = _units(w.project_many(extra), 1e-14 * _row_norms(extra))
        rows = np.where(keep, self.frame + 2 * (np.cumsum(keep) - 1), 0).tolist()
        return Fan(np.vstack([self.dirs[:self.frame - self.axes], _signed([units])]), self.axes,
                   tuple(rows), self.frame)

    def at(self, op, base: np.ndarray, rows: np.ndarray, t: np.ndarray,
           base_rows: Optional[np.ndarray] = None, along=None) -> np.ndarray:
        """``op`` (a batch evaluator: point rows in, one value per row out)
        at the points ``base + t[i] * v``, ``v`` the row ``rows[i]``, or with
        ``base_rows`` at ``base[base_rows[i]] + t[i] * v``, a chunk at a
        time.  With signed axes, ``rows`` is ascending, so the axis rows
        lead.

        With one base point and ``along``, op's axis evaluator (see
        :attr:`ScalarFunction.many_along`), the axis rows are one call
        ``along(base, columns, signed steps)``, whose values may differ from
        op's in the last bits.  Otherwise a chunk's axis rows are read from
        :func:`_signed_axes` into its point buffer, and every point is the
        dense product and sum ``v * t + base``: the same floats as on the
        fan written dense."""
        dirs, axes = self.dirs, self.axes
        n = base.shape[-1]
        lead = bisect.bisect_left(rows, axes) if axes else 0
        out, skip = [], 0
        if lead and along is not None and base_rows is None:
            cols, odd = np.divmod(rows[:lead], 2)
            out.append(along(base, cols, np.where(odd, -t[:lead], t[:lead])))
            skip = lead
        size = max(1, _CHUNK_ELEMENTS // max(n, 1))
        single = rows.size - skip <= size
        buf = np.empty((min(size, rows.size - skip), n))
        for lo in range(skip, rows.size, size):
            hi = min(lo + size, rows.size)
            pts = buf[:hi - lo]
            k = min(max(lead - lo, 0), hi - lo)
            if k:
                pts[:k] = _signed_axes(n)[rows[lo:lo + k]]
            dirs.take(rows[lo + k:hi] - axes if axes else rows[lo:hi], axis=0, out=pts[k:])
            pts *= t[lo:hi, None]
            pts += base if base_rows is None else base[base_rows[lo:hi]]
            # a copy unless the buffer holds one chunk: the result may view it
            out.append(op(pts) if single else np.array(op(pts)))
        if len(out) == 1:
            return np.asarray(out[0])
        return np.concatenate(out) if out else np.empty(0)

    def feasible_steps(self, domain, base: np.ndarray, rows: np.ndarray, t: np.ndarray,
                       floor: float, base_rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Halve each start step ``t[i]`` until ``base + t[i] * v`` (``v``
        the row ``rows[i]``; with ``base_rows``, from ``base[base_rows[i]]``)
        lies in ``domain`` or the step is at most ``floor``; one batch
        membership call per halving, which takes the axis rows through the
        domain's axis evaluator when it has one.  Returns ``t``, updated in
        place."""
        def inside(search, steps):
            return self.at(domain._contains_checked, base, rows[search], steps,
                           None if base_rows is None else base_rows[search],
                           domain.contains_along)

        return halving_steps(inside, t, floor)


def _ladder(f: ScalarFunction, x: np.ndarray, fan: Fan) -> tuple[np.ndarray, np.ndarray]:
    """One-sided directional derivatives of f at x along the rows of the
    fan by halving difference ladders run in lockstep, and the number of
    sign changes between consecutive quotient differences on each row.

    Each row starts at the largest feasible step of at most 1, or of at
    most :data:`_CONVEX_START` (``2**-8``) for a function flagged convex:
    its quotients are nondecreasing in the step (Rockafellar 1970, Thm
    23.1), so coarser octaves cannot decide its value, while the
    oscillation count of any other function reads them.  Each step
    evaluates every row whose ladder is still running as one batch (the
    signed axes through f's axis evaluator when it has one, see
    :meth:`Fan.at`); each row keeps its own step, stopping rules and
    Richardson step, so its value is the one a ladder on that row alone
    would give, up to the last bits of an axis evaluator's values.
    """
    m = len(fan)
    out = np.zeros(m)
    oscillations = np.zeros(m, dtype=int)
    live = fan.nonzero_rows()
    if live.size == 0:
        return out, oscillations
    t = np.full(m, _CONVEX_START if f.convex else 1.0)
    # the floor sits well above the membership tolerance so that boundary
    # fuzz is not mistaken for a feasible sliver
    t[live] = fan.feasible_steps(f.domain, x, live, t[live], 1e-7)
    if np.any(t[live] <= 1e-7):
        raise NoFeasibleStepError("no feasible step from x along d inside the domain")
    fx = f(x)
    along = f.many_along

    def quotients(rows):
        return (fan.at(f.many, x, rows, t[rows], along=along) - fx) / t[rows]

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
        # signs, not a product, which overflows on huge finite quotients
        last = last_diff[run]
        flips = (diff > 0) & (last < 0) | (diff < 0) & (last > 0)
        oscillations[run[moving & has_diff[run] & flips]] += 1
        last_diff[run[moving]] = diff[moving]
        has_diff[run[moving]] = True
        # extrapolated values settling across two octaves means the
        # remaining error is beyond quadratic; stop early (but only at
        # steps small enough that coarse-scale structure is resolved)
        rich = 2.0 * q_new - q_old
        early = moving & has_rich[run] & (t[run] <= _EARLY_STEP) & \
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

    The ladder starts at the largest feasible step <= 1 (<= ``2**-8`` for
    a function flagged convex, see :func:`_ladder`), stops once two
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
    values, oscillations = _ladder(f, x, Fan(d[None, :]))
    if not f.convex and oscillations[0] >= 3:
        warnings.warn("difference quotients oscillate; the one-sided derivative "
                      "may not exist at this point", RuntimeWarning, stacklevel=2)
    return float(values[0])


def _generalized(f: ScalarFunction, x: np.ndarray, fan: Fan, g: Gauge, seed: int) -> np.ndarray:
    """Generalized directional derivatives along the rows of the fan.

    Each shell's probes are normal draws in R^n projected onto span(g)
    (in full dimension, the draws themselves), so no basis of the span is
    privileged.  They do not depend on the direction, so the shell base
    points are drawn, gauged and tested for membership (one batch each per
    shell) and evaluated once for the whole fan; every (row, base point)
    quotient of a shell is then one batch, ordered by row.
    """
    m = len(fan)
    out = np.zeros(m)
    live = fan.nonzero_rows()
    if live.size == 0:
        return out
    rng = np.random.default_rng(seed)
    best = np.full(m, -math.inf)
    for r in _RADII:
        us = g.span.project_many(rng.standard_normal((_PROBES, x.size)))
        mu = g._values_checked(us)
        scale = np.where(np.isfinite(mu) & (mu > 1e-9), mu, _row_norms(us))
        keep = scale > 1e-14
        probes = x + (r / scale[keep])[:, None] * us[keep]
        ys = np.vstack([x, probes[f.domain._contains_checked(probes)]])
        fy = f.many(ys)
        dir_rows = np.repeat(live, ys.shape[0])
        base_rows = np.tile(np.arange(ys.shape[0]), live.size)
        t = fan.feasible_steps(f.domain, ys, dir_rows, np.full(base_rows.size, r / 4.0), 1e-12,
                               base_rows)
        ok = t > 1e-12
        base_rows, dir_rows, t = base_rows[ok], dir_rows[ok], t[ok]
        with np.errstate(over="ignore", invalid="ignore"):
            quotients = (fan.at(f.many, ys, dir_rows, t, base_rows) - fy[base_rows]) / t
        if not np.all(np.isfinite(quotients)):
            # every value is finite, so a quotient that is not has overflowed
            raise NonFiniteInputError(
                f"the difference quotients of {f.name or '<anonymous>'} overflow near "
                f"{list(map(float, x))}")
        np.maximum.at(best, dir_rows, quotients)
    if not np.all(np.isfinite(best[live])):
        raise NoFeasibleStepError("no feasible probe near x for this direction")
    out[live] = best[live]
    return out


def gen_dir_deriv(f: ScalarFunction, x, d, g: Gauge, seed: int = 42) -> float:
    """Generalized (upper) directional derivative.

    Reports the max over two gauge-shells of base points around x (radii
    ``1e-2 * 2**-16`` and ``1e-2 * 2**-17``, drawn in R^n and projected
    onto span(g), so the value depends on the span and not on its basis),
    one difference quotient per base point with a step tied to the shell
    radius, as the limsup surrogate.  This is the one-row case of
    :func:`_support_values` for a function not flagged convex.
    """
    x = as_vector(x, f.domain.dim)
    d = as_vector(d, f.domain.dim)
    return float(_generalized(f, x, Fan(d[None, :]), g, seed)[0])


def _support_values(f: ScalarFunction, x: np.ndarray, fan: Fan, g: Gauge,
                    seed: int = 42) -> np.ndarray:
    """Support values of f's subdifferential at x along the rows of the
    fan: directional derivatives for convex-flagged functions, generalized
    directional derivatives otherwise, one fan at a time.

    A convex function's one-sided derivative is sublinear, so on every
    pair of consecutive rows v, -v (a fan's frame and extra rows come in
    such pairs) ``h(v) + h(-v) >= 0`` must hold; where it fails beyond a
    relative 1e-6, the convex flag is wrong and
    :class:`ConvexityFlagError` is raised.
    """
    if not f.convex:
        return _generalized(f, x, fan, g, seed)
    h = _ladder(f, x, fan)[0]
    i = fan.negation_pairs()
    total = h[i] + h[i + 1]
    bad = np.flatnonzero(total < -_SUBLINEAR_TOL * (1.0 + np.abs(h[i]) + np.abs(h[i + 1])))
    if bad.size:
        j = int(bad[0])
        v = fan.row(int(i[j]))
        raise ConvexityFlagError(
            f"function {f.name or '<anonymous>'} is flagged convex, but its one-sided "
            f"derivatives at {list(map(float, x))} along +/-{list(map(float, v))} "
            f"sum to {float(total[j]):.6g} < 0, which no convex function allows")
    return h


def _signed(halves: list[np.ndarray]) -> np.ndarray:
    """Each row of the ``halves`` blocks followed by its negation, block by
    block, written once into one array."""
    m = sum(h.shape[0] for h in halves)
    out = np.empty((2 * m, halves[0].shape[1]))
    pos = 0
    for h in halves:
        end = pos + 2 * h.shape[0]
        out[pos:end:2] = h
        np.negative(h, out=out[pos + 1:end:2])
        pos = end
    return out


def _fan_length(w: Subspace, size: tuple[int, int], opening: int) -> int:
    """The rows of a fan of ``size`` over ``w`` whose frame and extras take
    ``opening``: random rows fill it to ``max(per_dim * w.dim, floor)``.  A
    line has no direction but +/- its basis vector, so its fan has no
    random row."""
    return max(opening, size[0] * w.dim, size[1]) if w.dim > 1 else opening


def _objective_count(w: Subspace, frame: int) -> int:
    """The objectives of a hull over ``w`` whose frame has ``frame`` rows:
    the frame, then random rows up to ``max(4 * w.dim, 8)``."""
    return _fan_length(w, _OBJECTIVE_FAN, frame)


def _random_units(w: Subspace, count: int, seed: int) -> np.ndarray:
    """The first ``count`` rows of the seed's stream of random unit
    directions in ``w``, so a longer draw extends a shorter one."""
    rng = np.random.default_rng(seed)
    blocks, have = [np.empty((0, w.ambient_dim))], 0
    while have < count:
        # one draw of w.dim normals per missing row, in order, as a loop
        # drawing a row at a time would take them, lifted out of w's
        # coordinates (in the whole space, the draws themselves)
        u, _ = _units(w.lift(rng.standard_normal((count - have, w.dim))), 1e-14)
        blocks.append(u)
        have += u.shape[0]
    return np.vstack(blocks)


def _direction_fan(w: Subspace, size: tuple[int, int], seed: int, extra=()) -> Fan:
    """The fan of ``w``: the frame rows, +/- each projected extra vector
    (see :meth:`Fan.with_extras`), then random unit directions in ``w`` (see
    :func:`_random_units`) up to ``max(per_dim * w.dim, floor)`` rows.

    The frame of the whole space (whose basis is the identity) is its
    ``2 * n`` signed axes ``+e_0, -e_0, +e_1, ...``, which are counted and
    never written (see :class:`Fan`).  A proper subspace has 0 signed axes,
    and every row is written: its frame is +/- each basis vector and each
    unit projected axis (:meth:`Subspace.unit_axes`), but a line's frame is
    +/- its basis vector alone, where every axis projects."""
    n = w.ambient_dim
    axes = 2 * n if w.is_full else 0
    # projected ambient axes: boxy support sets have their facet normals
    # here, and the basis rows alone can be an arbitrarily rotated frame
    written = np.empty((0, n)) if axes else \
        _signed([w.basis, w.unit_axes()] if w.dim > 1 else [w.basis])
    fan = Fan(written, axes, frame=axes + written.shape[0]).with_extras(w, extra)
    draws = _random_units(w, _fan_length(w, size, len(fan)) - len(fan), seed)
    return replace(fan, dirs=np.vstack([fan.dirs, draws]))


def _hull_fan(w: Subspace, seed: int) -> tuple[np.ndarray, Fan]:
    """A hull's objectives over ``w`` (see :func:`_objective_count`),
    written dense, and its support fan: their frame, +/- each random
    objective, then the rows an extraction fan (``_LP_FAN``) holding
    those extras would draw past them.  That fan draws from the same
    stream, so its first rows repeat the objectives: in the plane all 4 do
    (12 rows, not 16), while over a plane in R^3, whose 10 frame rows fill
    the objectives, all 6 are support rows."""
    frame = _direction_fan(w, (0, 0), seed)  # a fan of size (0, 0): the frame alone
    k = _objective_count(w, len(frame)) - len(frame)
    tail = _fan_length(w, _LP_FAN, len(frame) + 2 * k) - len(frame) - 2 * k
    stream = _random_units(w, max(k, tail), seed)
    fan = frame.with_extras(w, stream[:k])
    return np.vstack([frame.dense(), stream[:k]]), replace(fan, dirs=np.vstack([fan.dirs,
                                                                               stream[k:]]))


def _subsets_at_most(m: int, k: int, cap: int) -> bool:
    """Whether ``math.comb(m, k) <= cap``, building the count only up to
    the cap: ``comb(m, j)`` grows with ``j`` up to ``m / 2``, so the exact
    product ``comb(m, j) = comb(m, j - 1) (m - j + 1) / j`` over ``j <=
    min(k, m - k)`` stops once it passes (an n = 1000 extraction's full
    count has about 600 digits)."""
    if k > m:
        return 0 <= cap
    count = 1
    for j in range(1, min(k, m - k) + 1):
        count = count * (m - j + 1) // j
        if count > cap:
            return False
    return count <= cap


def _vertex_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The vertices of {z : a z <= b} (rows of ``a`` unit vectors): the
    solution of every nonsingular square subsystem of ``a.shape[1]`` rows,
    solved as one batch, that meets every row to a relative
    :data:`_FEASIBLE_TOL` (the H->V step of Avis & Fukuda 1992, by brute
    force).  A vertex where more rows than the dimension are active may be
    listed more than once."""
    m, d = a.shape
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), d)),
                          dtype=np.intp).reshape(-1, d)
    mats = a[subsets]
    ok = np.abs(np.linalg.det(mats)) > _SINGULAR_DET
    z = np.linalg.solve(mats[ok], b[subsets[ok]][..., None])[..., 0]
    return z[np.all(z @ a.T <= b + _FEASIBLE_TOL * (1.0 + np.abs(b)), axis=1)]


def _slab_optimum(v: np.ndarray, lo: np.ndarray, hi: np.ndarray, top: float,
                  floor: float) -> np.ndarray:
    """The lexicographically smallest maximizer of <v, z> over the box
    ``lo <= z <= hi`` cut by the slab ``floor <= <v, z> <= top`` (either
    side may be infinite).

    That is the box's maximizing corner (``hi`` where ``v_i > 0``, else
    ``lo``) when it lies below ``top``; otherwise the lexicographically
    smallest point of the box on the plane ``<v, z> = top``, the greedy
    fill of a continuous knapsack (Dantzig 1957).  Its coordinates sit at
    ``lo`` while the rest of the box can still reach the plane, then one
    break coordinate meets it, and the rest sit at the corner that reaches
    it: the maximizing one when the plane lies above what the rest could
    give with the break at ``lo``, the minimizing one when below.  Prefix
    and suffix sums find the break in one pass.  Raises
    :class:`LpInfeasibleError` when ``lo > hi`` somewhere or the slab
    misses the box."""
    if np.any(lo > hi):
        raise LpInfeasibleError(_INFEASIBLE)
    up, down = np.where(v > 0, hi, lo), np.where(v < 0, hi, lo)
    # pre[k]: the first k coordinates at lo; most[k], least[k]: the
    # coordinates from k on at the maximizing and the minimizing corner
    pre = np.concatenate([[0.0], np.cumsum(v * lo)])
    most = np.concatenate([np.cumsum((v * up)[::-1])[::-1], [0.0]])
    least = np.concatenate([np.cumsum((v * down)[::-1])[::-1], [0.0]])
    if most[0] < floor or least[0] > top or top < floor:
        raise LpInfeasibleError(_INFEASIBLE)
    if most[0] <= top:
        return up
    short, over = pre + most < top, pre + least > top
    stop = np.flatnonzero(short | over)
    if stop.size == 0:
        return lo.copy()  # <v, lo> is the plane's value
    j = int(stop[0]) - 1
    rest, corner = (most, up) if short[j + 1] else (least, down)
    z = np.concatenate([lo[:j + 1], corner[j + 1:]])
    z[j] = min(max((top - pre[j] - rest[j + 1]) / v[j], lo[j]), hi[j])
    return z


def _optimizer(w: Subspace, fan: Fan, sups):
    """The solver of one row's LP: the optimal face of <z, v> (v the fan
    row ``row``) over the outer approximation {z : <z, v> <= h(v) + slack
    for every fan row v} of the subdifferential, as its vertices in
    lexicographic order; the optimum must attain that row's support value.

    When the fan has at most :data:`_TABLE_SUBSETS` subsets of ``w.dim``
    rows, every face is read from one vertex table (:func:`_vertex_table`)
    built here from the fan's rows, its signed axes written out too: the
    table vertices within a relative :data:`_ATTAINED_TOL` of the row's
    maximum.  Past the cap the signed axes are a box (see
    :meth:`Fan.bounds`).  When the fan's written rows are at most one pair
    ``+u, -u`` and the row is one of them (or, with no written row, an
    axis), the outer approximation is that box cut by one slab, and the
    face returned is its lexicographically smallest optimal vertex, in
    closed form (:func:`_slab_optimum`).  Any other row past the cap solves
    its LP (HiGHS), whose one optimum is the face it returns: the signed
    axes are its variable bounds, and its inequality rows are the written
    rows (none when there are none).
    """
    b_ub = sups + _LP_SLACK * (1.0 + np.abs(sups))

    def checked(row: int, attained: float) -> None:
        target = float(sups[row])
        if abs(attained - target) > 1e-5 * (1.0 + abs(target)):
            raise SupportMismatchError(
                f"support value {target:.6g} in the objective direction is not "
                f"attained (got {attained:.6g})")

    if _subsets_at_most(len(fan), w.dim, _TABLE_SUBSETS):
        a_ub = w.coords(fan.dense())
        table = _vertex_table(a_ub, b_ub)
        if table.shape[0] == 0:
            raise LpInfeasibleError(_INFEASIBLE)
        ambient = w.lift(table)

        def face(row: int) -> np.ndarray:
            values = table @ a_ub[row]
            best = float(np.max(values))
            checked(row, best)
            on = ambient[values >= best - _ATTAINED_TOL * (1.0 + abs(best))]
            return on[np.lexsort(on.T[::-1])]

        return face

    bounds, b_rows = fan.bounds(b_ub)
    dirs, axes = fan.dirs, fan.axes
    slab = axes and (b_rows.size == 0 or b_rows.size == 2 and np.all(dirs[1] == -dirs[0]))
    a_rows, b_rows = (w.coords(dirs), b_rows) if b_rows.size else (None, None)

    def solve(row: int) -> np.ndarray:
        if slab and (row >= axes or a_rows is None):
            v = fan.row(row)
            # a written row's own bound, and its partner's bound negated
            top, floor = (math.inf, -math.inf) if a_rows is None else \
                (b_rows[row - axes], -b_rows[(row - axes) ^ 1])
            z = _slab_optimum(v, bounds[:, 0], bounds[:, 1], top, floor)
            checked(row, float(v @ z))
            return z[None, :]
        c = -w.coords(fan.row(row)[None, :])[0]
        res = linprog(c, A_ub=a_rows, b_ub=b_rows, bounds=bounds, method="highs")
        if res.status != 0:
            # presolve misclassifies near-equality constraint pairs with tiny
            # right-hand sides as inconsistent; the raw solve handles them
            res = linprog(c, A_ub=a_rows, b_ub=b_rows, bounds=bounds, method="highs",
                          options={"presolve": False})
        if res.status != 0:
            raise LpInfeasibleError(_INFEASIBLE)
        checked(row, float(-res.fun))
        return w.lift(res.x[None, :])

    return solve


def _vertices(w: Subspace, fan: Fan, sups, rows) -> list[np.ndarray]:
    """The distinct vertices of the fan rows' optimal faces (see
    :func:`_optimizer`), in the order the rows and faces list them; a
    vertex within a relative 1e-7 of one listed before is dropped.

    A row that a vertex found so far attains is skipped: that vertex lies
    on the row's optimal face, since it is feasible and reaches the row's
    support value to within a relative 1e-9, and the optimum lies at most
    the constraint slack above it.
    """
    face = _optimizer(w, fan, sups)
    n = fan.dirs.shape[1]
    grads = np.empty((0, n))
    for row in rows:
        h = float(sups[row])
        if grads.size and float(np.max(grads @ fan.row(row))) >= \
                h - _ATTAINED_TOL * (1.0 + abs(h)):
            continue
        zs = face(row)
        listed = np.vstack([grads, zs])
        # each face vertex against every vertex listed before it, one norm
        # call; it is kept unless it is near a kept one
        near = _row_norms((listed - zs[:, None, :]).reshape(-1, n)).reshape(len(zs), -1) <= \
            1e-7 * (1 + _row_norms(zs))[:, None]
        keep = np.arange(len(listed)) < len(grads)
        for i, m in enumerate(range(len(grads), len(listed))):
            keep[m] = not np.any(near[i, :m] & keep[:m])
        grads = listed[keep]
    return list(grads)


def _extract(f: ScalarFunction, x: np.ndarray, g: Gauge, objective, seed: int,
             signs=(1,)) -> list[np.ndarray]:
    """Subgradients maximizing <z, s * objective> for each sign s on one fan
    at x; the objective defaults to the first reduced basis vector."""
    w = g.reduced
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span; the quotient "
                                   "is zero-dimensional")
    # the first basis vector, lifted from its coordinates: no identity is written
    obj = w.lift(np.eye(1, w.dim))[0] if objective is None else objective
    fan = _direction_fan(w, _LP_FAN, seed, extra=[obj])
    face = _optimizer(w, fan, _support_values(f, x, fan, g, seed))
    # one pick per sign: the lexicographically smallest vertex of the face
    return [face(fan.extras[0] + (s < 0))[0] for s in signs]


def is_subgradient(f: ScalarFunction, x, zeta, g: Gauge, seed: int = 42) -> bool:
    """Support-inequality check <zeta, v> <= f'(x; v) on sampled directions.

    Sampled verdict: a True is exact on the tested fan only.  Directions are
    quotient representatives (kernel directions are excluded by
    construction).
    """
    x = as_vector(x, f.domain.dim)
    zeta = as_vector(zeta, f.domain.dim)
    w = g.reduced
    if w.dim == 0:
        return float(np.linalg.norm(zeta)) <= _SUBGRADIENT_TOL
    fan = _direction_fan(w, _TEST_FAN, seed, extra=[zeta])
    sups = _support_values(f, x, fan, g, seed)
    return bool(np.all(fan.pairings(zeta) <= sups + _SUBGRADIENT_TOL * (1.0 + np.abs(sups))))


def extract_subgradient(f: ScalarFunction, x, g: Gauge, objective=None,
                        seed: int = 42) -> np.ndarray:
    """Subgradient maximizing <zeta, objective> over the support constraints
    of one direction fan at x that holds +/- the objective (by default the
    first reduced basis vector), projected onto the reduced space and
    normalized with an overflow-safe length, so that an objective of any
    finite scale keeps its direction.  An objective whose projection is at
    most a relative 1e-14 of its own length has no component there and
    reads the fan's first frame row.

    When the fan has at most 4,096 subsets of ``w.dim`` rows (``w`` the
    reduced space) the optimum comes from the fan's vertex table, and of a
    tied face the lexicographically smallest vertex is returned.  Past that
    cap the signed axes that open a fan over the whole space, never
    written, are a box.  In the whole space with n >= 7 the fan is that box
    and the objective's +/- pair, a slab (for an objective with no
    component and n >= 8, the box alone), and the optimum is solved in
    closed form, again the lexicographically smallest optimal vertex (see
    :func:`_slab_optimum`); otherwise (n = 5 or 6, whose fans carry random
    rows, or a wide proper subspace) one HiGHS LP returns its optimum, with
    the box as its variable bounds and the fan's other rows as its
    inequality rows.  The signed axes' support values come from f's axis
    evaluator when its batch evaluator carries one (the weighted grid's
    energy: one term per point, in the last bits not the floats of
    ``f.many``); for any other function they are the same floats as on the
    fan written dense.  Raises
    :class:`SupportMismatchError` when the optimum misses the objective's
    support value by more than a relative 1e-5."""
    x = as_vector(x, f.domain.dim)
    return _extract(f, x, g, None if objective is None else as_vector(objective, x.size), seed)[0]


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

    The objectives are drawn once: the frame rows of the reduced space
    ``w`` (the ``2n`` signed axes in the whole space), then random unit
    directions in ``w`` up to ``max(4 * w.dim, 8)`` rows (none over a
    line, whose objectives are +/- its basis vector).  The support fan
    is that frame, then each random objective followed by its negation,
    then the random rows of the same stream past the objectives that an
    extraction fan would hold (see :func:`_hull_fan`; in the plane: 4
    signed axes and +/- 4 random objectives, 12 rows).  The subgradients
    are the vertices of the objectives' optimal faces (see
    :func:`_vertices`), read from one vertex table of the fan's support
    values while the fan has at most 4,096 subsets of ``w.dim`` rows, so a
    tied facet lists its corners; past that cap each objective solves its
    LP.  Each objective's optimum attains its
    support value to a relative 1e-5, or :class:`SupportMismatchError` is
    raised; an objective skipped because a listed vertex attains it is
    attained to a relative 1e-9.  The vertices describe the subdifferential
    up to the sampled objective fan (exact for polytopal subdifferentials
    once the fan covers the facet normals).
    """
    x = as_vector(x, f.domain.dim)
    w = g.reduced
    if w.dim == 0:
        raise DegenerateGaugeError("the gauge kernel fills its span")
    directions, fan = _hull_fan(w, seed)
    sups = _support_values(f, x, fan, g, seed)
    rows = [*range(fan.frame), *fan.extras]
    return SupportSet(base_point=x, directions=list(directions),
                      support_values=[float(sups[r]) for r in rows],
                      subgradients=_vertices(w, fan, sups, rows))


def fermat_check(f: ScalarFunction, x, g: Gauge, seed: int = 42) -> dict:
    """Is zero a subgradient at x (stationarity in the quotient directions)?

    The report names the first fan row whose support value lies within a
    relative 1e-12 of the smallest, so values that tie up to rounding name
    the same row."""
    x = as_vector(x, f.domain.dim)
    w = g.reduced
    if w.dim == 0:
        return {"is_critical": True, "min_derivative": 0.0, "worst_direction": None}
    fan = _direction_fan(w, _TEST_FAN, seed)
    sups = _support_values(f, x, fan, g, seed)
    low = float(np.min(sups))
    i = int(np.argmax(sups <= low + _TIE_TOL * (1.0 + abs(low))))
    return {"is_critical": bool(low >= -_CRITICAL_TOL), "min_derivative": low,
            "worst_direction": list(map(float, fan.row(i)))}


@dataclass
class MeanValuePoint:
    point: np.ndarray
    alpha: float  # the witness is alpha * x + (1 - alpha) * y
    zeta: np.ndarray
    residual: float  # |<zeta, y - x> - (f(y) - f(x))|

    def to_json(self) -> dict:
        return {"point": list(map(float, self.point)), "alpha": float(self.alpha),
                "zeta": list(map(float, self.zeta)), "residual": float(self.residual)}


def _sectioning(psi, lo: float, hi: float) -> float:
    """Midpoint of the bracket that a k-point sectioning search (Kiefer
    1953) for a minimum of ``psi`` (parameters in, one value each out) on
    ``[lo, hi]`` leaves.  Each round evaluates :data:`_SECTIONS` equally
    spaced interior points as one batch and keeps the two cells around the
    smallest value (the first on ties).  A round that would leave the
    bracket unchanged stops the search: every later round would evaluate the
    same points.  At most :data:`_SECTION_ROUNDS` rounds run."""
    for _ in range(_SECTION_ROUNDS):
        ts = _SECTION_INDEX * ((hi - lo) / (_SECTIONS + 1)) + lo
        j = int(np.argmin(psi(ts)))
        left = lo if j == 0 else float(ts[j - 1])
        right = hi if j == _SECTIONS - 1 else float(ts[j + 1])
        if left == lo and right == hi:
            break
        lo, hi = left, right
    return 0.5 * (lo + hi)


def lebourg_point(f: ScalarFunction, x, y, g: Gauge, seed: int = 42) -> MeanValuePoint:
    """Mean value witness: a segment point whose subdifferential pairs with
    y - x to give exactly f(y) - f(x).

    When the chord is a kernel direction the function must be constant along
    it, and any quotient subgradient (which annihilates the kernel) works.
    Otherwise the witness extremizes the chord potential
    ``psi(t) = f(x + t(y-x)) - (f(y) - f(x)) t``: a scan of 513 chord points
    (one batch) picks the deeper of its interior minimum and maximum, and a
    sectioning search (:func:`_sectioning`, one batch per round) refines it
    inside the scan cells around that point.  A potential that the scan finds
    flat to a relative 1e-12 takes the chord's midpoint.
    """
    x = as_vector(x, f.domain.dim)
    y = as_vector(y, f.domain.dim)
    d = y - x
    fx = f(x)
    target = f(y) - fx
    mu = g.value(d)
    if mu <= 1e-12:
        if abs(target) > 1e-9:
            raise KernelViolationError(
                f"function varies by {target:.3g} along a zero-gauge chord")
        z = 0.5 * (x + y)
        zeta = _extract(f, z, g, None, seed)[0]
        return MeanValuePoint(point=z, alpha=0.5, zeta=zeta,
                              residual=abs(float(zeta @ d) - target))

    # psi takes equal values at the chord endpoints, so an interior extremum
    # exists and carries a subgradient pairing exactly to the secant slope.
    # Extremizing function values (instead of root-finding on derivative
    # estimates) stays sharp at kinks.
    def psi(ts: np.ndarray) -> np.ndarray:
        return f.many(x + ts[:, None] * d) - target * ts

    grid = np.linspace(0.0, 1.0, 513)
    vals = psi(grid)
    i_min = int(np.argmin(vals[1:-1])) + 1
    i_max = int(np.argmax(vals[1:-1])) + 1
    drop = vals[0] - vals[i_min]
    rise = vals[i_max] - vals[0]
    if max(drop, rise) <= 1e-12 * (1.0 + abs(fx)):
        t_star = 0.5  # the potential is flat: every point is a witness
    elif drop >= rise:
        t_star = _sectioning(psi, grid[i_min - 1], grid[i_min + 1])
    else:
        t_star = _sectioning(lambda ts: -psi(ts), grid[i_max - 1], grid[i_max + 1])
    if not 0.0 < t_star < 1.0:
        raise NoBracketError("no interior extremum of the chord potential")
    z = x + t_star * d
    zeta_hi, zeta_lo = _extract(f, z, g, d, seed, signs=(1, -1))
    hi = float(zeta_hi @ d)
    lo = float(zeta_lo @ d)
    width = hi - lo
    slack = _SECANT_TOL * (1.0 + abs(target))
    if target > hi + slack or target < lo - slack:
        raise SupportMismatchError(
            f"pairing range [{lo:.6g}, {hi:.6g}] at the witness point misses the "
            f"secant slope {target:.6g}")
    theta = 0.5 if width <= 1e-14 else min(1.0, max(0.0, (target - lo) / width))
    zeta = (1.0 - theta) * zeta_lo + theta * zeta_hi
    return MeanValuePoint(point=z, alpha=1.0 - t_star, zeta=zeta,
                          residual=abs(float(zeta @ d) - target))
