"""Vectors, subspaces, convex-set representations and Minkowski gauges.

Convex sets carry one of four representations (halfspaces, vertex hull,
sublevel set of a scalar function, or a raw membership oracle), and each
representation answers the geometric questions about its set.  The base
class :class:`Representation` answers them from membership alone (halving
probes, rejection and reflection sampling, bracket-and-bisect gauges); every
other representation overrides it where an exact formula, LP or set structure
exists.  Membership and gauges are answered for rows only, one value per row
of a matrix; a point query is a one-row batch.  Gauges are Minkowski
functionals of a set translated so that its claimed center sits at the
origin; they are finite exactly on the linear span of the translated set and
vanish exactly on its lineality directions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from scipy.special import ndtr

from .errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    NotInSetError,
    SetFormatError,
    UsageError,
)

RANK_TOL = 1e-10
DEFAULT_TOL = 1e-9

#: step sizes used when shrinking a probe toward a point of the set
_SHRINK_FLOOR = 1e-12
#: membership chords per dimension drawn when probing a span
SPAN_SAMPLES_PER_DIM = 4
#: reflected members drawn when symmetry is checked from membership alone
SYMMETRY_SAMPLES = 128
#: proposals a rejection round draws past its acceptance estimate
_ROUND_MARGIN = 8
#: most proposals one output of the rejection sampler consumes: 50 misses,
#: then one proposal kept or pulled inside
_MOST_PER_OUTPUT = 51
#: member pairs whose midpoints the convexity spot check tests
CONVEXITY_TRIALS = 32
#: tolerance of the exact symmetry checks (halfspace and vertex sets)
SYMMETRY_TOL = 1e-8
#: radius of the two-sided membership probes that find kernel directions
KERNEL_PROBE_RADIUS = 1e8
#: most vertices (by the Upper Bound Theorem) a halfspace set may have for
#: qhull to enumerate them
MAX_VERTICES = 10**5
#: smallest normal float: a smaller sum of squares has lost digits to underflow
_TINY = np.finfo(float).tiny


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Validate and convert ``x`` to a 1-D float array."""
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"expected a numeric vector: {exc}") from None
    if v.ndim != 1:
        if v.ndim != 0:
            raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
        v = v.reshape(1)
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise NonFiniteInputError("vector has non-finite entries")
    return v


def as_rows(xs, dim: int) -> np.ndarray:
    """Validate and convert ``xs`` to a matrix of finite rows of dimension ``dim``."""
    xs = _rows_of(xs, dim)
    if not np.isfinite(xs).all():
        raise NonFiniteInputError("vector has non-finite entries")
    return xs


def _rows_of(xs, dim: int) -> np.ndarray:
    """:func:`as_rows`'s shape test alone."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise DimensionMismatchError(f"expected rows of dimension {dim}, got shape {xs.shape}")
    return xs


def root_of_squares(sum_sq: Callable[[np.ndarray], float], x) -> float:
    """``sqrt(sum_sq(x))`` for a sum of squares ``sum_sq`` (homogeneous of
    degree 2).  When the plain sum overflows or underflows, ``x`` is first
    divided by its largest entry and the root scaled back, so a finite
    nonzero ``x`` gets a finite nonzero value; otherwise the float is the
    plain root's."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        sq = sum_sq(x)
    if not _TINY <= sq < math.inf:
        top = float(np.abs(x).max(initial=0.0))
        if 0.0 < top < math.inf:
            return top * math.sqrt(sum_sq(x / top))
    return math.sqrt(sq)


def _row_norms(xs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: :func:`root_of_squares` of its plain sum
    of squares, the float ``np.linalg.norm`` gives the row wherever that sum
    neither overflows nor underflows."""
    with np.errstate(over="ignore"):
        sq = np.matmul(xs[:, None, :], xs[:, :, None])[:, 0, 0]
    out = np.sqrt(sq)
    if not (sq.min(initial=math.inf) >= _TINY and sq.max(initial=0.0) < math.inf):
        for i in np.flatnonzero(((sq < _TINY) & xs.any(axis=1)) | (sq == math.inf)):
            out[i] = root_of_squares(lambda v: float(v.dot(v)), xs[i])
    return out


def _stored_range(norms: np.ndarray) -> bool:
    """Whether every row norm is in ``[2**-0.5, 2**0.5)``, where
    :class:`Halfspaces` stores a row as written (true of no rows)."""
    return bool(2.0 ** -0.5 <= norms.min(initial=1.0) <= norms.max(initial=1.0) < 2.0 ** 0.5)


def _images(m: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """``m @ v`` for each row v of ``vs``: the same floats as one product
    per row (a stacked product multiplies each row on its own)."""
    return np.matmul(m, vs[:, :, None])[..., 0]


def _units(vs: np.ndarray, floor) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``vs`` longer than ``floor`` (one number, or one per
    row), normalized by its overflow-safe length, and which rows those
    were."""
    norms = _row_norms(vs)
    keep = norms > floor
    return vs[keep] / norms[keep, None], keep


def _rank(s: np.ndarray) -> int:
    """The numerical rank of a matrix with singular values ``s``, largest first."""
    return int(np.sum(s > RANK_TOL * max(1.0, s[0])))


class Subspace:
    """A linear subspace of R^n given by ``dim`` orthonormal rows ``basis``.
    The whole space (``dim == ambient_dim``) is one space whatever frame
    built it: rows are their own coordinates, so :meth:`coords` and
    :meth:`lift` return their input, and its identity basis is written
    only when something reads it."""

    def __init__(self, basis, ambient_dim: int):
        basis = np.asarray(basis, dtype=float).reshape(-1, ambient_dim)
        self.ambient_dim, self.dim = ambient_dim, basis.shape[0]
        if not self.is_full:
            self.basis = basis  # a whole space's frame is dropped

    @cached_property
    def basis(self) -> np.ndarray:
        """The whole space's basis, the identity, written on first read."""
        return np.eye(self.ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((0, ambient_dim)), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """R^n, from a frame of broadcast zeros that is never written."""
        return cls(np.broadcast_to(0.0, (ambient_dim, ambient_dim)), ambient_dim)

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int) -> "Subspace":
        """Orthonormalize a (possibly redundant) spanning family via SVD."""
        arr = np.asarray(vectors, dtype=float).reshape(-1, ambient_dim)
        arr = arr[_row_norms(arr) > RANK_TOL]
        if arr.shape[0] == 0:
            return cls.zero(ambient_dim)
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
        return cls(vt[:_rank(s)], ambient_dim)

    @property
    def is_full(self) -> bool:
        """Is this the whole space?"""
        return self.dim == self.ambient_dim

    def coords(self, vs: np.ndarray) -> np.ndarray:
        """The coordinates ``basis @ v`` of each row v of ``vs``, the same
        floats as one product per row; in the whole space, ``vs`` itself."""
        return vs if self.is_full else _images(self.basis, vs)

    def lift(self, cs: np.ndarray) -> np.ndarray:
        """The ambient row ``basis.T @ c`` of each coordinate row c of ``cs``,
        as :meth:`coords` computes; in the whole space, ``cs`` itself."""
        return cs if self.is_full else _images(self.basis.T, cs)

    def project_many(self, vs: np.ndarray) -> np.ndarray:
        """The projection ``lift(coords(v))`` of each row v of ``vs``.  In
        the whole space it is each row plus 0.0 (a -0.0 entry reads 0.0), the
        floats of the two products with the identity, with no n^2 pass."""
        out = self.lift(self.coords(vs))
        return out + 0.0 if self.is_full else out

    def residuals(self, vs: np.ndarray) -> np.ndarray:
        """The distance of each row of ``vs`` from the subspace."""
        return _row_norms(vs - self.project_many(vs))

    def contains_many(self, xs: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """Is each row x within ``tol * (1 + |x|)`` of the subspace (always, in R^n)?"""
        if self.is_full:
            return np.ones(xs.shape[0], dtype=bool)
        return self.residuals(xs) <= tol * (1.0 + _row_norms(xs))

    def contains(self, x, tol: float = 1e-8) -> bool:
        return bool(self.contains_many(as_vector(x, self.ambient_dim)[None, :], tol)[0])

    def complement(self) -> "Subspace":
        """The orthogonal complement: the null space of the basis rows."""
        return _null_space(self.basis, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection: the null space of both complements' rows."""
        return _null_space(np.vstack([self.complement().basis, other.complement().basis]),
                           self.ambient_dim)

    def unit_axes(self) -> np.ndarray:
        """The ambient axes projected in (axis i lifts column i of the basis)
        and normalized, those longer than 1e-10."""
        return _units(self.lift(np.ascontiguousarray(self.basis.T)), 1e-10)[0]


def _null_space(a: np.ndarray, n: int) -> Subspace:
    """The null space of the rows of ``a`` in R^n (R^n when it has none)."""
    if a.shape[0] == 0:
        return Subspace.full(n)
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    return Subspace(vt[_rank(s):], n)


# ---------------------------------------------------------------------------
# Convex set representations
# ---------------------------------------------------------------------------


class Representation:
    """Geometry from membership alone.

    Subclasses answer membership for rows only, ``contains_many(s, xs,
    tol)`` (one truth value per row of a matrix of finite rows, checked
    where input enters; a point query is a one-row batch), and supply
    ``propose_many(s, rng, k)`` (``k`` random points near the set, for the
    rejection sampler).  Gauges too are answered for rows,
    ``gauge_many(g, us)``.  Every method here needs only membership tests of
    the owning set ``s``, asked a batch at a time where the search allows,
    and is overridden where a representation has an exact formula.
    """

    def anchor(self, s: "ConvexSet") -> np.ndarray:
        origin = np.zeros(s.dim)
        if s._contains_checked(origin[None, :])[0]:
            return origin
        raise NotInSetError("oracle set without center: no anchor found")

    def contains_along(self, s: "ConvexSet") -> Optional[Callable]:
        """The axis evaluator of :meth:`contains_many`; none by default."""
        return None

    def sample(self, s: "ConvexSet", rng: np.random.Generator, n: int) -> list[np.ndarray]:
        """Rejection sampling: each output is the first of 50 proposals that
        is a member; when none is, the next proposal pulled inside toward the
        anchor.

        Each round draws a block of proposals and tests it with one
        ``contains_many``, and the outputs consume the block in order.  The
        first round draws one proposal per output; a later one draws as many
        as the acceptance so far says the missing outputs need
        (:func:`_round_size`).  When a round draws more than its outputs
        consume, ``rng`` is rewound to the round's start and the consumed
        proposals are drawn again, so the samples, and the state ``rng`` is
        left in, are those of a loop of one proposal at a time.  A round
        larger than one proposal per missing output that raises is rerun at
        that size, every proposal of which the loop tests, so no error comes
        from a proposal the loop would never test."""
        anchor = s.anchor()
        out: list[np.ndarray] = []
        misses = tested = accepted = 0
        while len(out) < n:
            missing = n - len(out)
            size, start = _round_size(missing, tested, accepted), rng.bit_generator.state
            try:
                block, inside = self._round(s, rng, size)
            except Exception:  # rerun at the loop's size: an error there is the loop's own
                if size == missing:
                    raise
                rng.bit_generator.state = start
                size = missing
                block, inside = self._round(s, rng, size)
            tested, accepted = tested + size, accepted + int(np.count_nonzero(inside))
            used = 0
            for cand, member in zip(block, inside):
                if len(out) == n:
                    break
                used += 1
                if misses == 50:
                    out.append(cand if member else _pull_inside(s, anchor, cand))
                    misses = 0
                elif member:
                    out.append(cand)
                    misses = 0
                else:
                    misses += 1
            if used < size:
                rng.bit_generator.state = start
                self.propose_many(s, rng, used)
        return out

    def _round(self, s: "ConvexSet", rng: np.random.Generator,
               size: int) -> tuple[list[np.ndarray], np.ndarray]:
        """``size`` proposals and their membership, one batch test."""
        block = self.propose_many(s, rng, size)
        return block, s._contains_checked(np.array(block).reshape(-1, s.dim))

    def span(self, s: "ConvexSet", base: np.ndarray) -> Subspace:
        """Coordinate directions reachable from ``base`` (:func:`_axis_reaches`)
        plus chords to sampled members.  When the reachable axes already
        have rank n the span is R^n, which no chord changes, and no member
        is drawn."""
        reached = _axis_reaches(s, base)
        if reached.reshape(s.dim, 2).any(axis=1).all():
            return Subspace.full(s.dim)
        rng = np.random.default_rng(0)
        dirs = list(_signed_axes(s.dim)[reached])
        for y in s.sample_members(rng, SPAN_SAMPLES_PER_DIM * s.dim):
            dirs.append(y - base)
        return Subspace.from_spanning(dirs, s.dim)

    def in_icr(self, s: "ConvexSet", x: np.ndarray) -> bool:
        """Sampled verdict: both ways along every span direction stay in the
        set for some step (may report false positives on cusps).  When the
        span is R^n those directions are the signed axes, whose probes the
        span kept, so no membership test is made."""
        span = s.span(x)
        if span.is_full:
            return bool(np.all(_axis_reaches(s, x)))
        basis = span.basis
        return bool(np.all(_reaches(s, x, np.vstack([basis, -basis]))))

    def is_symmetric(self, s: "ConvexSet", p: np.ndarray) -> bool:
        """Every sampled member's reflection through ``p`` is a member (one
        batch test)."""
        members = np.array(s.sample_members(np.random.default_rng(0), SYMMETRY_SAMPLES))
        return bool(np.all(s._contains_checked(2.0 * p - members)))

    def gauge_many(self, g: "Gauge", us: np.ndarray) -> np.ndarray:
        """``inf`` off the span and 0 at a zero row or on the kernel; every
        other row is bracketed and bisected on its own (:func:`_bisected`)."""
        out = np.full(us.shape[0], math.inf)
        live = g.span.contains_many(us, max(g.tol, 1e-8))
        flat = ~us.any(axis=1)
        if g.kernel.dim > 0:
            flat |= live & g.kernel.contains_many(us, 1e-10)
        out[flat] = 0.0
        for i in np.flatnonzero(live & ~flat):
            out[i] = _bisected(g, us[i])
        return out

    def kernel(self, g: "Gauge") -> Subspace:
        """Large-radius membership probes over span basis directions, the
        ambient axes projected into the span (a proper span's basis can be
        any rotated frame of it) and pairwise basis combinations."""
        s, p = g.set, g.set.center
        basis = g.span.basis
        probe_dirs = list(basis) + list(g.span.unit_axes())
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                probe_dirs.append((basis[i] + basis[j]) / math.sqrt(2))
                probe_dirs.append((basis[i] - basis[j]) / math.sqrt(2))
        dirs = np.array(probe_dirs).reshape(-1, g.dim)
        r = KERNEL_PROBE_RADIUS
        dirs = dirs[s._contains_checked(p + r * dirs)]
        return Subspace.from_spanning(dirs[s._contains_checked(p - r * dirs)], g.dim)

    def symmetric_core(self, s: "ConvexSet", x0: np.ndarray) -> "ConvexSet":
        """``s ∩ (2 x0 - s)``: the sublevel set, inside ``s``, of the reflection test."""
        outside = batch_callable(lambda ys: np.where(s._contains_checked(2.0 * x0 - ys), 0.0, 1.0))
        return ConvexSet._centered(s.dim, Sublevel(outside, 0.0, s), x0)

    def extreme_points(self) -> list[np.ndarray]:
        """Points known to include every extreme point of the set (empty when
        unknown); a convex function attains its sup over the set there."""
        return []


def _bisected(g: "Gauge", x: np.ndarray) -> float:
    """The gauge at ``x`` from membership alone: "``center + x / t`` is a
    member" is bracketed by halving or doubling ``t`` from 1 and bisected to
    relative ``g.tol``.  A bracket below ``1e-3 g.tol |x|`` reads 0 and one
    above ``1e15 |x|`` reads ``inf``: bounds relative to ``|x|``, so
    ``2**k x`` takes the same steps scaled by ``2**k``."""
    def pred(t: float) -> bool:
        return g.set._contains_checked((g.set.center + x / t)[None, :])[0]

    size = float(_row_norms(x[None, :])[0])
    floor, ceiling = g.tol * 1e-3 * size, 1e15 * size  # Python floats: inf, not a warning
    t = 1.0
    if pred(t):
        while pred(t * 0.5):
            t *= 0.5
            if t <= floor:
                return 0.0
        lo, hi = 0.5 * t, t
    else:
        while not pred(t * 2.0):
            t *= 2.0
            if t >= ceiling:
                return math.inf
        lo, hi = t, 2.0 * t
    while hi - lo > g.tol * hi:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def halving_steps(inside: Callable[[np.ndarray, np.ndarray], np.ndarray], t: np.ndarray,
                  floor: float) -> np.ndarray:
    """Halve each start step ``t[i]`` until ``inside(rows, steps)`` (the
    rows still searched and their steps in, one truth value per row out)
    holds for row ``i`` or the step is at most ``floor``; one ``inside``
    call per halving.  Returns ``t``, updated in place."""
    search = np.arange(t.size)
    while search.size:
        search = search[~inside(search, t[search])]
        t[search] *= 0.5
        search = search[t[search] > floor]
    return t


def _reaches(s: "ConvexSet", x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """For each row ``d`` of ``dirs``: does some halving step ``t <= 1``
    keep ``x + t d`` in the set?"""
    t = halving_steps(lambda rows, steps: s._contains_checked(x + steps[:, None] * dirs[rows]),
                      np.ones(dirs.shape[0]), _SHRINK_FLOOR)
    return t > _SHRINK_FLOOR


@lru_cache(maxsize=8)
def _signed_axes(n: int) -> np.ndarray:
    """The ``2n`` signed axes of R^n, ``+e_0, -e_0, +e_1, ...``, as a
    read-only ``(2n, n)`` view of ``4n`` floats (never the ``2n * n`` of a
    written matrix): element ``j`` of row ``r`` is ``pattern[2n - r + 2j]``,
    where the pattern holds 0.0 at even and -0.0 at odd places but for 1.0
    at ``2n`` and -1.0 at ``2n - 1``.  So ``-e_j`` carries the sign bit in
    every entry, as ``-1.0 * e_j`` does."""
    pattern = np.zeros(4 * n)
    pattern[1::2] = -0.0
    pattern[2 * n], pattern[2 * n - 1] = 1.0, -1.0
    item = pattern.itemsize
    return np.lib.stride_tricks.as_strided(pattern[2 * n:], shape=(2 * n, n),
                                           strides=(-item, 2 * item), writeable=False)


def _axis_reaches(s: "ConvexSet", x: np.ndarray) -> np.ndarray:
    """:func:`_reaches` from ``x`` along :func:`_signed_axes`, probed at
    most once per point and kept on the set."""
    return s._kept("axis reaches", x, lambda: _reaches(s, x, _signed_axes(s.dim)))


def _round_size(missing: int, tested: int, accepted: int) -> int:
    """Proposals for a rejection round with ``missing`` outputs to fill,
    after ``accepted`` of ``tested`` proposals were members: one per output
    in the first round; then ``missing`` over the acceptance so far, plus
    :data:`_ROUND_MARGIN`, and never more than :data:`_MOST_PER_OUTPUT`
    per output, all that 50 misses and the output itself can consume."""
    if tested == 0:
        return missing
    cap = _MOST_PER_OUTPUT * missing
    if accepted == 0:
        return cap
    return min(-(-missing * tested // accepted) + _ROUND_MARGIN, cap)


def _max_vertex_count(m: int, n: int) -> int:
    """Upper Bound Theorem: the most vertices a polytope in R^n with m > n
    facets can have (attained by the duals of cyclic polytopes)."""
    return math.comb(m - (n + 1) // 2, n // 2) + math.comb(m - n // 2 - 1, (n + 1) // 2 - 1)


def _pull_inside(s: "ConvexSet", anchor: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest point of [anchor, y] still in the set, by bisection, for a
    ``y`` outside it."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if s._contains_checked((anchor + mid * (y - anchor))[None, :])[0]:
            lo = mid
        else:
            hi = mid
    return anchor + lo * (y - anchor)


@dataclass(frozen=True)
class Halfspaces(Representation):
    """Intersection of halfspaces ``normal . x <= offset``.

    Each row and its offset are stored divided by ``2**e``, the power of two
    that puts the row's norm in ``[2**-0.5, 2**0.5)``: an exact scaling,
    which leaves the set and its gauge as they are and rows of norm 1 (to
    rounding) unchanged, so every method reads one row form and what it
    answers depends on the set, not on how its rows were written.  A zero
    row, and one whose offset the scaling would overflow, is stored as
    written.  :meth:`to_json` writes the stored rows, the same set.

    The Chebyshev centre (one LP) is computed at most once per set; anchors,
    samples and the vertex list all start from it.
    """

    normals: np.ndarray  # (m, n)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        a, b = np.asarray(self.normals, dtype=float), np.asarray(self.offsets, dtype=float).ravel()
        norms = _row_norms(a)
        if not _stored_range(norms):
            frac, e = np.frexp(norms)
            e = np.where(norms > 0.0, e - (frac < 2.0 ** -0.5), 0)
            with np.errstate(over="ignore"):
                e[np.isinf(np.ldexp(b, -e))] = 0
            a, b = np.ldexp(a, -e[:, None]), np.ldexp(b, -e)
            norms = _row_norms(a)
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "_norms", norms)

    @classmethod
    def _of_stored(cls, normals: np.ndarray, offsets: np.ndarray,
                   norms: np.ndarray) -> "Halfspaces":
        """The set of rows taken from stored sets, whose norms are
        ``norms``, with new offsets.  When every norm is in range,
        ``__post_init__`` would store the rows as written and compute these
        norms again, so they are stored as given; otherwise the set is built
        afresh, since a row stored as written because its offset overflowed
        may scale with its new offset."""
        if not _stored_range(norms):
            return cls(normals, offsets)
        out = object.__new__(cls)
        object.__setattr__(out, "normals", normals)
        object.__setattr__(out, "offsets", np.asarray(offsets, dtype=float).ravel())
        object.__setattr__(out, "_norms", norms)
        return out

    def contains_many(self, s, xs, tol):
        """Every slack ``b - a.x`` at least ``-tol (1 + |b|)``: one stacked product."""
        slack = self.offsets - _images(self.normals, xs)
        return np.all(slack >= -tol * (1.0 + np.abs(self.offsets)), axis=1)

    def _active(self, x: np.ndarray) -> np.ndarray:
        """Rows that hold with equality at ``x``, to 1e-9 relative."""
        return self.offsets - self.normals @ x <= 1e-9 * (1.0 + np.abs(self.offsets))

    def _implicit(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows active at ``x``, and which of them are implicit
        equalities (hold with equality on the whole set).

        A member y leaves an active row strictly iff the direction y - x
        does, so the implicit equalities are the active rows that no
        direction of the cone ``A_act d <= 0`` leaves.  One LP finds them,
        ``max sum s_i`` subject to ``A_act d + s <= 0``, ``0 <= s <= 1``: at
        its optimum every other active row reaches ``s_i = 1`` (a sum of
        directions leaves all of them at once) and an implicit one stays at
        0.  No LP is solved when no row is active.
        """
        active = np.flatnonzero(self._active(x))
        k, n = active.size, self.normals.shape[1]
        if k == 0:
            return active, np.zeros(0, dtype=bool)
        res = linprog(np.concatenate([np.zeros(n), -np.ones(k)]),
                      A_ub=np.hstack([self.normals[active], np.eye(k)]), b_ub=np.zeros(k),
                      bounds=[(None, None)] * n + [(0.0, 1.0)] * k, method="highs")
        return active, res.x[n:] < 0.5

    @cached_property
    def _chebyshev(self) -> Optional[tuple[np.ndarray, float]]:
        """Centre and radius of the largest ball in the set; None when the
        system is infeasible."""
        n = self.normals.shape[1]
        a_ub = np.hstack([self.normals, self._norms[:, None]])
        c = np.append(np.zeros(n), -1.0)
        res = linprog(c, A_ub=a_ub, b_ub=self.offsets, bounds=[(-1e7, 1e7)] * n + [(0.0, 1e6)],
                      method="highs")
        return (res.x[:n], float(res.x[-1])) if res.status == 0 else None

    @cached_property
    def _bounding(self) -> np.ndarray:
        """The rows that bound the set: all but a zero row and a row stored
        as written because its offset over its norm overflows."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.isfinite(self.offsets / self._norms)

    def anchor(self, s):
        """Chebyshev centre."""
        if self._chebyshev is None:
            raise NotInSetError("halfspace system has no interior point")
        return self._chebyshev[0]

    def sample(self, s, rng, n):
        """Uniform steps along random chords from the anchor, each at most
        1e3 long.  Each chord takes one draw of ``dim + 1`` standard
        normals: the first ``dim``, divided by the square root of their sum
        of squares, give a unit direction, and the normal CDF (``ndtr``,
        uniform on [0, 1]) of the last gives the fraction of the longest
        step along it that the rows allow; a zero direction gives the
        anchor.  The block is one ``rng.standard_normal((n, dim + 1))``
        call, the floats that ``n`` one-chord calls draw, and leaves ``rng``
        in the same state."""
        anchor = s.anchor()
        draws = rng.standard_normal((n, s.dim + 1))
        dirs, fracs = draws[:, :-1], ndtr(draws[:, -1])
        norms = np.sqrt((dirs * dirs).sum(axis=1))
        zero = norms < 1e-14
        norms[zero] = 1.0
        dirs = dirs / norms[:, None]
        rates = np.matmul(self.normals, dirs[:, :, None])[:, :, 0]
        slack = self.offsets - self.normals @ anchor
        # a row the chord does not approach sets no bound; dividing only on
        # the others keeps a large slack from overflowing
        steps = np.divide(slack, rates, out=np.full(rates.shape, np.inf), where=rates > 1e-14)
        reach = steps.min(axis=1)
        tmax = np.where(reach > 1e3, 1e3, reach)
        out = anchor + (fracs * np.where(tmax < 0.0, 0.0, tmax))[:, None] * dirs
        out[zero] = anchor
        return list(out)

    def span(self, s, base):
        """The null space of the implicit equalities among the rows active
        at ``base`` (see :meth:`_implicit`).  With no active row the base
        point is interior and the span is R^n, found with no LP and no
        membership test."""
        active, equal = self._implicit(base)
        return _null_space(self.normals[active[equal]], s.dim)

    def in_icr(self, s, x):
        """Every active row is an implicit equality."""
        return bool(np.all(self._implicit(x)[1]))

    def is_symmetric(self, s, p):
        """``2p - s`` lies in ``s``: for every unit row, ``2 a.p - min_s a.y
        <= b``.  When the set lists its vertices (:meth:`extreme_points`),
        ``min_s a.y`` is attained at one, so every reflected vertex
        ``2p - v`` must meet every row: one matrix product.  Otherwise
        (unbounded, flat or past the vertex guard) one support LP per row,
        over the unit rows, gives the minimum.  The unit rows are the
        :attr:`_bounding` rows divided by their norms."""
        keep = self._bounding
        units = self.normals[keep] / self._norms[keep, None]
        bounds = self.offsets[keep] / self._norms[keep]
        vertices = self.extreme_points()
        if vertices:
            reflected = (2.0 * p - np.array(vertices)) @ units.T
            return bool(np.all(reflected <= bounds + SYMMETRY_TOL * (1.0 + np.abs(bounds))))
        for a, b in zip(units, bounds):
            low = linprog(a, A_ub=units, b_ub=bounds,
                          bounds=[(None, None)] * s.dim, method="highs")
            if low.status != 0 or 2.0 * (a @ p) - low.fun > b + SYMMETRY_TOL * (1.0 + abs(b)):
                return False
        return True

    def gauge_many(self, g, us):
        """Ratio formula ``max a.x / (b - a.p)`` over the rows with ``a.x >
        0`` (beyond a relative ``1e-3 * g.tol`` of ``|x|``, taken without
        overflow), every ``a.x`` in one stacked product; ``inf`` when such
        a row holds with equality at the center."""
        a, b = self.normals, self.offsets
        num = _images(a, us)
        den = b - a @ g.set.center
        rising = num > (g.tol * _row_norms(us) * 1e-3)[:, None]
        through = den <= g.tol * (1.0 + np.abs(b))
        ratios = np.divide(num, den, out=np.zeros(num.shape), where=rising & ~through)
        return np.where((rising & through).any(axis=1), math.inf, ratios.max(axis=1, initial=0.0))

    def kernel(self, g):
        """Null space of the normals, inside the gauge span."""
        null = _null_space(self.normals, g.dim).basis
        return Subspace.from_spanning(null[g.span.contains_many(null, 1e-8)], g.dim)

    def scaled(self, s, p, factor, q):
        # y = q + factor (z - p), z in s  <=>  a.y <= factor b + a.(q - factor p)
        offsets = factor * self.offsets + self.normals @ (q - factor * p)
        return ConvexSet._centered(
            s.dim, Halfspaces._of_stored(self.normals.copy(), offsets, self._norms), q)

    def symmetric_core(self, s, x0):
        refl_offsets = self.offsets - 2.0 * (self.normals @ x0)
        return ConvexSet._centered(s.dim, Halfspaces._of_stored(
            np.vstack([self.normals, -self.normals]), np.concatenate([self.offsets, refl_offsets]),
            np.concatenate([self._norms, self._norms])), x0)

    def extreme_points(self):
        """The vertices of a bounded set with interior, listed at most once
        per set (see :attr:`_vertex_list`)."""
        return list(self._vertex_list)

    @cached_property
    def _vertex_list(self) -> list[np.ndarray]:
        """One qhull halfspace intersection of the :attr:`_bounding` rows
        about the Chebyshev centre (the two endpoints in 1-D).  Empty when
        the set is unbounded, has no interior, or could have more than
        :data:`MAX_VERTICES` vertices by the Upper Bound Theorem.  On a
        2-core Xeon VM a 12-D box (4,096 vertices) takes about 0.04 s; a
        16-D box (65,536 vertices, 2.3 s) is past the guard."""
        a, b = self.normals[self._bounding], self.offsets[self._bounding]
        m, n = a.shape
        # a bounded set in R^n has at least n + 1 rows; the guard needs no solve
        if m <= n or _max_vertex_count(m, n) > MAX_VERTICES or self._chebyshev is None:
            return []
        center, radius = self._chebyshev
        if radius <= DEFAULT_TOL * (1.0 + float(np.max(np.abs(b)))):
            return []  # no interior
        if n == 1:  # the endpoints, when both sides are bounded
            ends, up = b / a[:, 0], a[:, 0] > 0
            if up.all() or not up.any():
                return []
            return [np.array([ends[~up].max()]), np.array([ends[up].min()])]
        try:
            with np.errstate(divide="ignore", invalid="ignore"):  # dual facets through 0
                hs = HalfspaceIntersection(np.hstack([a, -b[:, None]]), center)
        except QhullError:
            return []  # flat dual hull: the normals miss a direction, which is unbounded
        # bounded iff the origin, the centre's dual, is strictly inside the dual hull
        scale = float(np.max(np.linalg.norm(hs.dual_points, axis=1)))
        if not np.all(hs.dual_equations[:, -1] < -RANK_TOL * scale):
            return []
        return list(hs.intersections)

    def to_json(self) -> dict:
        return {"halfspaces": [{"normal": list(map(float, n)), "offset": float(b)}
                               for n, b in zip(self.normals, self.offsets)]}

    @classmethod
    def from_json(cls, body, dim: int, fn_registry=None) -> "Halfspaces":
        if len(body) == 0:
            raise SetFormatError("a halfspace set needs at least one halfspace")
        normals = np.array([as_vector(h["normal"], dim) for h in body]).reshape(-1, dim)
        return cls(normals, as_vector([h["offset"] for h in body]))


@dataclass(frozen=True)
class Vertices(Representation):
    """Convex hull of a finite point list.

    Every question is answered from one table, built once per set: the affine
    hull (a base point and its direction subspace) and the unit-normal facet
    rows of the hull inside it, kept as a :class:`Halfspaces`.  The rows come
    from qhull's ``ConvexHull`` in span coordinates (the two end rows of a
    segment; none for a point), so their cost grows with the facet count: on
    a 2-core Xeon VM, 50 points in 8-D take about 0.08 s, while 60 points in
    12-D have 1.1M facets and take about 37 s.
    """

    points: np.ndarray  # (m, n)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @cached_property
    def affine_hull(self) -> tuple[np.ndarray, Subspace]:
        """A base point and the direction subspace of the affine hull; a
        full-dimensional hull keeps the input coordinates."""
        n = self.points.shape[1]
        base = self.points.mean(axis=0)
        span = Subspace.from_spanning(self.points - base, n)
        return (np.zeros(n) if span.is_full else base), span

    @cached_property
    def facets(self) -> Halfspaces:
        """The hull's facets ``a.x <= b`` inside the affine hull, ``|a| = 1``.
        Qhull reads the span coordinates divided by ``2**e``, ``e`` the
        binary exponent of their largest magnitude (an exact scaling), and
        the offsets are scaled back, so huge coordinates do not overflow it."""
        base, span = self.affine_hull
        coords = (self.points - base) @ span.basis.T
        if span.dim == 0:
            rows = np.zeros((0, 1))
        elif span.dim == 1:
            rows = np.array([[1.0, -coords.max()], [-1.0, coords.min()]])
        else:
            e = int(np.frexp(np.abs(coords).max())[1])
            rows = ConvexHull(np.ldexp(coords, -e)).equations  # a.y + c <= 0 in span coordinates
            rows[:, -1] = np.ldexp(rows[:, -1], e)
        normals = rows[:, :-1] @ span.basis
        return Halfspaces(normals, normals @ base - rows[:, -1])

    def contains_many(self, s, xs, tol):
        """The facet rows' slacks, and each row's affine residual (0 in a
        full-dimensional hull) at most ``tol * (1 + |x|)``."""
        base, span = self.affine_hull
        inside = self.facets.contains_many(s, xs, tol)
        if not span.is_full:
            inside &= span.residuals(xs - base) <= tol * (1.0 + _row_norms(xs))
        return inside

    def anchor(self, s):
        return self.points.mean(axis=0)

    def sample(self, s, rng, n):
        """Dirichlet-weighted combinations of the vertices: one
        ``rng.dirichlet`` block and one stacked product, the floats (and the
        state of ``rng``) of ``n`` one-sample draws ``points.T @ w``."""
        weights = rng.dirichlet(np.ones(self.points.shape[0]), size=n)
        return list(np.matmul(self.points.T, weights[:, :, None])[:, :, 0])

    def span(self, s, base):
        return self.affine_hull[1]

    def in_icr(self, s, x):
        """No facet row is active."""
        return not np.any(self.facets._active(x))

    def is_symmetric(self, s, p):
        """Every reflected vertex ``2p - v`` lies in the hull: one batch test."""
        return bool(np.all(self.contains_many(s, 2.0 * p - self.points, SYMMETRY_TOL)))

    def gauge_many(self, g, us):
        """Span check, projection, then the facet ratio formula."""
        out = np.full(us.shape[0], math.inf)
        on = g.span.contains_many(us, max(g.tol, 1e-8))
        if on.any():
            out[on] = self.facets.gauge_many(g, g.span.project_many(us[on]))
        return out

    def kernel(self, g):
        return Subspace.zero(g.dim)  # a hull is bounded

    def scaled(self, s, p, factor, q):
        return ConvexSet._centered(s.dim, Vertices(q + factor * (self.points - p)), q)

    def extreme_points(self):
        return list(self.points)

    def to_json(self) -> dict:
        return {"vertices": [list(map(float, v)) for v in self.points]}

    @classmethod
    def from_json(cls, body, dim: int, fn_registry=None) -> "Vertices":
        points = np.array([as_vector(v, dim) for v in body]).reshape(-1, dim)
        if points.shape[0] == 0:
            raise SetFormatError("a vertex set needs at least one vertex")
        return cls(points)


def _values(fn: Callable, xs: np.ndarray, name: str, kind: type = float,
            width: Optional[int] = None) -> np.ndarray:
    """``fn`` at the rows of ``xs``, the one reader of an oracle's batch
    evaluator: one call of its ``many`` attribute (rows in, one value per
    row out) when it carries one, else ``kind(fn(x))`` row by row, which
    raises the first failing row's error.  A map (``width`` given) gives
    one row of ``width`` values per point.  Raises
    :class:`DimensionMismatchError` naming the oracle ``name`` unless there
    is one value (or image row) per row of ``xs``."""
    shape = (len(xs),) if width is None else (len(xs), width)
    batch = getattr(fn, "many", None)
    if batch is not None:
        vals = np.asarray(batch(xs), dtype=kind)
    elif width is None:
        vals = np.array([kind(fn(x)) for x in xs], dtype=kind)
    else:
        vals = np.array([fn(x) for x in xs] or np.empty(shape), dtype=kind)
    return _one_per_point(vals, shape, name)


def _one_per_point(vals: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """``vals``, unless its shape is not ``shape``, one entry per point."""
    if vals.shape != shape:
        raise DimensionMismatchError(
            f"{name} returned an array of shape {vals.shape} for {shape[0]} points, "
            f"expected {shape}")
    return vals


def _along(fn: Callable, name: str, kind: type = float) -> Optional[Callable]:
    """The axis evaluator that ``fn``'s batch evaluator carries as its
    ``along`` attribute, checked, or None when it carries none.

    ``along(x, cols, steps)`` gives the values at the points ``x + steps[k]
    * e_{cols[k]}``, one per step, without writing them, and may differ
    from the batch evaluator's in the last bits.  The checked evaluator is
    public (:attr:`ConvexSet.contains_along`), so it raises
    :class:`NonFiniteInputError` for a non-finite point, as :func:`as_rows`
    does where input enters, and for the first point whose value is not
    finite, and :class:`DimensionMismatchError` unless there is one value
    per step.
    """
    along = getattr(getattr(fn, "many", None), "along", None)
    if along is None:
        return None

    def checked(x: np.ndarray, cols: np.ndarray, steps: np.ndarray) -> np.ndarray:
        if not (np.isfinite(x).all() and np.isfinite(x[cols] + steps).all()):
            raise NonFiniteInputError("vector has non-finite entries")
        vals = _one_per_point(np.asarray(along(x, cols, steps), dtype=kind), steps.shape, name)
        if not np.isfinite(vals).all():
            i = int(np.flatnonzero(~np.isfinite(vals))[0])
            point = x.copy()
            point[cols[i]] += steps[i]
            raise NonFiniteInputError(f"{name} returned {vals[i]} at {point}")
        return vals

    return checked


def _first_max(values: list[np.ndarray]) -> np.ndarray:
    """The largest value, the first one on ties (as Python's ``max``), row
    by row."""
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def batch_callable(many: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A callable carrying the batch evaluator ``many`` (rows in, one value
    per row out) as its ``many`` attribute; its point call runs ``many`` on
    one row.  It is a lambda, so a sublevel set of it refuses to
    serialize."""
    point = lambda x: many(np.reshape(x, (1, -1)))[0]  # noqa: E731
    point.many = many
    return point


@dataclass(frozen=True)
class Sublevel(Representation):
    """``{x in base_domain : fn(x) <= level}``; ``fn`` need not be convex,
    only its sublevel set (a quasiconvex ``fn`` will do).

    A batch of points is tested against the base domain first and ``fn``
    is evaluated (by :func:`_values`) only on the rows the base domain
    accepts, since ``fn`` may raise outside it.  The sampler draws
    its proposals in blocks from the base domain's own sampler.
    """

    fn: Callable[[np.ndarray], float]
    level: float
    base_domain: "ConvexSet"

    def contains_many(self, s, xs, tol):
        base = self.base_domain
        rows = np.flatnonzero(base.representation.contains_many(base, xs, tol))
        inside = np.zeros(xs.shape[0], dtype=bool)
        if rows.size:
            inside[rows] = (_values(self.fn, xs[rows], "sublevel function")
                            <= self.level + tol * (1.0 + abs(self.level)))
        return inside

    def anchor(self, s):
        """The first member among the base domain's anchor and 64 base-domain
        samples, tested in one batch."""
        probes = np.vstack([self.base_domain.anchor(),
                            *self.base_domain.sample_members(np.random.default_rng(0), 64)])
        members = np.flatnonzero(s._contains_checked(probes))
        if members.size:
            return probes[members[0]]
        raise NotInSetError("could not locate a member of the sublevel set")

    def propose_many(self, s, rng, k):
        """``k`` members of the base domain."""
        return self.base_domain.sample_members(rng, k)

    def scaled(self, s, p, factor, q):
        """The sublevel set of ``fn(p + (y - q) / factor)`` over the base domain's copy."""
        fn, base = self.fn, self.base_domain.representation.scaled(self.base_domain, p, factor, q)
        copy = batch_callable(lambda ys: _values(fn, p + (ys - q) / factor, "sublevel function"))
        return ConvexSet._centered(s.dim, Sublevel(copy, self.level, base), q)

    def symmetric_core(self, s, x0):
        """The sublevel set of ``max(fn(y), fn(2 x0 - y))`` over the base
        domain's core.  The batch evaluator reads ``fn`` once on the rows
        stacked over their reflections (a batch evaluator works row by row,
        so a failing row raises the error the two separate batches would)
        and keeps the first value on ties, as ``max`` does."""
        fn, base = self.fn, self.base_domain.representation.symmetric_core(self.base_domain, x0)

        def first_max(ys):
            both = _values(fn, np.vstack([ys, 2.0 * x0 - ys]), "sublevel function")
            return _first_max([both[:len(ys)], both[len(ys):]])

        return ConvexSet._centered(s.dim, Sublevel(batch_callable(first_max), self.level, base),
                                   x0)

    def to_json(self) -> dict:
        # a lambda's or a ScalarFunction's name would not read back as its function
        name = getattr(self.fn, "source", None) or getattr(self.fn, "__name__", "<lambda>")
        if name == "<lambda>":
            raise ValueError("a sublevel set of an unnamed function is not serializable")
        return {"sublevel": {"level": float(self.level), "fn": name,
                             "base_domain": set_to_json(self.base_domain)}}

    @classmethod
    def from_json(cls, body, dim: int, fn_registry=None) -> "Sublevel":
        base = set_from_json(body["base_domain"], fn_registry)
        if base.dim != dim:
            raise DimensionMismatchError(f"base domain has dimension {base.dim}, expected {dim}")
        fn_name = body["fn"]
        if fn_registry and fn_name in fn_registry:
            fn = fn_registry[fn_name]
        else:
            from .expr import make_callable, parse
            fn = make_callable(parse(fn_name, dim))
        return cls(fn, float(as_vector(body["level"], 1)[0]), base)


@dataclass(frozen=True)
class Oracle(Representation):
    """Raw membership callback; convexity is a caller contract.

    ``bounding_radius`` scales the normal proposals about the anchor that
    the rejection sampler draws; about the set's radius works best.
    """

    member: Callable[[np.ndarray], bool]
    bounding_radius: float

    def contains_many(self, s, xs, tol):
        """The member callback's truth values, read by :func:`_values`."""
        return _values(self.member, xs, "member test", bool)

    def contains_along(self, s):
        """The member callback's axis evaluator (see :func:`_along`), whose
        truth values are the batch evaluator's."""
        return _along(self.member, "member test", bool)

    def propose_many(self, s, rng, k):
        """Normal draws about the anchor, of ``bounding_radius`` spread: one
        block, the floats of ``k`` one-point draws."""
        return list(s.anchor() + self.bounding_radius * rng.standard_normal((k, s.dim))
                    / math.sqrt(s.dim))

    def scaled(self, s, p, factor, q):
        """``factor * (s - p) + q``."""
        copy = Oracle(member=batch_callable(lambda xs: s.contains_many(p + (xs - q) / factor)),
                      bounding_radius=factor * self.bounding_radius)
        return ConvexSet._centered(s.dim, copy, q)

    def to_json(self) -> dict:
        raise ValueError("oracle sets are not serializable")


@dataclass(frozen=True)
class ConvexSet:
    dim: int
    representation: Representation
    center: Optional[np.ndarray] = None  # claimed symmetry point

    def __post_init__(self):
        if self.center is not None:
            object.__setattr__(self, "center", as_vector(self.center, self.dim))

    @classmethod
    def _centered(cls, dim: int, rep: Representation, center: np.ndarray) -> "ConvexSet":
        """The set of a ``center`` that private code has checked, unchecked."""
        s = cls(dim, rep)
        object.__setattr__(s, "center", center)
        return s

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Membership of one point, checked here: a one-row batch."""
        x = as_vector(x, self.dim)
        return bool(self._contains_checked(x[None, :], tol)[0])

    __contains__ = contains

    def contains_many(self, xs, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Membership of each row of ``xs``, which must be finite rows of
        the set's dimension (checked here, once per batch)."""
        return self._contains_checked(as_rows(xs, self.dim), tol)

    def _contains_checked(self, xs: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """:meth:`contains_many` of rows that private code checked or built finite."""
        return self.representation.contains_many(self, xs, tol)

    @property
    def contains_along(self) -> Optional[Callable]:
        """The axis evaluator of :meth:`contains_many`: ``along(x, cols,
        steps)``, the membership of the points ``x + steps[k] *
        e_{cols[k]}``, which it never writes; None for a set without one
        (only an oracle whose member test's batch evaluator carries one has
        it, see :meth:`Oracle.contains_along`)."""
        return self.representation.contains_along(self)

    def anchor(self) -> np.ndarray:
        """A member point used as the base for ray searches and sampling."""
        return self.center if self.center is not None else self.representation.anchor(self)

    def sample_members(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        """Draw ``n`` member points (not uniform; good span/extreme coverage)."""
        return self.representation.sample(self, rng, n)

    @cached_property
    def _by_point(self) -> dict[tuple[str, bytes], object]:
        return {}

    def _kept(self, what: str, x: np.ndarray, compute: Callable[[], object]):
        """``compute()``, the answer to question ``what`` at the point ``x``,
        computed at most once per question and point and kept on the set."""
        key = (what, x.tobytes())
        if key not in self._by_point:
            self._by_point[key] = compute()
        return self._by_point[key]

    def span(self, base: np.ndarray) -> Subspace:
        """span(S - base) for a member point ``base``, computed at most once
        per point and kept on the set (it depends on the set's anchor, so
        not on the representation)."""
        return self._kept("span", base, lambda: self.representation.span(self, base))


# ---------------------------------------------------------------------------
# Span, icr, symmetry
# ---------------------------------------------------------------------------


def _member(s: ConvexSet, x, message: str) -> np.ndarray:
    """``x``, checked once, or :class:`NotInSetError` with ``message``."""
    x = as_vector(x, s.dim)
    if not s._contains_checked(x[None, :])[0]:
        raise NotInSetError(message)
    return x


def span_of_difference(s: ConvexSet, base) -> Subspace:
    """Orthonormal basis of span(S - base); the identity when that is R^n.

    Exact for vertex sets (the direction space of the affine hull) and
    halfspace sets (the null space of the implicit equalities, R^n at an
    interior point with no LP and no membership test); otherwise probed
    from membership chords (coordinate directions plus random chords
    through sampled members; R^n with no member drawn when the reachable
    coordinate directions already have rank n), and kept on the set for the
    next request at the same point, as are its coordinate probes, which
    :func:`in_icr` then reads at a point whose span is R^n.
    """
    return s.span(_member(s, base, "base point is not a member of the set"))


def in_icr(s: ConvexSet, x) -> bool:
    """Relative-algebraic-interior test.

    Exact for halfspace sets (every active row holds with equality on the
    whole set) and vertex sets (no facet row of the hull is active);
    membership-sampled for
    sublevel and oracle sets (may report false positives on cusps), with no
    new probe where the point's span is R^n.
    """
    x = _member(s, x, "point is not a member of the set")
    return s.representation.in_icr(s, x)


def check_symmetry(s: ConvexSet, p) -> bool:
    """Is the set symmetric about ``p``, that is, does ``2p - S`` lie in S?

    Exact for vertex sets and for halfspace sets that list their vertices
    (every reflected vertex within every row, one matrix product), and for
    other halfspace sets (unbounded, flat or past :data:`MAX_VERTICES`: one
    support LP per row), so redundant rows and interior vertices do not
    matter; reflection-sampled otherwise: the
    reflections through ``p`` of :data:`SYMMETRY_SAMPLES` sampled members
    are tested as one batch.
    """
    p = _member(s, p, "claimed symmetry point is not a member of the set")
    return s.representation.is_symmetric(s, p)


def spot_check_convexity(s: ConvexSet) -> bool:
    """Random midpoint test for oracle-style sets (caller contract check):
    the midpoints of sampled member pairs, tested as one batch."""
    pts = np.array(s.sample_members(np.random.default_rng(0), 2 * CONVEXITY_TRIALS))
    return bool(np.all(s._contains_checked(0.5 * (pts[::2] + pts[1::2]), tol=1e-7)))


# ---------------------------------------------------------------------------
# Gauges
# ---------------------------------------------------------------------------


@dataclass
class Gauge:
    """Minkowski functional of ``set - center`` (or an explicit evaluator).

    ``kernel`` collects the two-sided zero-gauge directions (the lineality
    space of the translated set); ``span`` is where the gauge is finite, and
    :attr:`reduced` is where its subdifferentials are asked.  Values are
    computed for rows, :meth:`values`; a point value is a one-row batch.
    ``tol`` is a relative tolerance, a real number in (0, 1): one of 1 or
    more accepts every point in every span test.
    """

    span: Subspace
    kernel: Subspace
    set: Optional[ConvexSet] = None
    tol: float = DEFAULT_TOL
    fn: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        if not (isinstance(self.tol, numbers.Real) and 0.0 < self.tol < 1.0):
            raise UsageError(f"a gauge tolerance must be a real number in (0, 1), got {self.tol!r}")

    @classmethod
    def of_set(cls, s: ConvexSet, tol: float = DEFAULT_TOL) -> "Gauge":
        if s.center is None:
            raise NotInSetError("gauge requires a set with a center point")
        span = span_of_difference(s, s.center)
        g = cls(span=span, kernel=Subspace.zero(s.dim), set=s, tol=tol)
        g.kernel = kernel_of_gauge(g)
        return g

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], float], span: Subspace,
                      kernel: Optional[Subspace] = None, tol: float = DEFAULT_TOL) -> "Gauge":
        return cls(span=span, kernel=kernel or Subspace.zero(span.ambient_dim),
                   set=None, tol=tol, fn=fn)

    def value(self, x) -> float:
        return minkowski_gauge(self, x)

    __call__ = value

    def values(self, us) -> np.ndarray:
        """The gauge at each row of ``us`` (see :func:`minkowski_gauge`),
        finite rows of the gauge's dimension, checked here."""
        return self._values_checked(as_rows(us, self.dim))

    def _values_checked(self, us: np.ndarray) -> np.ndarray:
        """:meth:`values` of rows that private code checked or built finite;
        an explicit evaluator is read by :func:`_values` on the span's rows."""
        if self.fn is None:
            return self.set.representation.gauge_many(self, us)
        nonzero = us.any(axis=1)
        out = np.where(nonzero, math.inf, 0.0)
        on = nonzero & self.span.contains_many(us, self.tol * 10)
        out[on] = _values(self.fn, us[on], "gauge")
        return out

    @property
    def dim(self) -> int:
        return self.span.ambient_dim

    @cached_property
    def reduced(self) -> Subspace:
        """span(gauge) intersected with the orthogonal complement of its
        kernel, computed on its first read and kept."""
        if self.kernel.dim == 0:
            return self.span
        return self.span.intersect(self.kernel.complement())


def minkowski_gauge(g: Gauge, x) -> float:
    """inf{t > 0 : x in t(S - p)}; +inf off the span, 0 on the kernel:
    :meth:`Gauge.values` on one row, ``x`` checked here, once.

    Exact for halfspace sets and vertex sets: the ratio formula
    ``max a.x / (b - a.p)`` over the rows, for a vertex set over the hull's
    facet rows inside its affine hull after the span check.  Other
    representations are bracketed and bisected, one row at a time, on the
    monotone membership predicate to relative ``g.tol``.
    """
    return float(g._values_checked(as_vector(x, g.dim)[None, :])[0])


def kernel_of_gauge(g: Gauge) -> Subspace:
    """Directions with gauge zero on both sides.

    Exact for halfspace sets (null space of the normals) and vertex sets
    ({0}, since a hull is bounded); large-radius membership probes over span
    directions otherwise, with the rank cut via SVD.
    """
    if g.set is None:
        return g.kernel
    return g.set.representation.kernel(g)


# ---------------------------------------------------------------------------
# JSON serialization (schema fixed: dim / repr / center)
# ---------------------------------------------------------------------------


def set_to_json(s: ConvexSet) -> dict:
    doc = {"dim": int(s.dim), "repr": s.representation.to_json()}
    if s.center is not None:
        doc["center"] = list(map(float, s.center))
    return doc


#: representation key in the JSON schema -> class that reads it
_JSON_KINDS = {"halfspaces": Halfspaces, "vertices": Vertices, "sublevel": Sublevel}


def set_from_json(doc: dict, fn_registry: Optional[dict] = None) -> ConvexSet:
    """Read a set document.  Each representation validates its own part:
    wrong widths raise :class:`DimensionMismatchError`, NaN or inf entries
    :class:`NonFiniteInputError`, and missing keys, unknown representations
    or values of the wrong type :class:`SetFormatError`."""
    try:
        dim = int(doc["dim"])
        if dim < 1:
            raise SetFormatError(f"dim must be positive, got {dim}")
        kinds = [k for k in _JSON_KINDS if k in doc["repr"]]
        if not kinds:
            raise SetFormatError(f"unknown set representation keys: {sorted(doc['repr'])}")
        rep = _JSON_KINDS[kinds[0]].from_json(doc["repr"][kinds[0]], dim, fn_registry)
        return ConvexSet(dim, rep, doc.get("center"))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise SetFormatError(f"malformed set document: {exc!r}") from exc


# -- convenience constructors used throughout tests and fixtures -----------


def box(dim: int, lo: float = -1.0, hi: float = 1.0,
        center: Optional[Sequence[float]] = None) -> ConvexSet:
    normals = np.vstack([np.eye(dim), -np.eye(dim)])
    offsets = np.concatenate([np.full(dim, hi), np.full(dim, -lo)])
    if center is None and abs(hi + lo) < 1e-15:
        center = np.zeros(dim)
    return ConvexSet(dim, Halfspaces(normals, offsets),
                     None if center is None else np.asarray(center, dtype=float))


def whole_space(dim: int) -> ConvexSet:
    """R^dim, centered at the origin: every finite point is a member, and
    its member test carries a batch evaluator, so a fan's membership tests
    are one call."""
    member = batch_callable(lambda xs: np.ones(xs.shape[0], dtype=bool))
    return ConvexSet(dim, Oracle(member=member, bounding_radius=1e3), center=np.zeros(dim))


def interval(lo: float, hi: float, center: Optional[float] = None) -> ConvexSet:
    """1-D interval; pass ``math.inf`` bounds for rays."""
    normals, offsets = [], []
    if math.isfinite(hi):
        normals.append([1.0])
        offsets.append(hi)
    if math.isfinite(lo):
        normals.append([-1.0])
        offsets.append(-lo)
    c = None
    if center is not None:
        c = np.array([float(center)])
    elif math.isfinite(lo) and math.isfinite(hi) and abs(hi + lo) < 1e-15:
        c = np.zeros(1)
    return ConvexSet(1, Halfspaces(np.array(normals), np.array(offsets)), c)
