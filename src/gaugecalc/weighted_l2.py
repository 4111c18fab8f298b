"""Weighted-grid discretization of a gauge-relative energy on (0, 1).

The continuum objects are the energy ``phi(x) = integral (x(t) - t)^2 / t dt``
and the seminorm ``mu(v) = sqrt(integral v(t)^2 / t dt)`` over functions with
``x(t) >= -1``.  On a midpoint grid both become finite-dimensional: nodes
``t_i = (i - 1/2) / n`` and weights ``1 / n``, with the weighted pairing
``<a, b> = sum w_i a_i b_i``.  Subdifferential representatives can be read in
two bases: the pairing representative ``a_i`` such that the derivative is
``<a, v>``, or the plain Euclidean gradient ``w_i a_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UsageError
from .functions import ScalarFunction
from .geometry import ConvexSet, Gauge, Oracle, Subspace, batch_callable, root_of_squares

DEFAULT_N = 1000
NUMERIC_TOL = 1e-6
#: random unit directions, and the central-difference step along each, of
#: a worked example's directional check
_CHECK_DIRECTIONS = 16
_CHECK_STEP = 1e-6


@dataclass(frozen=True)
class WeightedGrid:
    """Midpoint grid on (0, 1): nodes (i - 1/2)/n, uniform weights 1/n."""

    n: int
    nodes: np.ndarray = None
    weights: np.ndarray = None

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"the grid needs at least one node, got n={self.n}")
        object.__setattr__(self, "nodes", (np.arange(self.n) + 0.5) / self.n)
        object.__setattr__(self, "weights", np.full(self.n, 1.0 / self.n))

    def inner(self, a, b) -> float:
        return float(np.sum(self.weights * np.asarray(a, float) * np.asarray(b, float)))


def _energy_rows(grid: WeightedGrid, xs: np.ndarray) -> np.ndarray:
    """The discretized energy of each row of ``xs``, ``sum w (x - t)**2 / t``
    in that operation order in one scratch matrix the size of ``xs``, and
    +inf for a row with an entry below -1 (a row that also holds NaN
    included; a NaN row with no such entry reads NaN)."""
    d = np.subtract(xs, grid.nodes)
    np.square(d, out=d)
    np.multiply(grid.weights, d, out=d)
    np.divide(d, grid.nodes, out=d)
    vals = d.sum(axis=1)
    vals[(xs < -1.0).any(axis=1)] = math.inf
    return vals


def phi_l2(grid: WeightedGrid, x) -> float:
    """Discretized energy; +inf outside the x >= -1 box.  A one-row batch
    of :func:`_energy_rows`."""
    return float(_energy_rows(grid, np.reshape(np.asarray(x, dtype=float), (1, -1)))[0])


def mu_l2(grid: WeightedGrid, v) -> float:
    """Discretized seminorm (a genuine norm on the grid: all nodes positive),
    rescaled where its weighted sum of squares would overflow or underflow."""
    return root_of_squares(lambda u: float(np.sum(grid.weights * u * u / grid.nodes)), v)


def subdiff_l2(grid: WeightedGrid, x, representation: str = "pairing") -> np.ndarray:
    """Gradient of the energy: ``2 (x_i - t_i) / t_i`` in the weighted
    pairing, ``2 w_i (x_i - t_i) / t_i`` as a Euclidean vector."""
    x = np.asarray(x, dtype=float)
    a = 2.0 * (x - grid.nodes) / grid.nodes
    if representation == "pairing":
        return a
    if representation == "euclidean":
        return grid.weights * a
    raise ValueError(f"unknown representation {representation!r}")


def make_function(grid: WeightedGrid) -> ScalarFunction:
    """The energy as a scalar function on the grid box x >= -1.

    The energy and the box membership are batch callables (see
    :func:`~gaugecalc.geometry.batch_callable`), so that
    :meth:`ScalarFunction.many` and :meth:`ConvexSet.contains_many` treat a
    whole direction fan in a few array operations; each row's value is
    bit-identical to :func:`phi_l2`'s.

    Both batch evaluators carry an axis evaluator (their ``along``
    attribute, see :func:`~gaugecalc.geometry._along`): the values at
    ``x + steps[k] * e_{cols[k]}`` without writing those points.  The
    energy is a sum with one term per node, so each value is ``phi(x)``
    with the written coordinate's term replaced, within a few ulp of
    ``phi`` of the batch evaluator's value, and ``+inf`` exactly where the
    point leaves the box; the box is one bound per node, so membership
    tests the written coordinate and counts the base's coordinates already
    below the bound once per call, the same truth values as the batch
    evaluator's.
    """
    radius = 4.0 * math.sqrt(grid.n)
    floor = -1.0 - 1e-12

    def member_many(xs):
        return np.all(xs >= floor, axis=1)

    def member_along(x, cols, steps):
        below = x < floor
        return (x[cols] + steps >= floor) & (np.count_nonzero(below) - below[cols] == 0)

    def energy_along(x, cols, steps):
        # phi_l2's terms and sum at the base, then one term replaced per step
        terms = grid.weights * (x - grid.nodes) ** 2 / grid.nodes
        y = x[cols] + steps
        nodes = grid.nodes[cols]
        vals = terms.sum() + (grid.weights[cols] * (y - nodes) ** 2 / nodes - terms[cols])
        below = x < -1.0
        vals[(y < -1.0) | (np.count_nonzero(below) - below[cols] > 0)] = math.inf
        return vals

    def energy_many(xs):
        return _energy_rows(grid, xs)

    member_many.along = member_along
    energy_many.along = energy_along
    member, energy = batch_callable(member_many), batch_callable(energy_many)
    domain = ConvexSet(grid.n, Oracle(member=member, bounding_radius=radius),
                       center=grid.nodes.copy())
    return ScalarFunction(fn=energy, domain=domain, convex=True, name="grid-energy")


def make_gauge(grid: WeightedGrid) -> Gauge:
    """The seminorm as a gauge (full span, trivial kernel on the grid)."""
    return Gauge.from_callable(lambda v: mu_l2(grid, v), Subspace.full(grid.n))


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def _directional_check(psi: Callable[[np.ndarray], Sequence[float]], x: np.ndarray,
                       candidates: Sequence[np.ndarray], seed: int = 42) -> list[float]:
    """Per candidate Euclidean gradient, the max relative gap between
    central-difference slopes of psi along random unit directions and the
    pairing against the candidate.

    The :data:`_CHECK_DIRECTIONS` directions are one ``standard_normal``
    block, the floats of one draw of ``n`` per direction, each row divided
    by its own ``np.linalg.norm``.  ``psi`` is a batch evaluator (rows in,
    one value per row out), called once on the probe matrix, the rows
    ``x + h d`` then ``x - h d`` for the step ``h`` = :data:`_CHECK_STEP`:
    ``2 * _CHECK_DIRECTIONS * n`` floats (256 KB at n = 1000), read by
    every candidate.  Each slope and pairing is the float of the
    per-direction scalar computation.
    """
    num_dirs, h = _CHECK_DIRECTIONS, _CHECK_STEP
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((num_dirs, x.size))
    for d in dirs:
        d /= float(np.linalg.norm(d))
    probes = np.empty((2 * num_dirs, x.size))
    up, down = probes[:num_dirs], probes[num_dirs:]
    np.multiply(h, dirs, out=up)
    np.subtract(x, up, out=down)
    np.add(x, up, out=up)
    vals = psi(probes)
    slopes = [(float(vals[k]) - float(vals[num_dirs + k])) / (2.0 * h) for k in range(num_dirs)]
    errors = []
    for candidate in candidates:
        worst = 0.0
        for q, d in zip(slopes, dirs):
            p = float(candidate @ d)
            worst = max(worst, abs(q - p) / (1.0 + abs(p)))
        errors.append(worst)
    return errors


def _base_state(grid: WeightedGrid) -> np.ndarray:
    t = grid.nodes
    return t + 0.5 * t * t


#: psi = g(phi) with candidate gradient g'(phi(x)) d(phi), per chain example: (g, g')
_OUTER = {
    "exp_chain": (math.exp, math.exp),
    "sum": (lambda p: p + math.exp(p), lambda p: 1.0 + math.exp(p)),
    "product": (lambda p: p * math.exp(p), lambda p: (1.0 + p) * math.exp(p)),
}


def run_example(name: str, n: int = DEFAULT_N, seed: int = 42) -> dict:
    """Verify one worked identity on an n-point grid.

    exp_chain   d(e^phi)      = e^phi d(phi)
    sum         d(phi + e^phi) = (1 + e^phi) d(phi)
    product     d(phi e^phi)  = (1 + phi) e^phi d(phi)
    inner_chain d(phi o (t .)) against the pullback and the shortcut formula
    lebourg     the mean value witness of the quadratic energy sits at the
                chord midpoint
    """
    grid = WeightedGrid(n)
    t = grid.nodes
    x = _base_state(grid)
    base = subdiff_l2(grid, x, representation="euclidean")
    phi_x = phi_l2(grid, x)

    if name in _OUTER:
        g, dg = _OUTER[name]
        factor = dg(phi_x)
        [err] = _directional_check(lambda vs: [g(float(p)) for p in _energy_rows(grid, vs)],
                                   x, [factor * base], seed=seed)
        return {"example": name, "n": n, "factor": factor,
                "max_rel_error": err, "tolerance": NUMERIC_TOL,
                "passed": bool(err <= NUMERIC_TOL)}

    if name == "inner_chain":
        # psi(x) = phi(t . x): the pullback gradient is 2 w t (x - 1); the
        # shortcut formula 2 w (x - t) looks plausible but is not the
        # pullback, and the numerics below tell the two apart
        pullback = 2.0 * grid.weights * t * (x - 1.0)
        shortcut = 2.0 * grid.weights * (x - t)
        err_pullback, err_shortcut = _directional_check(
            lambda vs: _energy_rows(grid, t * vs), x, [pullback, shortcut], seed=seed)
        return {"example": name, "n": n,
                "pullback_rel_error": err_pullback,
                "shortcut_rel_error": err_shortcut,
                "agrees_with": "pullback" if err_pullback < err_shortcut else "shortcut",
                "tolerance": NUMERIC_TOL,
                "passed": bool(err_pullback <= NUMERIC_TOL)}

    if name == "lebourg":
        y = t + 0.1
        d = y - x
        target = phi_l2(grid, y) - phi_x
        buf = np.empty(n)

        def slope(tau):
            # subdiff_l2's euclidean gradient at x + tau d, paired with d,
            # in the same operation order in one buffer
            np.multiply(tau, d, out=buf)
            np.add(x, buf, out=buf)
            np.subtract(buf, t, out=buf)
            np.multiply(2.0, buf, out=buf)
            np.divide(buf, t, out=buf)
            np.multiply(grid.weights, buf, out=buf)
            return float(buf @ d)

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if slope(mid) <= target:
                lo = mid
            else:
                hi = mid
        tau_star = 0.5 * (lo + hi)
        residual = abs(slope(tau_star) - target)
        return {"example": name, "n": n, "tau": tau_star,
                "alpha": 1.0 - tau_star, "expected_tau": 0.5,
                "residual": residual, "tolerance": 1e-9,
                "passed": bool(abs(tau_star - 0.5) <= 1e-9 and residual <= 1e-9)}

    raise ValueError(f"unknown example {name!r}; choose from exp_chain, sum, "
                     "product, inner_chain, lebourg")


EXAMPLES = ("exp_chain", "sum", "product", "inner_chain", "lebourg")


def run_all(n: int = DEFAULT_N, seed: int = 42) -> dict:
    return {name: run_example(name, n=n, seed=seed) for name in EXAMPLES}
