"""Scalar function oracles on convex domains, and the composites built from
them (sums, products, maxima, and the chain and partial rules'
compositions), which one helper builds so that each keeps its parts' batch
evaluators (chain1's inner map through its batch form)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from .errors import GaugeCalcError, NonFiniteInputError
from .geometry import ConvexSet, Oracle, _first_max, batch_callable, whole_space


@dataclass
class ScalarFunction:
    """An evaluation oracle on a declared convex domain.

    ``convex`` is a caller-supplied knowledge flag.
    """

    fn: Callable[[np.ndarray], float]
    domain: ConvexSet
    convex: bool = False
    name: str = ""

    def __call__(self, x) -> float:
        val = float(self.fn(np.asarray(x, dtype=float)))
        if not np.isfinite(val):
            raise NonFiniteInputError(
                f"function {self.name or '<anonymous>'} returned {val} at {x}")
        return val

    def many(self, xs) -> np.ndarray:
        """Values at the rows of ``xs``, each the float ``self(x)`` returns.

        A callable that carries a batch evaluator as its ``many`` attribute
        (rows in, one value per row out) gets the whole matrix in one call;
        compiled expressions and every composite built in this module carry
        one (a composite's reads its parts' ``many``), and any other callable
        is called once per row.  Raises the error of the first row
        whose scalar call fails: a batch that raises is rerun one row at a
        time, since an earlier row may return a non-finite value.  The batch
        evaluator's axis evaluator (:attr:`many_along`) is not called here:
        its values are the one exception to "the float ``self(x)``
        returns", and may differ from it in the last bits.
        """
        xs = np.asarray(xs, dtype=float)
        batch = getattr(self.fn, "many", None)
        if batch is None:
            return np.array([self(x) for x in xs], dtype=float)
        try:
            vals = np.asarray(batch(xs), dtype=float)
        except GaugeCalcError:
            return np.array([self(x) for x in xs], dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise NonFiniteInputError(
                f"function {self.name or '<anonymous>'} returned {vals[i]} at {xs[i]}")
        return vals

    @property
    def many_along(self) -> Optional[Callable]:
        """The batch evaluator's axis evaluator, or None when it carries
        none.

        A batch evaluator may carry, as its ``along`` attribute, an
        evaluator ``along(x, cols, steps)`` of the values at the points
        ``x + steps[k] * e_{cols[k]}``, one per step, which never writes
        them (the weighted grid's energy replaces one term of its sum).
        Its values may differ from :meth:`many`'s in the last bits.  Like
        :meth:`many`, the evaluator returned here raises
        :class:`NonFiniteInputError` naming the first point whose value is
        not finite.  Expressions and composites carry none.
        """
        along = getattr(getattr(self.fn, "many", None), "along", None)
        if along is None:
            return None

        def checked(x: np.ndarray, cols: np.ndarray, steps: np.ndarray) -> np.ndarray:
            vals = np.asarray(along(x, cols, steps), dtype=float)
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                i = int(bad[0])
                point = x.copy()
                point[cols[i]] += steps[i]
                raise NonFiniteInputError(
                    f"function {self.name or '<anonymous>'} returned {vals[i]} at {point}")
            return vals

        return checked

    @classmethod
    def from_expr(cls, source: str, domain: ConvexSet, convex: bool = False,
                  name: str = "") -> "ScalarFunction":
        ast = expr_mod.parse(source, domain.dim)
        return cls(fn=expr_mod.make_callable(ast), domain=domain, convex=convex,
                   name=name or source)


def _composite(parts: list[ScalarFunction], combine: Callable, rows: Callable,
               domain: ConvexSet, convex: bool, name: str) -> ScalarFunction:
    """The function ``combine(values)`` of its parts' values at the image of
    the point under ``rows`` (point rows in, point rows of the parts' space
    out).

    Its batch evaluator reads each part's :meth:`ScalarFunction.many` on the
    whole matrix, and its scalar call is that batch on one row.  ``combine``
    runs with numpy's overflow and invalid-value warnings off: an infinite
    or NaN value is reported as :class:`NonFiniteInputError`, not warned
    about.
    """
    def many(xs):
        ys = rows(xs)
        values = [p.many(ys) for p in parts]
        with np.errstate(over="ignore", invalid="ignore"):
            return combine(values)

    return ScalarFunction(fn=batch_callable(many), domain=domain, convex=convex, name=name)


def _same(xs):
    return xs


def sum_of(f: ScalarFunction, g: ScalarFunction, name: str = "") -> ScalarFunction:
    return _composite([f, g], lambda v: v[0] + v[1], _same, f.domain,
                      f.convex and g.convex, name or f"{f.name}+{g.name}")


def product_of(f: ScalarFunction, g: ScalarFunction, name: str = "") -> ScalarFunction:
    return _composite([f, g], lambda v: v[0] * v[1], _same, f.domain, False,
                      name or f"{f.name}*{g.name}")


def max_of(fs: list[ScalarFunction], name: str = "") -> ScalarFunction:
    return _composite(list(fs), _first_max, _same, fs[0].domain,
                      all(fi.convex for fi in fs),
                      name or "max(" + ",".join(fi.name for fi in fs) + ")")


def outer_of(outer: Callable[[float], float], h: ScalarFunction,
             convex: bool) -> ScalarFunction:
    """``outer(h(x))`` for a scalar outer function, applied value by value;
    an outer function that overflows raises :class:`NonFiniteInputError`."""
    def value(u):
        try:
            return outer(u)
        except OverflowError:
            raise NonFiniteInputError(f"outer({h.name}) overflows at {h.name} = {u}") from None

    each = np.vectorize(value, otypes=[float])
    return _composite([h], lambda v: each(v[0]), _same, h.domain, convex,
                      f"outer({h.name})")


def precomposed(f: ScalarFunction, images: Callable[[np.ndarray], np.ndarray], dim: int,
                name: str) -> ScalarFunction:
    """``f(g(x))`` on the whole of R^dim for a point map g given by its
    batch form ``images`` (point rows in, image rows out, such as
    :meth:`gaugecalc.rules.InnerMap.many`), which maps each matrix of
    points in one call."""
    return _composite([f], lambda v: v[0], images, whole_space(dim), False, name)


def frozen_block(f: ScalarFunction, x: np.ndarray, lo: int, hi: int,
                 name: str) -> ScalarFunction:
    """f as a function of coordinates ``lo:hi`` alone, the others frozen at
    x's; its domain is that slice of f's domain, and answers a batch through
    ``f.domain.contains_many``."""
    def rows(vs):
        out = np.tile(x, (len(vs), 1))
        out[:, lo:hi] = vs
        return out

    member = batch_callable(lambda vs: f.domain.contains_many(rows(vs)))
    radius = 10.0 * (1.0 + float(np.linalg.norm(x)))
    domain = ConvexSet(hi - lo, Oracle(member=member, bounding_radius=radius),
                       center=x[lo:hi])
    return _composite([f], lambda v: v[0], rows, domain, f.convex, name)
