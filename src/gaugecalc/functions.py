"""Scalar function oracles on convex domains, and the composites built from
them (sums, products, maxima, and the chain and partial rules'
compositions), which one helper builds so that each keeps its parts' batch
evaluators (chain1's inner map through its batch form)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from .errors import DimensionMismatchError, NonFiniteInputError
from .geometry import (ConvexSet, Oracle, _along, _first_max, _rows_of, _values, as_vector,
                       batch_callable, whole_space)


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
        """The value at one point, checked here: :meth:`many` on one row."""
        return float(self.many(as_vector(x, self.domain.dim)[None, :])[0])

    @property
    def _label(self) -> str:
        return f"function {self.name or '<anonymous>'}"

    def many(self, xs) -> np.ndarray:
        """Values at the rows of ``xs``, rows of the domain's dimension
        (their finiteness shows in the values), read by
        :func:`~gaugecalc.geometry._values`, each of which must be finite.

        A batch that raises (other than for its shape) is rerun one row at
        a time, so the error raised is the first failing row's, a
        non-finite value being an error too.  The batch evaluator's axis
        evaluator (:attr:`many_along`) is not called here: its values may
        differ from the batch evaluator's in the last bits.
        """
        xs = _rows_of(xs, self.domain.dim)
        try:
            vals = _values(self.fn, xs, self._label)
        except DimensionMismatchError:
            raise
        except Exception:
            # any error, a plain callable's own included: an earlier row
            # may hold a non-finite value, which is the first failing row
            if len(xs) < 2:
                raise
            return np.concatenate([self.many(xs[i:i + 1]) for i in range(len(xs))])
        if not np.isfinite(vals).all():
            i = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteInputError(f"{self._label} returned {vals[i]} at {xs[i]}")
        return vals

    @property
    def many_along(self) -> Optional[Callable]:
        """The batch evaluator's checked axis evaluator (see
        :func:`~gaugecalc.geometry._along`), or None when it carries none;
        expressions and composites carry none."""
        return _along(self.fn, self._label)

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

    member = batch_callable(lambda vs: f.domain._contains_checked(rows(vs)))
    radius = 10.0 * (1.0 + float(np.linalg.norm(x)))
    domain = ConvexSet._centered(hi - lo, Oracle(member=member, bounding_radius=radius), x[lo:hi])
    return _composite([f], lambda v: v[0], rows, domain, f.convex, name)
