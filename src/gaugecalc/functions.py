"""Scalar function oracles on convex domains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as expr_mod
from .errors import NonFiniteInputError
from .geometry import ConvexSet


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
        any other is called once per row.  Raises the same
        :class:`NonFiniteInputError` as a scalar call.
        """
        xs = np.asarray(xs, dtype=float)
        batch = getattr(self.fn, "many", None)
        if batch is None:
            return np.array([self(x) for x in xs], dtype=float)
        vals = np.asarray(batch(xs), dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise NonFiniteInputError(
                f"function {self.name or '<anonymous>'} returned {vals[i]} at {xs[i]}")
        return vals

    @classmethod
    def from_expr(cls, source: str, domain: ConvexSet, convex: bool = False,
                  name: str = "") -> "ScalarFunction":
        ast = expr_mod.parse(source, domain.dim)
        return cls(fn=expr_mod.make_callable(ast), domain=domain, convex=convex,
                   name=name or source)


def sum_of(f: ScalarFunction, g: ScalarFunction, name: str = "") -> ScalarFunction:
    return ScalarFunction(fn=lambda x: f(x) + g(x), domain=f.domain,
                          convex=f.convex and g.convex, name=name or f"{f.name}+{g.name}")


def product_of(f: ScalarFunction, g: ScalarFunction, name: str = "") -> ScalarFunction:
    return ScalarFunction(fn=lambda x: f(x) * g(x), domain=f.domain, convex=False,
                          name=name or f"{f.name}*{g.name}")


def max_of(fs: list[ScalarFunction], name: str = "") -> ScalarFunction:
    return ScalarFunction(fn=lambda x: max(fi(x) for fi in fs), domain=fs[0].domain,
                          convex=all(fi.convex for fi in fs),
                          name=name or "max(" + ",".join(fi.name for fi in fs) + ")")
