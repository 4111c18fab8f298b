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
