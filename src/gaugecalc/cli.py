"""Command-line front end.

Exit codes: 0 on success (and on verified inclusions / passing examples),
1 when a verification or example check fails, 2 on usage or input errors.
All output is JSON with sorted keys, so runs are diffable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .errors import GaugeCalcError, UsageError
from .functions import ScalarFunction
from .geometry import (
    ConvexSet,
    Gauge,
    Vertices,
    as_vector,
    batch_callable,
    set_from_json,
    whole_space,
)
from .lipschitz import counterexample_suite, theoretical_constant
from .rules import (
    InnerMap,
    verify_chain_rule_1,
    verify_chain_rule_2,
    verify_max_rule,
    verify_partial_rule,
    verify_product_rule,
    verify_sum_rule,
)
from .subdiff import fermat_check, lebourg_point, subdifferential_hull
from .symmetrize import build_core, core_is_symmetric, verify_icr_membership, verify_span_equality
from . import weighted_l2

_OUTER_FUNCTIONS = {
    "exp": math.exp,
    "square": lambda u: u * u,
    "abs": abs,
}


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _load_set(raw: str) -> ConvexSet:
    text = raw.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return set_from_json(_json(text, "the set"))


def _parse_point(raw: str) -> np.ndarray:
    return as_vector(_json(raw, "the point"))


def _load_fn(expr: str, dim: int, domain: Optional[ConvexSet], convex: bool,
             name: str = "") -> ScalarFunction:
    return ScalarFunction.from_expr(expr, domain=domain or whole_space(dim),
                                    convex=convex, name=name or expr)


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gauge(args) -> int:
    s = _load_set(args.set)
    g = Gauge.of_set(s, tol=args.tol)
    x = _parse_point(args.point)
    val = g.value(x)
    _emit({"value": val if math.isfinite(val) else "inf",
           "span_dim": g.span.dim, "kernel_dim": g.kernel.dim}, args.out)
    return 0


def _cmd_core(args) -> int:
    domain = _load_set(args.set)
    f = _load_fn(args.fn, domain.dim, domain, args.convex)
    x0 = _parse_point(args.point)
    core = build_core(f, domain, x0, level=args.level)
    doc = core.to_json()
    doc["symmetric"] = core_is_symmetric(core)
    doc["span_equal"] = verify_span_equality(core)
    doc["base_in_relative_interior"] = verify_icr_membership(core)
    _emit(doc, args.out)
    return 0


def _cmd_lipschitz(args) -> int:
    s = _load_set(args.set)
    f = _load_fn(args.fn, s.dim, None, args.convex)
    p = _parse_point(args.point)
    if args.pairs < 1:
        raise UsageError(f"--pairs must be at least 1, got {args.pairs}")
    cert = theoretical_constant(f, s, p, args.eps, seed=args.seed, pairs=args.pairs)
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_subdiff(args) -> int:
    s = _load_set(args.set)
    g = Gauge.of_set(s, tol=args.tol)
    f = _load_fn(args.fn, s.dim, None, args.convex)
    x = _parse_point(args.point)
    support = subdifferential_hull(f, x, g, seed=args.seed)
    _emit(support.to_json(), args.out)
    return 0


def _cmd_fermat(args) -> int:
    s = _load_set(args.set)
    g = Gauge.of_set(s, tol=args.tol)
    f = _load_fn(args.fn, s.dim, None, args.convex)
    x = _parse_point(args.point)
    _emit(fermat_check(f, x, g, seed=args.seed), args.out)
    return 0


def _cmd_lebourg(args) -> int:
    s = _load_set(args.set)
    g = Gauge.of_set(s, tol=args.tol)
    f = _load_fn(args.fn, s.dim, None, args.convex)
    x = _parse_point(args.point)
    y = _parse_point(args.point2)
    mvp = lebourg_point(f, x, y, g, seed=args.seed)
    _emit(mvp.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    s = _load_set(args.set)
    g = Gauge.of_set(s, tol=args.tol)
    x = _parse_point(args.point)
    rule = args.rule
    if rule in ("sum", "product", "max") and not args.fn2:
        raise UsageError(f"the {rule} rule needs --fn2")
    if rule == "partial" and not args.set2:
        raise UsageError("the partial rule needs --set2")
    # the partial rule's function lives on the product of both blocks
    s2 = _load_set(args.set2) if rule == "partial" else None
    f = _load_fn(args.fn, s.dim + (s2.dim if s2 else 0), None, args.convex)
    if rule == "sum":
        f2 = _load_fn(args.fn2, s.dim, None, args.convex)
        report = verify_sum_rule(f, f2, x, g, seed=args.seed)
    elif rule == "product":
        f2 = _load_fn(args.fn2, s.dim, None, args.convex)
        report = verify_product_rule(f, f2, x, g, seed=args.seed)
    elif rule == "max":
        f2 = _load_fn(args.fn2, s.dim, None, args.convex)
        report = verify_max_rule([f, f2], x, g, seed=args.seed)
    elif rule == "chain2":
        report = verify_chain_rule_2(_OUTER_FUNCTIONS[args.outer], f, x, g, seed=args.seed)
    elif rule == "chain1":
        # demo inner map: contraction by 1/2, which satisfies the gauge
        # domination hypothesis for any gauge used on both sides; its batch
        # form gives each row the floats of the point call
        inner = InnerMap(fn=batch_callable(lambda vs: 0.5 * vs),
                         jacobian=lambda v: 0.5 * np.eye(s.dim),
                         in_dim=s.dim, out_dim=s.dim, name="half")
        report = verify_chain_rule_1(f, inner, x, g, g, seed=args.seed)
    elif rule == "partial":
        report = verify_partial_rule(f, x, g, Gauge.of_set(s2, tol=args.tol),
                                     seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(rule)
    _emit(report.to_json(), args.out)
    return 0 if report.inclusion_holds else 1


def _cmd_l2demo(args) -> int:
    if args.example == "all":
        doc = weighted_l2.run_all(n=args.grid_n, seed=args.seed)
        ok = all(r["passed"] for r in doc.values())
    else:
        doc = weighted_l2.run_example(args.example, n=args.grid_n, seed=args.seed)
        ok = doc["passed"]
    _emit(doc, args.out)
    return 0 if ok else 1


def _cmd_counterexamples(args) -> int:
    report = counterexample_suite(seed=args.seed)
    # stationarity blindness of a degenerate gauge: the strip gauge |x| on
    # the plane cannot see the second coordinate, so the origin-slice of the
    # paraboloid looks critical at every (0, y)
    segment = ConvexSet(2, Vertices(np.array([[-1.0, 0.0], [1.0, 0.0]])),
                        center=np.zeros(2))
    g = Gauge.of_set(segment)
    f = _load_fn("x1^2 + x2^2", 2, None, True)
    probe = np.array([0.0, 0.7])
    check = fermat_check(f, probe, g, seed=args.seed)
    value = f(probe)
    report["kernel_blind_stationarity"] = {
        "probe": list(map(float, probe)),
        "fermat": check,
        "value_at_probe": value,
        "value_at_minimum": 0.0,
        "reproduced": bool(check["is_critical"] and value > 0.0),
    }
    _emit(report, args.out)
    return 0 if all(sec["reproduced"] for sec in report.values()) else 1


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugecalc",
        description="gauge-relative Lipschitz analysis and subdifferential calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauge", help="evaluate the gauge of a set at a point")
    p.add_argument("--set", required=True, help="set JSON (inline or a file path)")
    p.add_argument("--point", required=True, help="JSON vector")
    _common(p)
    p.set_defaults(handler=_cmd_gauge)

    p = sub.add_parser("core", help="symmetrized sublevel core of a function")
    p.add_argument("--set", required=True, help="domain JSON")
    p.add_argument("--fn", required=True, help="expression over x1..xn")
    p.add_argument("--point", required=True, help="base point (JSON vector)")
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--convex", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_core)

    p = sub.add_parser("lipschitz", help="slope-bound certificate on a symmetric set")
    p.add_argument("--set", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--point", required=True, help="symmetry center (JSON vector)")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--convex", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_lipschitz)

    p = sub.add_parser("subdiff", help="sampled subdifferential at a point")
    p.add_argument("--set", required=True, help="gauge set JSON (needs a center)")
    p.add_argument("--fn", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--convex", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_subdiff)

    p = sub.add_parser("fermat", help="is zero a subgradient at the point?")
    p.add_argument("--set", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--convex", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_fermat)

    p = sub.add_parser("lebourg", help="mean value witness on a chord")
    p.add_argument("--set", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--point2", required=True)
    p.add_argument("--convex", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_lebourg)

    p = sub.add_parser("verify", help="check a subdifferential calculus rule")
    p.add_argument("rule", choices=["sum", "product", "max", "chain2", "chain1",
                                    "partial"])
    p.add_argument("--set", required=True)
    p.add_argument("--set2", help="second-block gauge set (partial rule)")
    p.add_argument("--fn", required=True)
    p.add_argument("--fn2", help="second function (sum/product/max)")
    p.add_argument("--outer", choices=sorted(_OUTER_FUNCTIONS), default="exp")
    p.add_argument("--point", required=True)
    p.add_argument("--convex", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("l2demo", help="weighted-grid worked examples")
    p.add_argument("example", choices=list(weighted_l2.EXAMPLES) + ["all"])
    p.add_argument("--grid-n", type=int, default=weighted_l2.DEFAULT_N)
    _common(p)
    p.set_defaults(handler=_cmd_l2demo)

    p = sub.add_parser("counterexamples", help="reproduce the failure-mode suite")
    _common(p)
    p.set_defaults(handler=_cmd_counterexamples)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every command line with, built once per
    process: parsing leaves it unchanged, and building it costs more than
    most queries."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a relative tolerance of 1 or more accepts every point in every span test
        if not 0.0 < args.tol < 1.0:
            raise UsageError(f"--tol must lie in (0, 1), got {args.tol}")
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        level = getattr(args, "level", None)
        if level is not None and not math.isfinite(level):
            raise UsageError(f"--level must be finite, got {level}")
        return args.handler(args)
    except (GaugeCalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
