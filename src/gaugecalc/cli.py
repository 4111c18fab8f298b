"""Command-line front end.

Exit codes: 0 on success (and on verified inclusions / passing examples),
1 when a verification or example check fails, 2 on usage or input errors.
All output is JSON with sorted keys, so runs are diffable.  Each option is
declared once, on a parent parser, and attached only to the commands whose
handler reads it.
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
from .geometry import ConvexSet, Gauge, as_vector, batch_callable, set_from_json, whole_space
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


def _load_fn(expr: str, dim: int, domain: Optional[ConvexSet], convex: bool) -> ScalarFunction:
    return ScalarFunction.from_expr(expr, domain=domain or whole_space(dim), convex=convex)


def _problem(args, extra_dim: int = 0):
    """The set, its gauge, ``--fn`` on the free domain of the set's dimension
    plus ``extra_dim``, and ``--point``, loaded in that order."""
    s = _load_set(args.set)
    g = Gauge.of_set(s, tol=args.tol)
    f = _load_fn(args.fn, s.dim + extra_dim, None, args.convex)
    return s, g, f, _parse_point(args.point)


def _emit(doc: dict, out: Optional[str], ok: bool = True) -> int:
    """Write ``doc`` as sorted-key JSON; the exit code, 0 when ``ok``."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def _cmd_gauge(args) -> int:
    g = Gauge.of_set(_load_set(args.set), tol=args.tol)
    val = g.value(_parse_point(args.point))
    return _emit({"value": val if math.isfinite(val) else "inf",
                  "span_dim": g.span.dim, "kernel_dim": g.kernel.dim}, args.out)


def _cmd_core(args) -> int:
    domain = _load_set(args.set)
    f = _load_fn(args.fn, domain.dim, domain, args.convex)
    core = build_core(f, domain, _parse_point(args.point), level=args.level)
    doc = core.to_json()
    doc["symmetric"] = core_is_symmetric(core)
    doc["span_equal"] = verify_span_equality(core)
    doc["base_in_relative_interior"] = verify_icr_membership(core)
    return _emit(doc, args.out)


def _cmd_lipschitz(args) -> int:
    s = _load_set(args.set)
    f = _load_fn(args.fn, s.dim, None, args.convex)
    p = _parse_point(args.point)
    if args.pairs < 1:
        raise UsageError(f"--pairs must be at least 1, got {args.pairs}")
    cert = theoretical_constant(f, s, p, args.eps, seed=args.seed, pairs=args.pairs)
    return _emit(cert.to_json(), args.out)


def _cmd_subdiff(args) -> int:
    _, g, f, x = _problem(args)
    return _emit(subdifferential_hull(f, x, g, seed=args.seed).to_json(), args.out)


def _cmd_fermat(args) -> int:
    _, g, f, x = _problem(args)
    return _emit(fermat_check(f, x, g, seed=args.seed), args.out)


def _cmd_lebourg(args) -> int:
    _, g, f, x = _problem(args)
    y = _parse_point(args.point2)
    return _emit(lebourg_point(f, x, y, g, seed=args.seed).to_json(), args.out)


def _half(dim: int) -> InnerMap:
    """chain1's demo inner map, contraction by 1/2, which satisfies the gauge
    domination hypothesis for any gauge used on both sides; its batch form
    gives each row the floats of the point call."""
    return InnerMap(fn=batch_callable(lambda vs: 0.5 * vs),
                    jacobian=lambda v: 0.5 * np.eye(dim), in_dim=dim, out_dim=dim, name="half")


#: each rule's report, from the command line ``a``, the gauge ``g``, the
#: function ``f``, the point ``x`` and the rule's second input ``b``: the
#: ``--fn2`` function, the ``--set2`` gauge, or None
_RULES = {
    "sum": lambda a, g, f, x, b: verify_sum_rule(f, b, x, g, seed=a.seed),
    "product": lambda a, g, f, x, b: verify_product_rule(f, b, x, g, seed=a.seed),
    "max": lambda a, g, f, x, b: verify_max_rule([f, b], x, g, seed=a.seed),
    "chain2": lambda a, g, f, x, b: verify_chain_rule_2(_OUTER_FUNCTIONS[a.outer or "exp"],
                                                        f, x, g, seed=a.seed),
    "chain1": lambda a, g, f, x, b: verify_chain_rule_1(f, _half(f.domain.dim), x, g, g,
                                                        seed=a.seed),
    "partial": lambda a, g, f, x, b: verify_partial_rule(f, x, g, b, seed=a.seed),
}

#: the rules that read each of verify's per-rule options; ``--outer`` defaults to exp
_RULE_OPTIONS = {"fn2": ("sum", "product", "max"), "set2": ("partial",), "outer": ("chain2",)}


def _cmd_verify(args) -> int:
    rule = args.rule
    for option, readers in _RULE_OPTIONS.items():
        value = getattr(args, option)
        if value is not None and rule not in readers:
            raise UsageError(f"the {rule} rule does not read --{option}")
        if not value and rule in readers and option != "outer":
            raise UsageError(f"the {rule} rule needs --{option}")
    # the partial rule's function lives on the product of both blocks
    s2 = _load_set(args.set2) if args.set2 else None
    s, g, f, x = _problem(args, s2.dim if s2 else 0)
    if s2:
        second = Gauge.of_set(s2, tol=args.tol)
    else:
        second = args.fn2 and _load_fn(args.fn2, s.dim, None, args.convex)
    report = _RULES[rule](args, g, f, x, second)
    return _emit(report.to_json(), args.out, report.inclusion_holds)


def _cmd_l2demo(args) -> int:
    if args.example == "all":
        doc = weighted_l2.run_all(n=args.grid_n, seed=args.seed)
        return _emit(doc, args.out, all(r["passed"] for r in doc.values()))
    doc = weighted_l2.run_example(args.example, n=args.grid_n, seed=args.seed)
    return _emit(doc, args.out, doc["passed"])


def _cmd_counterexamples(args) -> int:
    report = counterexample_suite(seed=args.seed)
    return _emit(report, args.out, all(sec["reproduced"] for sec in report.values()))


def _options(*specs) -> argparse.ArgumentParser:
    """A parent parser declaring ``specs``, each an option and its keywords."""
    parent = argparse.ArgumentParser(add_help=False)
    for option, kwargs in specs:
        parent.add_argument(option, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugecalc",
        description="gauge-relative Lipschitz analysis and subdifferential calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    where = _options(("--set", dict(required=True, help="set JSON (inline or a file path)")),
                     ("--point", dict(required=True, help="JSON vector")))
    fn = _options(("--fn", dict(required=True, help="expression over x1..xn")),
                  ("--convex", dict(action="store_true",
                                    help="the function is convex (no effect on core and lipschitz)")))
    seed = _options(("--seed", dict(type=int, default=42)))
    tol = _options(("--tol", dict(type=float, default=1e-9)))
    out = _options(("--out", dict(help="write JSON here instead of stdout")))
    calculus = [where, fn, seed, tol, out]

    def command(name, handler, parents, text):
        p = sub.add_parser(name, parents=parents, help=text)
        p.set_defaults(handler=handler)
        return p

    command("gauge", _cmd_gauge, [where, tol, out], "evaluate the gauge of a set at a point")
    p = command("core", _cmd_core, [where, fn, out], "symmetrized sublevel core of a function")
    p.add_argument("--level", type=float, default=None)
    p = command("lipschitz", _cmd_lipschitz, [where, fn, seed, out],
                "slope-bound certificate on a symmetric set")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--pairs", type=int, default=1000)
    command("subdiff", _cmd_subdiff, calculus, "sampled subdifferential at a point")
    command("fermat", _cmd_fermat, calculus, "is zero a subgradient at the point?")
    p = command("lebourg", _cmd_lebourg, calculus, "mean value witness on a chord")
    p.add_argument("--point2", required=True)
    p = command("verify", _cmd_verify, calculus, "check a subdifferential calculus rule")
    p.add_argument("rule", choices=list(_RULES))
    p.add_argument("--set2", help="second-block gauge set (partial rule)")
    p.add_argument("--fn2", help="second function (sum/product/max)")
    p.add_argument("--outer", choices=sorted(_OUTER_FUNCTIONS),
                   help="outer function (chain2 rule, default exp)")
    p = command("l2demo", _cmd_l2demo, [seed, out], "weighted-grid worked examples")
    p.add_argument("example", choices=list(weighted_l2.EXAMPLES) + ["all"])
    p.add_argument("--grid-n", type=int, default=weighted_l2.DEFAULT_N)
    command("counterexamples", _cmd_counterexamples, [seed, out],
            "reproduce the failure-mode suite")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every command line with, built once per
    process: parsing leaves it unchanged, and building it costs more than
    most queries."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    opts = vars(args)
    try:
        # a relative tolerance of 1 or more accepts every point in every span test
        if "tol" in opts and not 0.0 < args.tol < 1.0:
            raise UsageError(f"--tol must lie in (0, 1), got {args.tol}")
        if opts.get("seed", 0) < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        level = opts.get("level")
        if level is not None and not math.isfinite(level):
            raise UsageError(f"--level must be finite, got {level}")
        return args.handler(args)
    except (GaugeCalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
