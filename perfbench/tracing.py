"""Span tracing of gaugecalc's layers from outside the program.

:meth:`Tracer.install` replaces each layer's public entry points with timing
wrappers and rebinds every reference to them: the defining module, the names
other gaugecalc modules imported, the package namespace, and class attributes
with their aliases.  ``linprog`` is wrapped separately as seen by
``geometry`` and by ``subdiff``.  The recursive ``expr.evaluate`` is left
alone, because wrapping it would count AST nodes instead of function
evaluations.

Spans stay in memory as columns (name, parent, query id, start, end) until
:meth:`Tracer.save`.  A span's self time is its duration minus the time its
direct children cover; calls nest strictly in one thread, so the children of
a span never overlap.
"""

from __future__ import annotations

import collections
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute, span name) of every wrapped module-level function
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("geometry", "minkowski_gauge", "geometry.gauge"),
    ("lipschitz", "theoretical_constant", "lipschitz.certificate"),
    ("lipschitz", "empirical_constant", "lipschitz.empirical"),
    # only so that the errors it catches from empirical_constant stay inside
    # the layer
    ("lipschitz", "counterexample_suite", "lipschitz.counterexamples"),
    ("rules", "verify_sum_rule", "rules.verify"),
    ("rules", "verify_product_rule", "rules.verify"),
    ("rules", "verify_max_rule", "rules.verify"),
    ("rules", "verify_chain_rule_1", "rules.verify"),
    ("rules", "verify_chain_rule_2", "rules.verify"),
    ("rules", "verify_partial_rule", "rules.verify"),
    ("subdiff", "dir_deriv", "subdiff.dir_deriv"),
    ("subdiff", "gen_dir_deriv", "subdiff.gen_dir_deriv"),
    ("subdiff", "extract_subgradient", "subdiff.extract"),
    ("subdiff", "subdifferential_hull", "subdiff.hull"),
    ("symmetrize", "build_core", "symmetrize.core"),
    ("symmetrize", "core_is_symmetric", "symmetrize.checks"),
    ("symmetrize", "verify_span_equality", "symmetrize.checks"),
    ("symmetrize", "verify_icr_membership", "symmetrize.checks"),
    ("weighted_l2", "run_example", "weighted_l2.example"),
]

#: (module, class, method, span name) of every wrapped method
METHODS = [
    ("geometry", "ConvexSet", "contains", "geometry.contains"),
    ("functions", "ScalarFunction", "__call__", "functions.eval"),
    ("geometry", "Gauge", "of_set", "geometry.gauge_setup"),
]

#: modules whose typed errors are counted as they leave the layer
LAYERS = ["cli", "functions", "geometry", "lipschitz", "rules", "subdiff",
          "symmetrize", "weighted_l2"]

#: every per-layer metric: (name, unit, better)
METRICS = [(f"{s}.calls", "count", "lower") for s in (
    "subdiff.hull", "subdiff.extract", "subdiff.dir_deriv", "subdiff.gen_dir_deriv",
    "functions.eval", "geometry.gauge", "geometry.contains", "geometry.gauge_setup",
    "lipschitz.certificate", "symmetrize.core", "rules.verify", "weighted_l2.example",
    "cli.main")] + [(f"{s}.self_s", "s", "lower") for s in (
    "subdiff.hull", "subdiff.extract", "subdiff.lp", "subdiff.dir_deriv",
    "subdiff.gen_dir_deriv", "functions.eval", "geometry.gauge", "geometry.lp",
    "geometry.contains", "geometry.gauge_setup", "lipschitz.certificate",
    "lipschitz.empirical", "symmetrize.core", "symmetrize.checks", "rules.verify",
    "weighted_l2.example", "cli.main")] + [
    ("subdiff.lp.solves", "count", "lower"),
    ("subdiff.lp.retries", "count", "lower"),
    ("geometry.lp.solves", "count", "lower"),
    ("subdiff.support_evals_per_hull", "ratio", "lower"),
    ("subdiff.hull.distinct_ratio", "ratio", "higher"),
    ("subdiff.dir_deriv.fevals_per_call", "ratio", "lower"),
    ("subdiff.gen_dir_deriv.fevals_per_call", "ratio", "lower"),
    ("geometry.lp_per_gauge", "ratio", "lower"),
    ("lipschitz.gauge_per_pair", "ratio", "lower"),
    ("rules.hulls_per_verify", "ratio", "lower"),
    ("subdiff.warnings", "count", "lower"),
] + [(f"{m}.errors", "count", "lower") for m in LAYERS] + [
    ("trace.untraced_queries_per_s", "1/s", "higher"),
    ("trace.traced_queries_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def _hull_note(args, kwargs, out):
    return len(out.subgradients), len(out.directions)


def _pairs_note(args, kwargs, out):
    return kwargs.get("pairs", args[3] if len(args) > 3 else 10000)


def _retry_note(args, kwargs, out):
    return kwargs.get("options", {}).get("presolve") is False


NOTES = {"subdiff.hull": _hull_note, "lipschitz.empirical": _pairs_note,
         "subdiff.lp": _retry_note}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span = array("i")
        self.parent = array("i")
        self.query_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[str, list] = collections.defaultdict(list)
        self.errors: collections.Counter = collections.Counter()
        self.warnings = 0
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        from gaugecalc.errors import GaugeCalcError

        nid = self._id(name)
        layer = name.split(".")[0]
        note = NOTES.get(name)
        notes = self.notes[name]
        span, parent, stack = self.span, self.parent, self._stack
        query_id, start, end = self.query_id, self.start, self.end

        def traced(*args, **kwargs):
            i = len(span)
            span.append(nid)
            parent.append(stack[-1] if stack else -1)
            query_id.append(self.query)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except GaugeCalcError:
                up = parent[i]
                if up < 0 or not self.names[span[up]].startswith(layer + "."):
                    self.errors[layer] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if note is not None:
                notes.append(note(args, kwargs, out))
            return out

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        import gaugecalc

        modules = {m: importlib.import_module(f"gaugecalc.{m}") for m in (
            "cli", "expr", "functions", "geometry", "lipschitz", "rules", "subdiff",
            "symmetrize", "weighted_l2")}
        namespaces = [gaugecalc, *modules.values()]
        for mod, attr, name in FUNCTIONS:
            orig = getattr(modules[mod], attr)
            traced = self.wrap(name, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._set(ns, key, traced)
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(modules[mod], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, orig.__func__)))
                continue
            traced = self.wrap(name, orig)
            for key, val in list(cls.__dict__.items()):
                if val is orig:  # aliases such as ConvexSet.__contains__
                    self._set(cls, key, traced)
        for mod in ("geometry", "subdiff"):
            self._set(modules[mod], "linprog",
                      self.wrap(f"{mod}.lp", modules[mod].linprog))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def columns(self) -> dict:
        return {"span": np.frombuffer(self.span, dtype=np.intc).astype(np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
                "query": np.frombuffer(self.query_id, dtype=np.intc).astype(np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def metrics(self) -> dict:
        """Every per-layer metric of :data:`METRICS` except the trace.* ones."""
        col = self.columns()
        span, parent = col["span"], col["parent"]
        n = span.size
        dur = col["end"] - col["start"]
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - cover

        def ids(*names):
            return [self.name_ids[m] for m in names if m in self.name_ids]

        def mask(*names):
            return np.isin(span, ids(*names))

        def ancestor(*names):
            """Nearest strict ancestor whose span is one of ``names``, or -1."""
            hit = mask(*names)
            up = parent.copy()
            while True:
                live = np.flatnonzero(up >= 0)
                live = live[~hit[up[live]]]
                if live.size == 0:
                    return up
                up[live] = parent[up[live]]

        def calls(name):
            return int(np.count_nonzero(mask(name)))

        def ratio(a, b):
            return float(a) / b if b else 0.0

        def direct(child, parent_name):
            """Spans named ``child`` whose parent is named ``parent_name``."""
            below = parent[mask(child) & has_parent]
            return int(np.count_nonzero(np.isin(span[below], ids(parent_name))))

        out = {}
        for name, _, _ in METRICS:
            base = name.rsplit(".", 1)[0]
            if name.endswith(".calls"):
                out[name] = calls(base)
            elif name.endswith(".self_s"):
                out[name] = float(self_time[mask(base)].sum())
        hulls = self.notes["subdiff.hull"]
        out["subdiff.lp.solves"] = calls("subdiff.lp")
        out["subdiff.lp.retries"] = sum(self.notes["subdiff.lp"])
        out["geometry.lp.solves"] = calls("geometry.lp")
        support = mask("subdiff.dir_deriv", "subdiff.gen_dir_deriv")
        in_hull = ancestor("subdiff.hull") >= 0
        out["subdiff.support_evals_per_hull"] = ratio(
            np.count_nonzero(support & in_hull), calls("subdiff.hull"))
        out["subdiff.hull.distinct_ratio"] = ratio(sum(k for k, _ in hulls),
                                                   sum(m for _, m in hulls))
        for deriv in ("subdiff.dir_deriv", "subdiff.gen_dir_deriv"):
            out[f"{deriv}.fevals_per_call"] = ratio(direct("functions.eval", deriv),
                                                    calls(deriv))
        out["geometry.lp_per_gauge"] = ratio(
            np.count_nonzero(mask("geometry.lp") & (ancestor("geometry.gauge") >= 0)),
            calls("geometry.gauge"))
        out["lipschitz.gauge_per_pair"] = ratio(
            np.count_nonzero(mask("geometry.gauge") & (ancestor("lipschitz.empirical") >= 0)),
            sum(self.notes["lipschitz.empirical"]))
        out["rules.hulls_per_verify"] = ratio(
            np.count_nonzero(mask("subdiff.hull") & (ancestor("rules.verify") >= 0)),
            calls("rules.verify"))
        out["subdiff.warnings"] = self.warnings
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out
