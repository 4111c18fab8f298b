"""Compare two checkouts of gaugecalc on the benchmark's queries.

    python3 tools/differential.py PARENT CHANGE [--seeds 1 9173] \
        [--calculus 200] [--certify 130] [--grid 30]

For each seed, the first ``--calculus`` queries of the ``calculus``
workload, the first ``--certify`` queries of ``certify`` and the first
``--grid`` queries of ``grid`` are issued, followed by each workload's
known-defect queries, then the fixed queries of :func:`api_queries`
(Python-API calls, and CLI commands on rescaled rows), which the benchmark
never issues.  A CLI query's
output is its standard output; a
``grid`` query calls the Python API, and its output is an extraction's
vector as the hex of its bytes (``tobytes()``) or a worked example's
sorted-key JSON, with the warnings it prints as its standard error.  Each
checkout runs in its own subprocess, which imports that checkout's
``src/`` and ``perfbench/``, so the queries, their reference checks and
the benchmark's single-thread setting (set by importing
``perfbench/run.py``) are each side's own.  Each query starts with the default warning filters and a fresh
once-per-location registry, as a fresh CLI process would, so a warning
shows on its standard error.  Nothing is written in either checkout: the
subprocesses write no bytecode and the results come back on a pipe.

The report gives, per query kind, how many outputs moved (standard output
or standard error not byte-identical) out of how many, how many of those
moved on standard error, how many queries changed their verdicts (every
boolean and every ``verdict`` string in the JSON output) or their exit
code, and the largest relative change of any number in a moved standard
output (``n/a`` when a moved output's numbers do not pair up), then each
standard-error change and the queries that fail their reference check on
each side.  The exit status is 0 when no verdict or
exit code changes and neither side fails a reference check, 1 otherwise;
moved outputs alone do not fail the comparison.

A number's change is measured against the vector that holds it: ``|b - a|``
over the largest finite magnitude in that vector on either side, so a
last-bit move of a near-zero entry reads as the rounding it is.  The
numbers are the float64 values an extraction's hex bytes decode to (one
vector), or those of a JSON document, paired by their place in it, whose
vectors are its innermost lists; a number outside any list (a document's
``M``, say, beside its ``pairs`` and ``seed`` counts) is its own vector.
A change to or from an infinite value reads 1.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from array import array
from pathlib import Path
from types import SimpleNamespace
from typing import Optional


def _verdicts(doc) -> list:
    """Every boolean and every ``verdict`` string of a JSON document, with
    its path, in document order."""
    found = []

    def walk(node, path):
        if isinstance(node, bool):
            found.append([path, node])
        elif isinstance(node, dict):
            for key, value in node.items():
                if key == "verdict" and isinstance(value, str):
                    found.append([f"{path}/{key}", value])
                else:
                    walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}/{i}")

    walk(doc, "")
    return found


def _numbers(record: dict) -> Optional[dict]:
    """Every number of a record's standard output by its place, with the
    place of the vector that holds it: the float64 values of an
    extraction's hex bytes by index (one vector, place ""), or the numbers
    (not the booleans) of a JSON document by path, a list's items in that
    list and any other number in a vector of its own; None for any other
    output."""
    if record["format"] == "hex":
        return {i: (v, "") for i, v in enumerate(array("d", bytes.fromhex(record["out"])))}
    if record["format"] != "json":
        return None
    try:
        doc = json.loads(record["out"])
    except json.JSONDecodeError:
        return None
    found = {}

    def walk(node, path, vector):
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            found[path] = (float(node), vector)
        elif isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}/{key}", f"{path}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}/{i}", path)

    walk(doc, "", "")
    return found


def _relative_change(a: dict, b: dict) -> float:
    """The largest ``|y - x|`` over the numbers of two outputs, paired by
    place, each over the largest finite magnitude in its vector on either
    side (0 where they are equal, 1 where one side is infinite); inf when
    the two outputs do not hold numbers at the same places."""
    x, y = _numbers(a), _numbers(b)
    if x is None or y is None or x.keys() != y.keys():
        return math.inf
    scale = collections.defaultdict(float)
    for value, vector in [*x.values(), *y.values()]:
        if math.isfinite(value):
            scale[vector] = max(scale[vector], abs(value))
    worst = 0.0
    for key, (u, vector) in x.items():
        v = y[key][0]
        if u != v:  # an infinite side reads 1, the limit of the ratio
            worst = max(worst, 1.0 if math.isinf(u) or math.isinf(v)
                        else abs(v - u) / scale[vector])
    return worst


def _issue(query) -> dict:
    """One query's exit code, standard output and error, verdicts and
    reference check; a Python-API query that returns has exit code 0."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        # catch_warnings resets the once-per-location registry
        try:
            result = query.run()
        except Exception as exc:  # a query that raises is a failed query
            return {"kind": query.kind, "rc": None, "out": f"raised {type(exc).__name__}: {exc}",
                    "format": "text", "err": "", "verdicts": [], "ok": False,
                    "reason": f"{query.kind}: raised"}
    if isinstance(result, tuple):
        rc, out, err = result
        form = "json"
        try:
            verdicts = _verdicts(json.loads(out)) if out.strip() else []
        except json.JSONDecodeError:
            verdicts = []
    elif hasattr(result, "tobytes"):  # an extraction's vector
        rc, out, err, verdicts = 0, result.tobytes().hex(), err.getvalue(), []
        form = "hex"
    else:  # a worked example's report
        rc, out, err = 0, json.dumps(result, sort_keys=True), err.getvalue()
        verdicts, form = _verdicts(result), "json"
    try:
        check = query.check(result)
        ok, reason = check.ok, check.reason
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        ok, reason = False, f"{query.kind}: malformed output ({type(exc).__name__})"
    return {"kind": query.kind, "rc": rc, "out": out, "format": form, "err": err,
            "verdicts": verdicts, "ok": ok, "reason": reason}


#: the scales 2**k at which the bisection gauges are read
API_SCALES = (-200, -45, -10, 0, 10, 45, 200)
#: the scales 2**k of an extraction objective
EXTRACT_SCALES = (-700, -60, 0, 600)
#: the scales 2**k of the huge diamonds whose gauges are read
DIAMOND_SCALES = (0, 512, 996)
#: the scales 2**k of the rows of the README's unit square
ROW_SCALES = (-600, -45, 0, 45, 600)
#: the grid sizes at which every worked example is run (the benchmark draws n >= 200)
L2DEMO_SIZES = (1, 2, 7)


def api_queries(seed: int) -> list:
    """Python-API queries drawn from ``seed``, with calls that each side's
    program has had since before batch gauges: bisection gauges of a sublevel and
    an oracle unit disc at ``2**k`` times one direction, one kind per set
    and scale; ``literal_ca_member`` on members of a clipped sublevel set;
    vertex-set ``check_symmetry`` on symmetric and perturbed polygons;
    ``empirical_constant`` on a sublevel core; ``check_domination`` of
    three linear maps, and ``verify_chain_rule_1`` at the origin with each
    of them as the inner map, once as the point map ``a @ v`` and once
    carrying a batch evaluator, column by column, whose rows are the floats
    of its own point call on one row (so only a defect in the batch path
    moves its output); and ``extract_subgradient`` of ``abs(x1) + abs(x2)``
    at the origin of the unit box along the objective ``2**k * (1, 1)``,
    one kind per scale (a correct extraction is ``(1, 1)`` at every scale);
    and ``run_all``, every worked example on the weighted grid, at grid
    sizes the benchmark never draws, one kind per size.
    Then questions in proper reduced spaces of R^3: ``subdifferential_hull``
    and ``extract_subgradient`` (along a random objective) over a hexagon
    spanning a plane and over a segment spanning a line, and extraction on
    a prism gauge whose kernel is a line; and the gauge of the diamond
    ``+/- 2**k e_i`` at a random point, one kind per scale, which reads the
    name of the error a side raises.  Each of these outputs is a JSON
    document, and its check asks only that the document has the expected
    fields and types.  Last, the README's ``gauge`` and ``lipschitz``
    commands on its unit square written with each row and offset times
    ``2**k``, one kind per scale (the same set, so a correct program prints
    the unit square's output at every scale), issued through the CLI and
    checked for exit code 0.  Then bad input through the CLI: a
    wrong-width, a NaN and a non-numeric ``--point``, and a ``--set`` with a
    wrong-width normal, each checked for exit code 2, so that their
    standard error lines are compared byte for byte."""
    import numpy as np
    import gaugecalc as gc
    from gaugecalc.geometry import batch_callable
    from gaugecalc.rules import InnerMap, check_domination, verify_chain_rule_1
    from workloads import run_cli

    rng = np.random.default_rng([seed, 0xA91])
    queries = []

    def add(kind, run, fields):
        def check(result):
            ok = isinstance(result, dict) and all(isinstance(result.get(k), t)
                                                  for k, t in fields.items())
            return SimpleNamespace(ok=ok, reason="" if ok else f"{kind}: malformed result")

        queries.append(SimpleNamespace(kind=kind, run=run, check=check))

    dom = gc.box(2, -2.0, 2.0)
    discs = {"sublevel": lambda: gc.ConvexSet(2, gc.Sublevel(
                 gc.ScalarFunction.from_expr("x1^2 + x2^2", dom), 1.0, dom), center=np.zeros(2)),
             "oracle": lambda: gc.ConvexSet(2, gc.Oracle(
                 member=lambda x: float(x @ x) <= 1.0, bounding_radius=2.0), center=np.zeros(2))}
    d = rng.standard_normal(2)
    d *= 0.7 / np.linalg.norm(d)
    for name, disc in discs.items():
        for k in API_SCALES:
            add(f"api/bisection-{name} 2^{k}",
                lambda disc=disc, x=2.0 ** k * d: {"value": gc.Gauge.of_set(disc()).value(x)},
                {"value": float})

    box = gc.box(2, -1.0, 2.0)
    f = gc.ScalarFunction.from_expr("(x1 - 0.3)^2 + 2*(x2 + 0.1)^2", box, convex=True)
    s_a = gc.sublevel_set(f, box, 1.5)
    x0 = np.array([0.2, 0.0])
    for x in s_a.sample_members(rng, 6):
        add("api/literal_ca_member", lambda x=x: {"member": gc.literal_ca_member(s_a, x0, x)},
            {"member": bool})

    half = rng.standard_normal((3, 2))
    p = rng.standard_normal(2)
    moved = np.vstack([p + half, p - half])
    moved[0] += 1e-3
    for pts, q in ((np.vstack([p + half, p - half]), p), (np.vstack([p + half, p - half]),
                   p + 1e-3), (moved, p), (np.vstack([half, -half]) @ np.eye(2, 3), np.zeros(3))):
        add("api/vertex-symmetry",
            lambda pts=pts, q=q: {"symmetric": gc.check_symmetry(
                gc.ConvexSet(pts.shape[1], gc.Vertices(pts)), q)}, {"symmetric": bool})

    g = gc.ScalarFunction.from_expr("x1^2 + abs(x2) + 0.5*x1*x2", dom, convex=True)
    c0 = rng.uniform(-0.5, 0.5, 2)

    def empirical():
        core = gc.build_core(g, dom, c0)
        region = gc.scale_about(core.c_a, c0, 0.5)
        return {"L": gc.empirical_constant(g, gc.Gauge.of_set(core.c_a), region, pairs=12,
                                           seed=seed)}

    add("api/empirical-core", empirical, {"L": float})

    outer = gc.ScalarFunction.from_expr("abs(x1) + abs(x2) + 0.5*x1*x2", dom)
    diamond = gc.ConvexSet(2, gc.Vertices(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])),
                           center=np.zeros(2))
    for name, a, out in (("contracting", 0.4 * np.array([[0.6, -0.8], [0.8, 0.6]]), diamond),
                         ("expanding", 2.0 * np.eye(2), gc.box(2)),
                         ("sheared", np.array([[0.8, 0.3], [0.0, 0.5]]), gc.box(2))):
        def domination(a=a, out=out, name=name):
            inner = InnerMap(fn=lambda v: a @ v, jacobian=lambda v: a, in_dim=2, out_dim=2,
                             name=name)
            try:
                check_domination(inner, c0, gc.Gauge.of_set(out), gc.Gauge.of_set(gc.box(2)),
                                 seed=seed)
            except gc.ConditionViolationError as exc:
                return {"raised": True, "message": str(exc),
                        "witness": [list(map(float, w)) for w in exc.witness]}
            return {"raised": False}

        add("api/domination", domination, {"raised": bool})

        for batch in (False, True):
            def chain1(a=a, out=out, name=name, batch=batch):
                rows = lambda vs: vs[:, :1] * a[:, 0] + vs[:, 1:] * a[:, 1]  # noqa: E731
                inner = InnerMap(fn=batch_callable(rows) if batch
                                 else lambda v: a @ v, jacobian=lambda v: a, in_dim=2,
                                 out_dim=2, name=name)
                try:
                    report = verify_chain_rule_1(outer, inner, np.zeros(2), gc.Gauge.of_set(out),
                                                 gc.Gauge.of_set(gc.box(2)), seed=seed)
                except gc.ConditionViolationError as exc:
                    return {"raised": True, "message": str(exc)}
                return {"raised": False, "report": report.to_json()}

            add(f"api/chain1-{'batch' if batch else 'point'}", chain1, {"raised": bool})

    kinks = gc.ScalarFunction.from_expr("abs(x1) + abs(x2)", gc.box(2), convex=True)
    for k in EXTRACT_SCALES:
        add(f"api/extract-scaled 2^{k}",
            lambda c=2.0 ** k * np.ones(2): {"zeta": gc.extract_subgradient(
                kinks, np.zeros(2), gc.Gauge.of_set(gc.box(2)), objective=c).tolist()},
            {"zeta": list})

    for n in L2DEMO_SIZES:
        add(f"api/l2demo-n{n}", lambda n=n: gc.run_all(n=n, seed=seed),
            dict.fromkeys(gc.EXAMPLES, dict))

    cube = gc.box(3, -5.0, 5.0, center=np.zeros(3))
    b1, b2 = np.array([1.0, 0.0, 2.0]), np.array([0.0, 1.0, -1.0])
    hexagon = np.vstack([b1, b2, 0.5 * (b1 + b2)])
    segment = np.array([[1.0, 2.0, 2.0]]) / 3.0
    prism = gc.Halfspaces(np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 1.0, 1.0],
                                    [0.0, -1.0, -1.0]]), np.ones(4))
    reduced = {"plane": (gc.Vertices(np.vstack([hexagon, -hexagon])),
                         "abs(x1) + abs(x2 - 0.1) + x1^2"),
               "line": (gc.Vertices(np.vstack([segment, -segment])), "abs(x1) + x2"),
               "prism": (prism, "abs(x1 + x2) + 0.5*abs(x2 + x3) + (x1 + x2)^2")}
    for name, (rep, src) in reduced.items():
        def gauge(rep=rep):
            return gc.Gauge.of_set(gc.ConvexSet(3, rep, center=np.zeros(3)))

        f3 = gc.ScalarFunction.from_expr(src, cube, convex=True)
        if name != "prism":
            add(f"api/hull-{name}", lambda f3=f3, gauge=gauge: gc.subdifferential_hull(
                f3, np.zeros(3), gauge(), seed=seed).to_json(), {"subgradients": list})
        add(f"api/extract-{name}",
            lambda f3=f3, gauge=gauge, c=rng.standard_normal(3): {"zeta": gc.extract_subgradient(
                f3, np.zeros(3), gauge(), objective=c, seed=seed).tolist()}, {"zeta": list})

    x = rng.standard_normal(2)
    for k in DIAMOND_SCALES:
        def huge(corners=2.0 ** k * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])):
            try:
                diamond = gc.ConvexSet(2, gc.Vertices(corners), center=np.zeros(2))
                return {"value": gc.Gauge.of_set(diamond).value(x)}
            except Exception as exc:  # the parent's qhull crash reads as a moved output
                return {"value": type(exc).__name__}

        add(f"api/gauge-huge-diamond 2^{k}", huge, {"value": (float, str)})

    def cli(kind, argv, code=0):
        def check(result):
            ok = result[0] == code
            return SimpleNamespace(ok=ok, reason="" if ok else f"{kind}: exit {result[0]}")

        queries.append(SimpleNamespace(kind=kind, run=lambda: run_cli(argv), check=check))

    for k in ROW_SCALES:
        rows = [{"normal": [2.0 ** k * sign * (j == i) for j in range(2)], "offset": 2.0 ** k}
                for i in range(2) for sign in (1, -1)]
        square = json.dumps({"dim": 2, "repr": {"halfspaces": rows}, "center": [0, 0]})
        cli(f"api/halfspace-rows 2^{k}", ["gauge", "--set", square, "--point", "[0.5, 0.25]"])
        cli(f"api/halfspace-rows 2^{k}",
            ["lipschitz", "--set", square, "--fn", "x1^2 + x2^2", "--point", "[0, 0]",
             "--eps", "0.5", "--pairs", "1000", "--convex"])

    square = json.dumps({"dim": 2, "repr": {"halfspaces": [
        {"normal": [s * (j == i) for j in range(2)], "offset": 1.0}
        for i in range(2) for s in (1, -1)]}, "center": [0, 0]})
    for what, point in (("wide", "[0.5, 0.25, 1]"), ("nan", "[NaN, 0.25]"),
                        ("text", '["a", 0.25]')):
        cli(f"api/bad-input point-{what}", ["gauge", "--set", square, "--point", point], 2)
        cli(f"api/bad-input point-{what}", ["subdiff", "--set", square, "--fn", "abs(x1) + x2",
                                            "--point", point], 2)
    wide = json.dumps({"dim": 2, "repr": {"halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}})
    cli("api/bad-input normal-wide", ["gauge", "--set", wide, "--point", "[0.5, 0.25]"], 2)
    return queries


def worker(root: Path, seeds: list, counts: dict) -> None:
    """Issue the queries with ``root``'s program and references; print one
    JSON object mapping each query's key to its record."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run  # sets the benchmark's thread variables before numpy loads
    import gaugecalc
    import workloads

    for module in (run, gaugecalc, workloads):
        if not Path(module.__file__).resolve().is_relative_to(root):
            sys.exit(f"error: {module.__name__} imported from {module.__file__}")
    records = {}
    for seed in seeds:
        for name, count in counts.items():
            w = workloads.WORKLOADS[name]
            for i in range(count):
                records[f"{name} seed {seed} query {i}"] = _issue(w.query(seed, i))
            for k, query in enumerate(w.defect_set(seed)):
                records[f"{name} seed {seed} defect {k}"] = _issue(query)
        for i, query in enumerate(api_queries(seed)):
            records[f"api seed {seed} query {i}"] = _issue(query)
    for record in records.values():  # a warning names its file under the checkout
        record["err"] = record["err"].replace(f"{root}{os.sep}", "")
    json.dump(records, sys.stdout)


def run_side(root: Path, args) -> dict:
    """The records of one checkout, from a fresh interpreter."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
            "--seeds", *map(str, args.seeds), "--calculus", str(args.calculus),
            "--certify", str(args.certify), "--grid", str(args.grid)]
    done = subprocess.run(argv, env=env, cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"error: the queries of {root} exited with status {done.returncode}")
    return json.loads(done.stdout)


def compare(parent: dict, change: dict) -> tuple[list, list, int]:
    """Table rows (kind, moved, total, standard-error changes, verdict
    changes, exit code changes, largest relative change of a number in a
    moved standard output, or None when none moved), report lines and the
    exit status."""
    if parent.keys() != change.keys():
        sys.exit("error: the two sides issued different queries")
    rows = collections.defaultdict(lambda: [0, 0, 0, 0, 0, None])
    lines, status = [], 0
    for key, a in parent.items():
        b = change[key]
        kind = a["kind"] if a["kind"] == b["kind"] else f"{a['kind']} -> {b['kind']}"
        row = rows[kind]
        row[0] += a["out"] != b["out"] or a["err"] != b["err"]
        row[1] += 1
        if a["out"] != b["out"]:
            row[5] = max(row[5] or 0.0, _relative_change(a, b))
        if a["err"] != b["err"]:
            row[2] += 1
            lines.append(f"{key} ({kind}): stderr {a['err']!r} -> {b['err']!r}")
        for i, field in ((3, "verdicts"), (4, "rc")):
            if a[field] != b[field]:
                row[i] += 1
                status = 1
                lines.append(f"{key} ({kind}): {field} {a[field]} -> {b[field]}")
    for side, records in (("parent", parent), ("change", change)):
        failed = [f"{key}: {r['reason']}" for key, r in records.items() if not r["ok"]]
        status |= bool(failed)
        lines.append(f"reference-check failures, {side}: {len(failed)}")
        lines += [f"  {line}" for line in failed]
    table = [(kind, *row) for kind, row in sorted(rows.items())]
    return table, lines, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="checkout compared against")
    parser.add_argument("change", nargs="?", type=Path, help="checkout under review")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 9173])
    parser.add_argument("--calculus", type=int, default=200, help="calculus queries per seed")
    parser.add_argument("--certify", type=int, default=130, help="certify queries per seed")
    parser.add_argument("--grid", type=int, default=30, help="grid queries per seed")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    counts = {"calculus": args.calculus, "certify": args.certify, "grid": args.grid}
    if args.worker:
        worker(args.worker.resolve(), args.seeds, counts)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    parent, change = (run_side(root.resolve(), args) for root in (args.parent, args.change))
    table, lines, status = compare(parent, change)
    width = max([len("kind")] + [len(row[0]) for row in table])
    print(f"{'kind':<{width}}  moved/total  stderr  verdict  exit  max_rel")
    for kind, moved, total, errs, verdicts, codes, rel in table:
        rel = "-" if rel is None else "n/a" if rel == math.inf else f"{rel:.2g}"
        print(f"{kind:<{width}}  {f'{moved}/{total}':>11}  {errs:>6}  {verdicts:>7}  {codes:>4}"
              f"  {rel:>7}")
    moved, total = sum(row[1] for row in table), sum(row[2] for row in table)
    print(f"{'all':<{width}}  {f'{moved}/{total}':>11}")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
