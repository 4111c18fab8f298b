"""gaugecalc benchmark: closed-loop query workloads with reference checks.

    python3 perfbench/run.py --workload {certify,calculus,grid} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

One client in one process and thread issues a query, waits for it, checks
its output against an independent reference (perfbench/workloads.py) and
issues the next, until ``--seconds`` of wall time have passed.  Each query is
timed from the moment it is issued, on the process CPU clock: the program is
single-threaded and does no I/O, so that clock is its service time, while the
wall clock of a shared host also counts time given to other tenants (it read
up to twice the CPU time on a 2-core VM).  The details line repeats the
latency and throughput figures on the wall clock.  After the timed phase
the run checks, untimed, the workload's known-defect queries (the kinds that
fail at this commit, kept out of the timed loop) and reports them in the
details line under ``known_defects``.  The program is imported from ``src/``
of the checkout this script sits in; without it the script exits with
status 3.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined query set once untraced and once with every layer wrapped
(perfbench/tracing.py), prints the per-layer metrics and writes the spans to
perfbench/out/.  ``--workload all`` runs the three workloads untraced, each
in its own process, and prints a table of all six end-to-end metrics, with
the known defects counted in ``failed_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (failure attribution, query mix, tail percentile).
"""

import time

T0 = time.process_time()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: extra fresh-process set-ups per run; their median with this process's own
#: is ``setup_s``, because import time shows only in a fresh process
SETUP_PROBES = 4
END_TO_END = [("setup_s", "s"), ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("queries_per_s", "1/s"), ("peak_rss_mb", "MB")]


def load_program():
    """Import gaugecalc from this checkout's src/, never from elsewhere."""
    init = SRC / "gaugecalc" / "__init__.py"
    if not init.is_file():
        print(f"error: no program at {init.relative_to(ROOT)}", file=sys.stderr)
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    import gaugecalc

    if Path(gaugecalc.__file__).resolve() != init.resolve():
        print(f"error: gaugecalc imported from {gaugecalc.__file__}", file=sys.stderr)
        sys.exit(3)


def execute(query, tracer=None):
    """Issue one query; returns (CPU seconds, wall seconds, verdict)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result, raised = query.run(), None
        except Exception as exc:  # a query that raises is a failed query
            result, raised = None, exc
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    if tracer is not None:
        tracer.warnings += sum("oscillate" in str(w.message) for w in caught)
    if raised is not None:
        return cpu, wall, Verdict(False, False, f"{query.kind}: raised {type(raised).__name__}")
    try:
        return cpu, wall, query.check(result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return cpu, wall, Verdict(False, True, f"{query.kind}: malformed output "
                                               f"({type(exc).__name__})")


class Tally:
    """Attempts, failures and their attribution."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = collections.defaultdict(lambda: {"count": 0, "worst": 0.0})
        self.shortfalls = collections.defaultdict(lambda: {"count": 0, "worst": 0.0})

    def add(self, verdict) -> None:
        self.attempted += 1
        if verdict.ok and not verdict.short:
            return
        if verdict.ok:
            entry = self.shortfalls[verdict.reason]
        else:
            self.failed += 1
            self.wrong += verdict.wrong
            entry = self.failures[verdict.reason]
        entry["count"] += 1
        entry["worst"] = max(entry["worst"], verdict.error)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed / max(1, self.attempted),
                "wrong": self.wrong, "failures": dict(self.failures),
                "shortfalls": dict(self.shortfalls)}


def tail_percentile(latencies) -> tuple:
    """The highest percentile, in steps of 0.1, with at least ten samples
    beyond it, and its value."""
    lat = np.asarray(latencies)
    for tenths in range(999, 499, -1):
        value = float(np.percentile(lat, tenths / 10))
        if np.count_nonzero(lat > value) >= 10:
            return tenths / 10, value
    return 50.0, float(np.percentile(lat, 50))


def set_up(workload, seed: int):
    """Import, generate the warm-up input and run it; returns its verdict."""
    load_program()
    wl = WORKLOADS[workload]
    return wl, execute(wl.warmup(seed))[2]


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def emit(detail: dict, correct: bool, tally: Tally, metrics: dict) -> None:
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def measure(args, wl, setup_s: float, warm_ok: bool) -> None:
    """Closed loop for --seconds; prints the end-to-end metrics."""
    latencies, walls, tally = [], [], Tally()
    by_kind, convex, generalized = collections.defaultdict(list), 0, 0
    start, start_cpu = time.perf_counter(), time.process_time()
    deadline = start + args.seconds
    ends, ends_cpu = [], []  # clock readings as each query returns
    i = 0
    while True:
        query = wl.query(args.seed, i)
        latency, wall, verdict = execute(query)
        ends.append(time.perf_counter() - start)
        ends_cpu.append(time.process_time() - start_cpu)
        latencies.append(latency)
        walls.append(wall)
        tally.add(verdict)
        by_kind[query.kind].append(latency)
        convex += query.convex
        generalized += query.generalized
        i += 1
        if time.perf_counter() >= deadline:
            break
    # the timing metrics cover the whole schedule blocks the phase completed,
    # so every run times the same mix wherever the deadline falls
    block = wl.cycle * wl.block_cycles
    n = i // block * block or i
    pct, tail = tail_percentile(latencies[:n])
    block_s = [sum(latencies[k:k + block]) for k in range(0, n, block)]
    values = {
        "setup_s": setup_s,
        "query_p50_ms": 1e3 * float(np.percentile(latencies[:n], 50)),
        "query_tail_ms": 1e3 * tail,
        "queries_per_s": n / sum(block_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    defects = Tally()
    for query in wl.defect_set(args.seed):
        defects.add(execute(query)[2])
    detail = {"workload": args.workload, "seed": args.seed, "trace": 0,
              "measured_s": ends[-1], "measured_cpu_s": ends_cpu[-1],
              "tail_percentile": pct, "samples": n, "block_s": block_s,
              "wall_query_p50_ms": 1e3 * float(np.percentile(walls[:n], 50)),
              "wall_query_tail_ms": 1e3 * float(np.percentile(walls[:n], pct)),
              "wall_queries_per_s": n / ends[n - 1],
              "convex_share": convex / i, "generalized_share": generalized / i,
              "mix": {k: len(v) for k, v in by_kind.items()},
              "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
              **tally.summary(), "known_defects": defects.summary()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    emit(detail, warm_ok and tally.wrong == 0 and defects.wrong == 0, tally, metrics)


def traced_run(args, wl, warm_ok: bool) -> None:
    """Each query of the fixed set once untraced and once traced, alternating
    which goes first so that neither side gains from running second."""
    queries = wl.trace_set(args.seed)
    count = len(queries)
    tracer, tally = Tracer(), Tally()
    untraced = traced = 0.0
    for i, query in enumerate(queries):
        for with_spans in (i % 2 == 1, i % 2 == 0):
            if not with_spans:
                untraced += execute(query)[0]
                continue
            tracer.install()
            try:
                tracer.query = i
                cpu, _, verdict = execute(query, tracer)
            finally:
                tracer.uninstall()
            traced += cpu
            tally.add(verdict)
    values = tracer.metrics()
    values["trace.untraced_queries_per_s"] = count / untraced
    values["trace.traced_queries_per_s"] = count / traced
    values["trace.overhead"] = traced / untraced
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save(spans)
    detail = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "queries": count, "spans": len(tracer.span),
              "spans_file": str(spans.relative_to(ROOT)), **tally.summary()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    emit(detail, warm_ok and tally.wrong == 0, tally, metrics)


def run_all(args) -> int:
    """Every workload untraced in its own process; a table of all metrics."""
    rows = {}
    for workload in ("certify", "calculus", "grid"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        rows[workload] = (json.loads(lines[-2]), json.loads(lines[-1]))
    columns = [name for name, _ in END_TO_END[:4]] + ["failed_frac", "peak_rss_mb"]
    units = dict(END_TO_END, failed_frac="1")
    print("workload  " + "  ".join(f"{c} [{units[c]}]" for c in columns))
    for workload, (detail, result) in rows.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        known = detail["known_defects"]
        values["failed_frac"] = ((detail["failed"] + known["failed"])
                                 / (detail["attempted"] + known["attempted"]))
        print(f"{workload:9s} " + "  ".join(
            f"{values[c]:>{len(c) + len(units[c]) + 3}.4g}" for c in columns))
    for workload, (detail, result) in rows.items():
        failures = {**detail["failures"], **detail["known_defects"]["failures"]}
        for outcome, entries in (("failed", failures), ("short", detail["shortfalls"])):
            for reason, entry in sorted(entries.items()):
                print(f"{workload}: {entry['count']} {outcome}: {reason} "
                      f"(worst miss {entry['worst']:.3g})")
    print(json.dumps({w: {"correct": r["correct"], "detail": d, "metrics": r["metrics"]}
                      for w, (d, r) in rows.items()}, sort_keys=True))
    return 0 if all(r["correct"] for _, r in rows.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "calculus", "grid", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args()
    if args.workload == "all":
        load_program()
        return run_all(args)
    wl, warm = set_up(args.workload, args.seed)
    setup_main = time.process_time() - T0
    if args.setup_probe:
        print(setup_main)
        return 0
    if warm.wrong:
        print(f"warm-up query gave a wrong answer: {warm.reason}", file=sys.stderr)
    if args.trace:
        traced_run(args, wl, not warm.wrong)
        return 0
    samples = [setup_main] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
    measure(args, wl, statistics.median(samples), not warm.wrong)
    return 0


if __name__ == "__main__":
    sys.exit(main())
