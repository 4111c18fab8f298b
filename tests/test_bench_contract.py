"""The benchmark's tracer wraps gaugecalc's layers by name from outside the
program (perfbench/tracing.py), and its workloads check every answer against
an independent reference (perfbench/workloads.py); a refactor that renames or
drops a traced name, or fails a reference check, must fail here, not later in
``perfbench/run.py``.  These tests only read perfbench/."""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
#: the seeds whose leading timed queries are checked here
BENCH_SEEDS = (1, 9173)
#: the leading timed queries checked per workload and seed
BENCH_QUERIES = 200
MODULES = ["cli", "expr", "functions", "geometry", "lipschitz", "rules", "subdiff",
           "symmetrize", "weighted_l2"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def _module(name):
    return importlib.import_module(f"gaugecalc.{name}")


def test_every_traced_name_exists(tracing):
    for mod, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(_module(mod), attr, None)), f"gaugecalc.{mod}.{attr}"
    for mod, cls, attr, _ in tracing.METHODS:
        assert attr in vars(getattr(_module(mod), cls)), f"gaugecalc.{mod}.{cls}.{attr}"
    for mod in ("geometry", "subdiff"):
        assert callable(getattr(_module(mod), "linprog", None)), f"gaugecalc.{mod}.linprog"


def _bindings():
    """Every attribute of the package, its modules and the traced classes."""
    import gaugecalc

    owners = [gaugecalc] + [_module(m) for m in MODULES]
    return {(id(o), key): val for o in owners for key, val in vars(o).items()}


def test_install_then_uninstall_restores_the_originals(tracing):
    before = _bindings()
    classes = {(mod, cls): dict(vars(getattr(_module(mod), cls)))
               for mod, cls, _, _ in tracing.METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _module("rules").verify_sum_rule is not before[
            (id(_module("rules")), "verify_sum_rule")]
        assert _module("subdiff").linprog is not before[(id(_module("subdiff")), "linprog")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for (mod, cls), attrs in classes.items():
        now = vars(getattr(_module(mod), cls))
        assert all(now[k] is v for k, v in attrs.items())


def _verdict(workloads, query):
    """A query's verdict, as the benchmark's loop reads it: one that raises
    fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = query.run()
        except Exception as exc:
            return workloads.Verdict(False, False, f"{query.kind}: raised {exc!r}")
    return query.check(result)


@pytest.mark.parametrize("name", ["certify", "calculus", "grid"])
def test_the_benchmark_queries_pass_their_reference_checks(workloads, name):
    # the leading queries, through the cover cycles that hold the traced
    # set (which covers every timed kind); the known-defect queries may
    # fail, but never contradict their references
    wl = workloads.WORKLOADS[name]
    for seed in BENCH_SEEDS:
        timed = [wl.query(seed, i) for i in range(max(BENCH_QUERIES, wl.cover_cycles * wl.cycle))]
        failed = [v.reason for v in (_verdict(workloads, q) for q in timed) if not v.ok]
        assert failed == [], f"seed {seed}"
        wrong = [v.reason for v in (_verdict(workloads, q) for q in wl.defect_set(seed))
                 if v.wrong]
        assert wrong == [], f"seed {seed}"
