"""The benchmark's tracer wraps gaugecalc's layers by name from outside the
program (perfbench/tracing.py); a refactor that renames or drops a traced
name must fail here, not later in ``perfbench/run.py --trace 1``.  This test
only reads perfbench/."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ["cli", "expr", "functions", "geometry", "lipschitz", "rules", "subdiff",
           "symmetrize", "weighted_l2"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
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
