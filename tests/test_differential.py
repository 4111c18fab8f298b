"""tools/differential.py compares two checkouts on the benchmark's CLI and
Python-API queries; compared with itself, this repository moves no output."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("differential",
                                                  ROOT / "tools" / "differential.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_repo_compared_with_itself_moves_nothing(capsys):
    # the first three grid queries are two worked examples and an extraction
    status = _tool().main([str(ROOT), str(ROOT), "--seeds", "1", "--calculus", "2",
                           "--certify", "2", "--grid", "3"])
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    [total] = [line.split()[1] for line in out if line.startswith("all ")]
    moved, issued = map(int, total.split("/"))
    assert moved == 0 and issued > 7  # the known-defect queries ride along
    rows = {line.split()[0]: line.split()[1] for line in out[1:] if line.startswith("grid/")}
    assert rows == {"grid/lebourg": "0/1", "grid/exp_chain": "0/1", "grid/extract": "0/1"}
    assert "reference-check failures, parent: 0" in out
    assert "reference-check failures, change: 0" in out


def test_compare_counts_moved_outputs_and_changed_verdicts():
    def record(out, verdicts, rc=0, ok=True, err=""):
        return {"kind": "fermat", "rc": rc, "out": out, "err": err, "verdicts": verdicts,
                "ok": ok, "reason": "" if ok else "fermat: miss"}

    parent = {"a": record("1", [["/is_critical", True]]), "b": record("2", []),
              "c": record("3", [], rc=2, err="error: no feasible step\n"),
              "d": record("4", [])}
    change = {"a": record("1.5", [["/is_critical", False]]), "b": record("2.5", []),
              "c": record("3", [], rc=2, ok=False, err="error: non-finite input\n"),
              "d": record("4", [], err="RuntimeWarning: divide by zero\n")}
    table, lines, status = _tool().compare(parent, change)
    assert table == [("fermat", 4, 4, 2, 1, 0)]
    assert status == 1
    assert sum(": stderr " in line for line in lines) == 2
    assert "reference-check failures, parent: 0" in lines
    assert "reference-check failures, change: 1" in lines


def test_python_api_outputs_are_compared_by_bytes_and_json():
    # an extraction's vector by the hex of its bytes (so -0.0 differs from
    # 0.0), a worked example by its sorted-key JSON and its booleans, and
    # what the call prints on standard error (where a warning goes) as such
    def query(value, warn=False):
        def run():
            if warn:
                print("RuntimeWarning: quotients oscillate", file=sys.stderr)
            return value

        return SimpleNamespace(kind="grid/x", run=run,
                               check=lambda result: SimpleNamespace(ok=True, reason=""))

    issue = _tool()._issue
    a, b = issue(query(np.array([0.0, 1.5]))), issue(query(np.array([-0.0, 1.5])))
    assert a["out"] == np.array([0.0, 1.5]).tobytes().hex() and a["out"] != b["out"]
    assert (a["rc"], a["err"], a["verdicts"]) == (0, "", [])
    doc = issue(query({"passed": True, "factor": 2.0}, warn=True))
    assert json.loads(doc["out"]) == {"factor": 2.0, "passed": True}
    assert doc["verdicts"] == [["/passed", True]]
    assert "RuntimeWarning: quotients oscillate" in doc["err"]
