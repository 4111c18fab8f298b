"""tools/differential.py compares two checkouts on the benchmark's CLI and
Python-API queries; compared with itself, this repository moves no output."""

import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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
        return {"kind": "fermat", "rc": rc, "out": out, "format": "json", "err": err,
                "verdicts": verdicts, "ok": ok, "reason": "" if ok else "fermat: miss"}

    parent = {"a": record("1", [["/is_critical", True]]), "b": record("2", []),
              "c": record("3", [], rc=2, err="error: no feasible step\n"),
              "d": record("4", [])}
    change = {"a": record("1.5", [["/is_critical", False]]), "b": record("2.5", []),
              "c": record("3", [], rc=2, ok=False, err="error: non-finite input\n"),
              "d": record("4", [], err="RuntimeWarning: divide by zero\n")}
    table, lines, status = _tool().compare(parent, change)
    # the moved outputs' numbers: 1 -> 1.5 and 2 -> 2.5
    assert table == [("fermat", 4, 4, 2, 1, 0, 0.5 / 1.5)]
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


def test_the_largest_relative_change_reads_hex_vectors_and_json_numbers():
    # an extraction's vector is decoded from its hex bytes, a JSON
    # document's numbers are paired by their place, booleans are verdicts
    # and not numbers, and outputs whose numbers do not pair up read inf.
    # A change reads against the largest magnitude of its vector (an
    # extraction, or a JSON list), and a number outside any list against
    # its own
    tool = _tool()

    def record(kind, value, form):
        out = np.asarray(value, float).tobytes().hex() if form == "hex" else json.dumps(value)
        return {"kind": kind, "rc": 0, "out": out, "format": form, "err": "", "verdicts": [],
                "ok": True, "reason": ""}

    parent = {"a": record("grid/extract", [1.0, -2.0, 0.0], "hex"),
              "b": record("grid/extract", [3.0, 4.0, 5.0], "hex"),
              "c": record("subdiff", {"v": [1.0, 2.0], "ok": True}, "json"),
              "d": record("lebourg", {"v": [1.0, 2.0]}, "json"),
              "e": record("fermat", {"v": 1.0}, "json"),
              "f": record("gauge", {"v": math.inf}, "json"),
              "g": record("api/hull-plane", [1.0, 3.8198201767452616e-09], "hex"),
              "h": record("lipschitz", {"M": 2.0, "pairs": 1000}, "json")}
    change = {"a": record("grid/extract", [1.0, -2.0 * (1 + 1e-11), 0.0], "hex"),
              "b": record("grid/extract", [3.0, 4.0, 5.0], "hex"),
              "c": record("subdiff", {"v": [1.0, 2.5], "ok": False}, "json"),
              "d": record("lebourg", {"v": [1.0, 2.0, 3.0]}, "json"),
              "e": record("fermat", {"v": 1.0}, "json"),
              "f": record("gauge", {"v": 1e60}, "json"),
              "g": record("api/hull-plane", [1.0, 3.819820223210553e-09], "hex"),
              "h": record("lipschitz", {"M": 2.5, "pairs": 1000}, "json")}
    rows = {row[0]: row[1:] for row in tool.compare(parent, change)[0]}
    assert rows["grid/extract"][:2] == (1, 2)
    assert rows["grid/extract"][5] == pytest.approx(1e-11, rel=1e-4)
    assert rows["subdiff"][5] == 0.2
    assert rows["lebourg"][5] == math.inf
    assert rows["fermat"] == (0, 1, 0, 0, 0, None)
    assert rows["gauge"][5] == 1.0  # inf -> finite: the ratio's limit, not NaN
    assert rows["api/hull-plane"][5] == pytest.approx(4.6e-17, rel=0.01)
    assert rows["lipschitz"][5] == 0.2
    assert tool._numbers(change["c"]) == {"/v/0": (1.0, "/v"), "/v/1": (2.5, "/v")}
