"""tools/differential.py compares two checkouts on the benchmark's CLI
queries; compared with itself, this repository moves no output."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("differential",
                                                  ROOT / "tools" / "differential.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_repo_compared_with_itself_moves_nothing(capsys):
    status = _tool().main([str(ROOT), str(ROOT), "--seeds", "1", "--calculus", "2",
                           "--certify", "2"])
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    [total] = [line.split()[1] for line in out if line.startswith("all ")]
    moved, issued = map(int, total.split("/"))
    assert moved == 0 and issued > 4  # the known-defect queries ride along
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
