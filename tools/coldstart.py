"""Time the README commands in fresh processes, on two checkouts of gaugecalc.

    python3 tools/coldstart.py PARENT CHANGE [--runs 5] [--commands gauge core ...]

Each README command (``COMMANDS`` of ``tests/test_readme_cli.py``, with the
README's unit square saved in a temporary directory) runs ``--runs`` times
on each side, in a fresh interpreter that imports that checkout's ``src/``.
The sides alternate run by run, after one untimed run per side and command
that fills the bytecode cache and the file cache.  The report gives, per
command and side, the best wall time of a whole process (interpreter
start-up included), the largest ``ru_maxrss`` of its runs, and the scipy
subpackages it loaded ("-" for none, "(scipy)" when only scipy's own
top-level modules were loaded).  The first row, ``import``, runs ``import
gaugecalc, gaugecalc.cli`` and no command.

Nothing is written in either checkout: the processes run in a temporary
directory and keep their bytecode under a temporary ``PYTHONPYCACHEPREFIX``
(written even where ``PYTHONDONTWRITEBYTECODE`` is set, so that every timed
run reads compiled bytecode, as an installed package does).
The processes run single-threaded BLAS, as the benchmark does.  The exit
status is 1 when a command exits non-zero or fails to report on either side.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: runs one README command (argv as JSON in sys.argv[1], "null" for none) and
#: prints its exit code, peak RSS and the scipy modules it loaded as JSON
CHILD = """\
import contextlib, io, json, resource, sys
import gaugecalc, gaugecalc.cli
argv = json.loads(sys.argv[1])
code = 0
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gaugecalc.cli.main(argv)
loaded = [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
subpackages = sorted(name for name in loaded if name.count(".") == 1
                     and not name.split(".")[1].startswith("_")
                     and hasattr(sys.modules[name], "__path__"))
print(json.dumps({"rc": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "scipy": bool(loaded), "subpackages": subpackages}))
"""

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def readme_commands() -> tuple[dict, dict]:
    """The README commands (name -> argv, "square.json" standing for the
    unit square) and the unit square, from this repository's tests."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("test_readme_cli",
                                                  ROOT / "tests" / "test_readme_cli.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.COMMANDS, mod.SQUARE


def probe(root: Path, argv: Optional[list], workdir: Path, pycache: Path) -> dict:
    """One fresh process of checkout ``root`` running ``argv`` (None: the
    imports alone) in ``workdir``: its report (see :data:`CHILD`) and its
    wall time in seconds, ``wall_s``; ``rc`` is the process's exit status
    and the report holds ``error`` when the process printed no report."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(pycache),
               **{var: "1" for var in _THREAD_VARS})
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        report = {"rc": done.returncode, "error": tail[0]}
    report["wall_s"] = wall
    return report


def _square_argv(argv: list, square: Path) -> list:
    return [str(square) if a == "square.json" else a for a in argv]


def measure(roots: list[Path], commands: dict, square_doc: dict, runs: int) -> dict:
    """Per command name and side index, the reports of ``runs`` timed
    processes, the sides alternating run by run after one untimed run each."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir, pycache = Path(tmp) / "work", Path(tmp) / "pycache"
        workdir.mkdir()
        square = workdir / "square.json"
        square.write_text(json.dumps(square_doc))
        for name, argv in commands.items():
            argv = None if argv is None else _square_argv(argv, square)
            for root in roots:
                probe(root, argv, workdir, pycache)
            out[name] = [[], []]
            for _ in range(runs):
                for side, root in enumerate(roots):
                    out[name][side].append(probe(root, argv, workdir, pycache))
    return out


def _cell(reports: list[dict]) -> tuple[str, str, str]:
    """Best wall, largest RSS and the scipy subpackages of one side's runs."""
    failed = [r for r in reports if r["rc"] != 0 or "error" in r]
    if failed:
        reason = failed[0].get("error", f"exit {failed[0]['rc']}")
        return "failed", "-", reason
    wall = min(r["wall_s"] for r in reports)
    rss = max(r["maxrss_kb"] for r in reports) / 1024.0
    last = reports[-1]
    scipy = ",".join(p.removeprefix("scipy.") for p in last["subpackages"]) or \
        ("(scipy)" if last["scipy"] else "-")
    return f"{wall:.3f}", f"{rss:.1f}", scipy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout compared against")
    parser.add_argument("change", type=Path, help="checkout under review")
    parser.add_argument("--runs", type=int, default=5, help="timed processes per side")
    parser.add_argument("--commands", nargs="+", help="README commands to run (default all)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for root in (args.parent, args.change):
        if not (root / "src" / "gaugecalc" / "__init__.py").is_file():
            parser.error(f"no gaugecalc checkout at {root}")
    commands, square = readme_commands()
    unknown = set(args.commands or ()) - set(commands)
    if unknown:
        parser.error(f"unknown commands: {', '.join(sorted(unknown))}")
    chosen = {"import": None, **{name: argv for name, argv in commands.items()
                                 if not args.commands or name in args.commands}}
    results = measure([args.parent.resolve(), args.change.resolve()], chosen, square,
                      args.runs)
    print(f"{'command':<16}{'wall_s':>16}{'rss_mb':>14}  scipy (parent -> change)")
    status = 0
    for name, (parent, change) in results.items():
        (wall_a, rss_a, sci_a), (wall_b, rss_b, sci_b) = _cell(parent), _cell(change)
        status |= "failed" in (wall_a, wall_b)
        print(f"{name:<16}{f'{wall_a} -> {wall_b}':>16}{f'{rss_a} -> {rss_b}':>14}"
              f"  {sci_a} -> {sci_b}")
    print(f"best wall of {args.runs} fresh processes per side; rss is the largest ru_maxrss")
    return status


if __name__ == "__main__":
    sys.exit(main())
