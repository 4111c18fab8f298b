"""Golden outputs of the README's command-line examples.

Each of the nine README commands runs in-process, with the README's unit
square saved as ``square.json`` in a temporary directory.  Its stdout and
exit code must match ``tests/data/readme_cli.json`` byte for byte, so a
refactor that claims "the same answers" is checked here.  A change that
alters an output on purpose regenerates the file:

    PYTHONPATH=src python tests/test_readme_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gaugecalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "readme_cli.json"

SQUARE = {"dim": 2,
          "repr": {"halfspaces": [{"normal": [1, 0], "offset": 1},
                                  {"normal": [-1, 0], "offset": 1},
                                  {"normal": [0, 1], "offset": 1},
                                  {"normal": [0, -1], "offset": 1}]},
          "center": [0, 0]}

INTERVAL = ('{"dim": 1, "repr": {"halfspaces": [{"normal": [1], "offset": 2},'
            ' {"normal": [-1], "offset": 1}]}, "center": [0.5]}')

#: name -> argv, with "square.json" standing for the saved unit square
COMMANDS = {
    "gauge": ["gauge", "--set", "square.json", "--point", "[0.5, 0.25]"],
    "core": ["core", "--set", INTERVAL, "--fn", "x1^2", "--point", "[0.0]",
             "--level", "1.0", "--convex"],
    "lipschitz": ["lipschitz", "--set", "square.json", "--fn", "x1^2 + x2^2",
                  "--point", "[0, 0]", "--eps", "0.5", "--pairs", "1000", "--convex"],
    "subdiff": ["subdiff", "--set", "square.json", "--fn", "abs(x1) + x2^2",
                "--point", "[0.0, 0.5]", "--convex"],
    "fermat": ["fermat", "--set", "square.json", "--fn", "x1^2 + x2^2",
               "--point", "[0, 0]", "--convex"],
    "lebourg": ["lebourg", "--set", "square.json", "--fn", "x1^2 + x2^2",
                "--point", "[-0.5, 0.0]", "--point2", "[0.7, 0.4]", "--convex"],
    "verify_sum": ["verify", "sum", "--set", "square.json", "--fn", "abs(x1) + x2^2",
                   "--fn2", "x1^2 + abs(x2)", "--point", "[0.3, 0.5]", "--convex"],
    "l2demo": ["l2demo", "all", "--grid-n", "1000"],
    "counterexamples": ["counterexamples"],
}


def run_command(argv, square_path: Path) -> dict:
    argv = [str(square_path) if a == "square.json" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def _square(directory: Path) -> Path:
    path = directory / "square.json"
    path.write_text(json.dumps(SQUARE))
    return path


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(COMMANDS))
def test_readme_command_matches_golden(name, golden, tmp_path):
    assert run_command(COMMANDS[name], _square(tmp_path)) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        square = _square(Path(tmp))
        doc = {name: run_command(argv, square) for name, argv in COMMANDS.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
