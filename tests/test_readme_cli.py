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
import re
import shlex
import sys
from pathlib import Path

import pytest

from gaugecalc.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "data" / "readme_cli.json"
README = Path(__file__).resolve().parents[1] / "README.md"

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


def readme_commands() -> list:
    """The argv of each command in the README's "Command-line usage" sh
    block: backslash continuations joined, a quoted argument may span
    lines, comment lines skipped."""
    usage = README.read_text().split("## Command-line usage", 1)[1]
    block = re.search(r"```sh\n(.*?)```", usage, re.S).group(1)
    commands, pending = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending += line + "\n"
        try:
            argv = shlex.split(pending)
        except ValueError:  # a quotation still open
            continue
        commands.append(argv)
        pending = ""
    assert not pending
    return commands


def _as_data(arg: str):
    """A JSON-valued argument as its parsed value, any other as itself."""
    try:
        return json.loads(arg)
    except json.JSONDecodeError:
        return arg


def test_readme_usage_block_is_the_golden_command_list():
    readme = readme_commands()
    assert [argv[0] for argv in readme] == ["gaugecalc"] * len(COMMANDS)
    assert [list(map(_as_data, argv[1:])) for argv in readme] == \
        [list(map(_as_data, argv)) for argv in COMMANDS.values()]
    parser = build_parser()
    for argv in readme:
        parser.parse_args(argv[1:])  # a refused option exits 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        square = _square(Path(tmp))
        doc = {name: run_command(argv, square) for name, argv in COMMANDS.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
