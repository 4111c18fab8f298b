"""scipy is imported only by the questions that run an LP, qhull or the
normal CDF: each README command runs in a fresh interpreter
(``tools/coldstart.py``'s probe), which then reports the scipy modules it
loaded."""

import importlib.util
import json
from pathlib import Path

import pytest

from test_readme_cli import COMMANDS, SQUARE

ROOT = Path(__file__).resolve().parent.parent

#: README commands that load no scipy module at all
NO_SCIPY = ("gauge", "subdiff", "fermat", "lebourg", "verify_sum", "l2demo")
#: README commands that sample a halfspace set, and load scipy.special for ``ndtr``
SPECIAL_ONLY = ("core", "counterexamples")


def _tool():
    spec = importlib.util.spec_from_file_location("coldstart", ROOT / "tools" / "coldstart.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """Runs a README command (None: the imports alone) in a fresh process of
    this checkout and returns its report."""
    tool, tmp = _tool(), tmp_path_factory.mktemp("coldstart")
    workdir, pycache = tmp / "work", tmp / "pycache"
    workdir.mkdir()
    square = workdir / "square.json"
    square.write_text(json.dumps(SQUARE))

    def run(argv):
        argv = None if argv is None else tool._square_argv(argv, square)
        report = tool.probe(ROOT, argv, workdir, pycache)
        assert report["rc"] == 0 and "error" not in report, report
        return report

    return run


def test_importing_the_package_and_cli_loads_no_scipy(probe):
    assert not probe(None)["scipy"]


@pytest.mark.parametrize("name", NO_SCIPY)
def test_a_readme_command_with_no_lp_loads_no_scipy(probe, name):
    assert not probe(COMMANDS[name])["scipy"]


@pytest.mark.parametrize("name", SPECIAL_ONLY)
def test_a_halfspace_sampling_command_loads_scipy_special_alone(probe, name):
    assert probe(COMMANDS[name])["subpackages"] == ["scipy.special"]


def test_every_readme_command_is_classified():
    # lipschitz solves the Chebyshev LP and runs qhull, and is not checked
    assert set(NO_SCIPY) | set(SPECIAL_ONLY) | {"lipschitz"} == set(COMMANDS)
