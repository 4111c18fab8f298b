import json

import numpy as np
import pytest

from gaugecalc import NonFiniteInputError, cli, functions, geometry
from gaugecalc.cli import main
from gaugecalc.geometry import box, set_to_json

UNIT_BOX_2D = json.dumps(set_to_json(box(2)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_gauge_command(capsys):
    code, doc = run(capsys, "gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]")
    assert code == 0
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["span_dim"] == 2 and doc["kernel_dim"] == 0


def test_gauge_set_from_file(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(UNIT_BOX_2D)
    code, doc = run(capsys, "gauge", "--set", str(path), "--point", "[1.0, 0.0]")
    assert code == 0
    assert doc["value"] == pytest.approx(1.0, abs=1e-9)


def test_core_command(capsys):
    dom = json.dumps(set_to_json(box(1, -1, 2, center=[0.5])))
    code, doc = run(capsys, "core", "--set", dom, "--fn", "x1^2",
                    "--point", "[0.0]", "--level", "1.0", "--convex")
    assert code == 0
    assert doc["symmetric"] and doc["span_equal"] and doc["base_in_relative_interior"]


def test_core_counts_on_a_3d_box(capsys, count_calls):
    # the symmetric core of a sublevel set is a sublevel set of the reflected
    # maximum, sampled from the box's own halfspace core: the parent's
    # rejection sampler made 39,935 membership tests and 8,706 evaluations
    cube = {"dim": 3, "repr": {"halfspaces": [
        {"normal": n, "offset": b} for n, b in (([1, 0, 0], 2), ([-1, 0, 0], 1),
                                                ([0, 1, 0], 2), ([0, -1, 0], 1),
                                                ([0, 0, 1], 2), ([0, 0, -1], 1))]}}
    count_calls.wrap(geometry.ConvexSet, "contains")
    count_calls.wrap(functions.ScalarFunction, "__call__", "eval")
    count_calls.wrap(geometry, "linprog", "lp")
    src = "(x1-0.3)^2+(x2-0.3)^2+(x3-0.3)^2"
    code, doc = run(capsys, "core", "--set", json.dumps(cube), "--fn", src,
                    "--point", "[0, 0, 0]")
    assert code == 0
    assert doc == {"base_in_relative_interior": True, "fn": src, "level": 1.27,
                   "span_equal": True, "symmetric": True, "x0": [0.0, 0.0, 0.0]}
    assert count_calls["contains"] <= 2000
    assert count_calls["eval"] <= 2000
    assert count_calls["lp"] == 1  # the box's Chebyshev centre, solved once per set


def test_core_on_a_vertex_domain(capsys):
    # a vertex set has no exact core: this takes the reflection-test core
    seg = json.dumps({"dim": 1, "repr": {"vertices": [[-1], [2]]}, "center": [0.5]})
    code, doc = run(capsys, "core", "--set", seg, "--fn", "x1^2",
                    "--point", "[0.0]", "--level", "1.0", "--convex")
    assert code == 0
    assert doc["symmetric"] and doc["span_equal"] and doc["base_in_relative_interior"]


def test_lipschitz_command(capsys):
    code, doc = run(capsys, "lipschitz", "--set", UNIT_BOX_2D,
                    "--fn", "x1^2 + x2^2", "--point", "[0, 0]",
                    "--eps", "0.5", "--pairs", "50", "--convex")
    assert code == 0
    assert doc["epsilon"] == 0.5
    assert doc["empirical_L"] <= doc["theoretical_L"] * (1 + 1e-6)


def test_lipschitz_on_a_vertex_hexagon_solves_no_lp(capsys, count_calls):
    # membership, symmetry, M and every gauge read the hull's facet rows
    ang = np.arange(6) * np.pi / 3
    hexagon = {"dim": 2, "repr": {"vertices": [[float(np.cos(a)), float(np.sin(a))]
                                               for a in ang]}, "center": [0.0, 0.0]}
    count_calls.wrap(geometry, "linprog", "lp")
    code, doc = run(capsys, "lipschitz", "--set", json.dumps(hexagon), "--fn", "x1^2 + 2*x2^2",
                    "--point", "[0, 0]", "--eps", "0.5", "--pairs", "1000", "--convex")
    assert code == 0
    assert count_calls["lp"] == 0
    assert doc["M"] == 1.75 and doc["theoretical_L"] == 5.25
    assert doc["empirical_L"] == 1.0257295304504188


def test_subdiff_and_fermat_commands(capsys):
    code, doc = run(capsys, "subdiff", "--set", UNIT_BOX_2D,
                    "--fn", "x1^2 + x2^2", "--point", "[0.25, 0.0]", "--convex")
    assert code == 0
    assert doc["subgradients"]
    code, doc = run(capsys, "fermat", "--set", UNIT_BOX_2D,
                    "--fn", "x1^2 + x2^2", "--point", "[0, 0]", "--convex")
    assert code == 0
    assert doc["is_critical"]


def test_lebourg_command(capsys):
    code, doc = run(capsys, "lebourg", "--set", UNIT_BOX_2D,
                    "--fn", "x1^2 + x2^2", "--point", "[-0.5, 0.0]",
                    "--point2", "[0.7, 0.4]", "--convex")
    assert code == 0
    assert doc["alpha"] == pytest.approx(0.5, abs=1e-5)


def test_verify_sum_command(capsys):
    code, doc = run(capsys, "verify", "sum", "--set", UNIT_BOX_2D,
                    "--fn", "abs(x1) + x2^2", "--fn2", "x1^2 + abs(x2)",
                    "--point", "[0.3, 0.5]", "--convex")
    assert code == 0
    assert doc["verdict"] == "equality_holds"


def test_verify_chain2_square_outer_is_an_equality(capsys):
    # the one-sided slopes of u^2 at u0 = 0.25 bracket 2 u0 to 2^-23; central
    # differences at 1e-3 scales left an interval 2 u0 +/- 0.004 and the
    # verdict at inclusion_holds
    code, doc = run(capsys, "verify", "chain2", "--set", UNIT_BOX_2D,
                    "--fn", "abs(x1) + x2^2", "--outer", "square",
                    "--point", "[0.0, 0.5]", "--convex")
    assert code == 0
    assert doc["verdict"] == "equality_holds"


def test_verify_requires_second_function(capsys):
    code = main(["verify", "sum", "--set", UNIT_BOX_2D,
                 "--fn", "x1^2", "--point", "[0, 0]", "--convex"])
    assert code == 2
    assert "fn2" in capsys.readouterr().err


def test_l2demo_command(capsys):
    code, doc = run(capsys, "l2demo", "exp_chain", "--grid-n", "100")
    assert code == 0
    assert doc["passed"]


def test_counterexamples_command(capsys):
    code, doc = run(capsys, "counterexamples")
    assert code == 0
    assert set(doc) == {"sqrt_boundary", "floor_quasiconvex", "asymmetric_set",
                        "kernel_blind_stationarity"}
    assert all(sec["reproduced"] for sec in doc.values())


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.0]",
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)


def test_bad_json_exits_2(capsys):
    assert main(["gauge", "--set", "{not json", "--point", "[0]"]) == 2
    assert main(["gauge", "--set", UNIT_BOX_2D, "--point", "[0.1,"]) == 2
    assert main(["gauge", "--set", "/nonexistent/set.json", "--point", "[0]"]) == 2


def test_bad_expression_exits_2(capsys):
    code = main(["fermat", "--set", UNIT_BOX_2D, "--fn", "x1 +", "--point", "[0, 0]"])
    assert code == 2


def test_overflowing_expression_exits_2(capsys):
    code = main(["subdiff", "--fn", "exp(1000*x1)", "--point", "[0.5,0]", "--convex",
                 "--set", UNIT_BOX_2D])
    assert code == 2
    assert "exp overflows" in capsys.readouterr().err


def test_malformed_set_exits_2(capsys):
    wide = json.dumps({"dim": 2, "repr": {"halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}})
    assert main(["gauge", "--set", wide, "--point", "[0, 0]"]) == 2
    assert "dimension" in capsys.readouterr().err


EMPTY_HALFSPACES = json.dumps({"dim": 2, "repr": {"halfspaces": []}, "center": [0, 0]})
INTERVAL_1D = json.dumps({"dim": 1, "center": [0],
                          "repr": {"halfspaces": [{"normal": [1], "offset": 1},
                                                  {"normal": [-1], "offset": 1}]}})


def test_verify_partial_command(capsys):
    code, doc = run(capsys, "verify", "partial", "--set", INTERVAL_1D,
                    "--set2", INTERVAL_1D, "--fn", "abs(x1) + x2^2",
                    "--point", "[0.0, 0.4]", "--convex")
    assert code == 0
    assert doc["verdict"] == "equality_holds"


@pytest.mark.parametrize("argv", [
    ["gauge", "--set", UNIT_BOX_2D, "--point", '{"a": 1}'],
    ["gauge", "--set", UNIT_BOX_2D, "--point", '"abc"'],
    ["verify", "partial", "--set", INTERVAL_1D, "--fn", "abs(x1) + x2^2",
     "--point", "[0.0, 0.4]"],
    ["lipschitz", "--set", UNIT_BOX_2D, "--fn", "x1^2", "--point", "[0, 0]",
     "--eps", "1.5"],
    ["l2demo", "sum", "--grid-n", "0"],
    ["l2demo", "sum", "--grid-n", "-3"],
    ["lipschitz", "--set", UNIT_BOX_2D, "--fn", "x1^2", "--point", "[0, 0]",
     "--pairs", "0"],
    ["lipschitz", "--set", UNIT_BOX_2D, "--fn", "x1^2", "--point", "[0, 0]",
     "--pairs", "-5"],
    ["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]", "--tol", "nan"],
    ["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]", "--tol", "-1"],
    ["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]", "--tol", "inf"],
    ["subdiff", "--set", UNIT_BOX_2D, "--fn", "x1^2", "--point", "[0, 0]",
     "--tol", "0"],
    ["gauge", "--set", EMPTY_HALFSPACES, "--point", "[0, 0]"],
    ["verify", "max", "--set", EMPTY_HALFSPACES, "--fn", "abs(x1)", "--fn2", "x2",
     "--point", "[0, 0]"],
])
def test_bad_input_exits_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_false_convex_flag_exits_2(capsys):
    # -abs(x1) is concave at 0; with --convex, subdiff reported noisy
    # derivative estimates and fermat exited 0 with is_critical false
    for command in ("subdiff", "fermat"):
        code = main([command, "--set", UNIT_BOX_2D, "--fn", "-abs(x1) + x2^2",
                     "--point", "[0.0, 0.0]", "--convex"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "flagged convex" in err[0]


def test_floor_of_an_overflow_exits_2(capsys):
    code = main(["fermat", "--set", UNIT_BOX_2D, "--fn", "floor(1e308*x1*10) + x2",
                 "--point", "[0.5, 0.0]"])
    assert code == 2
    assert "floor of a non-finite value (in subexpression .l.floor)" in capsys.readouterr().err


def test_free_domain_answers_a_batch_in_one_call():
    domain = cli._free_domain(2)
    assert domain.contains_many(np.zeros((3, 2))).tolist() == [True] * 3
    with pytest.raises(NonFiniteInputError):
        domain.contains_many(np.array([[0.0, np.inf]]))
