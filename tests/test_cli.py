import json
import warnings

import numpy as np
import pytest

from gaugecalc import NonFiniteInputError, cli, functions, geometry, rules, subdiff
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


@pytest.mark.parametrize("point,value", [("[1e200, 0]", 1e200), ("[1e308, 1e308]", 1e308),
                                         ("[1e-200, 0]", 1e-200)])
def test_gauge_of_a_point_whose_squared_norm_overflows(capsys, point, value):
    # the ratio formula's threshold scales with |x| without squaring it, so
    # neither a huge nor a tiny point reads 0.0, and no warning is printed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, doc = run(capsys, "gauge", "--set", UNIT_BOX_2D, "--point", point)
    assert code == 0 and doc["value"] == value
    assert caught == []


@pytest.mark.parametrize("scale,value", [(1e154, 1.5e-154), (1e200, 1.5e-200),
                                         (1e300, 1.5e-300), (1.0, 1.5)])
def test_gauge_of_a_huge_vertex_set(capsys, scale, value):
    # qhull reads the coordinates scaled by a power of two, so a diamond of
    # huge vertices +/- scale e_i has the unit diamond's facets, scaled
    diamond = json.dumps({"dim": 2, "center": [0, 0], "repr": {"vertices": [
        [scale, 0], [-scale, 0], [0, scale], [0, -scale]]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run(capsys, "gauge", "--set", diamond, "--point", "[1, 0.5]")
    assert code == 0 and doc["span_dim"] == 2
    assert doc["value"] == pytest.approx(value, rel=1e-15)


def test_lipschitz_on_a_box_of_huge_normals_exits_cleanly(capsys):
    # the Chebyshev and symmetry LPs take overflow-safe row norms: the box
    # of normals +/-1e200 e_i exits 0 or 2, with no traceback or warning
    rows = [{"normal": [s * 1e200 * (j == i) for j in range(2)], "offset": 1e200}
            for i in range(2) for s in (1, -1)]
    huge = json.dumps({"dim": 2, "center": [0, 0], "repr": {"halfspaces": rows}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["lipschitz", "--set", huge, "--fn", "x1^2+x2^2", "--point", "[0,0]"])
    out, err = capsys.readouterr()
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        doc = json.loads(out)
        assert code == 0 and doc["empirical_L"] <= doc["theoretical_L"]


def test_lipschitz_reads_a_box_of_scaled_normals_as_the_unit_box(capsys):
    # a halfspace set stores each row divided by a power of two near its
    # norm, so the box [-1, 1]^2 lists its 4 vertices and reads the exact M
    # and theoretical_L however its rows are written
    docs = {}
    for scale in (1.0, 1e-200, 1e10, 1e200):
        rows = [{"normal": [s * scale * (j == i) for j in range(2)], "offset": scale}
                for i in range(2) for s in (1, -1)]
        box_doc = json.dumps({"dim": 2, "center": [0, 0], "repr": {"halfspaces": rows}})
        code, docs[scale] = run(capsys, "lipschitz", "--set", box_doc, "--fn", "x1^2+x2^2",
                                "--point", "[0,0]")
        assert code == 0
        assert len(geometry.set_from_json(json.loads(box_doc)).representation
                   .extreme_points()) == 4
    for scale in (1e-200, 1e10, 1e200):
        assert docs[scale]["M"] == docs[1.0]["M"] == 2.0
        assert docs[scale]["theoretical_L"] == docs[1.0]["theoretical_L"] == 6.0
        assert docs[scale]["empirical_L"] == pytest.approx(docs[1.0]["empirical_L"], rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_gauge_reads_a_box_of_scaled_normals_as_the_unit_box(capsys, scale):
    # the ratio formula's rise cut and the kernel's rank cut read the rows
    # stored divided by a power of two near their norms: tiny rows are no kernel
    rows = [{"normal": [s * scale * (j == i) for j in range(2)], "offset": scale}
            for i in range(2) for s in (1, -1)]
    box_doc = json.dumps({"dim": 2, "center": [0, 0], "repr": {"halfspaces": rows}})
    code, doc = run(capsys, "gauge", "--set", box_doc, "--point", "[0.5, 0.25]")
    assert code == 0
    assert doc == {"kernel_dim": 0, "span_dim": 2, "value": 0.5}


@pytest.mark.parametrize("dim", [2, 3])
def test_verify_chain1_calls_the_inner_map_once(capsys, count_calls, dim):
    # the composite and the domination pairs map their points through the
    # map's batch form; only y = g(x) is a point call
    count_calls.wrap(rules.InnerMap, "__call__", "inner")
    fn = " + ".join(["abs(x1)"] + [f"x{i + 1}^2" for i in range(1, dim)])
    code, doc = run(capsys, "verify", "chain1", "--set", json.dumps(set_to_json(box(dim))),
                    "--fn", fn, "--point", json.dumps([0.0] + [0.4] * (dim - 1)))
    assert code == 0 and doc["verdict"] == "equality_holds"
    assert count_calls["inner"] == 1


def test_core_of_a_wide_interval_prints_no_warning(capsys):
    # a chord's longest step divides the slack (1e9 here) only by the rates
    # of the rows it approaches, so no division overflows
    wide = json.dumps({"dim": 1, "repr": {"halfspaces": [{"normal": [1], "offset": 1e9},
                                                          {"normal": [-1], "offset": 1e9}]}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["core", "--set", wide, "--fn", "x1^2", "--point", "[0.0]",
                     "--level", "1.0"])
    assert code == 2
    assert "below the function value" in capsys.readouterr().err
    assert caught == []


def test_core_command(capsys):
    dom = json.dumps(set_to_json(box(1, -1, 2, center=[0.5])))
    code, doc = run(capsys, "core", "--set", dom, "--fn", "x1^2",
                    "--point", "[0.0]", "--level", "1.0", "--convex")
    assert code == 0
    assert doc["symmetric"] and doc["span_equal"] and doc["base_in_relative_interior"]


def test_core_counts_on_a_3d_box(capsys, count_calls):
    # the symmetric core of a sublevel set is a sublevel set of the reflected
    # maximum, sampled from the box's own halfspace core; each sampler round,
    # reach probe and reflection test is one batch membership test (5 point
    # tests, each a one-row batch, 1 point evaluation and 19 batches here,
    # where one proposal at a time made 852 tests and 883 evaluations)
    cube = {"dim": 3, "repr": {"halfspaces": [
        {"normal": n, "offset": b} for n, b in (([1, 0, 0], 2), ([-1, 0, 0], 1),
                                                ([0, 1, 0], 2), ([0, -1, 0], 1),
                                                ([0, 0, 1], 2), ([0, 0, -1], 1))]}}
    count_calls.wrap(geometry.ConvexSet, "contains")
    count_calls.wrap(geometry.ConvexSet, "contains_many")
    count_calls.wrap(functions.ScalarFunction, "__call__", "eval")
    count_calls.wrap(geometry, "linprog", "lp")
    src = "(x1-0.3)^2+(x2-0.3)^2+(x3-0.3)^2"
    code, doc = run(capsys, "core", "--set", json.dumps(cube), "--fn", src,
                    "--point", "[0, 0, 0]")
    assert code == 0
    assert doc == {"base_in_relative_interior": True, "fn": src, "level": 1.27,
                   "span_equal": True, "symmetric": True, "x0": [0.0, 0.0, 0.0]}
    assert count_calls["contains"] <= 50
    assert count_calls["eval"] <= 50
    assert count_calls["contains_many"] <= 100
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
    # the convex ladder's first step, 2**-8, takes 1000*x1 past 709.78
    code = main(["subdiff", "--fn", "exp(1000*x1)", "--point", "[0.709,0]", "--convex",
                 "--set", UNIT_BOX_2D])
    assert code == 2
    assert "exp overflows" in capsys.readouterr().err


def test_huge_finite_quotients_exit_2_quietly(capsys):
    # no step from 0.5 overflows, but the quotients (about 1e220 to 1e221)
    # are too noisy to meet as one subdifferential: a typed error, and no
    # overflow warning from counting their sign changes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["subdiff", "--fn", "exp(1000*x1)", "--point", "[0.5,0]", "--convex",
                     "--set", UNIT_BOX_2D])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {subdiff._INFEASIBLE}"]
    assert caught == []


def test_malformed_set_exits_2(capsys):
    wide = json.dumps({"dim": 2, "repr": {"halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}})
    assert main(["gauge", "--set", wide, "--point", "[0, 0]"]) == 2
    assert "dimension" in capsys.readouterr().err


SEGMENT_2D = json.dumps({"dim": 2, "repr": {"vertices": [[-1, 0], [1, 0]]}, "center": [0, 0]})
DIAMOND_2D = json.dumps({"dim": 2, "repr": {"vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
                         "center": [0, 0]})
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
    ["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]", "--seed", "-1"],
    ["subdiff", "--set", UNIT_BOX_2D, "--fn", "x1^2", "--point", "[0, 0]", "--seed", "-1"],
    ["gauge", "--set", SEGMENT_2D, "--point", "[0, 0.5]", "--tol", "1"],
    ["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.5]", "--tol", "1e300"],
    ["core", "--set", INTERVAL_1D, "--fn", "x1^2", "--point", "[0]", "--level", "nan"],
    ["core", "--set", INTERVAL_1D, "--fn", "x1^2", "--point", "[0]", "--level", "inf"],
    # the product of two finite values overflows: no RuntimeWarning before the error
    ["verify", "product", "--set", UNIT_BOX_2D, "--fn", "1e200*x1", "--fn2", "1e200*x1",
     "--point", "[1.0, 0]"],
    # a vertex set's membership test squares no entry of a far point
    ["lipschitz", "--set", DIAMOND_2D, "--fn", "x1", "--point", "[1e200, 0]"],
])
def test_bad_input_exits_2_with_one_error_line(argv, capsys):
    # a warning prints on a CLI process's standard error, so none may be issued
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("option, argv", [
    ("--seed", ["lebourg", "--set", UNIT_BOX_2D, "--fn", "abs(x1)", "--point", "[0, 0]",
                "--point2", "[0.5, 0]", "--seed", "-1"]),
    ("--tol", ["gauge", "--set", SEGMENT_2D, "--point", "[0, 0.5]", "--tol", "1"]),
    ("--level", ["core", "--set", INTERVAL_1D, "--fn", "x1^2", "--point", "[0]",
                 "--level", "nan"]),
])
def test_bad_option_errors_name_the_option(option, argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must ")


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
    domain = cli._load_fn("x1", 2, None, False).domain
    assert domain.contains_many(np.zeros((3, 2))).tolist() == [True] * 3
    with pytest.raises(NonFiniteInputError):
        domain.contains_many(np.array([[0.0, np.inf]]))


def test_chain2_outer_overflow_exits_2(capsys):
    # exp at the inner value 720 overflows: this ended in an OverflowError
    # traceback (exit 1)
    code = main(["verify", "chain2", "--set", UNIT_BOX_2D, "--outer", "exp",
                 "--fn", "800*x1 + abs(x2)", "--point", "[0.9, 0]"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the outer function overflows near 720.0"]


def test_chain2_quotient_overflow_exits_2(capsys):
    # at the inner value 709.5 exp is finite, but the composite's difference
    # quotients overflow: one typed error, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "chain2", "--set", UNIT_BOX_2D, "--outer", "exp",
                     "--fn", "800*x1 + abs(x2)", "--point", "[0.886875, 0]"])
    assert code == 2 and caught == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the difference quotients of outer(800*x1 + abs(x2)) overflow "
                   "near [0.886875, 0.0]"]


def _outcomes(capsys, argvs):
    """Exit code, stdout and stderr of ``main`` on each command line."""
    got = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help leave argparse this way
            code = exc.code
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    return got


def test_main_reuses_one_parser(capsys):
    argvs = [["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]"],
             ["core", "--set", INTERVAL_1D, "--fn", "x1^2", "--point", "[0.0]",
              "--level", "1.0", "--convex"],
             ["gauge", "--set", UNIT_BOX_2D],  # no --point: a usage error
             ["--help"],
             ["verify", "chain2", "--set", UNIT_BOX_2D, "--fn", "abs(x1) + x2^2",
              "--outer", "square", "--point", "[0.0, 0.5]", "--convex"],
             ["gauge", "--set", UNIT_BOX_2D, "--point", "[0.5, 0.25]", "--tol", "1e-6"]]
    cli._parser.cache_clear()
    shared = _outcomes(capsys, argvs)
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh += _outcomes(capsys, [argv])
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
    assert shared[2][2].splitlines()[-1].endswith("the following arguments are required: --point")
    assert cli.build_parser() is not cli._parser()
