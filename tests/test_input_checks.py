"""Input is checked once, where it enters the program: every exported entry
that takes a point, direction, objective, ``zeta``, ``y`` or rows refuses
bad input with a typed error and a fixed message, and a public point entry
checks its point once, with no second check inside."""

import json
import math

import numpy as np
import pytest

from gaugecalc import (
    ConvexSet,
    Gauge,
    Halfspaces,
    InnerMap,
    ScalarFunction,
    WeightedGrid,
    box,
    build_core,
    check_domination,
    check_symmetry,
    dir_deriv,
    extract_subgradient,
    fermat_check,
    gen_dir_deriv,
    in_icr,
    is_subgradient,
    lebourg_point,
    literal_ca_member,
    local_witness,
    minkowski_gauge,
    mu_l2,
    phi_l2,
    scale_about,
    set_from_json,
    span_of_difference,
    subdiff_l2,
    subdifferential_hull,
    sublevel_set,
    symmetric_core,
    theoretical_constant,
    verify_chain_rule_1,
    verify_chain_rule_2,
    verify_max_rule,
    verify_partial_rule,
    verify_product_rule,
    verify_sum_rule,
)
from gaugecalc import cli, geometry, lipschitz, rules, subdiff, symmetrize
from gaugecalc.geometry import batch_callable

#: a bad point of R^2 of each kind
BAD_POINTS = {"wide": [0.5, 0.25, 1.0], "nan": [math.nan, 0.25], "inf": [math.inf, 0.25],
              "text": "ab", "nested": [[0.5, 0.25]]}
#: a bad matrix of rows of R^2 of each kind
BAD_ROWS = {"wide": [[0.5, 0.25, 1.0]], "nan": [[math.nan, 0.25]], "inf": [[math.inf, 0.25]],
            "text": "ab", "nested": [[[0.5, 0.25]]]}

SQUARE = box(2)
GAUGE = Gauge.of_set(SQUARE)
F = ScalarFunction.from_expr("abs(x1) + x2^2", SQUARE, convex=True)
G = ScalarFunction.from_expr("x1 - x2", SQUARE, convex=True)
F4 = ScalarFunction.from_expr("abs(x1) + x2 + x3^2 + abs(x4)", box(4))
INNER = InnerMap(fn=batch_callable(lambda vs: 0.5 * vs), jacobian=lambda v: 0.5 * np.eye(2),
                 in_dim=2, out_dim=2, name="half")
CORE = build_core(F, SQUARE, [0.0, 0.0])
GRID = WeightedGrid(2)
S_A = sublevel_set(F, SQUARE, 1.0)
ORIGIN = [0.0, 0.0]
SQUARE_DOC = {"dim": 2, "repr": {"halfspaces": [
    {"normal": [s * (j == i) for j in range(2)], "offset": 1.0}
    for i in range(2) for s in (1.0, -1.0)]}}

#: every exported entry, with the bad value in one of its point arguments
POINT_ENTRIES = {
    "ConvexSet.contains": lambda v: SQUARE.contains(v),
    "ConvexSet.__contains__": lambda v: v in SQUARE,
    "ConvexSet(center)": lambda v: ConvexSet(2, Halfspaces(np.eye(2), np.ones(2)), center=v),
    "Gauge.value": lambda v: GAUGE.value(v),
    "Gauge.__call__": lambda v: GAUGE(v),
    "minkowski_gauge": lambda v: minkowski_gauge(GAUGE, v),
    "span_of_difference": lambda v: span_of_difference(SQUARE, v),
    "in_icr": lambda v: in_icr(SQUARE, v),
    "check_symmetry": lambda v: check_symmetry(SQUARE, v),
    "set_from_json(center)": lambda v: set_from_json({**SQUARE_DOC, "center": v}),
    "set_from_json(normal)": lambda v: set_from_json(
        {"dim": 2, "repr": {"halfspaces": [{"normal": v, "offset": 1.0}]}}),
    "set_from_json(vertex)": lambda v: set_from_json({"dim": 2, "repr": {"vertices": [v]}}),
    "box(center)": lambda v: box(2, center=v),
    "scale_about(p)": lambda v: scale_about(SQUARE, v, 0.5),
    "scale_about(translate_to)": lambda v: scale_about(SQUARE, ORIGIN, 0.5, translate_to=v),
    "theoretical_constant": lambda v: theoretical_constant(F, SQUARE, v, 0.5),
    "local_witness": lambda v: local_witness(F, CORE, v, 0.5),
    "InnerMap.__call__": lambda v: INNER(v),
    "check_domination": lambda v: check_domination(INNER, v, GAUGE, GAUGE),
    "verify_sum_rule": lambda v: verify_sum_rule(F, G, v, GAUGE),
    "verify_product_rule": lambda v: verify_product_rule(F, G, v, GAUGE),
    "verify_max_rule": lambda v: verify_max_rule([F, G], v, GAUGE),
    "verify_chain_rule_2": lambda v: verify_chain_rule_2(math.exp, F, v, GAUGE),
    "verify_chain_rule_1": lambda v: verify_chain_rule_1(F, INNER, v, GAUGE, GAUGE),
    "verify_partial_rule": lambda v: verify_partial_rule(
        F4, v if isinstance(v, str) else np.concatenate([v, v], axis=-1), GAUGE, GAUGE),
    "dir_deriv(x)": lambda v: dir_deriv(F, v, [1.0, 0.0]),
    "dir_deriv(d)": lambda v: dir_deriv(F, ORIGIN, v),
    "gen_dir_deriv(x)": lambda v: gen_dir_deriv(F, v, [1.0, 0.0], GAUGE),
    "gen_dir_deriv(d)": lambda v: gen_dir_deriv(F, ORIGIN, v, GAUGE),
    "is_subgradient(x)": lambda v: is_subgradient(F, v, [0.5, 0.0], GAUGE),
    "is_subgradient(zeta)": lambda v: is_subgradient(F, ORIGIN, v, GAUGE),
    "extract_subgradient(x)": lambda v: extract_subgradient(F, v, GAUGE),
    "extract_subgradient(objective)": lambda v: extract_subgradient(F, ORIGIN, GAUGE, v),
    "subdifferential_hull": lambda v: subdifferential_hull(F, v, GAUGE),
    "fermat_check": lambda v: fermat_check(F, v, GAUGE),
    "lebourg_point(x)": lambda v: lebourg_point(F, v, [0.5, 0.5], GAUGE),
    "lebourg_point(y)": lambda v: lebourg_point(F, ORIGIN, v, GAUGE),
    "symmetric_core": lambda v: symmetric_core(S_A, v),
    "literal_ca_member(x0)": lambda v: literal_ca_member(S_A, v, ORIGIN),
    "literal_ca_member(x)": lambda v: literal_ca_member(S_A, ORIGIN, v),
    "build_core": lambda v: build_core(F, SQUARE, v),
    "phi_l2": lambda v: phi_l2(GRID, v),
    "mu_l2": lambda v: mu_l2(GRID, v),
    "subdiff_l2": lambda v: subdiff_l2(GRID, v),
}

#: every exported entry that takes rows, with the bad value as its rows
ROW_ENTRIES = {
    "ConvexSet.contains_many": lambda v: SQUARE.contains_many(v),
    "Gauge.values": lambda v: GAUGE.values(v),
    "InnerMap.many": lambda v: INNER.many(v),
    "ScalarFunction.many": lambda v: F.many(v),
}

NONFINITE = ("NonFiniteInputError", "vector has non-finite entries")
NUMERIC = "could not convert string to float: 'ab'"
#: the error an entry raises for each bad point (type name, message)
POINT_ERRORS = {
    "wide": ("DimensionMismatchError", "expected dimension 2, got 3"),
    "nan": NONFINITE, "inf": NONFINITE,
    "text": ("DimensionMismatchError", f"expected a numeric vector: {NUMERIC}"),
    "nested": ("DimensionMismatchError", "expected a vector, got shape (1, 2)"),
}
#: the error an entry raises for each bad matrix of rows
ROW_ERRORS = {
    "wide": ("DimensionMismatchError", "expected rows of dimension 2, got shape (1, 3)"),
    "nan": NONFINITE, "inf": NONFINITE,
    "text": ("DimensionMismatchError", f"expected numeric rows: {NUMERIC}"),
    "nested": ("DimensionMismatchError", "expected rows of dimension 2, got shape (1, 1, 2)"),
}
#: entries whose errors differ from the table's, by entry and kind
EXCEPTIONS = {
    ("verify_partial_rule", "wide"): ("DimensionMismatchError", "expected dimension 4, got 6"),
    ("verify_partial_rule", "nested"): ("DimensionMismatchError",
                                        "expected a vector, got shape (1, 4)"),
    # a function's rows are not checked for finiteness: its values are
    ("ScalarFunction.many", "nan"): ("NonFiniteInputError",
                                     "function abs(x1) + x2^2 returned nan at [ nan 0.25]"),
    ("ScalarFunction.many", "inf"): ("NonFiniteInputError",
                                     "function abs(x1) + x2^2 returned inf at [ inf 0.25]"),
}


def _raised(call, value) -> tuple:
    with pytest.raises(Exception) as info:
        call(value)
    return type(info.value).__name__, str(info.value)


@pytest.mark.parametrize("kind", list(BAD_POINTS))
@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_a_bad_point_raises_a_fixed_typed_error(entry, kind):
    want = EXCEPTIONS.get((entry, kind), POINT_ERRORS[kind])
    assert _raised(POINT_ENTRIES[entry], BAD_POINTS[kind]) == want


# ScalarFunction.many's wrong-width and nested rows are tested in
# test_functions.py, with the other point-call checks of a function
@pytest.mark.parametrize("entry, kind", [
    (e, k) for e in ROW_ENTRIES for k in BAD_ROWS
    if not (e == "ScalarFunction.many" and k in ("wide", "nested"))])
def test_bad_rows_raise_a_fixed_typed_error(entry, kind):
    want = EXCEPTIONS.get((entry, kind), ROW_ERRORS[kind])
    assert _raised(ROW_ENTRIES[entry], BAD_ROWS[kind]) == want


#: a bad ``--point`` of each kind, and the error line it prints
CLI_POINTS = {
    "wide": ("[0.5, 0.25, 1]", "error: expected dimension 2, got 3"),
    "nan": ("[NaN, 0.25]", "error: vector has non-finite entries"),
    "inf": ("[Infinity, 0.25]", "error: vector has non-finite entries"),
    "text": ('["a", 0.25]', "error: expected a numeric vector: could not convert string to "
                            "float: 'a'"),
    "nested": ("[[0.5, 0.25]]", "error: expected a vector, got shape (1, 2)"),
    "json": ("[0.5,", "error: the point is not valid JSON: Expecting value: line 1 column 6 "
                      "(char 5)"),
}
#: a ``--set`` with one bad entry of each kind, and the error line it prints
CLI_SETS = {
    "normal-wide": ({"halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}, None,
                    "error: expected dimension 2, got 3"),
    "normal-nan": ({"halfspaces": [{"normal": [math.nan, 0], "offset": 1}]}, None,
                   "error: vector has non-finite entries"),
    "offset-inf": ({"halfspaces": [{"normal": [1, 0], "offset": math.inf}]}, None,
                   "error: vector has non-finite entries"),
    "offset-text": ({"halfspaces": [{"normal": [1, 0], "offset": "a"}]}, None,
                    "error: expected a numeric vector: could not convert string to float: 'a'"),
    "vertex-nested": ({"vertices": [[[1, 0]]]}, None,
                      "error: expected a vector, got shape (1, 2)"),
    "center-wide": (SQUARE_DOC["repr"], [0, 0, 0], "error: expected dimension 2, got 3"),
    "center-nan": (SQUARE_DOC["repr"], [math.nan, 0], "error: vector has non-finite entries"),
    "center-text": (SQUARE_DOC["repr"], "ab", "error: expected a numeric vector: could not "
                                              "convert string to float: 'ab'"),
}


def _cli(capsys, *argv) -> tuple:
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["gauge", "subdiff", "core"])
@pytest.mark.parametrize("kind", list(CLI_POINTS))
def test_a_bad_cli_point_exits_2_with_a_fixed_line(capsys, command, kind):
    point, line = CLI_POINTS[kind]
    square = json.dumps({**SQUARE_DOC, "center": [0, 0]})
    fn = [] if command == "gauge" else ["--fn", "abs(x1) + x2"]
    assert _cli(capsys, command, "--set", square, *fn, "--point", point) == (2, line + "\n")


@pytest.mark.parametrize("kind", list(CLI_SETS))
def test_a_bad_cli_set_exits_2_with_a_fixed_line(capsys, kind):
    rep, center, line = CLI_SETS[kind]
    doc = {"dim": 2, "repr": rep} if center is None else {"dim": 2, "repr": rep, "center": center}
    assert _cli(capsys, "gauge", "--set", json.dumps(doc), "--point", "[0.5, 0.25]") == \
        (2, line + "\n")


def _count_checks(count_calls) -> None:
    """Count the calls of ``as_vector`` and ``as_rows`` from every module."""
    from gaugecalc import functions

    for module in (geometry, functions, cli, lipschitz, rules, subdiff, symmetrize):
        for name in ("as_vector", "as_rows"):
            if hasattr(module, name):
                count_calls.wrap(module, name)


def _sets() -> dict:
    """A fresh set of each representation, centered at the origin."""
    hexagon = np.array([[1.0, 0.0], [0.5, 0.8], [-0.5, 0.8], [-1.0, 0.0], [-0.5, -0.8],
                        [0.5, -0.8]])
    disc = ScalarFunction.from_expr("x1^2 + x2^2", box(2, -2.0, 2.0))
    return {"halfspaces": box(2),
            "vertices": ConvexSet(2, geometry.Vertices(hexagon), center=np.zeros(2)),
            "sublevel": ConvexSet(2, geometry.Sublevel(disc, 1.0, box(2, -2.0, 2.0)),
                                  center=np.zeros(2)),
            "oracle": ConvexSet(2, geometry.Oracle(lambda x: float(x @ x) <= 1.0, 2.0),
                                center=np.zeros(2))}


@pytest.mark.parametrize("rep", ["halfspaces", "vertices", "sublevel", "oracle"])
@pytest.mark.parametrize("entry", ["contains", "value", "span_of_difference", "in_icr",
                                   "check_symmetry"])
def test_a_public_point_entry_checks_its_point_once(count_calls, entry, rep):
    s = _sets()[rep]
    g = Gauge.of_set(s)
    call = {"contains": s.contains, "value": g.value,
            "span_of_difference": lambda x: span_of_difference(s, x),
            "in_icr": lambda x: in_icr(s, x), "check_symmetry": lambda x: check_symmetry(s, x)}
    _count_checks(count_calls)
    call[entry]([0.0, 0.0] if entry != "value" else [0.3, -0.2])
    assert dict(count_calls) == {"as_vector": 1, "as_rows": 0}


@pytest.mark.parametrize("rep", ["halfspaces", "vertices", "sublevel"])
def test_the_core_checks_each_point_argument_once(count_calls, rep):
    s = _sets()[rep]
    _count_checks(count_calls)
    symmetric_core(s, [0.1, 0.0])
    assert count_calls["as_vector"] == 1
    count_calls["as_vector"] = 0
    literal_ca_member(s, [0.1, 0.0], [0.2, 0.1])
    assert count_calls["as_vector"] == 2


def test_a_set_document_checks_its_center_once(count_calls):
    _count_checks(count_calls)
    set_from_json(SQUARE_DOC)
    plain = count_calls["as_vector"]
    count_calls["as_vector"] = 0
    set_from_json({**SQUARE_DOC, "center": [0.0, 0.0]})
    assert count_calls["as_vector"] == plain + 1
