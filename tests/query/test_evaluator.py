"""Reference evaluator semantics: hand-computed answers, word masking,
ragged-table detection."""

import pytest

from repro.query import evaluator as qe
from repro.query import ir

MASK = (1 << 64) - 1


def test_filter_sum():
    plan = ir.Aggregate(
        "sum",
        ir.Filter(
            ir.Cmp("lt", ir.ColRef("k"), ir.IntLit(10)),
            ir.Scan("t", ir.schema("k", "v")),
        ),
        expr=ir.ColRef("v"),
    )
    tables = {"t": {"k": [3, 12, 9, 10], "v": [100, 200, 300, 400]}}
    assert qe.eval_plan(plan, tables) == 400


def test_sum_wraps_at_word_width():
    plan = ir.Aggregate("sum", ir.Scan("t", ir.schema("v")), expr=ir.ColRef("v"))
    tables = {"t": {"v": [MASK, 2]}}
    assert qe.eval_plan(plan, tables) == 1


def test_expr_arithmetic_masks():
    row = {"a": MASK, "b": 3}
    assert qe.eval_row_expr(ir.BinOp("add", ir.ColRef("a"), ir.ColRef("b")), row) == 2
    assert qe.eval_row_expr(ir.BinOp("mul", ir.ColRef("a"), ir.IntLit(2)), row) == MASK - 1
    assert qe.eval_row_expr(ir.BinOp("sub", ir.IntLit(0), ir.IntLit(1)), row) == MASK


def test_comparison_table():
    row = {"a": 5, "b": 7}
    a, b = ir.ColRef("a"), ir.ColRef("b")
    assert qe.eval_row_expr(ir.Cmp("lt", a, b), row) == 1
    assert qe.eval_row_expr(ir.Cmp("ge", a, b), row) == 0
    assert qe.eval_row_expr(ir.Cmp("ne", a, b), row) == 1
    assert qe.eval_row_expr(ir.Cmp("eq", a, a), row) == 1
    assert qe.eval_row_expr(ir.Cmp("le", a, a), row) == 1
    assert qe.eval_row_expr(ir.Cmp("gt", b, a), row) == 1


def test_equi_join_rows():
    plan = ir.EquiJoin(
        ir.Scan("l", ir.schema("k", "v")),
        ir.Scan("r", ir.schema("j", "w")),
        "k",
        "j",
    )
    tables = {
        "l": {"k": [1, 2], "v": [10, 20]},
        "r": {"j": [2, 2, 3], "w": [5, 6, 7]},
    }
    rows = qe.eval_rows(plan, tables)
    assert rows == [
        {"k": 2, "v": 20, "j": 2, "w": 5},
        {"k": 2, "v": 20, "j": 2, "w": 6},
    ]


def test_group_count_ignores_out_of_range_keys():
    plan = ir.Aggregate(
        "count", ir.Scan("t", ir.schema("key")), group_by="key"
    )
    tables = {"t": {"key": [0, 1, 1, 9]}}
    assert qe.eval_plan(plan, tables, groups=3) == [1, 2, 0]


def test_any_and_count():
    scan = ir.Scan("t", ir.schema("k"))
    pred = ir.Cmp("eq", ir.ColRef("k"), ir.IntLit(7))
    tables = {"t": {"k": [1, 7, 3]}}
    assert qe.eval_plan(ir.Aggregate("any", scan, expr=pred), tables) == 1
    assert (
        qe.eval_plan(
            ir.Aggregate("any", scan, expr=pred), {"t": {"k": [1, 3]}}
        )
        == 0
    )
    assert qe.eval_plan(ir.Aggregate("count", scan), tables) == 3


def test_projection_rows():
    plan = ir.Project(
        (("c", ir.BinOp("xor", ir.ColRef("a"), ir.ColRef("b"))),),
        ir.Scan("t", ir.schema("a", "b")),
    )
    tables = {"t": {"a": [1, 2], "b": [3, 4]}}
    assert qe.eval_rows(plan, tables) == [{"c": 2}, {"c": 6}]


def test_ragged_table_rejected():
    scan = ir.Scan("t", ir.schema("a", "b"))
    with pytest.raises(ir.PlanError):
        qe.eval_rows(scan, {"t": {"a": [1], "b": [1, 2]}})


def test_missing_table_and_column():
    scan = ir.Scan("t", ir.schema("a"))
    with pytest.raises(ir.PlanError):
        qe.eval_rows(scan, {})
    with pytest.raises(ir.PlanError):
        qe.eval_rows(scan, {"t": {"b": []}})


def test_empty_table_aggregates():
    scan = ir.Scan("t", ir.schema("v"))
    empty = {"t": {"v": []}}
    assert qe.eval_plan(ir.Aggregate("sum", scan, expr=ir.ColRef("v")), empty) == 0
    assert qe.eval_plan(ir.Aggregate("count", scan), empty) == 0
    assert (
        qe.eval_plan(
            ir.Aggregate(
                "any", scan, expr=ir.Cmp("eq", ir.ColRef("v"), ir.IntLit(0))
            ),
            empty,
        )
        == 0
    )
