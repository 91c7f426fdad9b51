"""The reference evaluator: a plan's meaning over in-memory tables.

This is the *specification* side of the query frontend's differential
story: plans run here over plain Python lists, with 64-bit modular
arithmetic matching the target's word semantics, and the compiled
Bedrock2 code must agree input-for-input.  Tables are columnar --
``{"t": {"k": [...], "v": [...]}}`` -- with all columns of one table
equal in length (checked).
"""

from __future__ import annotations

from typing import Dict, List

from repro.query.ir import (
    Aggregate,
    BinOp,
    Cmp,
    ColRef,
    EquiJoin,
    Filter,
    IntLit,
    Plan,
    PlanError,
    Project,
    RowExpr,
    Scan,
)

MASK = (1 << 64) - 1

Tables = Dict[str, Dict[str, List[int]]]
Row = Dict[str, int]


def eval_row_expr(expr: RowExpr, row: Row) -> int:
    """One row expression; comparisons yield 0/1."""
    if isinstance(expr, ColRef):
        return row[expr.name] & MASK
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BinOp):
        a = eval_row_expr(expr.lhs, row)
        b = eval_row_expr(expr.rhs, row)
        if expr.op == "add":
            return (a + b) & MASK
        if expr.op == "sub":
            return (a - b) & MASK
        if expr.op == "mul":
            return (a * b) & MASK
        if expr.op == "and":
            return a & b
        if expr.op == "or":
            return a | b
        if expr.op == "xor":
            return a ^ b
    if isinstance(expr, Cmp):
        a = eval_row_expr(expr.lhs, row)
        b = eval_row_expr(expr.rhs, row)
        return int(
            {
                "eq": a == b,
                "ne": a != b,
                "lt": a < b,
                "le": a <= b,
                "gt": a > b,
                "ge": a >= b,
            }[expr.op]
        )
    raise PlanError(f"not a row expression: {expr!r}")


def scan_rows(scan: Scan, tables: Tables) -> List[Row]:
    try:
        table = tables[scan.table]
    except KeyError:
        raise PlanError(f"no table named {scan.table!r}") from None
    lengths = set()
    for col in scan.schema.cols:
        try:
            lengths.add(len(table[col.name]))
        except KeyError:
            raise PlanError(
                f"table {scan.table!r} has no column {col.name!r}"
            ) from None
    if len(lengths) > 1:
        raise PlanError(
            f"table {scan.table!r} is ragged: column lengths {sorted(lengths)}"
        )
    count = lengths.pop() if lengths else 0
    return [
        {col.name: table[col.name][i] & MASK for col in scan.schema.cols}
        for i in range(count)
    ]


def eval_rows(plan: Plan, tables: Tables) -> List[Row]:
    """Rows of a relational (non-aggregate) plan."""
    if isinstance(plan, Scan):
        return scan_rows(plan, tables)
    if isinstance(plan, Filter):
        return [
            row
            for row in eval_rows(plan.source, tables)
            if eval_row_expr(plan.pred, row)
        ]
    if isinstance(plan, Project):
        return [
            {name: eval_row_expr(expr, row) for name, expr in plan.cols}
            for row in eval_rows(plan.source, tables)
        ]
    if isinstance(plan, EquiJoin):
        left = eval_rows(plan.left, tables)
        right = eval_rows(plan.right, tables)
        return [
            {**lrow, **rrow}
            for lrow in left
            for rrow in right
            if lrow[plan.left_col] == rrow[plan.right_col]
        ]
    if isinstance(plan, Aggregate):
        raise PlanError("aggregate produces a scalar, not rows; use eval_plan")
    raise PlanError(f"not a plan node: {plan!r}")


def eval_plan(plan: Plan, tables: Tables, groups: int = 0):
    """A whole plan's value.

    Returns rows (list of dicts) for relational plans, an int for scalar
    aggregates, or -- for ``group_by`` counts -- a list of ``groups``
    counters indexed by the group key (out-of-range keys are dropped,
    matching the compiled histogram's bounds).
    """
    if not isinstance(plan, Aggregate):
        return eval_rows(plan, tables)
    rows = eval_rows(plan.source, tables)
    if plan.group_by is not None:
        counts = [0] * groups
        for row in rows:
            key = row[plan.group_by]
            if key < groups:
                counts[key] = (counts[key] + 1) & MASK
        return counts
    if plan.kind == "sum":
        total = 0
        for row in rows:
            total = (total + eval_row_expr(plan.expr, row)) & MASK
        return total
    if plan.kind == "count":
        return len(rows) & MASK
    if plan.kind == "any":
        return int(any(eval_row_expr(plan.expr, row) for row in rows))
    if plan.kind == "min":
        return min((eval_row_expr(plan.expr, row) for row in rows), default=MASK)
    if plan.kind == "max":
        return max((eval_row_expr(plan.expr, row) for row in rows), default=0)
    raise PlanError(f"unknown aggregate kind {plan.kind!r}")
