"""Reification: lowering a checked query plan into the ``Term`` language.

This is the bridge between the relational-algebra frontend and the
relational *compiler*: a plan becomes a functional model (``Model``)
plus the ABI contract (``FnSpec``) that seeds proof search.  The
lowering is deliberately shape-directed and reuses existing source
constructs wherever they fit -- the paper's extension economics:

- unfiltered single-column ``sum``/``min``/``max`` -> ``ListArray.fold``
  (:class:`~repro.source.terms.ArrayFold`, zero new heads);
- single-column ``any``                 -> ``ListArray.fold_break``
  (early exit, zero new heads);
- filtered/compound aggregation         -> :class:`~repro.query.terms.QAggregate`;
- equi-join aggregation                 -> :class:`~repro.query.terms.QJoinAgg`;
- single-column projection              -> :class:`~repro.query.terms.QProjectInto`;
- grouped count                         -> ``QProjectInto`` over a
  nested ``QAggregate`` (one histogram slot per group key).

Every shape is built from the same three pieces:

- a *reader* (:func:`_reader`) maps a column name to the term that reads
  it in the current row -- ``ArrayGet`` under the table's loop index,
  or a fold's element binder -- widened through ``cast.b2w`` for bytes;
  row expressions and predicates lower through it;
- one *aggregate step* (:func:`_step`) is the per-row accumulator update
  of every aggregate kind under its guard (``any`` latches the flag under
  its own predicate), shared by folds, scans, joins and histograms;
- one *model builder* (:func:`_lowered`) turns the lowered value and
  its tables into the ``Model``, the ``FnSpec`` and the
  :class:`ReifiedQuery`.

Columns become array parameters; one length argument anchors each table
and ``nat.eqb`` facts equate its other columns' lengths, which is
exactly what the bounds solver needs to discharge every in-bounds side
condition the loops raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.spec import FnSpec, Model, array_out, len_arg, ptr_arg, scalar_out
from repro.query import terms as qt
from repro.query.ir import (
    Aggregate,
    BinOp,
    Cmp,
    Col,
    ColRef,
    EquiJoin,
    Filter,
    IntLit,
    Plan,
    PlanError,
    Project,
    RowExpr,
    Scan,
    check_plan,
    expr_cols,
)
from repro.source import terms as t
from repro.source.types import ARRAY_BYTE, ARRAY_WORD, WORD, SourceType

# Loop binders introduced by the lowering; column names may not collide
# with these or with the generated parameter names.
_IDX, _JDX, _GDX, _ACC, _ELEM, _RES = "_qi", "_qj", "_qg", "_qacc", "_qe", "_qr"
_RESERVED = {"out", "hist", "n", "n_left", "n_right", "groups"}

# Fold identities for the extremal aggregates: ``min`` over zero rows is
# the word maximum, ``max`` is zero (both are absorbed by the first row).
_MIN_IDENTITY = (1 << 64) - 1

# Comparison -> (primitive, operands swapped, result negated).
_CMP = {
    "eq": ("word.eq", False, False),
    "ne": ("word.eq", False, True),
    "lt": ("word.ltu", False, False),
    "ge": ("word.ltu", False, True),
    "gt": ("word.ltu", True, False),
    "le": ("word.ltu", True, True),
}

Reader = Callable[[str], t.Term]


@dataclass(frozen=True)
class ReifiedQuery:
    """A lowered plan: the model/spec pair plus harness metadata."""

    model: Model
    spec: FnSpec
    kind: str  # "scalar" | "array"
    via: str  # which lowering shape fired (fold, fold_break, aggregate, ...)
    # table name -> referenced columns, in ABI order
    table_cols: Tuple[Tuple[str, Tuple[Col, ...]], ...]
    out_param: Optional[str] = None  # "out" / "hist" for array results

    @property
    def tables(self) -> Tuple[str, ...]:
        return tuple(name for name, _cols in self.table_cols)


def _array_ty(col: Col) -> SourceType:
    return ARRAY_BYTE if col.ty == "byte" else ARRAY_WORD


def _widen(col: Col, value: t.Term) -> t.Term:
    return t.Prim("cast.b2w", (value,)) if col.ty == "byte" else value


def _reader(*tables: Tuple[Tuple[Col, ...], str]) -> Reader:
    """Read each ``(cols, idx)`` table's columns at its loop index; a later
    table's column shadows an earlier one of the same name."""
    where = {}
    for cols, idx in tables:
        where.update((col.name, (col, idx)) for col in cols)

    def read(name: str) -> t.Term:
        col, idx = where[name]
        return _widen(col, t.ArrayGet(t.Var(col.name), t.Var(idx)))

    return read


def _expr_term(expr: RowExpr, read: Reader) -> t.Term:
    """A word-valued row expression as a term."""
    if isinstance(expr, ColRef):
        return read(expr.name)
    if isinstance(expr, IntLit):
        return t.Lit(expr.value, WORD)
    if isinstance(expr, BinOp):
        return t.Prim(
            f"word.{expr.op}", (_expr_term(expr.lhs, read), _expr_term(expr.rhs, read))
        )
    raise PlanError(f"not a word-valued row expression: {expr!r}")


def _pred_term(expr: RowExpr, read: Reader) -> t.Term:
    """A boolean row expression (comparison) as a BOOL-typed term."""
    if not isinstance(expr, Cmp):
        raise PlanError(f"not a predicate: {expr!r}")
    prim, swap, negate = _CMP[expr.op]
    operands = (_expr_term(expr.lhs, read), _expr_term(expr.rhs, read))
    term = t.Prim(prim, operands[::-1] if swap else operands)
    return t.Prim("bool.negb", (term,)) if negate else term


def _and_all(preds: List[t.Term]) -> Optional[t.Term]:
    if not preds:
        return None
    combined = preds[0]
    for pred in preds[1:]:
        combined = t.Prim("bool.andb", (combined, pred))
    return combined


def _agg_init(kind: str) -> t.Term:
    return t.Lit(_MIN_IDENTITY if kind == "min" else 0, WORD)


def _step(
    kind: str, expr: Optional[RowExpr], guards: List[t.Term], read: Reader
) -> t.Term:
    """One row's accumulator update for aggregate ``kind``, taken only when
    every guard holds; ``any`` latches the flag under its own predicate."""
    acc = t.Var(_ACC)
    if kind == "any":
        step = t.Lit(1, WORD)
        guards = guards + [_pred_term(expr, read)]
    elif kind == "count":
        step = t.Prim("word.add", (acc, t.Lit(1, WORD)))
    elif kind == "sum":
        step = t.Prim("word.add", (acc, _expr_term(expr, read)))
    else:  # min / max: ``if value beats acc then value else acc`` (unsigned)
        value = _expr_term(expr, read)
        better = (value, acc) if kind == "min" else (acc, value)
        step = t.If(t.Prim("word.ltu", better), value, acc)
    guard = _and_all(guards)
    return step if guard is None else t.If(guard, step, acc)


def _peel_filters(plan: Plan) -> Tuple[Plan, List[RowExpr]]:
    preds: List[RowExpr] = []
    while isinstance(plan, Filter):
        preds.append(plan.pred)
        plan = plan.source
    return plan, preds


def _names(exprs: Sequence[Optional[RowExpr]]) -> set:
    """Every column the (present) expressions read."""
    names = set()
    for expr in exprs:
        if expr is not None:
            names |= expr_cols(expr)
    return names


def _referenced(scan: Scan, names: set) -> Tuple[Col, ...]:
    """Referenced columns of one scan, in schema order; at least one (the
    first schema column anchors the table's length argument even if no
    expression reads it, as in ``count(*)``)."""
    for name in names:
        scan.schema.col(name)  # unknown columns fail here with a clear error
    cols = tuple(col for col in scan.schema.cols if col.name in names)
    if not cols:
        cols = (scan.schema.cols[0],)
    for col in cols:
        if col.name.startswith("_") or col.name in _RESERVED:
            raise PlanError(f"column name {col.name!r} is reserved")
    return cols


def _length_facts(cols: Tuple[Col, ...], anchor: str) -> List[t.Term]:
    """Equate every column's length with the ``anchor`` array's."""
    return [
        t.Prim("nat.eqb", (t.ArrayLen(t.Var(col.name)), t.ArrayLen(t.Var(anchor))))
        for col in cols
        if col.name != anchor
    ]


def _lowered(
    name: str,
    via: str,
    tables: Tuple[Tuple[str, Tuple[Col, ...]], ...],
    value: t.Term,
    lens: List[Tuple[str, str]],
    facts: List[t.Term],
    out: Optional[str] = None,
) -> ReifiedQuery:
    """The model, spec and metadata of a lowered ``value``: one array
    parameter per column of ``tables`` (then ``out``, which an array
    result is written into), one length argument per ``lens`` pair."""
    cols = [col for _table, table_cols in tables for col in table_cols]
    params = [(col.name, _array_ty(col)) for col in cols]
    args = [ptr_arg(col.name, _array_ty(col)) for col in cols]
    if out is None:
        result, result_ty, outputs = _RES, WORD, [scalar_out()]
    else:
        result, result_ty, outputs = out, ARRAY_WORD, [array_out(out)]
        params.append((out, ARRAY_WORD))
        args.append(ptr_arg(out, ARRAY_WORD))
    model = Model(name, params, t.Let(result, value, t.Var(result)), result_ty)
    spec = FnSpec(
        name, args + [len_arg(n, anchor) for n, anchor in lens], outputs, facts=facts
    )
    kind = "scalar" if out is None else "array"
    return ReifiedQuery(model, spec, kind, via, tables, out_param=out)


def reify(plan: Plan, name: str) -> ReifiedQuery:
    """Lower a checked plan to a :class:`ReifiedQuery`.

    Raises :class:`PlanError` for plans outside the compilable fragment
    (multi-column projections, aggregates of aggregates, ...); the
    fragment is documented shape by shape in ``docs/query.md``.
    """
    kind = check_plan(plan)
    if kind == "table":
        if not isinstance(plan, Project):
            raise PlanError(
                "row-producing plans reify only as single-column projections"
            )
        return _reify_project(plan, name)
    assert isinstance(plan, Aggregate)
    if kind == "groups":
        return _reify_group_count(plan, name)
    source, preds = _peel_filters(plan.source)
    if isinstance(source, Scan):
        return _reify_single_table(plan, source, preds, name)
    if isinstance(source, EquiJoin):
        return _reify_join(plan, source, preds, name)
    raise PlanError(
        f"aggregate source must reduce to a scan or an equi-join, "
        f"got {type(source).__name__}"
    )


# -- Single-table aggregates ---------------------------------------------------


def _reify_single_table(
    plan: Aggregate, scan: Scan, preds: List[RowExpr], name: str
) -> ReifiedQuery:
    names = _names(preds + [plan.expr])
    cols = _referenced(scan, names)
    tables = ((scan.table, cols),)
    lens = [("n", cols[0].name)]
    facts = _length_facts(cols, cols[0].name)

    # Reuse path first: an unfiltered sum/min/max of a bare column, or an
    # unfiltered any of a one-column predicate, folds over that column with
    # the row bound to the element binder -- no query heads at all.
    if not preds and len(names) == 1 and (
        plan.kind == "any" or isinstance(plan.expr, ColRef)
    ):
        (col,) = cols
        body = _step(plan.kind, plan.expr, [], lambda _name: _widen(col, t.Var(_ELEM)))
        init, arr = _agg_init(plan.kind), t.Var(col.name)
        if plan.kind != "any":
            agg = t.ArrayFold(_ACC, _ELEM, body, init, arr)
            return _lowered(name, "fold", tables, agg, lens, facts)
        until = t.Prim("word.ltu", (t.Lit(0, WORD), t.Var(_ACC)))
        agg = t.ArrayFoldBreak(_ACC, _ELEM, body, init, arr, until)
        return _lowered(name, "fold_break", tables, agg, lens, facts)

    # General case: QAggregate with the filters folded into an if.
    read = _reader((cols, _IDX))
    body = _step(plan.kind, plan.expr, [_pred_term(p, read) for p in preds], read)
    length = t.ArrayLen(t.Var(cols[0].name))
    agg = qt.QAggregate(_IDX, _ACC, length, _agg_init(plan.kind), body)
    return _lowered(name, "aggregate", tables, agg, lens, facts)


# -- Join aggregates -----------------------------------------------------------


def _reify_join(
    plan: Aggregate, join: EquiJoin, preds: List[RowExpr], name: str
) -> ReifiedQuery:
    left, left_preds = _peel_filters(join.left)
    right, right_preds = _peel_filters(join.right)
    if not isinstance(left, Scan) or not isinstance(right, Scan):
        raise PlanError("equi-join sides must reduce to scans")
    preds = preds + left_preds + right_preds

    names = {join.left_col, join.right_col} | _names(preds + [plan.expr])
    left_cols = _referenced(left, {n for n in names if n in left.schema})
    right_cols = _referenced(right, {n for n in names if n in right.schema})
    read = _reader((left_cols, _IDX), (right_cols, _JDX))

    # Any over a join latches with no early exit.
    on = t.Prim("word.eq", (read(join.left_col), read(join.right_col)))
    body = _step(plan.kind, plan.expr, [on] + [_pred_term(p, read) for p in preds], read)
    agg = qt.QJoinAgg(
        _IDX,
        _JDX,
        _ACC,
        t.ArrayLen(t.Var(left_cols[0].name)),
        t.ArrayLen(t.Var(right_cols[0].name)),
        _agg_init(plan.kind),
        body,
    )
    return _lowered(
        name,
        "join",
        ((left.table, left_cols), (right.table, right_cols)),
        agg,
        [("n_left", left_cols[0].name), ("n_right", right_cols[0].name)],
        _length_facts(left_cols, left_cols[0].name)
        + _length_facts(right_cols, right_cols[0].name),
    )


# -- Projections and grouped counts -------------------------------------------


def _reify_project(plan: Project, name: str) -> ReifiedQuery:
    source, preds = _peel_filters(plan.source)
    if preds:
        raise PlanError(
            "filtered projections change the output length and do not "
            "reify; aggregate instead"
        )
    if not isinstance(source, Scan):
        raise PlanError("projection source must be a scan")
    if len(plan.cols) != 1:
        raise PlanError("only single-column projections reify")
    _out_name, expr = plan.cols[0]
    cols = _referenced(source, expr_cols(expr))
    body = _expr_term(expr, _reader((cols, _IDX)))
    proj = qt.QProjectInto(_IDX, t.Var("out"), body)
    return _lowered(
        name,
        "project",
        ((source.table, cols),),
        proj,
        [("n", "out")],
        _length_facts(cols, "out"),
        out="out",
    )


def _reify_group_count(plan: Aggregate, name: str) -> ReifiedQuery:
    source, preds = _peel_filters(plan.source)
    if not isinstance(source, Scan):
        raise PlanError("grouped count source must reduce to a scan")
    cols = _referenced(source, {plan.group_by} | _names(preds))
    read = _reader((cols, _IDX))
    group = t.Prim("word.eq", (read(plan.group_by), t.Prim("cast.of_nat", (t.Var(_GDX),))))
    body = _step("count", None, [group] + [_pred_term(p, read) for p in preds], read)
    inner = qt.QAggregate(
        _IDX, _ACC, t.ArrayLen(t.Var(cols[0].name)), _agg_init("count"), body
    )
    proj = qt.QProjectInto(_GDX, t.Var("hist"), inner)
    return _lowered(
        name,
        "group_count",
        ((source.table, cols),),
        proj,
        [("n", cols[0].name), ("groups", "hist")],
        _length_facts(cols, cols[0].name),
        out="hist",
    )
