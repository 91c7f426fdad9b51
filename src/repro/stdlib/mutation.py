"""Intensional mutation: in-place array and cell updates (§3.4.1).

"For state, in particular, we do not typically use an explicit encoding:
instead, we add lemmas to map e.g. list accesses to pointer dereferences,
or pure replacements in a list to pointer assignments."

The trigger is the user's choice of binder name: ``let/n s := put s i v``
rebinds the *same* name as the array being updated, which these lemmas
read as permission to mutate the underlying buffer (the functional
semantics is unchanged: ``put`` still denotes a fresh list).
Rebinding a *different* name requires a ``copy`` annotation and stalls
otherwise -- mutation is never guessed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import CertNode
from repro.core.engine import resolve
from repro.core.goals import BindingGoal, CompilationStalled, StallReport
from repro.core.lemma import BindingLemma, HintDb, owned_clause
from repro.core.sepstate import PointerBinding
from repro.core.typecheck import infer_type
from repro.source import terms as t
from repro.stdlib.exprs import scaled_index


class CompileArrayPut(BindingLemma):
    """``let/n a := ListArray.put a i v in k`` ~ store through ``a``'s pointer.

    This is the paper's ``compile_vector_put`` (§3.3) for arrays: premises
    are (1) the local ``a`` holds a pointer, (2) the memory owns the
    array at that pointer, (3-4) expression subgoals for the index and
    value, (5) the continuation under the updated memory predicate.
    """

    name = "compile_array_put"
    shapes = ("ArrayPut",)
    index_heads = shapes

    def matches(self, goal: BindingGoal) -> bool:
        value = goal.value
        return (
            isinstance(value, t.ArrayPut)
            and isinstance(value.arr, t.Var)
            and isinstance(goal.state.binding(value.arr.name), PointerBinding)
        )

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.ArrayPut) and isinstance(value.arr, t.Var)
        arr_name = value.arr.name
        if goal.name != arr_name:
            raise CompilationStalled(
                goal.describe(),
                advice=(
                    f"ListArray.put on {arr_name!r} is bound to a different name "
                    f"({goal.name!r}); in-place mutation requires rebinding the "
                    "same name, and fresh copies require the copy annotation"
                ),
                reason=StallReport.UNSUPPORTED_SHAPE,
                family="mutation",
            )
        state = goal.state
        binding, clause = owned_clause(goal, arr_name, "mutation")
        index = resolve(state, value.index)
        new_elem = resolve(state, value.value)
        engine.discharge(
            t.Prim("nat.ltb", (index, t.ArrayLen(clause.value))),
            state,
            "store index in bounds",
        )
        index_expr, index_node = engine.compile_expr_term(
            state, t.Prim("cast.of_nat", (index,)), None
        )
        elem_ty = infer_type(state, new_elem)
        value_expr, value_node = engine.compile_expr_term(state, new_elem, elem_ty)
        size = engine.elem_byte_size(clause.ty)
        addr = ast.EOp(
            "add", ast.EVar(arr_name), scaled_index(engine, index_expr, size)
        )
        new_state = state.copy()
        new_state.set_heap_value(
            binding.ptr, t.ArrayPut(clause.value, index, new_elem)
        )
        return (
            ast.SStore(size, addr, value_expr),
            new_state,
            [index_node, value_node],
        )


class CompileCellPut(BindingLemma):
    """``let/n c := put c v in k`` ~ ``store c V`` (Table 1's cells row)."""

    name = "compile_cell_put"
    shapes = ("CellPut",)
    index_heads = shapes

    def matches(self, goal: BindingGoal) -> bool:
        value = goal.value
        return (
            isinstance(value, t.CellPut)
            and isinstance(value.cell, t.Var)
            and isinstance(goal.state.binding(value.cell.name), PointerBinding)
        )

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.CellPut) and isinstance(value.cell, t.Var)
        cell_name = value.cell.name
        if goal.name != cell_name:
            raise CompilationStalled(
                goal.describe(),
                advice="cell mutation requires rebinding the cell's own name",
                reason=StallReport.UNSUPPORTED_SHAPE,
                family="mutation",
            )
        state = goal.state
        binding, clause = owned_clause(goal, cell_name, "mutation")
        content = resolve(state, value.value)
        content_ty = infer_type(state, content)
        value_expr, value_node = engine.compile_expr_term(state, content, content_ty)
        size = engine.elem_byte_size(clause.ty)
        new_state = state.copy()
        new_state.set_heap_value(binding.ptr, content)
        return (
            ast.SStore(size, ast.EVar(cell_name), value_expr),
            new_state,
            [value_node],
        )


def register(db: HintDb) -> HintDb:
    db.register(CompileArrayPut(), priority=20)
    db.register(CompileCellPut(), priority=20)
    return db


# -- Inverse patterns (repro.lift) -------------------------------------------

from repro.lift.patterns import InversePattern, register_inverse  # noqa: E402

register_inverse(
    InversePattern(
        name="lift_array_put",
        lemma="compile_array_put",
        family="mutation",
        heads=("SStore",),
        source_head="ArrayPut",
        priority=20,
        description="a scaled store off an array base inverts to ArrayPut",
    )
)
register_inverse(
    InversePattern(
        name="lift_cell_put",
        lemma="compile_cell_put",
        family="mutation",
        heads=("SStore",),
        source_head="CellPut",
        priority=20,
        description="a store through a cell pointer inverts to CellPut",
    )
)
