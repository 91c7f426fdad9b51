"""Out-of-place operations: the ``copy`` annotation (§3.4.1).

"To indicate that a let-binding should result in a copy instead of a
mutation, a user might wrap the value being bound in a call to a copy
function of type forall alpha, alpha -> alpha."

``let/n d := copy(v) in k`` compiles, when ``d`` is an existing buffer
(a pointer argument), to a loop writing ``v``'s elements into ``d`` --
so ``copy(map f s)`` is an out-of-place map into a destination buffer,
the natural reading of the annotation in a language without a heap
allocator.  The side condition is that the destination's length equals
the source's (dischargeable from the spec's length facts).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import CertNode
from repro.core.engine import resolve
from repro.core.goals import BindingGoal, CompilationStalled, StallReport
from repro.core.lemma import BindingLemma, HintDb, owned_clause
from repro.core.sepstate import PointerBinding, SymState
from repro.core.typecheck import infer_type
from repro.source import terms as t
from repro.source.types import NAT, TypeKind


def element_term(src: t.Term, index: t.Term) -> Optional[t.Term]:
    """A scalar term denoting ``src[index]``, pushed through maps.

    ``map f s`` has no memory clause of its own, but its i-th element is
    ``f(s[i])`` -- recursing makes ``copy(map f s)`` an out-of-place map.
    """
    if isinstance(src, t.ArrayMap):
        inner = element_term(src.arr, index)
        if inner is None:
            return None
        return t.subst(src.body, src.elem_name, inner)
    if isinstance(src, (t.Copy, t.Stack)):
        return element_term(src.value, index)
    # Plain arrays (clause-covered values) read directly.
    return t.ArrayGet(src, index)


class CompileCopyInto(BindingLemma):
    """``let/n d := copy(v) in k`` ~ an element-by-element copy loop."""

    name = "compile_copy_into"
    shapes = ("Copy",)
    index_heads = shapes

    def matches(self, goal: BindingGoal) -> bool:
        return isinstance(goal.value, t.Copy) and isinstance(
            goal.state.binding(goal.name), PointerBinding
        )

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.Copy)
        state = goal.state
        binding, clause = owned_clause(goal, goal.name, "copying")
        if clause.ty.kind is not TypeKind.ARRAY or clause.ty.elem is None:
            raise CompilationStalled(
                goal.describe(),
                advice="copy targets array buffers",
                reason=StallReport.UNSUPPORTED_SHAPE,
                family="copying",
            )
        dest0 = clause.value
        src = resolve(state, value.value)
        src_ty = infer_type(state, src)
        if src_ty != clause.ty:
            raise CompilationStalled(
                goal.describe(),
                advice=f"copy source has type {src_ty!r}, destination {clause.ty!r}",
                reason=StallReport.UNSUPPORTED_SHAPE,
                family="copying",
            )
        # The destination must be exactly as long as the source.
        engine.discharge(
            t.Prim("nat.eqb", (t.ArrayLen(dest0), t.ArrayLen(src))),
            state,
            "copy destination length matches source",
        )
        esz = engine.elem_byte_size(clause.ty)

        hi_term = t.ArrayLen(src)
        hi_expr, hi_node = engine.compile_expr_term(
            state, t.Prim("cast.of_nat", (hi_term,)), None
        )
        nodes = [hi_node]
        work = state.copy()
        idx = work.fresh_local("i")
        ghost = SymState.fresh_ghost("i")

        loop_state = work.copy()
        loop_state.set_ghost_type(ghost, NAT)
        loop_state.bind_scalar(idx, t.Var(ghost), NAT)
        loop_state.add_fact(t.Prim("nat.ltb", (t.Var(ghost), t.ArrayLen(src))))
        # Invariant: copied prefix ++ untouched destination suffix.
        loop_state.set_heap_value(
            binding.ptr,
            t.Append(t.FirstN(t.Var(ghost), src), t.SkipN(t.Var(ghost), dest0)),
        )

        elem = element_term(src, t.Var(ghost))
        if elem is None:
            raise CompilationStalled(
                goal.describe(),
                advice="copy source shape not supported (plug in a lemma)",
                reason=StallReport.UNSUPPORTED_SHAPE,
                family="copying",
            )
        idx_expr, idx_node = engine.compile_expr_term(
            loop_state, t.Prim("cast.of_nat", (t.Var(ghost),)), None
        )
        nodes.append(idx_node)
        from repro.stdlib.exprs import scaled_index
        from repro.stdlib.loops import _has_statement_shape

        addr = ast.EOp("add", ast.EVar(goal.name), scaled_index(engine, idx_expr, esz))
        if _has_statement_shape(elem):
            tmp = loop_state.fresh_local("_v")
            body_stmt, _after, body_nodes = engine.compile_value_into(
                loop_state, tmp, elem, goal.spec
            )
            nodes.extend(body_nodes)
            write = ast.seq_of(body_stmt, ast.SStore(esz, addr, ast.EVar(tmp)))
        else:
            elem_expr, elem_node = engine.compile_expr_term(
                loop_state, resolve(loop_state, elem), clause.ty.elem
            )
            nodes.append(elem_node)
            write = ast.SStore(esz, addr, elem_expr)
        loop = ast.seq_of(
            ast.SSet(idx, ast.ELit(0)),
            ast.SWhile(
                ast.EOp("ltu", ast.EVar(idx), hi_expr),
                ast.seq_of(
                    write,
                    ast.SSet(idx, ast.EOp("add", ast.EVar(idx), ast.ELit(1))),
                ),
            ),
        )
        post = work.copy()
        post.locals.pop(idx, None)
        post.set_heap_value(binding.ptr, src)
        return loop, post, nodes


def register(db: HintDb) -> HintDb:
    db.register(CompileCopyInto(), priority=21)
    return db
