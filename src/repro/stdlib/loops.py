"""Loop lemmas: map, fold, ranged for, and ``Nat.iter`` (§3.4.2).

Each lemma connects a structured iteration pattern to a Bedrock2
``while`` loop and *infers its invariant automatically*: because the
source is a pure functional program, the state of every loop target at
iteration ``i`` has a closed form -- ``map f (firstn i l) ++ skipn i l``
for maps, ``fold_left f (firstn i l) init`` for folds, partial
``Nat.iter``/ranged-``for`` executions otherwise.  The loop body is then
compiled against a symbolic state instantiated at a ghost iteration
counter, "like a classic Hoare-logic proof, where we know the invariant
holds for iteration i and must prove it for iteration i+1".

Generated code is the idiomatic C shape (the paper's Box 1):

    i = 0
    while (i < len) { ...body...; i = i + 1 }

Bodies that are pure expressions are inlined into the store/assignment
(loads included, so ``s[i]`` appears directly, as a human would write);
bodies with conditionals or nested lets are routed through the statement
compiler with a temporary.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import CertNode
from repro.core.engine import resolve
from repro.core.goals import BindingGoal, CompilationStalled, StallReport
from repro.core.lemma import BindingLemma, HintDb
from repro.core.sepstate import PointerBinding, SymState
from repro.core.typecheck import infer_type
from repro.source import terms as t
from repro.source.types import NAT, SourceType


def _has_statement_shape(term: t.Term) -> bool:
    """Does this term need statement-level compilation (vs one expression)?"""
    if isinstance(term, (t.If, t.Let, t.MBind, t.ArrayPut, t.CellPut)):
        return True
    # Loops can only ever compile as statements; a loop body that is
    # itself a nested loop must be routed through binding compilation.
    if isinstance(
        term, (t.RangedFor, t.NatIter, t.ArrayFold, t.ArrayFoldBreak, t.ArrayMap)
    ):
        return True
    # External Term subclasses (repro.query combinators) declare
    # statement-ness via a ``statement_shape`` class attribute.
    if getattr(term, "statement_shape", False):
        return True
    return any(_has_statement_shape(child) for child in term.children())


def _ensure_simple(engine, state: SymState, expr: ast.Expr, prefix: str, value: t.Term):
    """Hoist a non-trivial expression into a fresh local (for loop guards)."""
    if isinstance(expr, (ast.EVar, ast.ELit)):
        return expr, None
    local = state.fresh_local(prefix)
    state.bind_scalar(local, value, NAT if _is_nat_term(value) else _guess_ty(state, value))
    return ast.EVar(local), ast.SSet(local, expr)


def _is_nat_term(value: t.Term) -> bool:
    return isinstance(value, (t.ArrayLen,)) or (
        isinstance(value, t.Prim) and value.op.startswith("nat.")
    )


def _guess_ty(state: SymState, value: t.Term) -> SourceType:
    from repro.source.types import WORD

    try:
        return infer_type(state, value)
    except Exception:
        return WORD


class _LoopLemma(BindingLemma):
    """Shared machinery for the counter/guard/increment skeleton."""

    def _counter_setup(
        self,
        engine,
        state: SymState,
        lo_term: t.Term,
        hi_term: t.Term,
    ):
        """Emit ``i = lo`` and prepare the ``i < hi`` guard.

        Returns (idx_local, ghost, prologue_stmts, guard_expr, nodes,
        work_state); ``work_state`` carries any hoisted bound locals.
        """
        work = state.copy()
        nodes: List[CertNode] = []
        prologue: List[ast.Stmt] = []

        hi_expr, hi_node = engine.compile_expr_term(
            work, t.Prim("cast.of_nat", (hi_term,)), None
        )
        nodes.append(hi_node)
        hi_expr, hoist = _ensure_simple(engine, work, hi_expr, "_len", hi_term)
        if hoist is not None:
            prologue.append(hoist)

        lo_expr, lo_node = engine.compile_expr_term(
            work, t.Prim("cast.of_nat", (lo_term,)), None
        )
        nodes.append(lo_node)

        idx_local = work.fresh_local("i")
        ghost = SymState.fresh_ghost("i")
        prologue.append(ast.SSet(idx_local, lo_expr))
        guard = ast.EOp("ltu", ast.EVar(idx_local), hi_expr)
        return idx_local, ghost, prologue, guard, nodes, work

    def _loop_body_state(
        self,
        work: SymState,
        idx_local: str,
        ghost: str,
        lo_term: t.Term,
        hi_term: t.Term,
    ) -> SymState:
        loop_state = work.copy()
        loop_state.set_ghost_type(ghost, NAT)
        loop_state.bind_scalar(idx_local, t.Var(ghost), NAT)
        loop_state.add_fact(t.Prim("nat.leb", (lo_term, t.Var(ghost))))
        loop_state.add_fact(t.Prim("nat.ltb", (t.Var(ghost), hi_term)))
        return loop_state

    def _increment(self, idx_local: str) -> ast.Stmt:
        return ast.SSet(idx_local, ast.EOp("add", ast.EVar(idx_local), ast.ELit(1)))

    def _compile_acc_step(
        self,
        engine,
        loop_state: SymState,
        target: str,
        body: t.Term,
        ty: SourceType,
        spec,
    ):
        """Compile one accumulator update ``target = body`` inside the loop."""
        if _has_statement_shape(body):
            stmt, after, nodes = engine.compile_value_into(loop_state, target, body, spec)
            return stmt, nodes
        resolved = resolve(loop_state, body)
        resolved_expr = t.Prim("cast.of_nat", (resolved,)) if ty is NAT else resolved
        expr, node = engine.compile_expr_term(loop_state, resolved_expr, ty)
        return ast.SSet(target, expr), [node]

    def _cleanup(self, state: SymState, names: List[str]) -> None:
        for name in names:
            state.locals.pop(name, None)

    def _drop_body_binders(self, state: SymState, body: t.Term) -> None:
        """Loop-body ``let`` binders clobber same-named Bedrock2 locals at
        runtime, so their pre-loop symbolic bindings must not survive."""
        for node in t.walk_terms(body):
            for name in node.binders():
                state.locals.pop(name, None)


class CompileArrayMapInPlace(_LoopLemma):
    """``let/n a := ListArray.map f a in k`` ~ an in-place for loop.

    This single lemma performs transformations 2 and 3 of the paper's
    upstr walkthrough: higher-order iteration becomes a loop, and the
    rebinding of ``a``'s own name licenses mutation.  The inferred
    invariant gives the array's contents at iteration ``i`` as
    ``map f (firstn i l) ++ skipn i l``.
    """

    name = "compile_arraymap_inplace"
    shapes = ("ArrayMap",)
    index_heads = shapes

    def matches(self, goal: BindingGoal) -> bool:
        value = goal.value
        return (
            isinstance(value, t.ArrayMap)
            and isinstance(value.arr, t.Var)
            and isinstance(goal.state.binding(value.arr.name), PointerBinding)
        )

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.ArrayMap) and isinstance(value.arr, t.Var)
        arr_name = value.arr.name
        if goal.name != arr_name:
            raise CompilationStalled(
                goal.describe(),
                advice=(
                    "in-place map requires rebinding the array's own name; "
                    "use copy(...) for an out-of-place map"
                ),
                reason=StallReport.UNSUPPORTED_SHAPE,
                family="loops",
            )
        state = goal.state
        binding = state.binding(arr_name)
        assert isinstance(binding, PointerBinding)
        clause = state.heap.get(binding.ptr)
        if clause is None:
            raise CompilationStalled(
                goal.describe(),
                advice=f"no clause owns {binding.ptr!r}",
                reason=StallReport.MISSING_CLAUSE,
                family="loops",
            )
        arr0 = clause.value
        resolved_map = resolve(state, value)
        assert isinstance(resolved_map, t.ArrayMap)
        body_res = resolved_map.body
        elem_ty = clause.ty.elem
        assert elem_ty is not None
        esz = engine.elem_byte_size(clause.ty)

        lo_term = t.Lit(0, NAT)
        hi_term = t.ArrayLen(arr0)
        idx_local, ghost, prologue, guard, nodes, work = self._counter_setup(
            engine, state, lo_term, hi_term
        )

        loop_state = self._loop_body_state(work, idx_local, ghost, lo_term, hi_term)
        # The §3.4.2 invariant: processed prefix ++ untouched suffix.
        invariant_value = t.Append(
            t.ArrayMap(value.elem_name, body_res, t.FirstN(t.Var(ghost), arr0)),
            t.SkipN(t.Var(ghost), arr0),
        )
        loop_state.set_heap_value(binding.ptr, invariant_value)

        # The element binder denotes a[i]; inline it so loads appear in
        # the compiled expressions exactly where a human would write s[i].
        elem_term = t.ArrayGet(arr0, t.Var(ghost))
        body_inlined = t.subst(body_res, value.elem_name, elem_term)

        addr_index_expr, idx_node = engine.compile_expr_term(
            loop_state, t.Prim("cast.of_nat", (t.Var(ghost),)), None
        )
        nodes.append(idx_node)
        from repro.stdlib.exprs import scaled_index

        addr = ast.EOp(
            "add", ast.EVar(arr_name), scaled_index(engine, addr_index_expr, esz)
        )

        if _has_statement_shape(body_inlined):
            tmp = loop_state.fresh_local("_v")
            body_stmt, _after, body_nodes = engine.compile_value_into(
                loop_state, tmp, body_inlined, goal.spec
            )
            store = ast.SStore(esz, addr, ast.EVar(tmp))
            body_code = ast.seq_of(body_stmt, store)
        else:
            body_resolved = resolve(loop_state, body_inlined)
            expr, body_node = engine.compile_expr_term(loop_state, body_resolved, elem_ty)
            body_nodes = [body_node]
            body_code = ast.SStore(esz, addr, expr)
        nodes.extend(body_nodes)

        loop = ast.SWhile(guard, ast.seq_of(body_code, self._increment(idx_local)))
        stmt = ast.seq_of(*prologue, loop)

        post = work.copy()
        post.set_heap_value(binding.ptr, resolved_map)
        self._cleanup(post, [idx_local])
        self._drop_body_binders(post, body_res)
        return stmt, post, nodes


class CompileArrayFold(_LoopLemma):
    """``let/n x := fold_left f a init in k`` ~ accumulate in a local.

    Invariant: at iteration ``i`` the accumulator local holds
    ``fold_left f (firstn i a) init``.
    """

    name = "compile_arrayfold"
    shapes = ("ArrayFold",)
    index_heads = shapes

    def matches(self, goal: BindingGoal) -> bool:
        value = goal.value
        return (
            isinstance(value, t.ArrayFold)
            and isinstance(value.arr, t.Var)
            and isinstance(goal.state.binding(value.arr.name), PointerBinding)
        )

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.ArrayFold) and isinstance(value.arr, t.Var)
        state = goal.state
        arr_name = value.arr.name
        binding = state.binding(arr_name)
        assert isinstance(binding, PointerBinding)
        clause = state.heap.get(binding.ptr)
        if clause is None:
            raise CompilationStalled(
                goal.describe(),
                advice=f"no clause owns {binding.ptr!r}",
                reason=StallReport.MISSING_CLAUSE,
                family="loops",
            )
        arr0 = clause.value
        resolved_fold = resolve(state, value)
        assert isinstance(resolved_fold, t.ArrayFold)
        body_res, init_res = resolved_fold.body, resolved_fold.init
        acc_ty = infer_type(state, init_res)
        elem_ty = clause.ty.elem
        assert elem_ty is not None

        target = goal.name
        init_stmt, state_after_init, init_nodes = engine.compile_value_into(
            state, target, value.init, goal.spec
        )

        lo_term = t.Lit(0, NAT)
        hi_term = t.ArrayLen(arr0)
        idx_local, ghost, prologue, guard, nodes, work = self._counter_setup(
            engine, state_after_init, lo_term, hi_term
        )
        nodes = init_nodes + nodes

        loop_state = self._loop_body_state(work, idx_local, ghost, lo_term, hi_term)
        acc_prefix = t.ArrayFold(
            value.acc_name,
            value.elem_name,
            body_res,
            init_res,
            t.FirstN(t.Var(ghost), arr0),
        )
        loop_state.bind_scalar(target, acc_prefix, acc_ty)

        elem_term = t.ArrayGet(arr0, t.Var(ghost))
        body_inlined = t.subst(
            t.subst(body_res, value.elem_name, elem_term),
            value.acc_name,
            t.Var(target),
        )
        step_stmt, step_nodes = self._compile_acc_step(
            engine, loop_state, target, body_inlined, acc_ty, goal.spec
        )
        nodes.extend(step_nodes)

        loop = ast.SWhile(guard, ast.seq_of(step_stmt, self._increment(idx_local)))
        stmt = ast.seq_of(init_stmt, *prologue, loop)

        post = work.copy()
        self._cleanup(post, [idx_local])
        self._drop_body_binders(post, body_res)
        post.bind_scalar(target, resolved_fold, acc_ty)
        return stmt, post, nodes


class CompileArrayFoldBreak(_LoopLemma):
    """``fold_left`` with an early exit ~ ``while (i < len && !pred(acc))``.

    The invariant is unchanged from the plain fold: *reaching* the loop
    head with counter ``i`` means no earlier iteration broke, and on that
    path ``fold_break (firstn i a)`` coincides with the plain prefix
    fold.  The exit condition covers both ``i = len`` and ``pred acc``,
    and in either case the prefix value equals the full fold-with-break.
    """

    name = "compile_arrayfold_break"
    shapes = ("ArrayFoldBreak",)
    index_heads = shapes

    def matches(self, goal: BindingGoal) -> bool:
        value = goal.value
        return (
            isinstance(value, t.ArrayFoldBreak)
            and isinstance(value.arr, t.Var)
            and isinstance(goal.state.binding(value.arr.name), PointerBinding)
        )

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.ArrayFoldBreak) and isinstance(value.arr, t.Var)
        state = goal.state
        arr_name = value.arr.name
        binding = state.binding(arr_name)
        assert isinstance(binding, PointerBinding)
        clause = state.heap.get(binding.ptr)
        if clause is None:
            raise CompilationStalled(
                goal.describe(),
                advice=f"no clause owns {binding.ptr!r}",
                reason=StallReport.MISSING_CLAUSE,
                family="loops",
            )
        arr0 = clause.value
        resolved = resolve(state, value)
        assert isinstance(resolved, t.ArrayFoldBreak)
        body_res, init_res, pred_res = resolved.body, resolved.init, resolved.break_pred
        acc_ty = infer_type(state, init_res)

        target = goal.name
        init_stmt, state_after_init, init_nodes = engine.compile_value_into(
            state, target, value.init, goal.spec
        )

        lo_term = t.Lit(0, NAT)
        hi_term = t.ArrayLen(arr0)
        idx_local, ghost, prologue, guard, nodes, work = self._counter_setup(
            engine, state_after_init, lo_term, hi_term
        )
        nodes = init_nodes + nodes

        loop_state = self._loop_body_state(work, idx_local, ghost, lo_term, hi_term)
        acc_prefix = t.ArrayFoldBreak(
            value.acc_name,
            value.elem_name,
            body_res,
            init_res,
            t.FirstN(t.Var(ghost), arr0),
            pred_res,
        )
        loop_state.bind_scalar(target, acc_prefix, acc_ty)

        # The break predicate, read off the accumulator local.
        pred_inlined = t.subst(pred_res, value.acc_name, t.Var(target))
        pred_expr, pred_node = engine.compile_expr_term(
            loop_state, resolve(loop_state, pred_inlined), None
        )
        nodes.append(pred_node)
        guard = ast.EOp("and", guard, ast.EOp("eq", pred_expr, ast.ELit(0)))

        elem_term = t.ArrayGet(arr0, t.Var(ghost))
        body_inlined = t.subst(
            t.subst(body_res, value.elem_name, elem_term),
            value.acc_name,
            t.Var(target),
        )
        step_stmt, step_nodes = self._compile_acc_step(
            engine, loop_state, target, body_inlined, acc_ty, goal.spec
        )
        nodes.extend(step_nodes)

        loop = ast.SWhile(guard, ast.seq_of(step_stmt, self._increment(idx_local)))
        stmt = ast.seq_of(init_stmt, *prologue, loop)

        post = work.copy()
        self._cleanup(post, [idx_local])
        self._drop_body_binders(post, body_res)
        post.bind_scalar(target, resolved, acc_ty)
        return stmt, post, nodes


class CompileRangedFor(_LoopLemma):
    """``let/n x := for i in [lo, hi) acc := init { body } in k``.

    Invariant: at counter value ``i`` the accumulator holds the partial
    execution ``for [lo, i)``.  The body may read arrays, mutate the
    accumulator object, etc.; the index binder is a ghost nat.
    """

    name = "compile_rangedfor"
    shapes = ("RangedFor",)
    index_heads = shapes
    shape_total = True

    def matches(self, goal: BindingGoal) -> bool:
        return isinstance(goal.value, t.RangedFor)

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.RangedFor)
        state = goal.state
        resolved = resolve(state, value)
        assert isinstance(resolved, t.RangedFor)
        lo_res, hi_res = resolved.lo, resolved.hi
        body_res, init_res = resolved.body, resolved.init
        acc_ty = infer_type(state, init_res)

        target = goal.name
        init_stmt, state_after_init, init_nodes = engine.compile_value_into(
            state, target, value.init, goal.spec
        )

        idx_local, ghost, prologue, guard, nodes, work = self._counter_setup(
            engine, state_after_init, lo_res, hi_res
        )
        nodes = init_nodes + nodes

        loop_state = self._loop_body_state(work, idx_local, ghost, lo_res, hi_res)
        acc_partial = t.RangedFor(
            lo_res, t.Var(ghost), value.idx_name, value.acc_name, body_res, init_res
        )
        loop_state.bind_scalar(target, acc_partial, acc_ty)

        body_inlined = t.subst(
            t.subst(body_res, value.idx_name, t.Var(ghost)),
            value.acc_name,
            t.Var(target),
        )
        step_stmt, step_nodes = self._compile_acc_step(
            engine, loop_state, target, body_inlined, acc_ty, goal.spec
        )
        nodes.extend(step_nodes)

        loop = ast.SWhile(guard, ast.seq_of(step_stmt, self._increment(idx_local)))
        stmt = ast.seq_of(init_stmt, *prologue, loop)

        post = work.copy()
        self._cleanup(post, [idx_local])
        self._drop_body_binders(post, body_res)
        post.bind_scalar(target, resolved, acc_ty)
        return stmt, post, nodes


class CompileNatIter(_LoopLemma):
    """``let/n x := Nat.iter n f init in k`` -- §3.4.2's cell example."""

    name = "compile_natiter"
    shapes = ("NatIter",)
    index_heads = shapes
    shape_total = True

    def matches(self, goal: BindingGoal) -> bool:
        return isinstance(goal.value, t.NatIter)

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, t.NatIter)
        state = goal.state
        resolved = resolve(state, value)
        assert isinstance(resolved, t.NatIter)
        count_res, body_res, init_res = resolved.count, resolved.body, resolved.init
        acc_ty = infer_type(state, init_res)

        target = goal.name
        init_stmt, state_after_init, init_nodes = engine.compile_value_into(
            state, target, value.init, goal.spec
        )

        lo_term = t.Lit(0, NAT)
        idx_local, ghost, prologue, guard, nodes, work = self._counter_setup(
            engine, state_after_init, lo_term, count_res
        )
        nodes = init_nodes + nodes

        loop_state = self._loop_body_state(work, idx_local, ghost, lo_term, count_res)
        acc_partial = t.NatIter(t.Var(ghost), value.acc_name, body_res, init_res)
        loop_state.bind_scalar(target, acc_partial, acc_ty)

        body_inlined = t.subst(body_res, value.acc_name, t.Var(target))
        step_stmt, step_nodes = self._compile_acc_step(
            engine, loop_state, target, body_inlined, acc_ty, goal.spec
        )
        nodes.extend(step_nodes)

        loop = ast.SWhile(guard, ast.seq_of(step_stmt, self._increment(idx_local)))
        stmt = ast.seq_of(init_stmt, *prologue, loop)

        post = work.copy()
        self._cleanup(post, [idx_local])
        self._drop_body_binders(post, body_res)
        post.bind_scalar(target, resolved, acc_ty)
        return stmt, post, nodes


def register(db: HintDb) -> HintDb:
    db.register(CompileArrayMapInPlace(), priority=25)
    db.register(CompileArrayFold(), priority=25)
    db.register(CompileArrayFoldBreak(), priority=24)
    db.register(CompileRangedFor(), priority=25)
    db.register(CompileNatIter(), priority=25)
    return db


# -- Inverse patterns (repro.lift) -------------------------------------------
#
# All five loop lemmas share the counted SWhile skeleton, so the lifter
# recognizes the skeleton once and specializes: map-in-place and
# fold-break when their stricter shapes hold, RangedFor otherwise
# (ArrayFold and NatIter emissions are RangedFor-shaped, so their code
# round-trips through the RangedFor inverse).

from repro.lift.patterns import InversePattern, register_inverse  # noqa: E402

register_inverse(
    InversePattern(
        name="lift_map_inplace",
        lemma="compile_arraymap_inplace",
        family="loops",
        heads=("SWhile",),
        source_head="ArrayMap",
        priority=25,
        description="a full-array store-back loop inverts to ArrayMap",
    )
)
register_inverse(
    InversePattern(
        name="lift_array_fold",
        lemma="compile_arrayfold",
        family="loops",
        heads=("SWhile",),
        source_head="ArrayFold",
        priority=25,
        description="a fold emission is RangedFor-shaped; lifted via RangedFor",
    )
)
register_inverse(
    InversePattern(
        name="lift_fold_break",
        lemma="compile_arrayfold_break",
        family="loops",
        heads=("SWhile",),
        source_head="ArrayFoldBreak",
        priority=24,
        description="an and(ltu, eq(p,0)) guard inverts to ArrayFoldBreak",
    )
)
register_inverse(
    InversePattern(
        name="lift_ranged_for",
        lemma="compile_rangedfor",
        family="loops",
        heads=("SWhile",),
        source_head="RangedFor",
        priority=25,
        description="a counted single-accumulator loop inverts to RangedFor",
    )
)
register_inverse(
    InversePattern(
        name="lift_nat_iter",
        lemma="compile_natiter",
        family="loops",
        heads=("SWhile",),
        source_head="NatIter",
        priority=25,
        description="a NatIter emission is RangedFor-shaped; lifted via RangedFor",
    )
)
