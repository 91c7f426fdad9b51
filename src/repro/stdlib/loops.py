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

from typing import List, Optional, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import CertNode
from repro.core.engine import resolve
from repro.core.goals import BindingGoal, CompilationStalled, StallReport
from repro.core.lemma import BindingLemma, HintDb, lemma_family, owned_clause
from repro.core.sepstate import PointerBinding, SymState
from repro.core.typecheck import infer_type
from repro.source import terms as t
from repro.source.types import NAT, SourceType
from repro.stdlib.exprs import scaled_index


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
    """The counter/guard/increment skeleton every counted loop shares.

    ``head`` is the source constructor the lemma compiles.
    ``array_field`` names the field holding the array variable it walks,
    whose pointer binding the guard requires.  ``None`` means the bounds
    come from the term itself and the guard is the ``isinstance`` test.
    """

    head: type
    array_field: Optional[str] = None

    def matches(self, goal: BindingGoal) -> bool:
        value = goal.value
        if not isinstance(value, self.head):
            return False
        if self.array_field is None:
            return True
        arr = getattr(value, self.array_field)
        return isinstance(arr, t.Var) and isinstance(
            goal.state.binding(arr.name), PointerBinding
        )

    def _counter(self, engine, state: SymState, lo_term: t.Term, hi_term: t.Term):
        """Emit ``i = lo``, prepare the ``i < hi`` guard and the body state.

        Returns (idx_local, ghost, prologue_stmts, guard_expr, nodes,
        work_state, loop_state).  ``work_state`` carries any hoisted
        bound locals; ``loop_state`` also binds ``idx_local`` to the
        ghost counter, with ``lo <= ghost < hi`` as facts.
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

        loop_state = work.copy()
        loop_state.set_ghost_type(ghost, NAT)
        loop_state.bind_scalar(idx_local, t.Var(ghost), NAT)
        loop_state.add_fact(t.Prim("nat.leb", (lo_term, t.Var(ghost))))
        loop_state.add_fact(t.Prim("nat.ltb", (t.Var(ghost), hi_term)))
        return idx_local, ghost, prologue, guard, nodes, work, loop_state

    @staticmethod
    def _loop(guard: ast.Expr, body: ast.Stmt, idx_local: str) -> ast.Stmt:
        increment = ast.SSet(idx_local, ast.EOp("add", ast.EVar(idx_local), ast.ELit(1)))
        return ast.SWhile(guard, ast.seq_of(body, increment))

    @staticmethod
    def _post(work: SymState, idx_local: str, body: t.Term) -> SymState:
        """The state after the loop: the counter is dead, and loop-body
        ``let`` binders clobber same-named Bedrock2 locals at runtime, so
        their pre-loop symbolic bindings must not survive."""
        post = work.copy()
        post.locals.pop(idx_local, None)
        for node in t.walk_terms(body):
            for name in node.binders():
                post.locals.pop(name, None)
        return post


class _StoreLoop(_LoopLemma):
    """``let/n a := F(a) in k`` ~ ``while (i < len a) { a[i] = e; i++ }``.

    Rebinding the array's own name licenses writing it in place.  The
    inferred §3.4.2 invariant is ``prefix(firstn i a) ++ skipn i a``: the
    processed prefix, then the untouched suffix.  A lemma declares the
    advice for a goal that rebinds another name (``rebind_advice``), its
    ``prefix`` term and the body with its binder read at counter ``i``
    (``element``).
    """

    rebind_advice: str

    def prefix(self, resolved: t.Term, firstn: t.Term) -> t.Term:
        raise NotImplementedError

    def element(self, resolved: t.Term, arr0: t.Term, ghost: t.Var) -> t.Term:
        raise NotImplementedError

    def _target(self, goal: BindingGoal, engine):
        """The target's pointer binding and clause, or a stall."""
        return owned_clause(goal, goal.name, lemma_family(self))

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        arr_name = getattr(value, self.array_field).name
        if goal.name != arr_name:
            raise CompilationStalled(
                goal.describe(),
                advice=self.rebind_advice,
                reason=StallReport.UNSUPPORTED_SHAPE,
                family=lemma_family(self),
            )
        state = goal.state
        binding, clause = self._target(goal, engine)
        arr0 = clause.value
        resolved = resolve(state, value)
        elem_ty = clause.ty.elem
        assert elem_ty is not None
        esz = engine.elem_byte_size(clause.ty)

        lo_term = t.Lit(0, NAT)
        hi_term = t.ArrayLen(arr0)
        idx_local, ghost, prologue, guard, nodes, work, loop_state = self._counter(
            engine, state, lo_term, hi_term
        )
        ghost_var = t.Var(ghost)
        loop_state.set_heap_value(
            binding.ptr,
            t.Append(
                self.prefix(resolved, t.FirstN(ghost_var, arr0)),
                t.SkipN(ghost_var, arr0),
            ),
        )
        body = self.element(resolved, arr0, ghost_var)

        addr_index_expr, idx_node = engine.compile_expr_term(
            loop_state, t.Prim("cast.of_nat", (ghost_var,)), None
        )
        nodes.append(idx_node)
        addr = ast.EOp(
            "add", ast.EVar(arr_name), scaled_index(engine, addr_index_expr, esz)
        )

        if _has_statement_shape(body):
            tmp = loop_state.fresh_local("_v")
            body_stmt, _after, body_nodes = engine.compile_value_into(
                loop_state, tmp, body, goal.spec
            )
            body_code = ast.seq_of(body_stmt, ast.SStore(esz, addr, ast.EVar(tmp)))
        else:
            expr, body_node = engine.compile_expr_term(
                loop_state, resolve(loop_state, body), elem_ty
            )
            body_nodes = [body_node]
            body_code = ast.SStore(esz, addr, expr)
        nodes.extend(body_nodes)

        stmt = ast.seq_of(*prologue, self._loop(guard, body_code, idx_local))
        post = self._post(work, idx_local, resolved.body)
        post.set_heap_value(binding.ptr, resolved)
        return stmt, post, nodes


class _AccumulatorLoop(_LoopLemma):
    """``let/n x := F(init) in k`` ~ ``x = init; i = lo; while (i < hi) { x = step; i++ }``.

    The inferred invariant: at counter ``i`` the accumulator local holds
    ``partial``, the same iteration cut off at ``i``.  The loop body is
    compiled against that state, with the accumulator binder read off the
    local.  A lemma declares its ``bounds``, its ``partial`` term, its
    body with the other binders read at counter ``i`` (``step``) and,
    for an early exit, the predicate on the accumulator that ends the
    loop (``exit_when``).
    """

    def bounds(self, resolved: t.Term, arr0: Optional[t.Term]) -> Tuple[t.Term, t.Term]:
        return t.Lit(0, NAT), t.ArrayLen(arr0)

    def partial(self, resolved: t.Term, ghost: t.Var, arr0: Optional[t.Term]) -> t.Term:
        raise NotImplementedError

    def step(self, resolved: t.Term, ghost: t.Var, arr0: Optional[t.Term]) -> t.Term:
        raise NotImplementedError

    def exit_when(self, resolved: t.Term) -> Optional[t.Term]:
        return None

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        state = goal.state
        arr0 = None
        if self.array_field is not None:
            arr_name = getattr(value, self.array_field).name
            arr0 = owned_clause(goal, arr_name, lemma_family(self))[1].value
        resolved = resolve(state, value)
        acc_ty = infer_type(state, resolved.init)

        target = goal.name
        init_stmt, state_after_init, nodes = engine.compile_value_into(
            state, target, value.init, goal.spec
        )

        lo_term, hi_term = self.bounds(resolved, arr0)
        idx_local, ghost, prologue, guard, counter_nodes, work, loop_state = self._counter(
            engine, state_after_init, lo_term, hi_term
        )
        nodes = nodes + counter_nodes
        ghost_var = t.Var(ghost)
        loop_state.bind_scalar(target, self.partial(resolved, ghost_var, arr0), acc_ty)

        acc = t.Var(target)
        exit_pred = self.exit_when(resolved)
        if exit_pred is not None:
            # The exit predicate, read off the accumulator local.
            exit_pred = t.subst(exit_pred, resolved.acc_name, acc)
            pred_expr, pred_node = engine.compile_expr_term(
                loop_state, resolve(loop_state, exit_pred), None
            )
            nodes.append(pred_node)
            guard = ast.EOp("and", guard, ast.EOp("eq", pred_expr, ast.ELit(0)))

        step = t.subst(self.step(resolved, ghost_var, arr0), resolved.acc_name, acc)
        if _has_statement_shape(step):
            step_stmt, _after, step_nodes = engine.compile_value_into(
                loop_state, target, step, goal.spec
            )
        else:
            step_term = resolve(loop_state, step)
            if acc_ty is NAT:
                step_term = t.Prim("cast.of_nat", (step_term,))
            expr, step_node = engine.compile_expr_term(loop_state, step_term, acc_ty)
            step_stmt, step_nodes = ast.SSet(target, expr), [step_node]
        nodes.extend(step_nodes)

        stmt = ast.seq_of(init_stmt, *prologue, self._loop(guard, step_stmt, idx_local))
        post = self._post(work, idx_local, resolved.body)
        post.bind_scalar(target, resolved, acc_ty)
        return stmt, post, nodes


class CompileArrayMapInPlace(_StoreLoop):
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
    head = t.ArrayMap
    array_field = "arr"
    rebind_advice = (
        "in-place map requires rebinding the array's own name; "
        "use copy(...) for an out-of-place map"
    )

    def prefix(self, resolved: t.ArrayMap, firstn: t.Term) -> t.Term:
        return t.ArrayMap(resolved.elem_name, resolved.body, firstn)

    def element(self, resolved: t.ArrayMap, arr0: t.Term, ghost: t.Var) -> t.Term:
        # The element binder denotes a[i]; inline it so loads appear in
        # the compiled expressions exactly where a human would write s[i].
        return t.subst(resolved.body, resolved.elem_name, t.ArrayGet(arr0, ghost))


class CompileArrayFold(_AccumulatorLoop):
    """``let/n x := fold_left f a init in k`` ~ accumulate in a local.

    Invariant: at iteration ``i`` the accumulator local holds
    ``fold_left f (firstn i a) init``.
    """

    name = "compile_arrayfold"
    shapes = ("ArrayFold",)
    index_heads = shapes
    head = t.ArrayFold
    array_field = "arr"

    def partial(self, resolved: t.ArrayFold, ghost: t.Var, arr0: t.Term) -> t.Term:
        return t.ArrayFold(
            resolved.acc_name,
            resolved.elem_name,
            resolved.body,
            resolved.init,
            t.FirstN(ghost, arr0),
        )

    def step(self, resolved: t.ArrayFold, ghost: t.Var, arr0: t.Term) -> t.Term:
        return t.subst(resolved.body, resolved.elem_name, t.ArrayGet(arr0, ghost))


class CompileArrayFoldBreak(CompileArrayFold):
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
    head = t.ArrayFoldBreak

    def partial(self, resolved: t.ArrayFoldBreak, ghost: t.Var, arr0: t.Term) -> t.Term:
        return t.ArrayFoldBreak(
            resolved.acc_name,
            resolved.elem_name,
            resolved.body,
            resolved.init,
            t.FirstN(ghost, arr0),
            resolved.break_pred,
        )

    def exit_when(self, resolved: t.ArrayFoldBreak) -> t.Term:
        return resolved.break_pred


class CompileRangedFor(_AccumulatorLoop):
    """``let/n x := for i in [lo, hi) acc := init { body } in k``.

    Invariant: at counter value ``i`` the accumulator holds the partial
    execution ``for [lo, i)``.  The body may read arrays, mutate the
    accumulator object, etc.; the index binder is a ghost nat.
    """

    name = "compile_rangedfor"
    shapes = ("RangedFor",)
    index_heads = shapes
    shape_total = True
    head = t.RangedFor

    def bounds(self, resolved: t.RangedFor, arr0: None) -> Tuple[t.Term, t.Term]:
        return resolved.lo, resolved.hi

    def partial(self, resolved: t.RangedFor, ghost: t.Var, arr0: None) -> t.Term:
        return t.RangedFor(
            resolved.lo,
            ghost,
            resolved.idx_name,
            resolved.acc_name,
            resolved.body,
            resolved.init,
        )

    def step(self, resolved: t.RangedFor, ghost: t.Var, arr0: None) -> t.Term:
        return t.subst(resolved.body, resolved.idx_name, ghost)


class CompileNatIter(_AccumulatorLoop):
    """``let/n x := Nat.iter n f init in k`` -- §3.4.2's cell example."""

    name = "compile_natiter"
    shapes = ("NatIter",)
    index_heads = shapes
    shape_total = True
    head = t.NatIter

    def bounds(self, resolved: t.NatIter, arr0: None) -> Tuple[t.Term, t.Term]:
        return t.Lit(0, NAT), resolved.count

    def partial(self, resolved: t.NatIter, ghost: t.Var, arr0: None) -> t.Term:
        return t.NatIter(ghost, resolved.acc_name, resolved.body, resolved.init)

    def step(self, resolved: t.NatIter, ghost: t.Var, arr0: None) -> t.Term:
        return resolved.body


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
