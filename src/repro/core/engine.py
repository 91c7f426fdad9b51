"""The proof-search driver: deterministic, non-backtracking compilation.

This is the Python counterpart of Rupicola's ``compile.`` tactic.  The
engine walks the source program's ``let/n`` spine; for each binding it
consults the *binding* hint database, commits to the first matching lemma
(no backtracking, §3.1), and lets the lemma discharge its premises --
recursive statement subgoals, expression subgoals (via the *expression*
hint database), and logical side conditions (via the solver bank).  Every
application is recorded in a certificate.

A central device is :func:`resolve`: the symbolic state maps binder names
to their functional values *as terms over the model's parameters*, and
resolving a source term against the state rewrites binder references into
those values.  This keeps every recorded value in "ghost" variables only,
so that later syntactic matching (the essence of Rupicola's goal
manipulation) works: after compiling a conditional, an array's symbolic
content really is ``if t then ... else ...``, and the loop lemmas can
search the state for a local holding ``of_nat (length s)``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import Certificate, CertNode, SideCondition
from repro.core.goals import (
    BindingGoal,
    CompilationStalled,
    ExprGoal,
    OutOfScopeValue,
    SideConditionFailed,
    StallReport,
)
from repro.config import current_config
from repro.core.lemma import HintDb, WrapStmt, lemma_family
from repro.core.render import render_expr, render_stmt_head, term_head
from repro.core.sepstate import PointerBinding, SymState
from repro.core.solver import SolverBank
from repro.core.spec import ArgKind, CompiledFunction, FnSpec, Model, OutKind
from repro.core.typecheck import TypeInferenceError, infer_type
from repro.obs.trace import NULL_SPAN, current_tracer
from repro.source import terms as t
from repro.source.types import BOOL, WORD, SourceType


def resolve(state: SymState, term: t.Term, shadowed: frozenset = frozenset()) -> t.Term:
    """Rewrite binder references into their symbolic (ghost-level) values."""
    if isinstance(term, t.Var):
        if term.name in shadowed:
            return term
        binding = state.binding(term.name)
        if binding is None:
            return term  # a ghost (model parameter or loop counter)
        value = state.value_of(term.name)
        if value is None:
            raise OutOfScopeValue(
                term.name, binding_site=state.binding_site(term.name)
            )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.inc("resolve.rewrites")
        return value
    if isinstance(term, t.CellGet) and (
        isinstance(term.cell, t.Var)
        and term.cell.name not in shadowed
        and isinstance(state.binding(term.cell.name), PointerBinding)
    ):
        # A cell binder's functional value *is* its content (see FnSpec:
        # cell clauses store content terms), so ``get c`` resolves to the
        # clause value directly and the CellGet node disappears.
        value = state.value_of(term.cell.name)
        if value is None:
            raise OutOfScopeValue(
                term.cell.name,
                binding_site=state.binding_site(term.cell.name),
                kind="cell",
            )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.inc("resolve.rewrites")
        return value
    # Every other head: resolve the subterms, each under the names the
    # head binds over it.
    return t.map_children(
        term,
        lambda child, bound: resolve(state, child, shadowed.union(bound) if bound else shadowed),
    )


def _expr_node(goal: ExprGoal, lemma, result, conditions) -> CertNode:
    expr, children = result
    return CertNode(
        lemma=lemma.name,
        conclusion=f"EXPR |- {t.pretty(goal.term)}",
        code=render_expr(expr),
        side_conditions=conditions,
        children=children,
    )


def _binding_node(goal: BindingGoal, lemma, result, conditions) -> CertNode:
    stmt, new_state, children = result
    new_state.note_binding_site(goal.name, t.pretty(goal.value))
    return CertNode(
        lemma=lemma.name,
        conclusion=f"let/n {goal.name} := {t.pretty(goal.value)}",
        code=render_stmt_head(stmt),
        side_conditions=conditions,
        children=children,
    )


class Engine:
    """A relational compiler: hint databases + solvers + the driver."""

    def __init__(
        self,
        binding_db: HintDb,
        expr_db: HintDb,
        solvers: Optional[SolverBank] = None,
        width: int = 64,
        budget=None,
    ):
        self.binding_db = binding_db
        self.expr_db = expr_db
        self.solvers = solvers or SolverBank()
        self.width = width
        self.budget = budget  # Optional[repro.resilience.budget.Budget]
        # Head-indexed dispatch and the subterm memos (``fast_search``,
        # :mod:`repro.config`), snapshotted at construction so one
        # engine's behavior cannot flip mid-derivation.  Both are pure
        # optimizations: the lemma that commits, the emitted code, and the
        # certificate are identical either way (the differential harness
        # in tests/core/test_dispatch_equivalence.py enforces this).
        self.fast_search = current_config().fast_search
        # Per-derivation memo for repeated pure subterm compilations,
        # keyed (state object, state.version, term, ty) and cleared at
        # every compile_function entry.  The state object keeps a strong
        # reference (no id() reuse) and identity equality; the monotone
        # version counter rules out stale hits after in-place mutation.
        self._expr_memo: dict = {}
        # Same contract for discharged side conditions: the winning
        # solver for (state, version, obligation) is deterministic, so a
        # repeat discharge replays the certificate record without
        # re-running the solver bank.
        self._side_memo: dict = {}
        self.tracer = current_tracer()
        self._condition_stack: List[List[SideCondition]] = []
        # Memoized (family, counter-key, counter-key) tuples per lemma /
        # solver: building the dotted counter names with f-strings on
        # every hit is a measurable share of enabled-tracer overhead.
        self._lemma_keys: dict = {}
        self._solver_keys: dict = {}

    def _lemma_trace_keys(self, lemma) -> Tuple[str, str, str]:
        keys = self._lemma_keys.get(lemma.name)
        if keys is None:
            family = lemma_family(lemma)
            keys = (family, f"lemma.family.{family}", f"lemma.hits.{lemma.name}")
            self._lemma_keys[lemma.name] = keys
        return keys

    def _solver_trace_keys(self, solver) -> Tuple[str, str, str]:
        keys = self._solver_keys.get(solver)
        if keys is None:
            name = getattr(solver, "__name__", repr(solver))
            keys = (name, f"solver.calls.{name}", f"solver.hits.{name}")
            self._solver_keys[solver] = keys
        return keys

    @staticmethod
    def _absint_counters(tracer, obligation: t.Term, solver_name: str) -> None:
        """Attribute a discharged obligation to the range analysis.

        ``absint.solver.hit`` (plus a per-head breakdown) counts wins by
        ``range_solver``; ``absint.solver.miss`` counts range-eligible
        obligations that fell through to the Fourier-Motzkin solver --
        the quantity the E17 benchmark and the coverage-matrix
        crosscheck both read.
        """
        from repro.core.solver import RANGE_SOLVER_OPS

        if solver_name == "range_solver":
            tracer.inc("absint.solver.hit")
            if isinstance(obligation, t.Prim):
                tracer.inc(f"absint.solver.hit.op.{obligation.op}")
        elif (
            solver_name == "linear_arithmetic_solver"
            and isinstance(obligation, t.Prim)
            and obligation.op in RANGE_SOLVER_OPS
        ):
            tracer.inc("absint.solver.miss")

    def _charge(self, goal_description) -> None:
        # Descriptions may be callables: rendering the pretty-printed goal
        # eagerly on every fuel tick costs a full term walk that is thrown
        # away whenever no budget is attached (the common case).
        if self.budget is not None:
            if callable(goal_description):
                goal_description = goal_description()
            self.budget.charge(1, goal=goal_description)

    def fingerprint(self) -> str:
        """A stable hash of everything engine-side that determines output.

        Because proof search never backtracks and hint databases are
        ordered, the derived code and certificate are a pure function of
        (model, spec, this fingerprint): the ordered contents of both
        hint databases, the solver bank (in scan order -- solvers decide
        which side conditions discharge), and the target word width.
        The compilation cache (:mod:`repro.serve`) folds this into its
        content-addressed keys, so swapping a lemma, reordering solvers,
        or retargeting the width invalidates exactly the affected
        entries.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(self.binding_db.fingerprint().encode("ascii"))
        digest.update(self.expr_db.fingerprint().encode("ascii"))
        digest.update("\x1f".join(self.solvers.names()).encode("utf-8"))
        digest.update(str(self.width).encode("ascii"))
        return digest.hexdigest()[:16]

    # -- Side conditions -----------------------------------------------------------

    def discharge(self, obligation: t.Term, state: SymState, description: str) -> None:
        """Discharge a logical side condition or fail loudly (no backtracking)."""
        self._charge(lambda: f"side condition: {t.pretty(obligation)}")
        tracer = self.tracer
        trace = tracer.enabled
        # Per-obligation spans, solver_call events, and the pretty-printed
        # goal are debug-tier payloads; standard detail keeps the solver
        # counters (which identify the winning solver) and nothing per-goal.
        debug = trace and tracer.debug
        memo_key = None
        if self.fast_search:
            try:
                hit = self._side_memo.get((state, state.version, obligation))
            except TypeError:
                hit = None
            else:
                memo_key = (state, state.version, obligation)
            if hit is not None:
                # Replay: the record is built exactly as a re-run would
                # build it (the winning solver is deterministic), only the
                # solver bank itself is skipped.
                if trace:
                    tracer.inc("memo.side.hits")
                if self._condition_stack:
                    self._condition_stack[-1].append(
                        SideCondition(
                            description=description,
                            obligation_pretty=t.pretty(obligation),
                            solver=hit,
                        )
                    )
                return
        pretty = t.pretty(obligation) if debug else None
        span = tracer.span("side_condition", name=description) if debug else NULL_SPAN
        with span:
            for solver in self.solvers.solvers:
                solved = bool(solver(obligation, state))
                if trace:
                    solver_name, calls_key, hits_key = self._solver_trace_keys(solver)
                    if debug:
                        tracer.event(
                            "solver_call", solver=solver_name, solved=solved, goal=pretty
                        )
                    tracer.inc("solver.calls")
                    tracer.inc(calls_key)
                    if solved:
                        tracer.inc(hits_key)
                if solved:
                    solver_name = getattr(solver, "__name__", repr(solver))
                    if trace:
                        self._absint_counters(tracer, obligation, solver_name)
                    if memo_key is not None:
                        self._side_memo[memo_key] = solver_name
                        if trace:
                            tracer.inc("memo.side.misses")
                    if self._condition_stack:
                        self._condition_stack[-1].append(
                            SideCondition(
                                description=description,
                                obligation_pretty=t.pretty(obligation),
                                solver=solver_name,
                            )
                        )
                    return
            if trace:
                tracer.inc(f"stall.{StallReport.SIDE_CONDITION}")
            raise SideConditionFailed(
                "<current>",
                obligation,
                state.describe(),
                solvers=tuple(self.solvers.names()),
            )

    # -- First-match dispatch ------------------------------------------------------------

    def _first_match(
        self,
        db: HintDb,
        goal,
        term: t.Term,
        head: str,
        kind: str,
        node_of: Callable,
        stall_reason: str,
        stall_advice: str,
    ):
        """Commit to the first lemma of ``db`` that matches ``goal`` (§3.1).

        ``term`` is the goal's source term and ``head`` its head key (``""``
        when neither tracing nor the index reads it).  The lemma's ``apply``
        runs under a fresh side-condition frame; ``node_of(goal, lemma,
        result, conditions)`` turns its result into the goal's certificate
        node.
        Returns ``(result, node)``.  When no lemma matches, the goal stalls
        with ``stall_reason`` and ``stall_advice``, followed by the names of
        the lemmas ``db`` knows.
        """
        tracer = self.tracer
        trace = tracer.enabled
        debug = trace and tracer.debug
        emit = tracer.event
        db_name = db.name
        if trace:
            tracer.inc("goals." + kind)
        if self.fast_search:
            lemma_seq = db.candidates(head)
            if trace:
                tracer.inc("dispatch.index.lookups")
                tracer.inc("dispatch.index.pruned", len(db) - len(lemma_seq))
        else:
            lemma_seq = db
        scanned = 0
        for lemma in lemma_seq:
            scanned += 1
            if not lemma.matches(goal):
                if debug:
                    emit("lemma_miss", db=db_name, lemma=lemma.name, head=head)
                continue
            if trace:
                family, family_key, hits_key = self._lemma_trace_keys(lemma)
                emit(
                    "lemma_hit",
                    db=db_name,
                    lemma=lemma.name,
                    head=head,
                    family=family,
                    scanned=scanned,
                )
                tracer.inc("lemma.hits")
                tracer.inc("lemma.misses", scanned - 1)
                tracer.inc("lemma.attempts", scanned)
                tracer.inc(family_key)
                tracer.inc(hits_key)
                tracer.observe("lemma.scan_length", scanned)
                span = (
                    tracer.span("lemma_apply", name=lemma.name, family=family)
                    if debug
                    else NULL_SPAN
                )
            else:
                span = NULL_SPAN
            self._condition_stack.append([])
            try:
                with span:
                    result = lemma.apply(goal, self)
            except SideConditionFailed as failure:
                failure.lemma = lemma.name
                raise
            finally:
                conditions = self._condition_stack.pop()
            node = node_of(goal, lemma, result, conditions)
            if trace:
                tracer.inc("cert.nodes")
                if debug:
                    tracer.event(
                        "cert_node", lemma=lemma.name, kind=kind,
                        conditions=len(conditions),
                    )
            return result, node
        stall_head = head if trace else term_head(term)
        if trace:
            tracer.inc("lemma.attempts", scanned)
            tracer.inc("lemma.misses", scanned)
            tracer.inc(f"stall.{stall_reason}")
            tracer.inc(f"stall.{stall_reason}.head.{stall_head}")
        raise CompilationStalled(
            goal.describe(),
            advice=f"{stall_advice}; known lemmas: {', '.join(db.lemma_names())}",
            reason=stall_reason,
            family="engine",
            databases=(db_name,),
            nearest_misses=tuple(db.nearest_misses(term)),
            head=stall_head,
        )

    # -- Expression compilation ------------------------------------------------------

    def compile_expr_term(
        self, state: SymState, term: t.Term, ty: Optional[SourceType] = None
    ) -> Tuple[ast.Expr, CertNode]:
        goal = ExprGoal(state=state, term=term, ty=ty)
        self._charge(lambda: f"expr goal: {t.pretty(term)}")
        tracer = self.tracer
        trace = tracer.enabled
        memo_key = None
        if self.fast_search:
            try:
                cached = self._expr_memo.get((state, state.version, term, ty))
            except TypeError:
                cached = None  # unhashable payload (e.g. list-valued Lit)
            else:
                memo_key = (state, state.version, term, ty)
            if cached is not None:
                if trace:
                    tracer.inc("goals.expr")
                    tracer.inc("memo.expr.hits")
                return cached
        head = term_head(term) if (trace or self.fast_search) else ""
        debug = trace and tracer.debug
        outer = tracer.span("compile_expr", head=head) if debug else NULL_SPAN
        with outer:
            (expr, _), node = self._first_match(
                self.expr_db, goal, term, head, "expr", _expr_node,
                StallReport.NO_EXPR_LEMMA,
                "no expression-compilation lemma matches this term",
            )
            if memo_key is not None:
                self._expr_memo[memo_key] = (expr, node)
                if trace:
                    tracer.inc("memo.expr.misses")
            return expr, node

    # -- Binding compilation -----------------------------------------------------------

    def compile_binding(
        self,
        state: SymState,
        name: str,
        value: t.Term,
        spec: FnSpec,
        monadic: bool = False,
        names: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[ast.Stmt, SymState, CertNode]:
        goal = BindingGoal(
            state=state, name=name, value=value, spec=spec, monadic=monadic, names=names
        )
        self._charge(lambda: f"binding goal: let/n {name} := {t.pretty(value)}")
        tracer = self.tracer
        trace = tracer.enabled
        head = term_head(value) if (trace or self.fast_search) else ""
        outer = (
            tracer.span("compile_binding", name=name, head=head, monadic=monadic)
            if trace and tracer.debug
            else NULL_SPAN
        )
        with outer:
            (stmt, new_state, _), node = self._first_match(
                self.binding_db, goal, value, head, "binding", _binding_node,
                StallReport.NO_BINDING_LEMMA,
                "no binding-compilation lemma matches this value shape",
            )
            return stmt, new_state, node

    def compile_value_into(
        self, state: SymState, target: str, term: t.Term, spec: FnSpec
    ) -> Tuple[ast.Stmt, SymState, List[CertNode]]:
        """Compile an arbitrary value-producing term into the local ``target``.

        Handles nested let-chains (flattening them into sequenced
        bindings), then dispatches the final value through the binding
        database.  This is the engine primitive loop/conditional lemmas
        use for their bodies and branches.
        """
        if isinstance(term, t.Let):
            first, mid_state, node = self.compile_binding(state, term.name, term.value, spec)
            rest, final_state, nodes = self.compile_value_into(
                mid_state, target, term.body, spec
            )
            if isinstance(first, WrapStmt):
                return first.wrap(rest), final_state, [node] + nodes
            return ast.seq_of(first, rest), final_state, [node] + nodes
        stmt, final_state, node = self.compile_binding(state, target, term, spec)
        if isinstance(stmt, WrapStmt):
            stmt = stmt.wrap(ast.SSkip())
        return stmt, final_state, [node]

    # -- Chains and whole functions -----------------------------------------------------

    def compile_chain(
        self, state: SymState, term: t.Term, spec: FnSpec
    ) -> Tuple[ast.Stmt, SymState, List[CertNode], Tuple[str, ...]]:
        """Compile a (possibly monadic) let-chain down to its terminal."""
        if isinstance(term, (t.Let, t.MBind)):
            monadic = isinstance(term, t.MBind)
            value = term.ma if monadic else term.value
            stmt, mid_state, node = self.compile_binding(
                state, term.name, value, spec, monadic=monadic
            )
            rest, final_state, nodes, rets = self.compile_chain(mid_state, term.body, spec)
            if isinstance(stmt, WrapStmt):
                return stmt.wrap(rest), final_state, [node] + nodes, rets
            return ast.seq_of(stmt, rest), final_state, [node] + nodes, rets
        if isinstance(term, t.LetTuple):
            stmt, mid_state, node = self.compile_binding(
                state, term.names[0], term.value, spec, names=term.names
            )
            rest, final_state, nodes, rets = self.compile_chain(mid_state, term.body, spec)
            if isinstance(stmt, WrapStmt):
                return stmt.wrap(rest), final_state, [node] + nodes, rets
            return ast.seq_of(stmt, rest), final_state, [node] + nodes, rets
        return self._compile_terminal(state, term, spec)

    def _compile_terminal(
        self, state: SymState, term: t.Term, spec: FnSpec
    ) -> Tuple[ast.Stmt, SymState, List[CertNode], Tuple[str, ...]]:
        """Check the postcondition: results are delivered per the spec."""
        inner = term.value if isinstance(term, t.MRet) else term
        components = list(inner.items) if isinstance(inner, t.TupleTerm) else [inner]
        value_outputs = [o for o in spec.outputs if o.kind is not OutKind.ERROR_FLAG]
        if len(components) != len(value_outputs):
            raise CompilationStalled(
                f"terminal {t.pretty(term)} has {len(components)} component(s) "
                f"but the spec declares {len(value_outputs)} value output(s)",
                reason=StallReport.SPEC_MISMATCH,
                family="engine",
            )
        if spec.has_error_flag:
            if any(o.kind is OutKind.ARRAY for o in spec.outputs):
                raise CompilationStalled(
                    "error-monad functions deliver results through return "
                    "values only (a failed guard leaves memory partially "
                    "updated, so an array postcondition cannot hold on the "
                    "failure path)",
                    reason=StallReport.SPEC_MISMATCH,
                    family="engine",
                )
            if sum(1 for o in spec.outputs if o.kind is OutKind.SCALAR) > 1:
                raise CompilationStalled(
                    "error-monad functions support one value output "
                    "alongside the error flag",
                    reason=StallReport.SPEC_MISMATCH,
                    family="engine",
                )
        rets: List[str] = []
        descriptions: List[str] = []
        epilogue: List[ast.Stmt] = []
        children: List[CertNode] = []
        component_iter = iter(components)
        for output in spec.outputs:
            if output.kind is OutKind.ERROR_FLAG:
                if state.binding(self.ERROR_FLAG_LOCAL) is None:
                    raise CompilationStalled(
                        "spec declares an error flag but no guard prologue "
                        "was emitted (is the spec's outputs list right?)",
                        reason=StallReport.SPEC_MISMATCH,
                        family="engine",
                    )
                rets.append(self.ERROR_FLAG_LOCAL)
                descriptions.append("ret _ok = no guard failed")
                continue
            component = next(component_iter)
            resolved = resolve(state, component)
            if output.kind is OutKind.SCALAR:
                local = state.find_local_by_value(resolved)
                if local is None:
                    # The result is a computed value: emit one final
                    # assignment into a fresh return variable.
                    try:
                        ty = infer_type(state, resolved)
                    except TypeInferenceError as error:
                        raise CompilationStalled(
                            "cannot compile the function's result\n"
                            f"  result: {t.pretty(resolved)} ({error})\n"
                            + state.describe(),
                            advice="bind the result with let/n before returning it",
                            reason=StallReport.UNSUPPORTED_SHAPE,
                            family="engine",
                        ) from None
                    expr_term = resolved
                    if ty.kind.value == "nat":
                        expr_term = t.Prim("cast.of_nat", (resolved,))
                    expr, node = self.compile_expr_term(state, expr_term, ty)
                    children.append(node)
                    local = state.fresh_local("_ret")
                    state = state.copy()
                    state.bind_scalar(local, resolved, ty)
                    epilogue.append(ast.SSet(local, expr))
                if spec.has_error_flag:
                    # Route the value through the pre-initialized forward
                    # local so the failure path also defines the return
                    # variable (the guard prologue set it to zero).
                    epilogue.append(ast.SSet(self.ERROR_VALUE_LOCAL, ast.EVar(local)))
                    local = self.ERROR_VALUE_LOCAL
                rets.append(local)
                descriptions.append(f"ret {local} = {t.pretty(resolved)}")
            else:
                assert output.param is not None
                arg = spec.arg_for_param(output.param, ArgKind.POINTER)
                if arg is None:
                    raise CompilationStalled(
                        f"spec output references pointer param {output.param!r} "
                        "but no pointer argument carries it",
                        reason=StallReport.SPEC_MISMATCH,
                        family="engine",
                    )
                clause = state.clause_of_local(arg.name)
                if clause is None:
                    raise CompilationStalled(
                        f"no memory clause for output argument {arg.name!r}\n"
                        + state.describe(),
                        reason=StallReport.MISSING_CLAUSE,
                        family="engine",
                    )
                if clause.value != resolved:
                    raise CompilationStalled(
                        "final memory does not match the declared output:\n"
                        f"  memory holds: {t.pretty(clause.value)}\n"
                        f"  spec expects: {t.pretty(resolved)}",
                        advice=(
                            "the model's result must be exactly the final "
                            "mutated value of the output array"
                        ),
                        reason=StallReport.POSTCONDITION,
                        family="engine",
                    )
                descriptions.append(f"memory({arg.name}) = {t.pretty(resolved)}")
        node = CertNode(
            lemma="compile_done",
            conclusion="; ".join(descriptions) or "no outputs",
            code="/* postcondition check */",
            children=children,
        )
        if self.tracer.enabled:
            self.tracer.inc("cert.nodes")
            if self.tracer.debug:
                self.tracer.event("cert_node", lemma="compile_done", kind="terminal")
        return ast.seq_of(*epilogue), state, [node], tuple(rets)

    ERROR_FLAG_LOCAL = "_ok"
    ERROR_VALUE_LOCAL = "_errv"

    def compile_function(self, model: Model, spec: FnSpec) -> CompiledFunction:
        """The ``Derive ... SuchThat ... As`` entry point (§3.2)."""
        from repro.core.sepstate import reset_ghosts

        # Ghost names are scoped to this derivation: resetting the supply
        # makes the derivation (and its trace) independent of compile
        # history in the process.
        reset_ghosts()
        # The subterm memo is scoped to one derivation, exactly like
        # ghost names: entries from a previous function must never be
        # visible (their states are dead), and clearing also releases the
        # strong references the keys hold on SymState objects.
        self._expr_memo.clear()
        self._side_memo.clear()
        # Late-bind the flight recorder: engines are often built before a
        # CLI command installs its tracer.
        self.tracer = current_tracer()
        tracer = self.tracer
        trace = tracer.enabled
        span = (
            tracer.span("compile_function", name=spec.fname, program=model.name)
            if trace
            else NULL_SPAN
        )
        with span as handle:
            rewrites_before = tracer.metrics.get("resolve.rewrites") if trace else 0
            state = spec.initial_state(model, self.width)
            prologue: List[ast.Stmt] = []
            if spec.has_error_flag:
                # Error-monad functions: the success flag starts true and the
                # forwarded result starts zero, so both return variables are
                # defined on every path (a failed guard only clears the flag).
                prologue.append(ast.SSet(self.ERROR_FLAG_LOCAL, ast.ELit(1)))
                prologue.append(ast.SSet(self.ERROR_VALUE_LOCAL, ast.ELit(0)))
                state.bind_scalar(self.ERROR_FLAG_LOCAL, t.Lit(True, BOOL), BOOL)
                state.bind_scalar(self.ERROR_VALUE_LOCAL, t.Lit(0, WORD), WORD)
            body, final_state, nodes, rets = self.compile_chain(state, model.term, spec)
            if prologue:
                body = ast.seq_of(*prologue, body)
            root = CertNode(
                lemma="derive",
                conclusion=(
                    f'defn! "{spec.fname}" ({", ".join(spec.arg_names())}) '
                    f"implements {model.name}"
                ),
                code="<function body>",
                children=nodes,
            )
            fn = ast.Function(spec.fname, spec.arg_names(), tuple(rets), body)
            certificate = Certificate(
                function_name=spec.fname,
                root=root,
                statements_compiled=ast.statement_count(body),
            )
            if trace:
                tracer.inc("cert.nodes")
                if tracer.debug:
                    tracer.event("cert_node", lemma="derive", kind="root")
                rewrites = tracer.metrics.get("resolve.rewrites") - rewrites_before
                tracer.event("resolve_stats", rewrites=rewrites)
                # Interning counters are process-global (the intern table
                # outlives derivations), so they ride in a *volatile*
                # event: visible in dumped traces and profiles, stripped
                # from golden comparisons like wall-clock timings.
                tracer.event("interning", **t.intern_stats())
                tracer.inc("functions.compiled")
                tracer.observe("certificate.size", certificate.size())
                tracer.observe("function.statements", certificate.statements_compiled)
                handle.note(rewrites=rewrites)
            self._expr_memo.clear()
            self._side_memo.clear()
            return CompiledFunction(
                bedrock_fn=fn, certificate=certificate, spec=spec, model=model
            )

    # -- Representation helpers used by lemmas --------------------------------------------

    def elem_byte_size(self, composite: SourceType) -> int:
        return composite.elem_size(self.width // 8)

    def scalar_byte_size(self, scalar: SourceType) -> int:
        return scalar.scalar_size(self.width // 8)
