"""The Bedrock2 tree-walker the generated executor replaced, kept as an oracle.

:class:`repro.bedrock2.semantics.Interpreter` runs every function body on
the generated executor of :mod:`repro.bedrock2.closures`.  This module
keeps the semantics of Box 2 in its most direct form: one ``isinstance``
case per statement and expression form, recursing over the AST.
``tests/bedrock2/test_exec_equivalence.py`` and
``tests/bedrock2/test_codegen.py`` hold the executor to it on results,
memory, trace, op counts, fuel and errors; ``benchmarks/bench_exec.py``
times the executor against it; and the absint soundness audit subclasses
it, overriding :meth:`TreeWalker.exec_stmt` to see every statement.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bedrock2 import ast
from repro.bedrock2.memory import MemoryError_
from repro.bedrock2.semantics import (
    ExecutionError,
    Interpreter,
    IOEvent,
    MachineState,
    OutOfFuel,
    apply_op,
)
from repro.bedrock2.word import Word


class TreeWalker(Interpreter):
    """An :class:`Interpreter` whose ``call_function`` walks the AST."""

    # -- Expressions ----------------------------------------------------------

    def eval_expr(self, expr: ast.Expr, state: MachineState) -> Word:
        if isinstance(expr, ast.ELit):
            return Word(self.width, expr.value)
        if isinstance(expr, ast.EVar):
            try:
                return state.locals[expr.name]
            except KeyError:
                raise ExecutionError(f"unbound local variable {expr.name!r}") from None
        if isinstance(expr, ast.ELoad):
            addr = self.eval_expr(expr.addr, state)
            self.counts.load += 1
            try:
                raw = state.memory.load(addr.unsigned, expr.size)
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            return Word(self.width, raw)
        if isinstance(expr, ast.EOp):
            lhs = self.eval_expr(expr.lhs, state)
            rhs = self.eval_expr(expr.rhs, state)
            self.counts.arith += 1
            return apply_op(expr.op, lhs, rhs)
        if isinstance(expr, ast.EInlineTable):
            index = self.eval_expr(expr.index, state)
            self.counts.table += 1
            offset = index.unsigned
            if offset + expr.size > len(expr.data):
                raise ExecutionError(
                    f"inline-table read of {expr.size} byte(s) at offset {offset} "
                    f"exceeds table length {len(expr.data)}"
                )
            raw = int.from_bytes(expr.data[offset : offset + expr.size], "little")
            return Word(self.width, raw)
        raise ExecutionError(f"unknown expression node {expr!r}")

    # -- Statements -------------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, state: MachineState, fuel: int) -> int:
        """Execute ``stmt``; returns the remaining fuel."""
        if fuel <= 0:
            raise OutOfFuel("ran out of fuel (nonterminating loop?)")
        if isinstance(stmt, ast.SSkip):
            return fuel
        if isinstance(stmt, ast.SSet):
            value = self.eval_expr(stmt.rhs, state)
            state.locals[stmt.lhs] = value
            self.counts.assign += 1
            return fuel - 1
        if isinstance(stmt, ast.SUnset):
            state.locals.pop(stmt.name, None)
            return fuel - 1
        if isinstance(stmt, ast.SStore):
            addr = self.eval_expr(stmt.addr, state)
            value = self.eval_expr(stmt.value, state)
            self.counts.store += 1
            try:
                state.memory.store(addr.unsigned, stmt.size, value.unsigned)
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            return fuel - 1
        if isinstance(stmt, ast.SStackalloc):
            self.counts.stackalloc += 1
            try:
                base = state.memory.allocate_stack(stmt.nbytes)
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            state.memory.store_bytes(base, self.stack_init(stmt.nbytes))
            state.locals[stmt.lhs] = Word(self.width, base)
            fuel = self.exec_stmt(stmt.body, state, fuel - 1)
            state.memory.free(base)
            return fuel
        if isinstance(stmt, ast.SCond):
            cond = self.eval_expr(stmt.cond, state)
            self.counts.branch += 1
            branch = stmt.then_ if cond.unsigned != 0 else stmt.else_
            return self.exec_stmt(branch, state, fuel - 1)
        if isinstance(stmt, ast.SSeq):
            fuel = self.exec_stmt(stmt.first, state, fuel)
            return self.exec_stmt(stmt.second, state, fuel)
        if isinstance(stmt, ast.SWhile):
            while True:
                if fuel <= 0:
                    raise OutOfFuel("ran out of fuel (nonterminating loop?)")
                cond = self.eval_expr(stmt.cond, state)
                self.counts.branch += 1
                fuel -= 1
                if cond.unsigned == 0:
                    return fuel
                fuel = self.exec_stmt(stmt.body, state, fuel)
        if isinstance(stmt, ast.SCall):
            self.counts.call += 1
            args = [self.eval_expr(arg, state) for arg in stmt.args]
            rets = self.call_function(stmt.func, args, state, fuel - 1)
            if len(rets) != len(stmt.lhss):
                raise ExecutionError(
                    f"{stmt.func} returned {len(rets)} values, expected {len(stmt.lhss)}"
                )
            for name, value in zip(stmt.lhss, rets):
                state.locals[name] = value
            return fuel - 1
        if isinstance(stmt, ast.SInteract):
            if self.external is None:
                raise ExecutionError(f"no external handler for action {stmt.action!r}")
            self.counts.interact += 1
            args = [self.eval_expr(arg, state) for arg in stmt.args]
            rets = list(self.external(stmt.action, args, state))
            state.trace.append(
                IOEvent(
                    stmt.action,
                    tuple(a.unsigned for a in args),
                    tuple(r.unsigned for r in rets),
                )
            )
            if len(rets) != len(stmt.lhss):
                raise ExecutionError(
                    f"action {stmt.action!r} returned {len(rets)} values, "
                    f"expected {len(stmt.lhss)}"
                )
            for name, value in zip(stmt.lhss, rets):
                state.locals[name] = value
            return fuel - 1
        raise ExecutionError(f"unknown statement node {stmt!r}")

    # -- Functions ------------------------------------------------------------

    def call_function(
        self,
        name: str,
        args: Sequence[Word],
        state: MachineState,
        fuel: int,
    ) -> List[Word]:
        """Call a Bedrock2 function with its own locals frame (memory is shared)."""
        fn = self.function(name, args)
        frame = MachineState(
            memory=state.memory,
            locals=dict(zip(fn.args, args)),
            trace=state.trace,
        )
        self.exec_stmt(fn.body, frame, fuel)
        rets = []
        for ret in fn.rets:
            if ret not in frame.locals:
                raise ExecutionError(f"{name} did not set return variable {ret!r}")
            rets.append(frame.locals[ret])
        return rets
