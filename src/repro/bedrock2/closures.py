"""The closure executor: each Bedrock2 function compiled once into closures.

The tree-walker (:meth:`Interpreter.exec_stmt` and
:meth:`Interpreter.eval_expr` in :mod:`repro.bedrock2.semantics`) is the
reference semantics.  This module is its fast path.  It compiles a
``Function`` into nested Python closures in which

- locals are a dict of masked ``int`` s, not :class:`Word` objects;
- each ``EOp`` is dispatched once, at compile time, to its entry in
  :data:`~repro.bedrock2.semantics.RAW_OPS` (the table ``apply_op``
  reads too), and var/literal operands are read inline;
- straight-line ``SSeq`` chains are flattened into one tuple.

Every check of the tree-walker stays, in the tree-walker's order: the
fuel check at each statement entry and the fuel charged where
``exec_stmt`` charges it (``SCall`` passes ``fuel - 1`` to the callee and
charges the caller one unit), one ``OpCounts`` increment per op, the
``Memory.load``/``store`` region checks, inline-table bounds, and the
unbound-local, arity and missing-return errors with the same messages.
``tests/bedrock2/test_exec_equivalence.py`` holds the two to that
contract.

Closures capture no per-run state and no AST node: counts, memory,
trace, the external handler and the stack-init policy arrive through one
:class:`Runtime`.  Compiled forms live in a process-wide cache keyed by
``Function`` identity and held through a weakref, so one compile serves
every :class:`Interpreter` built over the same AST, and an entry dies
with its AST.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.memory import MemoryError_
from repro.bedrock2.semantics import (
    RAW_OPS,
    ExecutionError,
    IOEvent,
    MachineState,
    OutOfFuel,
)
from repro.bedrock2.word import Word

Locals = Dict[str, int]
ExprCode = Callable[["Runtime", Locals], int]
StmtCode = Callable[["Runtime", Locals, int], int]

_FUEL = "ran out of fuel (nonterminating loop?)"


class Runtime:
    """The per-run state a compiled body reads; closures capture none of it."""

    __slots__ = ("interp", "state", "counts", "memory", "trace", "external", "stack_init")

    def __init__(self, interp, state: MachineState):
        self.interp = interp
        self.state = state
        self.counts = interp.counts
        self.memory = state.memory
        self.trace = state.trace
        self.external = interp.external
        self.stack_init = interp.stack_init


class CompiledFunction:
    """A function body compiled for one word width."""

    __slots__ = ("name", "args", "rets", "width", "body")

    def __init__(self, fn: ast.Function, width: int):
        self.name = fn.name
        self.args = fn.args
        self.rets = fn.rets
        self.width = width
        self.body = _Compiler(width).stmt(fn.body)


# -- The cache ------------------------------------------------------------------

_CACHE: Dict[int, Tuple["weakref.ref[ast.Function]", Dict[int, CompiledFunction]]] = {}


def _evictor(key: int):
    def evict(ref) -> None:
        entry = _CACHE.get(key)
        if entry is not None and entry[0] is ref:
            del _CACHE[key]

    return evict


def compiled(fn: ast.Function, width: int) -> CompiledFunction:
    """``fn`` compiled for ``width``, from the cache or compiled once now."""
    key = id(fn)
    entry = _CACHE.get(key)
    if entry is None or entry[0]() is not fn:
        entry = (weakref.ref(fn, _evictor(key)), {})
        _CACHE[key] = entry
    code = entry[1].get(width)
    if code is None:
        code = entry[1][width] = CompiledFunction(fn, width)
    return code


def call(
    interp, fn: ast.Function, args: Sequence[Word], state: MachineState, fuel: int
) -> List[Word]:
    """Run ``fn`` on ``args`` (already arity-checked, all of ``interp.width``)."""
    code = compiled(fn, interp.width)
    frame = dict(zip(code.args, [arg.unsigned for arg in args]))
    code.body(Runtime(interp, state), frame, fuel)
    rets = []
    for ret in code.rets:
        if ret not in frame:
            raise ExecutionError(f"{code.name} did not set return variable {ret!r}")
        rets.append(Word(code.width, frame[ret]))
    return rets


def _unbound(exc: KeyError) -> ExecutionError:
    return ExecutionError(f"unbound local variable {exc.args[0]!r}")


# -- The compiler -----------------------------------------------------------------


class _Compiler:
    """Turns expressions and statements into closures for one width.

    Expression closures read locals as ``L[name]`` and let ``KeyError``
    and ``MemoryError_`` escape; the statement closure that evaluates an
    expression turns them into the tree-walker's ``ExecutionError`` s.
    That conversion never wraps a nested statement, so an error raised by
    an external handler or a callee passes through unchanged.
    """

    def __init__(self, width: int):
        self.width = width
        self.mask = (1 << width) - 1
        self.ops = RAW_OPS[width]

    # -- expressions --

    def expr(self, e: ast.Expr) -> ExprCode:
        if isinstance(e, ast.ELit):
            value = e.value & self.mask
            return lambda rt, L: value
        if isinstance(e, ast.EVar):
            name = e.name
            return lambda rt, L: L[name]
        if isinstance(e, ast.EOp):
            return self.op(e)
        if isinstance(e, ast.ELoad):
            return self.load(e)
        if isinstance(e, ast.EInlineTable):
            return self.table(e)
        message = f"unknown expression node {e!r}"

        def unknown(rt, L):
            raise ExecutionError(message)

        return unknown

    def op(self, e: ast.EOp) -> ExprCode:
        f = self.ops[e.op]  # EOp admits only the operators of RAW_OPS
        lhs, rhs = e.lhs, e.rhs
        lvar, rvar = isinstance(lhs, ast.EVar), isinstance(rhs, ast.EVar)
        llit, rlit = isinstance(lhs, ast.ELit), isinstance(rhs, ast.ELit)
        if lvar and rvar:
            x, y = lhs.name, rhs.name

            def var_var(rt, L):
                a = L[x]
                b = L[y]
                rt.counts.arith += 1
                return f(a, b)

            return var_var
        if lvar and rlit:
            x, k = lhs.name, rhs.value & self.mask

            def var_lit(rt, L):
                a = L[x]
                rt.counts.arith += 1
                return f(a, k)

            return var_lit
        if llit and rvar:
            k, y = lhs.value & self.mask, rhs.name

            def lit_var(rt, L):
                b = L[y]
                rt.counts.arith += 1
                return f(k, b)

            return lit_var
        if rlit and not llit:
            g, k = self.expr(lhs), rhs.value & self.mask

            def expr_lit(rt, L):
                a = g(rt, L)
                rt.counts.arith += 1
                return f(a, k)

            return expr_lit
        if rvar:
            g, y = self.expr(lhs), rhs.name

            def expr_var(rt, L):
                a = g(rt, L)
                b = L[y]
                rt.counts.arith += 1
                return f(a, b)

            return expr_var
        if lvar:
            x, h = lhs.name, self.expr(rhs)

            def var_expr(rt, L):
                a = L[x]
                b = h(rt, L)
                rt.counts.arith += 1
                return f(a, b)

            return var_expr
        g, h = self.expr(lhs), self.expr(rhs)

        def expr_expr(rt, L):
            a = g(rt, L)
            b = h(rt, L)
            rt.counts.arith += 1
            return f(a, b)

        return expr_expr

    def load(self, e: ast.ELoad) -> ExprCode:
        size = e.size
        mask = self.mask if 8 * size > self.width else None
        if isinstance(e.addr, ast.EVar):
            name = e.addr.name

            def load_var(rt, L):
                addr = L[name]
                rt.counts.load += 1
                return rt.memory.load(addr, size)

            code = load_var
        else:
            g = self.expr(e.addr)

            def load_expr(rt, L):
                addr = g(rt, L)
                rt.counts.load += 1
                return rt.memory.load(addr, size)

            code = load_expr
        if mask is None:
            return code
        return lambda rt, L: code(rt, L) & mask

    def table(self, e: ast.EInlineTable) -> ExprCode:
        g, size, data, length = self.expr(e.index), e.size, e.data, len(e.data)
        mask = self.mask

        def read(rt, L):
            offset = g(rt, L)
            rt.counts.table += 1
            if offset + size > length:
                raise ExecutionError(
                    f"inline-table read of {size} byte(s) at offset {offset} "
                    f"exceeds table length {length}"
                )
            return int.from_bytes(data[offset : offset + size], "little") & mask

        return read

    # -- statements --

    def stmt(self, s: ast.Stmt) -> StmtCode:
        if isinstance(s, ast.SSeq):
            return self.seq(s)
        if isinstance(s, ast.SSet):
            return self.set(s)
        if isinstance(s, ast.SWhile):
            return self.loop(s)
        if isinstance(s, ast.SCond):
            return self.cond(s)
        if isinstance(s, ast.SStore):
            return self.store(s)
        if isinstance(s, ast.SSkip):
            return _skip
        if isinstance(s, ast.SUnset):
            return self.unset(s)
        if isinstance(s, ast.SStackalloc):
            return self.stackalloc(s)
        if isinstance(s, ast.SCall):
            return self.call(s)
        if isinstance(s, ast.SInteract):
            return self.interact(s)
        message = f"unknown statement node {s!r}"

        def unknown(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            raise ExecutionError(message)

        return unknown

    def seq(self, s: ast.SSeq) -> StmtCode:
        # Every leaf checks fuel at its own entry, and an SSeq's entry check
        # sees the same fuel as its first leaf's, so the chain flattens.  A
        # skip is only a fuel check: it is dropped unless it is last.
        leaves: List[ast.Stmt] = []
        pending = [s]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.SSeq):
                pending.append(node.second)
                pending.append(node.first)
            else:
                leaves.append(node)
        kept = [leaf for leaf in leaves[:-1] if not isinstance(leaf, ast.SSkip)]
        codes = tuple(self.stmt(leaf) for leaf in kept + leaves[-1:])
        if len(codes) == 1:
            return codes[0]
        if len(codes) == 2:
            first, second = codes
            return lambda rt, L, fuel: second(rt, L, first(rt, L, fuel))

        def run_seq(rt, L, fuel):
            for code in codes:
                fuel = code(rt, L, fuel)
            return fuel

        return run_seq

    def set(self, s: ast.SSet) -> StmtCode:
        lhs = s.lhs
        if isinstance(s.rhs, ast.EVar):
            name = s.rhs.name

            def set_var(rt, L, fuel):
                if fuel <= 0:
                    raise OutOfFuel(_FUEL)
                try:
                    L[lhs] = L[name]
                except KeyError as exc:
                    raise _unbound(exc) from None
                rt.counts.assign += 1
                return fuel - 1

            return set_var
        if isinstance(s.rhs, ast.ELit):
            value = s.rhs.value & self.mask

            def set_lit(rt, L, fuel):
                if fuel <= 0:
                    raise OutOfFuel(_FUEL)
                L[lhs] = value
                rt.counts.assign += 1
                return fuel - 1

            return set_lit
        g = self.expr(s.rhs)

        def set_expr(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            try:
                L[lhs] = g(rt, L)
            except KeyError as exc:
                raise _unbound(exc) from None
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            rt.counts.assign += 1
            return fuel - 1

        return set_expr

    def unset(self, s: ast.SUnset) -> StmtCode:
        name = s.name

        def unset(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            L.pop(name, None)
            return fuel - 1

        return unset

    def store(self, s: ast.SStore) -> StmtCode:
        size, g, h = s.size, self.expr(s.addr), self.expr(s.value)

        def store(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            try:
                addr = g(rt, L)
                value = h(rt, L)
                rt.counts.store += 1
                rt.memory.store(addr, size, value)
            except KeyError as exc:
                raise _unbound(exc) from None
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            return fuel - 1

        return store

    def cond(self, s: ast.SCond) -> StmtCode:
        test, then_, else_ = self.expr(s.cond), self.stmt(s.then_), self.stmt(s.else_)

        def cond(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            try:
                taken = test(rt, L)
            except KeyError as exc:
                raise _unbound(exc) from None
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            rt.counts.branch += 1
            if taken:
                return then_(rt, L, fuel - 1)
            return else_(rt, L, fuel - 1)

        return cond

    def loop(self, s: ast.SWhile) -> StmtCode:
        test, body = self.expr(s.cond), self.stmt(s.body)

        def loop(rt, L, fuel):
            counts = rt.counts
            while True:
                if fuel <= 0:
                    raise OutOfFuel(_FUEL)
                try:
                    taken = test(rt, L)
                except KeyError as exc:
                    raise _unbound(exc) from None
                except MemoryError_ as exc:
                    raise ExecutionError(str(exc)) from None
                counts.branch += 1
                fuel -= 1
                if not taken:
                    return fuel
                fuel = body(rt, L, fuel)

        return loop

    def stackalloc(self, s: ast.SStackalloc) -> StmtCode:
        lhs, nbytes, mask, body = s.lhs, s.nbytes, self.mask, self.stmt(s.body)

        def stackalloc(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            rt.counts.stackalloc += 1
            memory = rt.memory
            try:
                base = memory.allocate_stack(nbytes)
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            memory.store_bytes(base, rt.stack_init(nbytes))
            L[lhs] = base & mask
            fuel = body(rt, L, fuel - 1)
            memory.free(base)
            return fuel

        return stackalloc

    def call(self, s: ast.SCall) -> StmtCode:
        func, lhss, width = s.func, s.lhss, self.width
        args = tuple(self.expr(arg) for arg in s.args)

        def call(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            rt.counts.call += 1
            try:
                values = [arg(rt, L) for arg in args]
            except KeyError as exc:
                raise _unbound(exc) from None
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            words = [Word(width, value) for value in values]
            rets = rt.interp.call_function(func, words, rt.state, fuel - 1)
            if len(rets) != len(lhss):
                raise ExecutionError(
                    f"{func} returned {len(rets)} values, expected {len(lhss)}"
                )
            for name, ret in zip(lhss, rets):
                L[name] = ret.unsigned
            return fuel - 1

        return call

    def interact(self, s: ast.SInteract) -> StmtCode:
        action, lhss, width = s.action, s.lhss, self.width
        args = tuple(self.expr(arg) for arg in s.args)

        def interact(rt, L, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL)
            external = rt.external
            if external is None:
                raise ExecutionError(f"no external handler for action {action!r}")
            rt.counts.interact += 1
            try:
                values = [arg(rt, L) for arg in args]
            except KeyError as exc:
                raise _unbound(exc) from None
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            # The handler sees (and may edit) the frame as words, as it
            # does under the tree-walker.
            frame = MachineState(
                rt.memory, {k: Word(width, v) for k, v in L.items()}, rt.trace
            )
            rets = list(external(action, [Word(width, v) for v in values], frame))
            L.clear()
            L.update((k, v.unsigned) for k, v in frame.locals.items())
            rt.trace.append(
                IOEvent(action, tuple(values), tuple(ret.unsigned for ret in rets))
            )
            if len(rets) != len(lhss):
                raise ExecutionError(
                    f"action {action!r} returned {len(rets)} values, "
                    f"expected {len(lhss)}"
                )
            for name, ret in zip(lhss, rets):
                L[name] = ret.unsigned
            return fuel - 1

        return interact


def _skip(rt, L, fuel):
    if fuel <= 0:
        raise OutOfFuel(_FUEL)
    return fuel
