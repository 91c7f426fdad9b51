"""A fuel-based big-step interpreter for Bedrock2.

Bedrock2's semantics (Box 2 of the paper) split program state into three
parts: a flat memory, the current function's locals (a map from names to
machine words), and an event trace of externally observable interactions.
Loops only have meaning when they terminate, so the interpreter carries
*fuel*; a successful run is therefore a total-correctness witness, which is
exactly the property Rupicola's derivations claim.

The interpreter doubles as the cost model for the Figure 2 reproduction:
it counts each primitive operation it executes (arithmetic, loads, stores,
assignments, branches), and the benchmark harness turns those counters
into "cycles per byte"-shaped numbers under several weightings.

``exec_stmt``/``eval_expr`` below are the tree-walker, the reference
semantics.  ``Interpreter.call_function`` runs whole function bodies on
the executor of :mod:`repro.bedrock2.closures`, which compiles each
function once into a generated Python function and matches the
tree-walker observably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.memory import Memory, MemoryError_
from repro.bedrock2.word import Word


class ExecutionError(Exception):
    """The program's behaviour is undefined (bad variable, bad access, ...)."""


#: The comparisons as Python booleans; as operators their value is 1 or 0.
OP_TESTS: Dict[str, str] = {
    # flipping the sign bit maps signed order onto unsigned order
    "lts": "{a} ^ {sign} < {b} ^ {sign}",
    "ltu": "{a} < {b}",
    "eq": "{a} == {b}",
}

#: Each binary operator as a Python expression over masked ``width``-bit
#: operands ``{a}`` and ``{b}`` (names or parenthesized expressions); the
#: value is masked too.  ``{mask}``, ``{sign}`` and ``{width}`` are the
#: width's constants.  Shift amounts are taken mod the width and division
#: by zero follows RISC-V, exactly as the :class:`Word` methods do.
OP_TEMPLATES: Dict[str, str] = {
    "add": "({a} + {b}) & {mask}",
    "sub": "({a} - {b}) & {mask}",
    "mul": "({a} * {b}) & {mask}",
    "mulhuu": "({a} * {b}) >> {width}",
    "divu": "{a} // {b} if {b} else {mask}",
    "remu": "{a} % {b} if {b} else {a}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "sru": "{a} >> ({b} % {width})",
    "slu": "({a} << ({b} % {width})) & {mask}",
    # (a ^ sign) - sign is a's two's-complement value
    "srs": "((({a} ^ {sign}) - {sign}) >> ({b} % {width})) & {mask}",
    **{op: f"1 if {test} else 0" for op, test in OP_TESTS.items()},
}


def render_op(op: str, lhs: str, rhs: str, width: int, test: bool = False) -> str:
    """``op`` applied to the Python expressions ``lhs`` and ``rhs``, as a
    parenthesized Python expression; with ``test``, a comparison renders
    as a boolean instead of 1 or 0."""
    template = OP_TESTS[op] if test else OP_TEMPLATES[op]
    mask = (1 << width) - 1
    return "(" + template.format(
        a=lhs, b=rhs, mask=mask, sign=1 << (width - 1), width=width
    ) + ")"


#: The single source of truth for operator semantics, per word width:
#: ``RAW_OPS[width][op](a, b)`` on masked ints, each built from its
#: template.  :func:`apply_op` (and so the tree-walker and the optimizer's
#: constant folder) dispatches through it, and the executor
#: (:mod:`repro.bedrock2.closures`) inlines the same templates.
RAW_OPS: Dict[int, Dict[str, Callable[[int, int], int]]] = {
    width: {
        # The templates are this module's own constants, not program text.
        op: eval(f"lambda a, b: {render_op(op, 'a', 'b', width)}")
        for op in OP_TEMPLATES
    }
    for width in (8, 16, 32, 64)
}


def apply_op(op: str, lhs: Word, rhs: Word) -> Word:
    """Evaluate one Bedrock2 binary operator on machine words.

    The tree-walker calls it per ``EOp`` and the optimizer's constant
    folder (:mod:`repro.opt.passes`) calls it at compile time; both go
    through :data:`RAW_OPS`, whose templates the executor inlines, so
    folded literals are bit-exact by construction.
    """
    width = lhs.width
    raw = RAW_OPS[width].get(op)
    if raw is None:
        raise ExecutionError(f"unknown operator {op!r}")
    if rhs.width != width:
        raise ValueError(f"width mismatch: {width} vs {rhs.width}")
    return Word(width, raw(lhs.unsigned, rhs.unsigned))


class OutOfFuel(ExecutionError):
    """The fuel bound was exhausted: no total-correctness witness produced."""


@dataclass(frozen=True)
class IOEvent:
    """One entry of the Bedrock2 event trace."""

    action: str
    args: Tuple[int, ...]
    rets: Tuple[int, ...]


@dataclass
class OpCounts:
    """Primitive-operation counters, the basis of the Figure 2 cost models."""

    arith: int = 0
    load: int = 0
    store: int = 0
    assign: int = 0
    branch: int = 0
    call: int = 0
    interact: int = 0
    stackalloc: int = 0
    table: int = 0

    def total(self) -> int:
        return (
            self.arith
            + self.load
            + self.store
            + self.assign
            + self.branch
            + self.call
            + self.interact
            + self.stackalloc
            + self.table
        )

    def weighted(self, weights: Dict[str, float]) -> float:
        """Total cost under a per-category weighting (a synthetic 'compiler')."""
        cost = 0.0
        for name, weight in weights.items():
            cost += weight * getattr(self, name)
        return cost

    def as_dict(self) -> Dict[str, int]:
        return {
            "arith": self.arith,
            "load": self.load,
            "store": self.store,
            "assign": self.assign,
            "branch": self.branch,
            "call": self.call,
            "interact": self.interact,
            "stackalloc": self.stackalloc,
            "table": self.table,
        }


@dataclass
class MachineState:
    """Memory + locals + trace: the three components of Bedrock2 state."""

    memory: Memory
    locals: Dict[str, Word] = field(default_factory=dict)
    trace: List[IOEvent] = field(default_factory=list)


ExternalHandler = Callable[[str, Sequence[Word], MachineState], Sequence[Word]]
StackInitPolicy = Callable[[int], bytes]


def zero_stack_init(nbytes: int) -> bytes:
    return bytes(nbytes)


#: The methods whose override makes an :class:`Interpreter` subclass run
#: on the tree-walker alone (the absint soundness audit overrides
#: ``exec_stmt`` to see every statement).
REFERENCE_HOOKS = ("exec_stmt", "eval_expr", "_apply_op", "call_function")


class Interpreter:
    """Executes Bedrock2 statements against a :class:`MachineState`.

    :meth:`exec_stmt` and :meth:`eval_expr` are the tree-walker, the
    reference semantics.  :meth:`call_function` (and so :meth:`run`)
    executes a function body on the generated executor of
    :mod:`repro.bedrock2.closures` instead, which matches the tree-walker
    on results, memory, trace, op counts, fuel and errors.  It falls back
    to the tree-walker for subclasses that override any of
    :data:`REFERENCE_HOOKS` and for argument words whose width is not the
    interpreter's.

    Parameters
    ----------
    program:
        Resolves ``SCall`` targets.
    width:
        Target word width in bits (32 or 64).
    external:
        Handler for ``SInteract`` events; receives the action name and
        argument words, may mutate state, and returns the result words.
    stack_init:
        Policy producing the initial contents of stack allocations
        (Bedrock2 leaves them nondeterministic; defaults to zeros).
    """

    DEFAULT_FUEL = 10_000_000

    def __init__(
        self,
        program: Optional[ast.Program] = None,
        width: int = 64,
        external: Optional[ExternalHandler] = None,
        stack_init: StackInitPolicy = zero_stack_init,
    ):
        if width not in (32, 64):
            raise ValueError("Bedrock2 targets are 32- or 64-bit")
        self.program = program or ast.Program()
        self.width = width
        self.external = external
        self.stack_init = stack_init
        self.counts = OpCounts()
        cls = type(self)
        self._tree_walk = any(
            getattr(cls, hook) is not getattr(Interpreter, hook) for hook in REFERENCE_HOOKS
        )

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
            return self._apply_op(expr.op, lhs, rhs)
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

    def _apply_op(self, op: str, lhs: Word, rhs: Word) -> Word:
        return apply_op(op, lhs, rhs)

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
        fn = self.program.function(name)
        if len(args) != len(fn.args):
            raise ExecutionError(
                f"{name} takes {len(fn.args)} arguments, got {len(args)}"
            )
        width = self.width
        if not self._tree_walk and all(
            isinstance(arg, Word) and arg.width == width for arg in args
        ):
            return closures.call(self, fn, args, state, fuel)
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

    def run(
        self,
        fn_name: str,
        args: Sequence[Word],
        memory: Optional[Memory] = None,
        fuel: int = DEFAULT_FUEL,
    ) -> Tuple[List[Word], MachineState]:
        """Convenience entry point: run one function on a fresh state."""
        state = MachineState(memory=memory if memory is not None else Memory(self.width))
        rets = self.call_function(fn_name, args, state, fuel)
        return rets, state


# Imported last: the executor builds on the names defined above.
from repro.bedrock2 import closures  # noqa: E402
