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

This module holds the state, the counters and the operator table;
``Interpreter.call_function`` runs whole function bodies on the executor
of :mod:`repro.bedrock2.closures`, which compiles each function once into
a generated Python function.  That executor is the trusted semantics.
The tree-walker it replaced, one ``isinstance`` case per AST form, is
kept as a test oracle in ``tests/bedrock2/tree_walker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.memory import Memory
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


#: How a template whose value needs masking ends.
_MASKED = ") & {mask}"


def render_op(
    op: str, lhs: str, rhs: str, width: int, test: bool = False, masked: bool = True
) -> str:
    """``op`` applied to the Python expressions ``lhs`` and ``rhs``, as a
    parenthesized Python expression; with ``test``, a comparison renders
    as a boolean instead of 1 or 0.  Without ``masked``, a template
    ``(...) & {mask}`` renders as its parenthesized part: the caller has
    shown that part to be at most the mask already."""
    template = OP_TESTS[op] if test else OP_TEMPLATES[op]
    if not masked and template.endswith(_MASKED):
        template = template[1:-len(_MASKED)]
    mask = (1 << width) - 1
    return "(" + template.format(
        a=lhs, b=rhs, mask=mask, sign=1 << (width - 1), width=width
    ) + ")"


#: The single source of truth for operator semantics, per word width:
#: ``RAW_OPS[width][op](a, b)`` on masked ints, each built from its
#: template.  :func:`apply_op` (and so the optimizer's constant folder)
#: dispatches through it, and the executor (:mod:`repro.bedrock2.closures`)
#: inlines the same templates.
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

    The optimizer's constant folder (:mod:`repro.opt.passes`) calls it
    at compile time.  It goes through :data:`RAW_OPS`, whose templates
    the executor inlines, so folded literals are bit-exact by
    construction.
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


class MachineState:
    """Memory + locals + trace: the three components of Bedrock2 state."""

    __slots__ = ("memory", "locals", "trace")

    def __init__(
        self,
        memory: Memory,
        locals: Optional[Dict[str, Word]] = None,
        trace: Optional[List[IOEvent]] = None,
    ):
        self.memory = memory
        self.locals = {} if locals is None else locals
        self.trace = [] if trace is None else trace

    def __repr__(self) -> str:
        return (f"MachineState(memory={self.memory!r}, locals={self.locals!r}, "
                f"trace={self.trace!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.memory, self.locals, self.trace) == (
            other.memory, other.locals, other.trace)

    __hash__ = None  # mutable, as the dataclass it replaced


ExternalHandler = Callable[[str, Sequence[Word], MachineState], Sequence[Word]]
StackInitPolicy = Callable[[int], bytes]


def zero_stack_init(nbytes: int) -> bytes:
    return bytes(nbytes)


class Interpreter:
    """Executes Bedrock2 functions against a :class:`MachineState`.

    :meth:`call_function` (and so :meth:`run`) executes a function body
    on the generated executor of :mod:`repro.bedrock2.closures`, the one
    executable semantics of Bedrock2 in this package.

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
        # name -> (function, its generated run, its arity), on first call
        self._runs: Dict[str, Tuple[ast.Function, Callable, int]] = {}

    def function(self, name: str, args: Sequence[Word]) -> ast.Function:
        """The function ``name`` resolves to, once ``args`` are checked to
        be as many words of the interpreter's width as it takes."""
        fn = self.program.function(name)
        if len(args) != len(fn.args):
            raise ExecutionError(
                f"{name} takes {len(fn.args)} arguments, got {len(args)}"
            )
        width = self.width
        for index, arg in enumerate(args):
            if not isinstance(arg, Word) or arg.width != width:
                raise ExecutionError(
                    f"{name}: argument {index} is not a {width}-bit Word: {arg!r}"
                )
        return fn

    def call_function(
        self,
        name: str,
        args: Sequence[Word],
        state: MachineState,
        fuel: int,
    ) -> List[Word]:
        """Call a Bedrock2 function with its own locals frame (memory is shared)."""
        entry = self._runs.get(name)
        if entry is None or len(args) != entry[2]:
            fn = self.function(name, args)
            entry = self._runs[name] = (
                fn, closures.compiled(fn, self.width).run, len(fn.args))
        width = self.width
        values = []
        for arg in args:
            if not isinstance(arg, Word) or arg.width != width:
                self.function(name, args)  # raises on the first foreign argument
            values.append(arg.unsigned)
        return [Word(width, ret) for ret in entry[1](self, state, fuel, *values)]

    def run(
        self,
        fn_name: str,
        args: Sequence[Word],
        memory: Optional[Memory] = None,
        fuel: int = DEFAULT_FUEL,
    ) -> Tuple[List[Word], MachineState]:
        """Convenience entry point: run one function on a fresh state."""
        state = MachineState(memory if memory is not None else Memory(self.width))
        return self.call_function(fn_name, args, state, fuel), state


# Imported last: the executor builds on the names defined above.
from repro.bedrock2 import closures  # noqa: E402
