"""Spec-driven execution of Bedrock2 functions and functional models.

The ``FnSpec`` is the single source of truth for the ABI: the same spec
that seeded the compiler's symbolic precondition tells the runner how to
lay out memory, pass arguments, and read results back.  Anything the
compiled code touches outside that layout is an immediate
``ExecutionError`` (the memory model only maps declared regions), which
operationally enforces the separation-logic frame.
"""

from __future__ import annotations

import operator
import random
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import Interpreter, IOEvent, MachineState, OpCounts
from repro.bedrock2.word import Word
from repro.core.spec import ArgKind, FnSpec, Model, OutKind
from repro.source.evaluator import CellV, EffectContext, Evaluator, default_oracle
from repro.source.types import SourceType, TypeKind


@dataclass
class RunResult:
    """Everything observable from one target-function execution."""

    rets: List[int]
    out_memory: Dict[str, List[int]]  # final contents per pointer param
    trace: List[IOEvent]
    counts: OpCounts


def _elem_size(ty: SourceType, width: int) -> int:
    return ty.elem_size(width // 8)


#: ``struct`` codes for little-endian unsigned elements of each byte size.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _array_format(count: int, size: int) -> str:
    return f"<{count}{_STRUCT_CODES[size]}"


def _encode_composite(value, ty: SourceType, width: int) -> bytes:
    size = _elem_size(ty, width)
    if ty.kind is TypeKind.CELL:
        assert isinstance(value, CellV)
        return int(value.value).to_bytes(size, "little")
    try:
        return struct.pack(_array_format(len(value), size), *value)
    except struct.error as exc:
        raise OverflowError(f"cannot encode an array element in {size} byte(s): {exc}") from exc


def _decode_composite(data: bytes, ty: SourceType, width: int):
    size = _elem_size(ty, width)
    if ty.kind is TypeKind.CELL:
        return CellV(int.from_bytes(data, "little"))
    return list(struct.unpack(_array_format(len(data) // size, size), data))


_Pointers = Dict[str, Tuple[int, int, SourceType]]


def _place_args(
    spec: FnSpec, param_values: Dict[str, object], memory: Memory, width: int
) -> Tuple[List[int], _Pointers]:
    """Lay the spec's arguments out in ``memory``: the argument values in
    order (masked to ``width``) and each pointer's (base, bytes, type)."""
    mask = (1 << width) - 1
    args: List[int] = []
    pointers: _Pointers = {}
    for arg in spec.args:
        value = param_values[arg.param]
        if arg.kind is ArgKind.POINTER:
            encoded = _encode_composite(value, arg.ty, width)
            base = (
                memory.place_bytes(encoded, label=arg.name)
                if encoded
                else memory.allocate(0, label=arg.name)
            )
            pointers[arg.param] = (base, len(encoded), arg.ty)
            args.append(base)
        elif arg.kind is ArgKind.LENGTH:
            args.append(len(value))  # type: ignore[arg-type]
        else:
            scalar = value.value if isinstance(value, CellV) else value
            args.append(int(scalar) & mask)  # type: ignore[call-overload]
    return args, pointers


def _read_back(memory: Memory, pointers: _Pointers, width: int) -> Dict[str, List[int]]:
    """The final contents of every pointer argument, decoded by type."""
    return {
        param: _decode_composite(memory.load_bytes(base, nbytes), ty, width)
        for param, (base, nbytes, ty) in pointers.items()
    }


def run_function(
    fn: ast.Function,
    spec: FnSpec,
    param_values: Dict[str, object],
    width: int = 64,
    io_input: Optional[Iterator[int]] = None,
    stack_init=None,
    program: Optional[ast.Program] = None,
    fuel: int = Interpreter.DEFAULT_FUEL,
    interpreter_cls: type = Interpreter,
) -> RunResult:
    """Run ``fn`` under the memory layout ``spec`` declares.

    ``interpreter_cls`` substitutes an :class:`Interpreter` subclass; the
    run starts at its ``call_function``.  It is a test seam: the
    equivalence suites pass the tree-walker oracle
    (``tests/bedrock2/tree_walker.py``) to compare it with the generated
    executor, and the absint soundness suite passes a subclass of that
    oracle whose ``exec_stmt`` asserts every live local against the
    analyzer's per-statement ranges.
    """
    memory = Memory(width)
    args, pointers = _place_args(spec, param_values, memory, width)

    reads = io_input if io_input is not None else iter(())

    def external(action: str, args: Sequence[Word], state: MachineState) -> List[Word]:
        if action == "read":
            try:
                return [Word(width, next(reads))]
            except StopIteration:
                raise RuntimeError(
                    "target performed more reads than provided"
                ) from None
        if action in ("write", "tell"):
            return []
        raise RuntimeError(f"unknown external action {action!r}")

    interp = interpreter_cls(
        program or ast.Program((fn,)),
        width=width,
        external=external,
        stack_init=stack_init or (lambda n: bytes(n)),
    )
    state = MachineState(memory)
    rets = interp.call_function(fn.name, [Word(width, arg) for arg in args], state, fuel)
    return RunResult(
        rets=[r.unsigned for r in rets],
        out_memory=_read_back(memory, pointers, width),
        trace=list(state.trace),
        counts=interp.counts,
    )


def run_function_riscv(
    fn: ast.Function,
    spec: FnSpec,
    param_values: Dict[str, object],
    width: int = 64,
    max_instructions: int = 20_000_000,
    program=None,
) -> RunResult:
    """Run ``fn`` through the RISC-V backend under the same ABI layout.

    Shares :func:`run_function`'s argument placement and read-back, but
    executes the compiled RV64IM code on the simulator instead of
    interpreting the Bedrock2 AST, so the fuzzer can close the loop at
    the machine-code level.  The RISC-V
    ABI returns at most two scalar values (``a0``/``a1``); functions with
    more return values are not supported here.
    """
    from repro.riscv import Machine
    from repro.riscv import compile_function as rv_compile

    if len(fn.rets) > 2:
        raise ValueError("RISC-V runner supports at most two return values")
    memory = Memory(width)
    args, pointers = _place_args(spec, param_values, memory, width)
    compiled = program or rv_compile(fn)
    machine = Machine(compiled, memory)
    rets = machine.run_function(fn.name, args, max_instructions=max_instructions)
    return RunResult(
        rets=list(rets[: len(fn.rets)]),
        out_memory=_read_back(memory, pointers, width),
        trace=[],
        counts=OpCounts(),
    )


@dataclass
class ModelResult:
    """The functional model's observable behaviour on the same inputs."""

    outputs: List[object]  # aligned with spec.outputs
    io_output: List[int]
    writer_output: List[int]
    reads_consumed: int
    error: bool = False


def eval_model(
    model: Model,
    spec: FnSpec,
    param_values: Dict[str, object],
    width: int = 64,
    io_input: Optional[Sequence[int]] = None,
    oracle=None,
) -> ModelResult:
    """Evaluate the model and align its results with the spec's outputs."""
    inputs = list(io_input) if io_input else []
    reads = iter(inputs)
    fx = EffectContext(reads, [], [], None, default_oracle if oracle is None else oracle)
    # The evaluator reads ``param_values`` and never writes it.
    result = Evaluator(width).eval(model.term, param_values, fx)
    components = list(result) if isinstance(result, tuple) else [result]
    outputs = spec.outputs
    flags = [index for index, output in enumerate(outputs)
             if output.kind is OutKind.ERROR_FLAG]
    if len(components) != len(outputs) - len(flags):
        raise ValueError(
            f"model produced {len(components)} outputs, spec declares "
            f"{len(outputs) - len(flags)} value output(s)"
        )
    # Weave the error flag (an ambient effect, not a model component)
    # into its declared positions.
    for index in flags:
        components.insert(index, 0 if fx.error else 1)
    return ModelResult(
        components,
        fx.io_output,
        fx.writer_output,
        len(inputs) - operator.length_hint(reads) if inputs else 0,
        fx.error,
    )


def make_inputs(
    model: Model, rng: random.Random, array_len: int = 16
) -> Dict[str, object]:
    """Random parameter values matching the model's parameter types."""
    values: Dict[str, object] = {}
    for name, ty in model.params:
        if ty.kind is TypeKind.ARRAY:
            assert ty.elem is not None
            limit = 1 << (8 * ty.elem.scalar_size(8))
            values[name] = [rng.randrange(limit) for _ in range(array_len)]
        elif ty.kind is TypeKind.CELL:
            values[name] = CellV(rng.getrandbits(32))
        elif ty.kind is TypeKind.BOOL:
            values[name] = bool(rng.getrandbits(1))
        elif ty.kind is TypeKind.BYTE:
            values[name] = rng.randrange(256)
        elif ty.kind is TypeKind.NAT:
            values[name] = rng.randrange(array_len + 1)
        else:
            values[name] = rng.getrandbits(64)
    return values
