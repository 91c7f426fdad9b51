"""A syntax-directed Bedrock2-to-RV64IM compiler.

This plays the role of Bedrock2's verified RISC-V backend in the paper's
pipeline (unverified here; differentially tested against the Bedrock2
interpreter).  The code generator is deliberately simple and predictable,
like the real one:

- locals live in stack slots addressed off a frame pointer (``s0``);
- expressions evaluate on a register stack ``t0..t6`` (deeply nested
  expressions beyond seven levels are rejected -- Bedrock2 programs are
  sequences of small assignments, so this never triggers in practice);
- inline tables are laid out in a read-only data segment and indexed
  like ordinary memory;
- ``SInteract`` becomes an ``ecall`` with the action number in ``a7``.

Calling convention: arguments in ``a0..a7``, results in ``a0``/``a1``,
``ra`` saved in the prologue; everything is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.bedrock2 import ast
from repro.riscv.isa import Instr, REG_NUM

ZERO = REG_NUM["zero"]
RA = REG_NUM["ra"]
SP = REG_NUM["sp"]
FP = REG_NUM["s0"]
A_REGS = [REG_NUM[f"a{i}"] for i in range(8)]
T_REGS = [REG_NUM[name] for name in ("t0", "t1", "t2", "t3", "t4", "t5", "t6")]
# Callee-saved registers used as a per-function constant pool (saved and
# restored in the prologue/epilogue).
POOL_REGS = [REG_NUM[name] for name in ("s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9")]

_BINOPS = {
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "mulhuu": "mulhu",
    "divu": "divu",
    "remu": "remu",
    "and": "and",
    "or": "or",
    "xor": "xor",
    "sru": "srl",
    "slu": "sll",
    "srs": "sra",
    "ltu": "sltu",
    "lts": "slt",
}

_LOADS = {1: "lbu", 2: "lhu", 4: "lwu", 8: "ld"}
_STORES = {1: "sb", 2: "sh", 4: "sw", 8: "sd"}


class CompileError(Exception):
    """The Bedrock2 program does not fit this backend's restrictions."""


# Pseudo-instructions resolved by the layout pass.
@dataclass
class Label:
    id: int


@dataclass
class Branch:  # conditional branch to a label
    name: str
    rs1: int
    rs2: int
    target: int


@dataclass
class Jump:  # unconditional jump to a label
    target: int


@dataclass
class CallFixup:  # jal to another function, resolved at link time
    func: str


Emitted = Union[Instr, Label, Branch, Jump, CallFixup]


@dataclass
class CompiledProgram:
    """Linked RV64 code plus its data segment and action table."""

    instrs: List[Instr]
    entry_points: Dict[str, int]  # function name -> instruction index
    data: bytes
    data_base: int
    actions: List[str]  # index = a7 value for SInteract ecalls

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.instrs)


class _FunctionCompiler:
    def __init__(self, fn: ast.Function, tables: Dict[bytes, int], actions: List[str]):
        self.fn = fn
        self.tables = tables  # table bytes -> absolute data address
        self.actions = actions
        self.out: List[Emitted] = []
        self.slots: Dict[str, int] = {}
        self._label_counter = 0
        for name in fn.args:
            self._slot(name)
        for stmt in ast.walk_stmts(fn.body):
            for name in ast.defined_names(stmt):
                self._slot(name)
        for name in fn.rets:
            self._slot(name)
        # Constant pool: wide literals are materialized once into saved
        # registers (what a C compiler's loop-invariant hoisting does),
        # instead of byte-by-byte at every use.
        self.pool: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for expr in ast.walk_exprs(fn.body):
            if isinstance(expr, ast.ELit):
                value = expr.value & ((1 << 64) - 1)
                signed = value - (1 << 64) if value >> 63 else value
                if not -2048 <= signed <= 2047:
                    counts[value] = counts.get(value, 0) + 1
        widest = sorted(counts, key=lambda v: (-counts[v], v))
        for value in widest[: len(POOL_REGS)]:
            self.pool[value] = POOL_REGS[len(self.pool)]

    # -- Bookkeeping -----------------------------------------------------------

    def _slot(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def _fresh_label(self) -> int:
        self._label_counter += 1
        return self._label_counter

    def _slot_offset(self, name: str) -> int:
        # fp-8/fp-16 hold the saved ra/s0, then the pool saves, then locals.
        return -8 * (self.slots[name] + 3 + len(self.pool))

    @property
    def frame_size(self) -> int:
        # Locals + saved ra + saved s0 + saved pool registers, aligned.
        raw = 8 * len(self.slots) + 16 + 8 * len(self.pool)
        return (raw + 15) & ~15

    # -- Emission helpers ---------------------------------------------------------

    def emit(self, instr: Emitted) -> None:
        self.out.append(instr)

    def li(self, reg: int, value: int) -> None:
        """Materialize a 64-bit constant."""
        value &= (1 << 64) - 1
        signed = value - (1 << 64) if value >> 63 else value
        if -2048 <= signed <= 2047:
            self.emit(Instr("addi", reg, ZERO, signed))
            return
        # Build byte-by-byte from the most significant nonzero byte.
        started = False
        for index in range(7, -1, -1):
            byte = (value >> (8 * index)) & 0xFF
            if not started:
                if byte == 0:
                    continue
                self.emit(Instr("addi", reg, ZERO, byte))
                started = True
            else:
                self.emit(Instr("slli", reg, reg, 8))
                if byte:
                    self.emit(Instr("ori", reg, reg, byte))
        if not started:
            self.emit(Instr("addi", reg, ZERO, 0))

    def load_local(self, reg: int, name: str) -> None:
        if name not in self.slots:
            raise CompileError(f"unbound Bedrock2 local {name!r}")
        self.emit(Instr("ld", reg, FP, self._slot_offset(name)))

    def store_local(self, reg: int, name: str) -> None:
        self.emit(Instr("sd", reg, FP, self._slot_offset(name)))

    # -- Expressions -----------------------------------------------------------------

    def expr(self, node: ast.Expr, depth: int) -> int:
        """Evaluate ``node`` into a temporary; returns the register."""
        if depth >= len(T_REGS) - 1:
            raise CompileError("expression too deep for the register stack")
        reg = T_REGS[depth]
        if isinstance(node, ast.ELit):
            pooled = self.pool.get(node.value & ((1 << 64) - 1))
            if pooled is not None:
                return pooled
            self.li(reg, node.value)
            return reg
        if isinstance(node, ast.EVar):
            self.load_local(reg, node.name)
            return reg
        if isinstance(node, ast.ELoad):
            addr = self.expr(node.addr, depth)
            self.emit(Instr(_LOADS[node.size], reg, addr, 0))
            return reg
        if isinstance(node, ast.EInlineTable):
            index = self.expr(node.index, depth)
            base_reg = T_REGS[depth + 1]
            self.li(base_reg, self.tables[node.data])
            self.emit(Instr("add", reg, index, base_reg))
            self.emit(Instr(_LOADS[node.size], reg, reg, 0))
            return reg
        if isinstance(node, ast.EOp):
            lhs = self.expr(node.lhs, depth)
            rhs = self.expr(node.rhs, depth + 1)
            if node.op in _BINOPS:
                self.emit(Instr(_BINOPS[node.op], reg, lhs, rhs))
            elif node.op == "eq":
                self.emit(Instr("xor", reg, lhs, rhs))
                self.emit(Instr("sltiu", reg, reg, 1))
            else:
                raise CompileError(f"operator {node.op!r} not supported")
            return reg
        raise CompileError(f"cannot compile expression {node!r}")

    # -- Statements --------------------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> None:
        if isinstance(node, ast.SSkip):
            return
        if isinstance(node, ast.SUnset):
            return
        if isinstance(node, ast.SSet):
            reg = self.expr(node.rhs, 0)
            self.store_local(reg, node.lhs)
            return
        if isinstance(node, ast.SStore):
            addr = self.expr(node.addr, 0)
            value = self.expr(node.value, 1)
            self.emit(Instr(_STORES[node.size], value, addr, 0))
            return
        if isinstance(node, ast.SSeq):
            self.stmt(node.first)
            self.stmt(node.second)
            return
        if isinstance(node, ast.SCond):
            cond = self.expr(node.cond, 0)
            else_label = self._fresh_label()
            end_label = self._fresh_label()
            self.emit(Branch("beq", cond, ZERO, else_label))
            self.stmt(node.then_)
            self.emit(Jump(end_label))
            self.emit(Label(else_label))
            self.stmt(node.else_)
            self.emit(Label(end_label))
            return
        if isinstance(node, ast.SWhile):
            head_label = self._fresh_label()
            end_label = self._fresh_label()
            self.emit(Label(head_label))
            cond = self.expr(node.cond, 0)
            self.emit(Branch("beq", cond, ZERO, end_label))
            self.stmt(node.body)
            self.emit(Jump(head_label))
            self.emit(Label(end_label))
            return
        if isinstance(node, ast.SStackalloc):
            aligned = (node.nbytes + 15) & ~15
            self.emit(Instr("addi", SP, SP, -aligned))
            self.emit(Instr("addi", T_REGS[0], SP, 0))
            self.store_local(T_REGS[0], node.lhs)
            self.stmt(node.body)
            self.emit(Instr("addi", SP, SP, aligned))
            return
        if isinstance(node, ast.SCall):
            if len(node.args) > len(A_REGS):
                raise CompileError("too many call arguments")
            for index, arg in enumerate(node.args):
                reg = self.expr(arg, index)
                if index >= len(T_REGS) - 1:
                    raise CompileError("too many call arguments for temporaries")
            for index in range(len(node.args)):
                self.emit(Instr("add", A_REGS[index], T_REGS[index], ZERO))
            self.emit(CallFixup(node.func))
            for index, lhs in enumerate(node.lhss[:2]):
                self.store_local(A_REGS[index], lhs)
            if len(node.lhss) > 2:
                raise CompileError("at most two call results supported")
            return
        if isinstance(node, ast.SInteract):
            if node.action not in self.actions:
                self.actions.append(node.action)
            action_id = self.actions.index(node.action)
            for index, arg in enumerate(node.args):
                reg = self.expr(arg, index)
            for index in range(len(node.args)):
                self.emit(Instr("add", A_REGS[index], T_REGS[index], ZERO))
            self.li(REG_NUM["a7"], action_id)
            self.emit(Instr("ecall"))
            for index, lhs in enumerate(node.lhss[:2]):
                self.store_local(A_REGS[index], lhs)
            return
        raise CompileError(f"cannot compile statement {node!r}")

    # -- Whole function -----------------------------------------------------------------

    def compile(self) -> List[Emitted]:
        frame = self.frame_size
        self.emit(Instr("addi", SP, SP, -frame))
        self.emit(Instr("sd", RA, SP, frame - 8))
        self.emit(Instr("sd", FP, SP, frame - 16))
        self.emit(Instr("addi", FP, SP, frame))
        for index, (value, reg) in enumerate(self.pool.items()):
            self.emit(Instr("sd", reg, SP, frame - 24 - 8 * index))
            self.li(reg, value)
        for index, name in enumerate(self.fn.args):
            if index >= len(A_REGS):
                raise CompileError("too many function arguments")
            self.store_local(A_REGS[index], name)
        self.stmt(self.fn.body)
        for index, name in enumerate(self.fn.rets[:2]):
            self.load_local(T_REGS[0], name)
            self.emit(Instr("add", A_REGS[index], T_REGS[0], ZERO))
        if len(self.fn.rets) > 2:
            raise CompileError("at most two results supported")
        for index, (_value, reg) in enumerate(self.pool.items()):
            self.emit(Instr("ld", reg, SP, frame - 24 - 8 * index))
        self.emit(Instr("ld", RA, SP, frame - 8))
        self.emit(Instr("ld", FP, SP, frame - 16))
        self.emit(Instr("addi", SP, SP, frame))
        self.emit(Instr("jalr", ZERO, RA, 0))
        return self.out


def compile_program(
    program: ast.Program, data_base: int = 0x4000
) -> CompiledProgram:
    """Compile and link a whole Bedrock2 program."""
    tables = dict.fromkeys(
        contents for fn in program.functions for contents in ast.inline_tables(fn.body)
    )
    data = bytearray()
    table_addrs: Dict[bytes, int] = {}
    for contents in tables:
        table_addrs[contents] = data_base + len(data)
        data.extend(contents)
        while len(data) % 8:
            data.append(0)

    actions: List[str] = []
    chunks: List[Tuple[str, List[Emitted]]] = []
    for fn in program.functions:
        compiler = _FunctionCompiler(fn, table_addrs, actions)
        chunks.append((fn.name, compiler.compile()))

    # Layout pass: assign instruction indices, resolve labels per function.
    instrs: List[Instr] = []
    entry_points: Dict[str, int] = {}
    fixups: List[Tuple[int, str]] = []  # (instruction index, callee)
    for name, emitted in chunks:
        entry_points[name] = len(instrs)
        label_at: Dict[int, int] = {}
        position = len(instrs)
        pending: List[Tuple[int, Emitted]] = []
        # First sub-pass: compute label addresses.
        cursor = position
        for item in emitted:
            if isinstance(item, Label):
                label_at[item.id] = cursor
            else:
                cursor += 1
        # Second sub-pass: emit with offsets.
        cursor = position
        for item in emitted:
            if isinstance(item, Label):
                continue
            if isinstance(item, Branch):
                offset = 4 * (label_at[item.target] - cursor)
                instrs.append(Instr(item.name, item.rs1, item.rs2, offset))
            elif isinstance(item, Jump):
                offset = 4 * (label_at[item.target] - cursor)
                instrs.append(Instr("jal", ZERO, offset))
            elif isinstance(item, CallFixup):
                fixups.append((cursor, item.func))
                instrs.append(Instr("jal", RA, 0))  # patched below
            else:
                instrs.append(item)
            cursor += 1
    for index, callee in fixups:
        if callee not in entry_points:
            raise CompileError(f"call to unknown function {callee!r}")
        offset = 4 * (entry_points[callee] - index)
        instrs[index] = Instr("jal", RA, offset)
    return CompiledProgram(
        instrs=instrs,
        entry_points=entry_points,
        data=bytes(data),
        data_base=data_base,
        actions=actions,
    )


def compile_function(fn: ast.Function, **kwargs) -> CompiledProgram:
    return compile_program(ast.Program((fn,)), **kwargs)
