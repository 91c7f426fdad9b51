"""Tests for the Bedrock2-to-RISC-V compiler and the RV64IM simulator.

The headline property: for random Bedrock2 programs, running the
compiled RISC-V code produces exactly the same results and final memory
as the Bedrock2 interpreter (the differential test the real Bedrock2
project replaces with a Coq proof).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock2 import ast as b2
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import Interpreter
from repro.bedrock2.word import Word
from repro.programs import all_programs
from repro.riscv import CompileError, Machine, MachineFault, compile_function, compile_program
from repro.riscv.isa import REG_NUM


def run_riscv(fn, args, memory=None, program=None, ecall_handler=None):
    compiled = program or compile_function(fn)
    machine = Machine(compiled, memory, ecall_handler=ecall_handler)
    rets = machine.run_function(fn.name, args)
    return rets, machine


def simple_fn(name, body, args=(), rets=()):
    return b2.Function(name, tuple(args), tuple(rets), body)


class TestBasicCodegen:
    def test_constant_return(self):
        fn = simple_fn("c", b2.SSet("r", b2.ELit(42)), rets=("r",))
        rets, _ = run_riscv(fn, [])
        assert rets[0] == 42

    def test_large_constant(self):
        value = 0xCBF29CE484222325
        fn = simple_fn("c", b2.SSet("r", b2.ELit(value)), rets=("r",))
        rets, _ = run_riscv(fn, [])
        assert rets[0] == value

    def test_argument_passthrough(self):
        fn = simple_fn("idf", b2.SSet("r", b2.EVar("x")), args=("x",), rets=("r",))
        rets, _ = run_riscv(fn, [7])
        assert rets[0] == 7

    def test_arithmetic(self):
        body = b2.SSet("r", b2.EOp("mul", b2.EVar("x"), b2.ELit(3)))
        fn = simple_fn("triple", body, args=("x",), rets=("r",))
        rets, _ = run_riscv(fn, [14])
        assert rets[0] == 42

    def test_eq_reifies(self):
        body = b2.SSet("r", b2.EOp("eq", b2.EVar("x"), b2.ELit(5)))
        fn = simple_fn("is5", body, args=("x",), rets=("r",))
        assert run_riscv(fn, [5])[0][0] == 1
        assert run_riscv(fn, [6])[0][0] == 0

    def test_signed_ops(self):
        body = b2.SSet("r", b2.EOp("lts", b2.EVar("x"), b2.ELit(0)))
        fn = simple_fn("isneg", body, args=("x",), rets=("r",))
        assert run_riscv(fn, [(1 << 64) - 1])[0][0] == 1  # -1 < 0
        assert run_riscv(fn, [1])[0][0] == 0

    def test_memory_roundtrip(self):
        body = b2.seq_of(
            b2.SStore(4, b2.EVar("p"), b2.ELit(0xDEADBEEF)),
            b2.SSet("r", b2.ELoad(4, b2.EVar("p"))),
        )
        fn = simple_fn("mem", body, args=("p",), rets=("r",))
        mem = Memory(64)
        base = mem.allocate(8)
        rets, _ = run_riscv(fn, [base], memory=mem)
        assert rets[0] == 0xDEADBEEF

    def test_conditional(self):
        body = b2.SCond(
            b2.EOp("ltu", b2.EVar("x"), b2.ELit(10)),
            b2.SSet("r", b2.ELit(1)),
            b2.SSet("r", b2.ELit(2)),
        )
        fn = simple_fn("cmp10", body, args=("x",), rets=("r",))
        assert run_riscv(fn, [3])[0][0] == 1
        assert run_riscv(fn, [30])[0][0] == 2

    def test_loop(self):
        body = b2.seq_of(
            b2.SSet("acc", b2.ELit(0)),
            b2.SSet("i", b2.ELit(0)),
            b2.SWhile(
                b2.EOp("ltu", b2.EVar("i"), b2.EVar("n")),
                b2.seq_of(
                    b2.SSet("acc", b2.EOp("add", b2.EVar("acc"), b2.EVar("i"))),
                    b2.SSet("i", b2.EOp("add", b2.EVar("i"), b2.ELit(1))),
                ),
            ),
        )
        fn = simple_fn("sumto", body, args=("n",), rets=("acc",))
        assert run_riscv(fn, [10])[0][0] == 45

    def test_inline_table(self):
        table = bytes([10, 20, 30, 40])
        body = b2.SSet("r", b2.EInlineTable(1, table, b2.EVar("i")))
        fn = simple_fn("tbl", body, args=("i",), rets=("r",))
        assert run_riscv(fn, [2])[0][0] == 30

    def test_stackalloc(self):
        body = b2.SStackalloc(
            "tmp",
            16,
            b2.seq_of(
                b2.SStore(8, b2.EVar("tmp"), b2.ELit(99)),
                b2.SSet("r", b2.ELoad(8, b2.EVar("tmp"))),
            ),
        )
        fn = simple_fn("stk", body, rets=("r",))
        assert run_riscv(fn, [])[0][0] == 99

    def test_function_call(self):
        callee = simple_fn(
            "double",
            b2.SSet("r", b2.EOp("add", b2.EVar("v"), b2.EVar("v"))),
            args=("v",),
            rets=("r",),
        )
        caller = simple_fn(
            "main",
            b2.SCall(("out",), "double", (b2.ELit(21),)),
            rets=("out",),
        )
        program = compile_program(b2.Program((callee, caller)))
        machine = Machine(program)
        assert machine.run_function("main", [])[0] == 42

    def test_call_unknown_function_rejected(self):
        fn = simple_fn("bad", b2.SCall((), "nope", ()))
        with pytest.raises(CompileError):
            compile_function(fn)

    def test_ecall(self):
        events = []

        def handler(action, machine):
            events.append((action, machine.get(REG_NUM["a0"])))
            machine.set(REG_NUM["a0"], 7)

        body = b2.SInteract(("r",), "read", (b2.ELit(123),))
        fn = simple_fn("io", body, rets=("r",))
        rets, _ = run_riscv(fn, [], ecall_handler=handler)
        assert rets[0] == 7
        assert events == [("read", 123)]

    def test_out_of_bounds_faults(self):
        fn = simple_fn("boom", b2.SSet("r", b2.ELoad(8, b2.ELit(0x99999))), rets=("r",))
        with pytest.raises(MachineFault):
            run_riscv(fn, [])

    def test_instruction_budget(self):
        fn = simple_fn("spin", b2.SWhile(b2.ELit(1), b2.SSkip()))
        program = compile_function(fn)
        machine = Machine(program)
        with pytest.raises(MachineFault):
            machine.run_function("spin", [], max_instructions=1000)


OPS = ["add", "sub", "mul", "and", "or", "xor", "sru", "slu", "ltu", "eq", "divu", "remu"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(OPS),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_alu_differential(op, a, b):
    """Each compiled ALU op agrees with the Bedrock2 interpreter."""
    body = b2.SSet("r", b2.EOp(op, b2.EVar("x"), b2.EVar("y")))
    fn = simple_fn(f"alu_{op}", body, args=("x", "y"), rets=("r",))
    interp = Interpreter(b2.Program((fn,)))
    want, _ = interp.run(fn.name, [Word(64, a), Word(64, b)])
    got, _ = run_riscv(fn, [a, b])
    assert got[0] == want[0].unsigned


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=24))
def test_byte_sum_differential(data):
    """A whole loop over memory agrees between the two backends."""
    body = b2.seq_of(
        b2.SSet("acc", b2.ELit(0)),
        b2.SSet("i", b2.ELit(0)),
        b2.SWhile(
            b2.EOp("ltu", b2.EVar("i"), b2.EVar("len")),
            b2.seq_of(
                b2.SSet(
                    "acc",
                    b2.EOp(
                        "add",
                        b2.EVar("acc"),
                        b2.ELoad(1, b2.EOp("add", b2.EVar("p"), b2.EVar("i"))),
                    ),
                ),
                b2.SSet("i", b2.EOp("add", b2.EVar("i"), b2.ELit(1))),
            ),
        ),
    )
    fn = simple_fn("bytesum", body, args=("p", "len"), rets=("acc",))
    mem1 = Memory(64)
    base1 = mem1.place_bytes(data) if data else mem1.allocate(0)
    interp = Interpreter(b2.Program((fn,)))
    want, _ = interp.run(fn.name, [Word(64, base1), Word(64, len(data))], memory=mem1)

    mem2 = Memory(64)
    base2 = mem2.place_bytes(data) if data else mem2.allocate(0)
    got, _ = run_riscv(fn, [base2, len(data)], memory=mem2)
    assert got[0] == want[0].unsigned == sum(data)


@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_suite_through_riscv(program):
    """Every Rupicola-derived suite program survives the RISC-V backend."""
    rng = random.Random(11)
    compiled = program.compile()
    rv_program = compile_function(compiled.bedrock_fn)
    for _ in range(5):
        mem = Memory(64)
        if program.calling_style == "scalar":
            machine = Machine(rv_program, mem)
            value = rng.getrandbits(32)
            rets = machine.run_function(compiled.name, [value])
            assert rets[0] == program.reference(value)
        elif program.calling_style == "window":
            data = program.gen_input(rng, rng.randrange(4, 32))
            off = rng.randrange(0, len(data) - 3)
            base = mem.place_bytes(data)
            machine = Machine(rv_program, mem)
            rets = machine.run_function(compiled.name, [base, len(data), off])
            assert rets[0] == program.reference(data, off)
        else:
            data = program.gen_input(rng, rng.randrange(0, 32))
            base = mem.place_bytes(data) if data else mem.allocate(0)
            machine = Machine(rv_program, mem)
            rets = machine.run_function(compiled.name, [base, len(data)])
            want = program.reference(data)
            if program.calling_style == "inplace":
                assert mem.load_bytes(base, len(data)) == want
            else:
                assert rets[0] == want


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_spec_runners_agree(program, opt_level):
    """``run_function`` and ``run_function_riscv`` lay the spec's arguments
    out the same way: on seeded inputs both backends return the same
    values and leave the same pointed-to memory."""
    from repro.validation.runners import make_inputs, run_function, run_function_riscv

    compiled = program.compile(opt_level=opt_level)
    rv_program = compile_function(compiled.bedrock_fn)
    gen = program.validation_input_gen()
    rng = random.Random(23)
    for _ in range(4):
        params = gen(rng) if gen is not None else make_inputs(compiled.model, rng)
        want = run_function(compiled.bedrock_fn, compiled.spec, params)
        got = run_function_riscv(
            compiled.bedrock_fn, compiled.spec, params, program=rv_program
        )
        assert (got.rets, got.out_memory) == (want.rets, want.out_memory)


class TestBinaryExecution:
    """The full binary path: encode into memory, fetch, decode, execute."""

    def test_binary_mode_matches_symbolic_mode(self):
        fn = simple_fn(
            "sumto",
            b2.seq_of(
                b2.SSet("acc", b2.ELit(0)),
                b2.SSet("i", b2.ELit(0)),
                b2.SWhile(
                    b2.EOp("ltu", b2.EVar("i"), b2.EVar("n")),
                    b2.seq_of(
                        b2.SSet("acc", b2.EOp("add", b2.EVar("acc"), b2.EVar("i"))),
                        b2.SSet("i", b2.EOp("add", b2.EVar("i"), b2.ELit(1))),
                    ),
                ),
            ),
            args=("n",),
            rets=("acc",),
        )
        program = compile_function(fn)
        symbolic = Machine(program)
        want = symbolic.run_function("sumto", [20])
        binary = Machine(program)
        binary.load_binary()
        got = binary.run_function("sumto", [20])
        assert got == want
        assert binary.instret == symbolic.instret

    @pytest.mark.parametrize(
        "program", [p for p in all_programs() if p.calling_style == "hash"][:2],
        ids=lambda p: p.name,
    )
    def test_suite_through_binary_path(self, program):
        rng = random.Random(5)
        compiled = program.compile()
        rv_program = compile_function(compiled.bedrock_fn)
        data = program.gen_input(rng, 24)
        mem = Memory(64)
        base = mem.place_bytes(data)
        machine = Machine(rv_program, mem)
        machine.load_binary()
        rets = machine.run_function(compiled.name, [base, len(data)])
        assert rets[0] == program.reference(data)
