"""Tests for the Bedrock2 big-step interpreter.

Single expressions and statements run on the tree-walker oracle
(``tests/bedrock2/tree_walker.py``), which ``test_exec_equivalence.py``
holds the generated executor to; whole functions run on
:class:`Interpreter` itself.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bedrock2 import ast
from repro.bedrock2.ast import (
    ELit,
    EVar,
    EInlineTable,
    Function,
    Program,
    SCall,
    SCond,
    SInteract,
    SSet,
    SSkip,
    SStackalloc,
    SUnset,
    SWhile,
    add,
    lit,
    load,
    load1,
    seq_of,
    store,
    sub,
    var,
)
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import (
    ExecutionError,
    Interpreter,
    MachineState,
    OutOfFuel,
)
from repro.bedrock2.word import Word
from tests.bedrock2.tree_walker import TreeWalker


def fresh_state(width=64):
    return MachineState(memory=Memory(width))


def run_stmt(stmt, state=None, width=64, **kwargs):
    interp = TreeWalker(width=width, **kwargs)
    state = state or fresh_state(width)
    interp.exec_stmt(stmt, state, fuel=100_000)
    return state, interp


class TestExpressions:
    def eval(self, expr, state=None, width=64):
        interp = TreeWalker(width=width)
        return interp.eval_expr(expr, state or fresh_state(width))

    def test_literal(self):
        assert self.eval(ELit(42)).unsigned == 42

    def test_literal_truncated(self):
        assert self.eval(ELit(1 << 70)).unsigned == 0

    def test_var(self):
        state = fresh_state()
        state.locals["x"] = Word(64, 5)
        assert self.eval(EVar("x"), state).unsigned == 5

    def test_unbound_var_rejected(self):
        with pytest.raises(ExecutionError):
            self.eval(EVar("nope"))

    def test_binops(self):
        cases = [
            ("add", 3, 4, 7),
            ("sub", 3, 4, (3 - 4) % 2**64),
            ("mul", 3, 4, 12),
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("sru", 8, 2, 2),
            ("slu", 1, 4, 16),
            ("divu", 9, 2, 4),
            ("remu", 9, 2, 1),
            ("ltu", 1, 2, 1),
            ("ltu", 2, 1, 0),
            ("eq", 5, 5, 1),
            ("eq", 5, 6, 0),
        ]
        for op, a, b, expected in cases:
            assert self.eval(ast.EOp(op, ELit(a), ELit(b))).unsigned == expected, op

    def test_lts_signed(self):
        minus_one = (1 << 64) - 1
        assert self.eval(ast.EOp("lts", ELit(minus_one), ELit(1))).unsigned == 1
        assert self.eval(ast.EOp("ltu", ELit(minus_one), ELit(1))).unsigned == 0

    def test_srs_sign_extends(self):
        top = 1 << 63
        assert self.eval(ast.EOp("srs", ELit(top), ELit(1))).unsigned == 0b11 << 62

    def test_mulhuu(self):
        assert self.eval(ast.EOp("mulhuu", ELit(1 << 40), ELit(1 << 40))).unsigned == (
            1 << 16
        )

    def test_load(self):
        state = fresh_state()
        base = state.memory.place_bytes(b"\x34\x12")
        state.locals["p"] = Word(64, base)
        assert self.eval(load(2, var("p")), state).unsigned == 0x1234

    def test_load_out_of_bounds_rejected(self):
        state = fresh_state()
        base = state.memory.place_bytes(b"\x01")
        state.locals["p"] = Word(64, base)
        with pytest.raises(ExecutionError):
            self.eval(load(4, var("p")), state)

    def test_inline_table(self):
        table = bytes([10, 20, 30])
        assert self.eval(EInlineTable(1, table, ELit(2))).unsigned == 30

    def test_inline_table_out_of_bounds_rejected(self):
        with pytest.raises(ExecutionError):
            self.eval(EInlineTable(1, bytes([1]), ELit(1)))

    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ast.EOp("frobnicate", ELit(1), ELit(2))


class TestStatements:
    def test_set(self):
        state, _ = run_stmt(SSet("x", add(lit(1), lit(2))))
        assert state.locals["x"].unsigned == 3

    def test_unset(self):
        state, _ = run_stmt(seq_of(SSet("x", lit(1)), SUnset("x")))
        assert "x" not in state.locals

    def test_store_and_load(self):
        state = fresh_state()
        base = state.memory.allocate(8)
        state.locals["p"] = Word(64, base)
        run_stmt(store(4, var("p"), lit(0xABCD)), state)
        assert state.memory.load(base, 4) == 0xABCD

    def test_seq_order(self):
        state, _ = run_stmt(seq_of(SSet("x", lit(1)), SSet("x", add(var("x"), lit(1)))))
        assert state.locals["x"].unsigned == 2

    def test_cond_true_branch(self):
        stmt = SCond(lit(1), SSet("x", lit(10)), SSet("x", lit(20)))
        state, _ = run_stmt(stmt)
        assert state.locals["x"].unsigned == 10

    def test_cond_false_branch(self):
        stmt = SCond(lit(0), SSet("x", lit(10)), SSet("x", lit(20)))
        state, _ = run_stmt(stmt)
        assert state.locals["x"].unsigned == 20

    def test_cond_nonzero_is_true(self):
        stmt = SCond(lit(7), SSet("x", lit(1)), SSet("x", lit(0)))
        state, _ = run_stmt(stmt)
        assert state.locals["x"].unsigned == 1

    def test_while_computes_sum(self):
        # x = 0; i = 5; while (i) { x += i; i -= 1 }
        stmt = seq_of(
            SSet("x", lit(0)),
            SSet("i", lit(5)),
            SWhile(
                var("i"),
                seq_of(
                    SSet("x", add(var("x"), var("i"))),
                    SSet("i", sub(var("i"), lit(1))),
                ),
            ),
        )
        state, _ = run_stmt(stmt)
        assert state.locals["x"].unsigned == 15

    def test_while_out_of_fuel(self):
        with pytest.raises(OutOfFuel):
            run_stmt(SWhile(lit(1), SSkip()))

    def test_stackalloc_scoping(self):
        # The stack block exists in the body and is freed afterwards.
        state = fresh_state()
        body = store(1, var("tmp"), lit(0x7F))
        run_stmt(SStackalloc("tmp", 16, body), state)
        assert "tmp" in state.locals
        base = state.locals["tmp"].unsigned
        with pytest.raises(Exception):
            state.memory.load(base, 1)

    def test_stackalloc_initial_contents_policy(self):
        state = fresh_state()
        seen = {}

        def capture(nbytes):
            data = bytes(range(nbytes))
            seen["data"] = data
            return data

        stmt = SStackalloc("tmp", 4, SSet("x", load1(var("tmp"))))
        run_stmt(stmt, state, stack_init=capture)
        assert state.locals["x"].unsigned == 0
        assert seen["data"] == bytes([0, 1, 2, 3])

    def test_interact_appends_trace(self):
        def handler(action, args, state):
            assert action == "getchar"
            return [Word(64, 65)]

        stmt = SInteract(("c",), "getchar", ())
        state, _ = run_stmt(stmt, external=handler)
        assert state.locals["c"].unsigned == 65
        assert len(state.trace) == 1
        assert state.trace[0].action == "getchar"
        assert state.trace[0].rets == (65,)

    def test_interact_without_handler_rejected(self):
        with pytest.raises(ExecutionError):
            run_stmt(SInteract((), "putchar", (lit(65),)))


class TestFunctions:
    def make_program(self):
        double = Function(
            name="double",
            args=("x",),
            rets=("r",),
            body=SSet("r", add(var("x"), var("x"))),
        )
        main = Function(
            name="main",
            args=(),
            rets=("out",),
            body=SCall(("out",), "double", (lit(21),)),
        )
        return Program((double, main))

    def test_call(self):
        interp = Interpreter(self.make_program())
        rets, _ = interp.run("main", [])
        assert rets[0].unsigned == 42

    def test_call_unknown_function_rejected(self):
        interp = Interpreter(Program(()))
        with pytest.raises(KeyError):
            interp.run("nope", [])

    def test_call_arity_mismatch_rejected(self):
        interp = Interpreter(self.make_program())
        with pytest.raises(ExecutionError):
            interp.run("double", [])

    def test_missing_return_variable_rejected(self):
        fn = Function("f", (), ("never_set",), SSkip())
        interp = Interpreter(Program((fn,)))
        with pytest.raises(ExecutionError):
            interp.run("f", [])

    def test_locals_are_per_frame(self):
        callee = Function("callee", (), ("r",), SSet("r", lit(1)))
        caller = Function(
            "caller",
            (),
            ("x",),
            seq_of(SSet("x", lit(5)), SCall(("ignored",), "callee", ())),
        )
        interp = Interpreter(Program((callee, caller)))
        rets, _ = interp.run("caller", [])
        assert rets[0].unsigned == 5

    def test_memory_is_shared_across_calls(self):
        writer = Function("writer", ("p",), (), store(1, var("p"), lit(9)))
        interp = Interpreter(Program((writer,)))
        mem = Memory()
        base = mem.allocate(1)
        interp.run("writer", [Word(64, base)], memory=mem)
        assert mem.load(base, 1) == 9


class TestCostCounters:
    def test_counts_accumulate(self):
        stmt = seq_of(
            SSet("x", add(lit(1), lit(2))),
            SCond(var("x"), SSet("y", lit(1)), SSkip()),
        )
        _, interp = run_stmt(stmt)
        assert interp.counts.arith == 1
        assert interp.counts.assign == 2
        assert interp.counts.branch == 1
        assert interp.counts.total() == 4

    def test_weighted_cost(self):
        _, interp = run_stmt(SSet("x", lit(0)))
        assert interp.counts.weighted({"assign": 2.0}) == 2.0

    def test_as_dict_keys_match_attributes(self):
        _, interp = run_stmt(SSkip())
        for key, value in interp.counts.as_dict().items():
            assert getattr(interp.counts, key) == value


class TestWidth32:
    def test_arith_wraps_at_32_bits(self):
        state, _ = run_stmt(SSet("x", add(lit(2**32 - 1), lit(1))), width=32)
        assert state.locals["x"].unsigned == 0


# -- Property: structured control flow agrees with a Python oracle ------------


@given(st.integers(min_value=0, max_value=50))
def test_countdown_loop_matches_oracle(n):
    stmt = seq_of(
        SSet("acc", lit(0)),
        SSet("i", lit(n)),
        SWhile(
            var("i"),
            seq_of(
                SSet("acc", add(var("acc"), var("i"))),
                SSet("i", sub(var("i"), lit(1))),
            ),
        ),
    )
    state, _ = run_stmt(stmt)
    assert state.locals["acc"].unsigned == n * (n + 1) // 2


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=32))
def test_memory_sum_loop_matches_oracle(data):
    # acc = 0; i = 0; while (i < len) { acc += p[i]; i += 1 }
    stmt = seq_of(
        SSet("acc", lit(0)),
        SSet("i", lit(0)),
        SWhile(
            ast.EOp("ltu", var("i"), var("len")),
            seq_of(
                SSet("acc", add(var("acc"), load1(add(var("p"), var("i"))))),
                SSet("i", add(var("i"), lit(1))),
            ),
        ),
    )
    state = fresh_state()
    base = state.memory.place_bytes(bytes(data)) if data else state.memory.allocate(0)
    state.locals["p"] = Word(64, base)
    state.locals["len"] = Word(64, len(data))
    run_stmt(stmt, state)
    assert state.locals["acc"].unsigned == sum(data)
