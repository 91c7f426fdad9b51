"""The executor's caches, its argument checks, the operator table, and stack reuse."""

from __future__ import annotations

import gc
import types

import pytest

from repro import codegen
from repro.bedrock2 import ast, closures
from repro.bedrock2.ast import (
    Function,
    Program,
    SSet,
    SStackalloc,
    SWhile,
    add,
    lit,
    ltu,
    seq_of,
    store,
    var,
)
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import RAW_OPS, ExecutionError, Interpreter, apply_op
from repro.bedrock2.word import Word
from tests.bedrock2.tree_walker import TreeWalker


def _counter(bound: int) -> Function:
    body = seq_of(
        SSet("i", lit(0)),
        SWhile(ltu(var("i"), lit(bound)), SSet("i", add(var("i"), lit(1)))),
    )
    return Function(f"count{bound}", (), ("i",), body)


def _run(fn: Function, width: int = 64):
    rets, _ = Interpreter(Program((fn,)), width=width).run(fn.name, [])
    return [r.unsigned for r in rets]


# -- Cache lifetime ----------------------------------------------------------------


def test_entry_dies_with_its_function():
    fn = _counter(3)
    assert _run(fn) == [3]
    key = id(fn)
    assert key in codegen._CACHE
    del fn
    gc.collect()
    assert key not in codegen._CACHE


def test_one_compile_serves_every_interpreter():
    fn = _counter(4)
    _run(fn)
    code = closures.compiled(fn, 64)
    for _ in range(3):
        _run(fn)
        assert closures.compiled(fn, 64) is code
    assert closures.compiled(fn, 32) is not code


def _reachable(obj, seen=None):
    """Every object reachable through function namespaces and closure
    cells, containers and slots (modules and classes excepted)."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (types.ModuleType, type)):
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, types.FunctionType):
        cells = [cell.cell_contents for cell in obj.__closure__ or ()]
        for item in [obj.__globals__, obj.__defaults__, *cells]:
            yield from _reachable(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _reachable(item, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _reachable(item, seen)
    elif isinstance(obj, codegen.Compiled):
        for name in obj.__slots__:
            yield from _reachable(getattr(obj, name), seen)


def test_generated_namespace_holds_no_ast_node():
    body = seq_of(
        SStackalloc("b", 8, store(8, var("b"), ast.EInlineTable(1, b"\x07", lit(0)))),
        SSet("r", add(var("x"), lit(1))),
    )
    fn = Function("f", ("x",), ("r",), body)
    code = closures.compiled(fn, 64)
    reached = list(_reachable(code))
    assert code.run.__globals__ is not vars(closures)
    assert b"\x07" in reached and len(reached) > 10
    assert not [o for o in reached if isinstance(o, (ast.Function, ast.Stmt, ast.Expr))]


def test_cache_stays_bounded_over_fresh_functions():
    gc.collect()
    before = len(codegen._CACHE)
    for bound in range(1000):
        assert _run(_counter(bound % 7)) == [bound % 7]
    gc.collect()
    assert len(codegen._CACHE) <= before + 1


def test_code_cache_stays_bounded_over_fresh_sources():
    # Each bound is a distinct literal, so each function a distinct source.
    capacity = codegen.CODE_CACHE_SIZE
    for bound in range(capacity + 40):
        assert _run(_counter(1000 + bound)) == [1000 + bound]
        assert len(codegen._CODE) <= capacity
    assert len(codegen._CODE) == capacity
    newest = closures.compiled(_counter(1000 + capacity + 39), 64).source
    assert next(reversed(codegen._CODE)) == newest


def test_identical_structure_shares_one_code_object():
    # Names, function names and table bytes are namespace constants, so
    # these two compile to one source and CPython compiles it once.
    def table_fn(name, var_name, data):
        body = SSet(var_name, ast.EInlineTable(1, data, lit(1)))
        return Function(name, (), (var_name,), body)

    first = closures.compiled(table_fn("f", "x", b"\x01\x02"), 64)
    second = closures.compiled(table_fn("g", "y", b"\x03\x04"), 64)
    assert first.source == second.source
    assert first.run.__code__ is second.run.__code__
    assert first.run.__globals__ is not second.run.__globals__
    interp = Interpreter(Program((table_fn("g", "y", b"\x03\x04"),)))
    assert interp.run("g", [])[0] == [Word(64, 4)]


# -- Statement hooks on the oracle ---------------------------------------------------


class StatementCounter(TreeWalker):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = 0

    def exec_stmt(self, stmt, state, fuel):
        self.seen += 1
        return super().exec_stmt(stmt, state, fuel)


def test_exec_stmt_override_sees_every_statement():
    # seq(i := 0; while) + 5 loop bodies: 1 seq + 1 set + 1 while + 5 sets
    fn = _counter(5)
    interp = StatementCounter(Program((fn,)))
    rets, _ = interp.run(fn.name, [])
    assert rets == [Word(64, 5)]
    assert interp.seen == 8


# -- Arguments the executor cannot take ------------------------------------------------


@pytest.mark.parametrize("cls", [Interpreter, TreeWalker], ids=["closures", "tree"])
def test_foreign_width_or_non_word_arguments_are_execution_errors(cls):
    fn = Function("f", ("z", "x"), ("y",), SSet("y", add(var("x"), lit(1))))
    interp = cls(Program((fn,)))
    with pytest.raises(ExecutionError, match=r"^f: argument 1 is not a 64-bit Word: "):
        interp.run("f", [Word(64, 0), Word(32, 0xFFFFFFFF)])
    with pytest.raises(ExecutionError, match=r"^f: argument 0 is not a 64-bit Word: 5$"):
        interp.run("f", [5, Word(64, 1)])
    with pytest.raises(ExecutionError, match=r"^f: argument 1 is not a 32-bit Word: "):
        cls(Program((fn,)), width=32).run("f", [Word(32, 0), Word(64, 1)])
    assert interp.counts.total() == 0
    assert interp.run("f", [Word(64, 0), Word(64, 6)])[0] == [Word(64, 7)]


# -- The shared operator table -------------------------------------------------------


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_apply_op_is_the_raw_table(width):
    mask = (1 << width) - 1
    edges = [0, 1, 2, 3, width - 1, width, mask >> 1, (mask >> 1) + 1, mask - 1, mask]
    for op, raw in RAW_OPS[width].items():
        for a in edges:
            for b in edges:
                got = apply_op(op, Word(width, a), Word(width, b))
                assert got == Word(width, raw(a & mask, b & mask))
                assert 0 <= raw(a & mask, b & mask) <= mask
    assert set(RAW_OPS[width]) == ast.EOp.OPS


def test_apply_op_matches_the_word_methods():
    w = 64
    for a in (0, 5, 1 << 63, (1 << 64) - 1):
        for b in (0, 3, 64, 65, (1 << 64) - 1):
            x, y = Word(w, a), Word(w, b)
            assert apply_op("add", x, y) == x + y
            assert apply_op("sub", x, y) == x - y
            assert apply_op("mul", x, y) == x * y
            assert apply_op("divu", x, y) == x.udiv(y)
            assert apply_op("remu", x, y) == x.umod(y)
            assert apply_op("sru", x, y) == x.shr(y)
            assert apply_op("slu", x, y) == x.shl(y)
            assert apply_op("srs", x, y) == x.sar(y)
            assert apply_op("lts", x, y).unsigned == int(x.lts(y))
            assert apply_op("ltu", x, y).unsigned == int(x.ltu(y))
    with pytest.raises(ExecutionError):
        apply_op("rotl", Word(w, 1), Word(w, 1))


# -- Stack reuse -----------------------------------------------------------------------


def _frame_loop(iterations: int, nbytes: int) -> Function:
    body = seq_of(
        SSet("i", lit(0)),
        SWhile(
            ltu(var("i"), lit(iterations)),
            SStackalloc("buf", nbytes, seq_of(
                store(1, var("buf"), var("i")),
                SSet("i", add(var("i"), lit(1))),
            )),
        ),
    )
    return Function("frames", (), ("i",), body)


@pytest.mark.parametrize("cls", [Interpreter, TreeWalker], ids=["closures", "tree"])
def test_stack_frames_in_a_loop_reuse_their_space(cls):
    memory = Memory(32)
    top = memory._stack_top
    assert top == 0xFFFFF000
    fn = _frame_loop(1000, 64)
    rets, _ = cls(Program((fn,)), width=32).run(fn.name, [], memory=memory)
    assert rets == [Word(32, 1000)]
    assert memory._stack_top == top
    assert not [r for r in memory.regions if r.label == "stack"]


def test_stack_exhaustion_is_an_execution_error():
    memory = Memory(32)
    memory.allocate(16, label="heap", base=0xFFFFE000)
    fn = Function("big", (), (), SStackalloc("b", 4096, ast.SSkip()))
    for cls in (Interpreter, TreeWalker):
        with pytest.raises(ExecutionError, match="overlaps"):
            cls(Program((fn,)), width=32).run(fn.name, [], memory=memory)
