"""The generated executor at its structural edges, against the tree-walker.

Every case runs on both executors through ``run_both`` (same results or
error, trace, op counts, memory and stack), so each is a differential
test: deep loop and branch nests that CPython cannot nest in one
function, a very long straight-line chain, unbound locals, external
handlers that edit the frame, and names that are not Python identifiers.
"""

from __future__ import annotations

import random
import re
import sys

import pytest

from repro import codegen
from repro.bedrock2 import ast, closures
from repro.bedrock2.ast import (
    EInlineTable,
    ELoad,
    EOp,
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
    band,
    lit,
    load,
    ltu,
    seq_of,
    store,
    var,
)
from repro.bedrock2.semantics import OutOfFuel
from repro.bedrock2.word import Word
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from tests.bedrock2.test_exec_equivalence import FUEL_SUBJECTS, _echo, _memory, run_both, single
from tests.bedrock2.tree_walker import TreeWalker


def _source(program: Program, name: str, width: int = 64) -> str:
    return closures.compiled(program.function(name), width).source


def _exact_fuel(program, name, args, width=64, external=None):
    """The least fuel ``name`` runs on, by bisection on the tree-walker."""

    def runs(fuel):
        try:
            TreeWalker(program, width=width, external=external).run(
                name, [Word(width, a) for a in args], _memory(width), fuel
            )
        except OutOfFuel:
            return False
        return True

    lo, hi = 0, 1
    while not runs(hi):
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if runs(mid) else (mid, hi)
    return hi


@pytest.fixture
def deep_recursion():
    """The tree-walker recurses once per ``SSeq`` level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(60_000)
    yield
    sys.setrecursionlimit(limit)


# -- Nesting deeper than one CPython function allows --------------------------------


def _while_nest(depth: int) -> Program:
    """``depth`` nested counted loops; every eighth runs twice, the rest once."""
    body = SSet("r", add(var("r"), var("x")))
    for level in reversed(range(depth)):
        i = f"i{level}"
        trips = 2 if level % 8 == 0 else 1
        body = seq_of(
            SSet(i, lit(0)),
            SWhile(ltu(var(i), lit(trips)), seq_of(body, SSet(i, add(var(i), lit(1))))),
        )
    return single(seq_of(SSet("r", lit(0)), body), args=("x",))


def test_while_nest_deeper_than_cpython_static_blocks():
    program = _while_nest(25)
    assert "def h0(" in _source(program, "f")  # moved into helpers
    assert run_both(program, "f", [3])[:2] == ("ok", [3 * 2 ** 4])
    exact = _exact_fuel(program, "f", [3])
    for fuel in range(exact - 40, exact + 2):
        outcome = run_both(program, "f", [3], fuel=fuel)
        assert (outcome[0] == "ok") == (fuel >= exact)


def _cond_nest(depth: int) -> Program:
    """``depth`` nested branches; level k goes deeper while bit k%60 of x is set."""
    body = SSet("r", lit(depth))
    for level in reversed(range(depth)):
        body = SCond(band(var("x"), lit(1 << (level % 60))), body, SSet("r", lit(level)))
    return single(body, args=("x",))


def test_cond_nest_deeper_than_cpython_indentation():
    program = _cond_nest(150)
    assert "def h0(" in _source(program, "f")
    ones = (1 << 64) - 1
    assert run_both(program, "f", [ones])[:2] == ("ok", [150])
    assert run_both(program, "f", [ones ^ (1 << 37)])[:2] == ("ok", [37])
    for fuel in (0, 1, 60, 149, 150, 151):
        run_both(program, "f", [ones], fuel=fuel)


def test_long_straight_line_chain(deep_recursion):
    stmts = []
    for k in range(20_000):
        if k % 1000 == 999:
            stmts.append(store(8, lit(0x1000), var("a")))
        elif k % 1000 == 500:
            stmts.append(SSet("a", add(load(8, lit(0x1000)), lit(k))))
        else:
            stmts.append(SSet("a", add(var("a"), lit(k))))
    program = single(seq_of(SSet("a", lit(0)), *stmts, SSet("r", var("a"))))
    exact = 20_002  # one unit per assignment or store
    assert run_both(program, "f", [], fuel=exact)[0] == "ok"
    for fuel in (exact - 1, 10_500):
        assert run_both(program, "f", [], fuel=fuel)[1] == "OutOfFuel"


def test_skips_at_block_ends_keep_their_fuel_checks():
    # A skip is only a fuel check; the generator drops it where a check on
    # the same fuel follows, and must keep it at a stack frame's end and
    # at the end of the function.
    body = seq_of(
        SSet("r", lit(0)),
        ast.SStackalloc("b", 8, ast.SSeq(SSet("r", var("x")), SSkip())),
        SWhile(ltu(var("r"), lit(3)), ast.SSeq(SSet("r", add(var("r"), lit(1))), SSkip())),
        SCond(band(var("x"), lit(1)), SSet("r", add(var("r"), lit(1))), SSkip()),
    )
    for program in (single(body, args=("x",)), single(ast.SSeq(body, SSkip()), args=("x",))):
        for x in (0, 1, 5):
            exact = _exact_fuel(program, "f", [x])
            kinds = set()
            for fuel in range(exact + 2):
                outcome = run_both(program, "f", [x], fuel=fuel)
                kinds.add(outcome[1] if outcome[0] == "error" else "ok")
            assert kinds == {"OutOfFuel", "ok"}


# -- The region cache ----------------------------------------------------------------
#
# Loads and stores keep the last region ``Memory.region`` gave them and
# skip the lookup while they stay inside it.  These cases hit each way a
# cached region can go stale or be left, at both widths; ``run_both``
# compares results, errors, op counts, memory and read/write counts.

WIDTHS = (32, 64)


def _adjacent(width):
    """``_memory`` plus a second 16-byte buffer right after the first."""
    memory = _memory(width)
    memory.allocate(16, label="next", base=0x1010)
    return memory


def _frame_loop():
    """Three trips, each through a frame at the address the last one freed."""
    body = seq_of(
        SStackalloc("p", 8, seq_of(
            SSet("r", add(var("r"), load(8, var("p")))),
            store(8, var("p"), add(var("i"), lit(100))),
        )),
        SSet("i", add(var("i"), lit(1))),
    )
    return single(seq_of(SSet("r", lit(0)), SSet("i", lit(0)),
                         SWhile(ltu(var("i"), lit(3)), body)))


@pytest.mark.parametrize("width", WIDTHS)
def test_frame_pointer_used_after_the_frame_ends(width):
    inside = seq_of(store(8, var("p"), lit(7)), SSet("r", load(8, var("p"))))
    program = single(seq_of(SStackalloc("p", 8, inside), SSet("r", load(1, var("p")))))
    outcome = run_both(program, "f", [], width=width)
    assert outcome[:2] == ("error", "ExecutionError")
    assert "out of bounds" in outcome[2]
    assert run_both(_frame_loop(), "f", [], width=width)[:2] == ("ok", [0])


@pytest.mark.parametrize("width", WIDTHS)
def test_callee_frees_its_own_frame(width):
    callee = Function("g", ("x",), ("y",), SStackalloc("p", 8, seq_of(
        store(8, var("p"), var("x")), SSet("y", var("p")))))
    escaped = Function("f", (), ("r",), seq_of(
        SSet("r", load(8, lit(0x1000))),
        SCall(("q",), "g", (lit(5),)),
        SSet("r", load(8, var("q"))),
    ))
    outcome = run_both(Program((escaped, callee)), "f", [], width=width)
    assert outcome[:2] == ("error", "ExecutionError")
    assert "out of bounds" in outcome[2]
    # The caller's own frame then takes the address the callee's had.
    reused = Function("f", (), ("r",), seq_of(
        SCall(("q",), "g", (lit(5),)),
        SStackalloc("s", 8, seq_of(
            SSet("r", load(8, var("q"))),
            SCall(("t",), "g", (var("r"),)),
            store(8, var("q"), add(var("r"), lit(1))),
            SSet("r", add(load(8, var("s")), var("t"))),
        )),
    ))
    assert run_both(Program((reused, callee)), "f", [], width=width)[0] == "ok"


def _memory_handler(action, args, state):
    """Edits the memory under the program: ``alloc`` maps a new region,
    ``free`` unmaps the 0x1000 buffer, ``replace`` maps a zeroed one in
    its place and ``shrink`` an 8-byte one."""
    memory = state.memory
    if action == "alloc":
        memory.allocate(8, label="new", base=0x2000)
    else:
        memory.free(0x1000)
        if action != "free":
            memory.allocate(16 if action == "replace" else 8, label="new", base=0x1000)
    return []


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("where", ["here", "callee", "helper"])
@pytest.mark.parametrize("action", ["alloc", "free", "replace", "shrink"])
def test_external_handler_edits_memory_between_accesses(action, where, width, monkeypatch):
    edit = SInteract((), action, ())
    functions = []
    if where == "callee":
        functions.append(Function("g", (), (), edit))
        edit = SCall((), "g", ())
    elif where == "helper":
        # The branch nested in the loop moves into a helper function; the
        # limits steer both generators, so nothing cached is reused.
        monkeypatch.setattr(codegen, "MAX_INDENT", 3)
        monkeypatch.setattr(codegen, "MAX_BLOCKS", 2)
        monkeypatch.setattr(codegen, "_CACHE", {})
        edit = seq_of(SSet("i", lit(0)), SWhile(ltu(var("i"), lit(1)), seq_of(
            SCond(var("r"), edit, SSkip()), SSet("i", add(var("i"), lit(1))))))
    body = seq_of(
        store(8, lit(0x1008), lit(0x55)),
        SSet("r", load(8, lit(0x1000))),
        SSet("r", add(var("r"), lit(1))),
        edit,
        SSet("r", load(8, lit(0x1008))),
        store(1, lit(0x1000), var("r")),
    )
    program = Program((Function("f", (), ("r",), body), *functions))
    if where == "helper":
        assert "def h0(" in _source(program, "f", width)
    outcome = run_both(program, "f", [], width=width, external=_memory_handler)
    expected = {"alloc": ("ok", [0x55]), "replace": ("ok", [0])}
    assert outcome[:2] == expected.get(action, ("error", "ExecutionError"))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("size", [2, 4, 8])
def test_access_straddling_a_region_end_after_a_hit(size, width):
    end = 0x1010
    for memory in (_memory, _adjacent):
        for access in (SSet("r", load(size, lit(end - 1))),
                       store(size, lit(end - 1), lit(0xFFFF))):
            program = single(seq_of(
                SSet("r", load(1, lit(end - 1))),
                store(1, lit(end - 1), lit(9)),
                access,
            ))
            outcome = run_both(program, "f", [], width=width, make_memory=memory)
            assert outcome[:3] == (
                "error", "ExecutionError",
                f"access of {size} byte(s) at {end - 1:#x} is out of bounds",
            )


@pytest.mark.parametrize("width", WIDTHS)
def test_two_regions_alternating_in_one_loop(width):
    # ``x`` moves between the two buffers every trip; ``p`` and ``q``
    # each stay in one.
    body = seq_of(
        SSet("x", add(lit(0x1000), EOp("mul", band(var("i"), lit(1)), lit(0x10)))),
        store(1, add(var("x"), var("i")),
              add(load(1, add(var("x"), EOp("xor", var("i"), lit(15)))), var("i"))),
        SSet("r", add(var("r"), load(2, add(var("x"), band(var("i"), lit(14)))))),
        store(2, add(var("q"), band(var("i"), lit(14))),
              load(4, add(var("p"), band(var("i"), lit(12))))),
        SSet("i", add(var("i"), lit(1))),
    )
    program = single(seq_of(SSet("r", lit(0)), SSet("i", lit(0)),
                            SWhile(ltu(var("i"), lit(16)), body)), args=("p", "q"))
    for args in ([0x1000, 0x1010], [0x1010, 0x1000], [0x1000, 0x1000]):
        outcome = run_both(program, "f", args, width=width, make_memory=_adjacent)
        assert outcome[0] == "ok"
        assert outcome[-3:-1] == (16 * 3, 16 * 2)  # memory reads, writes


# -- Fast loops ------------------------------------------------------------------------
#
# A loop whose body holds no loop, call, external action or stack frame,
# and none of whose branches moves into a helper, runs as ``while f >= K``
# (whole iterations, no fuel checks) with an ``else`` holding the checked
# ``while True`` loop; any other loop is only the checked one.


def _loop(*body):
    return seq_of(SSet("r", lit(0)), SSet("i", lit(0)), SWhile(
        ltu(var("i"), lit(5)), seq_of(*body, SSet("i", add(var("i"), lit(1))))))


_BRANCH = SCond(band(var("i"), lit(1)), SSet("r", add(var("r"), var("i"))),
                store(2, lit(0x1000), var("r")))

#: name -> (body, lowered limits, fast loops, checked loops)
LOOP_FORMS = {
    "straight": (_loop(SSet("r", add(var("r"), load(1, add(lit(0x1000), var("i")))))),
                 False, 1, 1),
    "branch": (_loop(_BRANCH), False, 1, 1),
    "branch-outlined": (_loop(_BRANCH), True, 0, 1),
    "straight-lowered": (_loop(store(8, lit(0x1008), var("i"))), True, 1, 1),
    "call": (_loop(SCall(("r",), "g", (var("r"),))), False, 0, 1),
    "interact": (_loop(SInteract(("r",), "io", (var("r"),))), False, 0, 1),
    "stackalloc": (_loop(SStackalloc("p", 8, store(8, var("p"), var("i")))), False, 0, 1),
    # the outer loop holds a loop; the inner one runs fast
    "nested": (_loop(SSet("j", lit(0)), SWhile(ltu(var("j"), var("i")), seq_of(
        SSet("r", add(var("r"), var("j"))), SSet("j", add(var("j"), lit(1)))))), False, 1, 2),
}


@pytest.mark.parametrize("case", sorted(LOOP_FORMS))
def test_only_fuel_static_loops_run_fast(case, monkeypatch):
    body, lowered, fast, checked = LOOP_FORMS[case]
    if lowered:
        monkeypatch.setattr(codegen, "MAX_INDENT", 3)
        monkeypatch.setattr(codegen, "MAX_BLOCKS", 2)
        monkeypatch.setattr(codegen, "_CACHE", {})
    callee = Function("g", ("x",), ("y",), SSet("y", add(var("x"), lit(1))))
    program = Program((Function("f", (), ("r",), body), callee))
    source = _source(program, "f")
    assert source.count("while f >= ") == len(re.findall(r"else:\n *while True:", source)) == fast
    assert source.count("while True:") == checked
    assert ("def h0(" in source) == (case == "branch-outlined")
    exact = _exact_fuel(program, "f", [], external=_echo)
    for fuel in range(exact + 2):
        run_both(program, "f", [], external=_echo, fuel=fuel)


# -- Masks a bound makes idle ----------------------------------------------------------
#
# An ``EOp`` whose bound (``_Generator.reach``) is at most the mask is
# emitted without it.  Inside a loop tested by ``i <u e``, ``i`` is at
# most ``mask - 1`` until the body's first statement that can assign it.


def _text(e: ast.Expr) -> str:
    if isinstance(e, ast.ELit):
        return str(e.value)
    if isinstance(e, ast.EVar):
        return e.name
    if isinstance(e, ast.ELoad):
        return f"load{e.size}({_text(e.addr)})"
    if isinstance(e, ast.EInlineTable):
        return f"table{e.size}[{_text(e.index)}]"
    return f"({_text(e.lhs)} {e.op} {_text(e.rhs)})"


class _Recording(closures._Generator):
    """The generator, noting each ``EOp`` it emits without its mask."""

    def __init__(self, fn: Function, width: int):
        super().__init__(fn, width)
        self.unmasked: list = []

    def mask_idle(self, e: ast.EOp) -> bool:
        idle = super().mask_idle(e)
        if idle:
            self.unmasked.append(_text(e))
        return idle


def _unmasked(fn: Function, width: int) -> list:
    generator = _Recording(fn, width)
    generator.generate()
    return generator.unmasked


_POINTER_STEP = ["(_p0 add 1)"]

#: The ``EOp`` s of each ``-O1`` program emitted without their mask, at
#: width 64; at width 32 m3s's product keeps its mask.
UNMASKED_O1 = {
    "crc32": ["(((crc xor load1(_p0)) and 255) mul 8)", "(_p0 add 1)"],
    "fasta": _POINTER_STEP,
    "fnv1a": _POINTER_STEP,
    "ip": ["(i add 1)", "((acc and 65535) add (acc sru 16))", "(i add 1)"],
    "m3s": ["((((k slu 15) or (k sru 17)) and 4294967295) mul 461845907)"],
    "sbox": _POINTER_STEP,
    "upstr": _POINTER_STEP,
    "utf8": ["((s0 and table1[n]) slu 18)",
             "((load1((s add (off add 1))) and 63) slu 12)",
             "((load1((s add (off add 2))) and 63) slu 6)"],
    "xorsum": _POINTER_STEP,
    # its loop test is a conjunction, which bounds nothing
    "q_any_match": [],
    "q_equi_join": ["(i_0 add 1)", "(i add 1)"],
    "q_filter_sum": ["(i add 1)"],
    "q_group_count": ["(_p0 add 1)", "(i add 1)"],
    "q_max_value": ["(i add 1)"],
    "q_min_filtered": ["(i add 1)"],
    "q_project_copy": ["(i add 1)"],
    "q_total_sum": ["(i add 1)"],
}


@pytest.mark.parametrize("width", WIDTHS)
def test_unmasked_ops_of_the_o1_programs(width):
    expected = dict(UNMASKED_O1, **({"m3s": []} if width == 32 else {}))
    got = {program.name: _unmasked(program.compile(opt_level=1).bedrock_fn, width)
           for program in all_programs() + all_query_programs()}
    assert got == expected


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("case,unmasked", [
    ("edge-ltu", ["(i add 1)"]),
    ("edge-lts", []),
    ("edge-arm", []),
    ("edge-plus-two", []),
    ("edge-after-increment", ["(i add 1)"]),
    ("edge-inner-loop", ["(j add 1)"]),
    ("edge-interact", []),
])
def test_only_an_unsigned_loop_test_bounds_its_counter(case, unmasked, width):
    program, name = FUEL_SUBJECTS[case][:2]
    assert _unmasked(program.function(name), width) == unmasked


@pytest.mark.parametrize("width", WIDTHS)
def test_bounds_follow_the_operators(width):
    mask = (1 << width) - 1
    x, b = var("x"), load(1, lit(0x1000))
    cases = [
        (add(b, b), True),  # 255 + 255
        (EOp("mul", b, b), True),
        (EOp("mul", band(x, lit(0xFFFF)), lit(0xFFFF)), True),
        (add(band(x, lit(7)), EOp("sru", x, lit(width - 3))), True),
        (ast.shl(b, lit(width - 8)), True),
        (ast.shl(b, lit(width - 7)), False),
        (ast.shl(b, var("x")), False),  # the shift is not a literal
        (add(x, lit(1)), False),  # a local may be the mask
        (add(lit(mask), lit(0)), True),
        (add(lit(mask), lit(1)), False),
        (ast.sub(b, lit(1)), False),  # no rule: the difference may be negative
        (EOp("mul", load(4, lit(0x1000)), lit(2)), width == 64),
    ]
    for expr, idle in cases:
        fn = Function("f", ("x",), ("r",), SSet("r", expr))
        assert _unmasked(fn, width) == ([_text(expr)] if idle else []), _text(expr)
        run_both(Program((fn,)), "f", [mask - 2], width=width)


# -- Wide accesses ---------------------------------------------------------------------
#
# Loads, stores and inline-table reads of 2, 4 and 8 bytes go through
# ``struct`` codecs; the region and table checks come first, loads wider
# than the word are masked, and stores narrower than it store masked values.


@pytest.mark.parametrize("width", WIDTHS)
def test_wide_loads_and_stores(width):
    mask = (1 << width) - 1
    body = seq_of(
        store(2, lit(0x1000), add(var("x"), lit(0x10000))),
        store(4, lit(0x1002), EOp("mul", var("x"), lit(0x10001))),
        store(8, lit(0x1008), var("x")),
        SSet("r", add(load(8, lit(0x1000)), load(2, lit(0x1001)))),
        SSet("r", add(var("r"), load(4, lit(0x100c)))),
    )
    program = single(body, args=("x",))
    source = _source(program, "f", width)
    assert "_fb(" not in source and ".to_bytes(" not in source
    lines = [line.strip() for line in source.splitlines()]
    for size in (2, 4, 8):
        assert any(line.startswith(f"_p{size}(mbuf0, ") for line in lines)
        assert any(f"= _u{size}(mbuf0, " in line for line in lines)
    # A 2-byte store masks its value at both widths, a 4-byte one at 64 bits.
    assert any(line.startswith("_p2(") and line.endswith(" & 65535)") for line in lines)
    assert any(line.startswith("_p4(") and line.endswith(" & 4294967295)")
               for line in lines) == (width == 64)
    # An 8-byte load is masked to a 32-bit word.
    (wide,) = [line.split(" = ")[0] for line in lines if "= _u8(" in line]
    assert (f"({wide} & 4294967295)" in source) == (width == 32)
    x = 0x89ABCDEF01234567 & mask
    memory = bytearray(16)
    memory[0:2] = ((x + 0x10000) & 0xFFFF).to_bytes(2, "little")
    memory[2:6] = ((x * 0x10001) & 0xFFFFFFFF).to_bytes(4, "little")
    memory[8:16] = x.to_bytes(8, "little")
    r = int.from_bytes(memory[0:8], "little") & mask
    r = (r + int.from_bytes(memory[1:3], "little")) & mask
    r = (r + int.from_bytes(memory[12:16], "little")) & mask
    outcome = run_both(program, "f", [x], width=width)
    assert outcome[:2] == ("ok", [r])
    assert outcome[4] == {0x1000 + k: byte for k, byte in enumerate(memory)}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("size", [2, 4, 8])
def test_table_reads_at_the_last_valid_offset(size, width):
    data = bytes(range(0xA0, 0xAB))  # 11 bytes
    last = len(data) - size
    program = single(SSet("r", EInlineTable(size, data, var("x"))), args=("x",))
    assert f"_u{size}(k" in _source(program, "f", width)
    outcome = run_both(program, "f", [last], width=width)
    value = int.from_bytes(data[last:], "little") & ((1 << width) - 1)
    assert outcome[:2] == ("ok", [value])
    outcome = run_both(program, "f", [last + 1], width=width)
    assert outcome[:3] == (
        "error", "ExecutionError",
        f"inline-table read of {size} byte(s) at offset {last + 1} exceeds table length 11",
    )


# -- Unbound locals ---------------------------------------------------------------------


def test_only_unproven_reads_are_checked():
    proven = single(seq_of(SSet("a", lit(1)), SSet("r", add(var("a"), var("a")))))
    assert " is _U" not in _source(proven, "f")
    unproven = single(SCond(var("c"), SSet("a", lit(1)), SSkip()), args=("c",),
                      rets=("a",))
    assert "if v1 is _U" in _source(unproven, "f")


def test_read_after_unset():
    program = single(seq_of(SSet("x", lit(1)), SUnset("x"), SSet("r", var("x"))))
    outcome = run_both(program, "f", [])
    assert outcome[:3] == ("error", "ExecutionError", "unbound local variable 'x'")


def test_unset_in_a_loop_unbinds_at_the_head():
    # Bound before the loop, unset by its body: the second iteration's
    # read fails, although the read is well-formed on the first.
    body = seq_of(
        SSet("r", add(var("x"), var("i"))),
        SUnset("x"),
        SSet("i", add(var("i"), lit(1))),
    )
    program = single(seq_of(
        SSet("x", lit(5)), SSet("i", lit(0)), SWhile(ltu(var("i"), lit(3)), body),
    ))
    outcome = run_both(program, "f", [])
    assert outcome[:3] == ("error", "ExecutionError", "unbound local variable 'x'")


@pytest.mark.parametrize("flag,expected", [(1, "ok"), (0, "error")])
def test_maybe_unset_return(flag, expected):
    program = single(SCond(var("c"), SSet("r", lit(7)), SSkip()), args=("c",))
    outcome = run_both(program, "f", [flag])
    assert outcome[0] == expected
    if expected == "error":
        assert outcome[2] == "f did not set return variable 'r'"


@pytest.mark.parametrize("first", ["load", "var"])
def test_errors_keep_evaluation_order(first):
    bad_load, unbound = load(8, lit(0x10)), var("nope")
    rhs = add(bad_load, unbound) if first == "load" else add(unbound, bad_load)
    outcome = run_both(single(SSet("r", rhs)), "f", [])
    assert outcome[0] == "error"
    assert ("out of bounds" in outcome[2]) == (first == "load")


def test_interact_handler_edits_the_frame():
    def external(action, args, state):
        if action == "edit":
            del state.locals["gone"]
            state.locals["kept"] = Word(64, state.locals["kept"].unsigned + 100)
            state.locals["fresh"] = Word(64, 11)
            state.locals["hidden"] = Word(64, 99)  # never named by the program
            return [Word(64, 1)]
        assert state.locals["hidden"].unsigned == 99
        return [Word(64, len(state.locals))]

    body = seq_of(
        SSet("gone", lit(1)),
        SSet("kept", lit(2)),
        SInteract(("y",), "edit", (var("kept"),)),
        SInteract(("n",), "count", ()),
        SSet("r", add(add(var("kept"), var("fresh")), add(var("y"), var("n")))),
    )
    program = single(body)
    outcome = run_both(program, "f", [], external=external)
    # "count" sees kept, fresh, hidden and y: four locals
    assert outcome[:3] == ("ok", [102 + 11 + 1 + 4], [("edit", (2,), (1,)), ("count", (), (4,))])
    read_gone = single(seq_of(body, SSet("r", var("gone"))))
    outcome = run_both(read_gone, "f", [], external=external)
    assert outcome[:3] == ("error", "ExecutionError", "unbound local variable 'gone'")


# -- No AST string reaches the source ---------------------------------------------------


HOSTILE = [
    'quote"d',
    "single'quote",
    "new\nline",
    "\"); __import__('os').system('x') #",
    "lambda",
    "class",
    "yield",
    "v0 = 1\nk0",
]


def test_hostile_names_stay_out_of_the_source():
    x, y, z, callee_arg = HOSTILE[0], HOSTILE[1], HOSTILE[2], HOSTILE[4]
    action, callee = HOSTILE[3], HOSTILE[7]
    callee_fn = Function(callee, (callee_arg,), (HOSTILE[5],),
                         SSet(HOSTILE[5], add(var(callee_arg), lit(1))))
    main = Function(
        HOSTILE[6], (x,), (z,),
        seq_of(
            SSet(y, add(var(x), ast.EInlineTable(1, HOSTILE[3].encode(), lit(2)))),
            SCall((HOSTILE[5],), callee, (var(y),)),
            SInteract((z,), action, (var(HOSTILE[5]),)),
            SUnset(y),
            SCond(var(z), SSkip(), SSet(y, lit(0))),
        ),
    )
    program = Program((main, callee_fn))

    def external(name, args, state):
        assert name == action and set(state.locals) == {x, y, HOSTILE[5]}
        return [Word(64, args[0].unsigned * 2)]

    outcome = run_both(program, HOSTILE[6], [5], external=external)
    expected = (5 + HOSTILE[3].encode()[2] + 1) * 2
    assert outcome[:3] == ("ok", [expected], [(action, (expected // 2,), (expected,))])
    for name in (HOSTILE[6], callee):
        source = _source(program, name)
        compile(source, "<check>", "exec")
        leaked = [s for s in HOSTILE if s in source]
        assert not leaked, leaked


# -- Random programs ---------------------------------------------------------------------


def _random_expr(rng: random.Random, depth: int) -> ast.Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.4:
            return lit(rng.choice([0, 1, 3, 255, (1 << 64) - 1, rng.getrandbits(64)]))
        return var(rng.choice("abcd"))
    if roll < 0.75:
        op = rng.choice(sorted(EOp.OPS))
        return EOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.88:  # in bounds of the 16-byte buffer, or not, by size
        addr = add(lit(0x1000), band(_random_expr(rng, depth - 1), lit(rng.choice([7, 15]))))
        return ELoad(rng.choice([1, 2, 4, 8]), addr)
    data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
    return EInlineTable(rng.choice([1, 2]), data, band(_random_expr(rng, depth - 1), lit(15)))


def _random_stmt(rng: random.Random, depth: int) -> ast.Stmt:
    roll = rng.random()
    name = rng.choice("abcd")
    if depth <= 0 or roll < 0.3:
        return SSet(name, _random_expr(rng, 2))
    if roll < 0.38:
        return SSkip()
    if roll < 0.45:
        return SUnset(name)
    if roll < 0.52:
        addr = add(lit(0x1000), band(_random_expr(rng, 1), lit(7)))
        return store(rng.choice([1, 2, 4, 8]), addr, _random_expr(rng, 2))
    if roll < 0.65:
        return SCond(_random_expr(rng, 2), _random_stmt(rng, depth - 1),
                     _random_stmt(rng, depth - 1))
    if roll < 0.75:
        i = rng.choice("ij")
        body = ast.SSeq(_random_stmt(rng, depth - 1), SSet(i, add(var(i), lit(1))))
        return ast.SSeq(SSet(i, lit(0)), SWhile(ltu(var(i), lit(rng.randrange(4))), body))
    if roll < 0.8:
        return SStackalloc(name, rng.choice([0, 8, 16]), _random_stmt(rng, depth - 1))
    if roll < 0.85:
        return SCall((name,), "g", (_random_expr(rng, 1),))
    if roll < 0.9:
        return SInteract((name,), "io", (_random_expr(rng, 1),))
    return ast.SSeq(_random_stmt(rng, depth - 1), _random_stmt(rng, depth - 1))


def _editing_handler(action, args, state):
    width = args[0].width
    if args[0].unsigned % 3 == 0:
        state.locals.pop("b", None)
    if args[0].unsigned % 5 == 0:
        state.locals["c"] = Word(width, 77)
    return [Word(width, args[0].unsigned + 1)]


@pytest.mark.parametrize("nesting", ["default", "tiny"])
def test_random_programs(nesting, monkeypatch):
    # Loads, tables, unsets, calls, frame-editing interactions and fuel
    # limits in random positions; "tiny" moves every nested loop and
    # branch into a helper function.
    if nesting == "tiny":
        monkeypatch.setattr(codegen, "MAX_INDENT", 3)
        monkeypatch.setattr(codegen, "MAX_BLOCKS", 2)
        monkeypatch.setattr(codegen, "_CACHE", {})
    callee = Function("g", ("x",), ("y",),
                      SCond(var("x"), SSet("y", add(var("x"), lit(1))), SSkip()))
    outcomes = set()
    for case in range(300):
        rng = random.Random(f"{nesting}-{case}")
        stmts = [_random_stmt(rng, 3) for _ in range(5)]
        body = seq_of(SSet("c", lit(5)), SSet("d", lit(6)), *stmts)
        program = Program((Function("f", ("a", "b"), ("a",), body), callee))
        for width in (32, 64):
            args = [rng.getrandbits(width), rng.getrandbits(width)]
            # A random body may reset its loop counter: 2000 units bound it.
            for fuel in [2000] + [rng.randrange(1, 60) for _ in range(3)]:
                outcome = run_both(program, "f", args, width=width,
                                   external=_editing_handler, fuel=fuel)
                outcomes.add(outcome[1] if outcome[0] == "error" else "ok")
    assert outcomes == {"ok", "ExecutionError", "OutOfFuel"}
