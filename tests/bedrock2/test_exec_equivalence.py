"""The generated executor agrees with the tree-walker oracle.

``Interpreter.call_function`` runs function bodies on the generated
executor (:mod:`repro.bedrock2.closures`); :class:`TreeWalker`
(``tests/bedrock2/tree_walker.py``) walks the AST instead, and is the
reference here.  Over the Table 2, query and fuzz corpora, at widths 32
and 64, both must produce the same rets, out-memory, trace, op counts and
memory read/write counts (the counts also when a run fails); on
hand-built failing programs, the same
exception type and message; and under every fuel bound up to the exact
requirement plus 2, the same ``OutOfFuel`` or the same result.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.bedrock2 import ast
from repro.bedrock2.ast import (
    EInlineTable,
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
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import Interpreter
from repro.bedrock2.word import Word
from repro.core.goals import CompileError
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.resilience.generator import generate_case
from repro.source.evaluator import CellV
from repro.stdlib import default_engine
from repro.validation import runners
from repro.validation.runners import make_inputs, run_function
from tests.bedrock2.tree_walker import TreeWalker

WIDTHS = (32, 64)
TRIALS = 4
FUZZ_COUNT = 110


class RecordingMemory(Memory):
    """Remembers every instance, so a run's memory can be inspected after."""

    made: list = []

    def __init__(self, width: int = 64):
        super().__init__(width)
        RecordingMemory.made.append(self)


def _narrow(params, width):
    """Fit random parameter values into ``width``-bit words."""
    mask = (1 << width) - 1
    out = {}
    for name, value in params.items():
        if isinstance(value, list):
            value = [v & mask for v in value]
        elif isinstance(value, int) and not isinstance(value, bool):
            value = value & mask
        elif isinstance(value, CellV):
            value = CellV(value.value & mask)
        out[name] = value
    return out


def observe(fn, spec, params, width, interpreter_cls, seed, fuel=Interpreter.DEFAULT_FUEL):
    """Everything one run shows: its result or its error, counts, memory."""
    rng = random.Random(seed)
    io_input = [rng.getrandbits(32) for _ in range(8)]

    def stack_init(nbytes):
        return bytes(rng.randrange(256) for _ in range(nbytes))

    interps = []

    class Recording(interpreter_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            interps.append(self)

    RecordingMemory.made.clear()
    with mock.patch.object(runners, "Memory", RecordingMemory):
        try:
            result = run_function(
                fn, spec, params, width=width, io_input=iter(io_input),
                stack_init=stack_init, fuel=fuel, interpreter_cls=Recording,
            )
        except Exception as error:  # noqa: BLE001 - compared, not swallowed
            outcome = ("error", type(error).__name__, str(error))
        else:
            outcome = (
                "ok", result.rets, result.out_memory,
                [(e.action, e.args, e.rets) for e in result.trace],
                result.counts.as_dict(),
            )
    (memory,) = RecordingMemory.made
    (interp,) = interps
    return outcome + (
        interp.counts.as_dict(), memory.read_count, memory.write_count, memory.snapshot(),
        memory.regions, memory._stack_top,
    )


def assert_same(fn, spec, params, width, seed, fuel=Interpreter.DEFAULT_FUEL):
    params = _narrow(params, width)
    reference = observe(fn, spec, params, width, TreeWalker, seed, fuel)
    fast = observe(fn, spec, params, width, Interpreter, seed, fuel)
    assert fast == reference
    return fast


def _generic_gen(model):
    return lambda rng: make_inputs(model, rng, array_len=rng.randrange(24))


# -- Corpora ---------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_table2_programs(program, opt_level, width):
    compiled = program.compile(opt_level=opt_level)
    gen = program.validation_input_gen() or _generic_gen(compiled.model)
    rng = random.Random(f"{program.name}-{opt_level}-{width}")
    for trial in range(TRIALS):
        assert_same(compiled.bedrock_fn, compiled.spec, gen(rng), width, trial)


_QUERIES_32: dict = {}


def _query_compiled(query, opt_level, width):
    """``query`` compiled for ``width``: its lowered code loads words of
    ``width // 8`` bytes, as ``runners`` lays its word columns out."""
    if width == 64:
        return query.compile(opt_level=opt_level)
    key = (query.name, opt_level)
    if key not in _QUERIES_32:
        compiled = default_engine(width=width).compile_function(
            query.build_model(), query.build_spec())
        gen = query.validation_input_gen()
        _QUERIES_32[key] = compiled.optimize(
            opt_level, input_gen=lambda rng: _narrow(gen(rng), width), width=width)
    return _QUERIES_32[key]


def _rows(query, params) -> int:
    return sum(len(params[col.name]) for _, cols in query.reified().table_cols for col in cols)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("query", all_query_programs(), ids=lambda q: q.name)
def test_query_programs(query, opt_level, width):
    compiled = _query_compiled(query, opt_level, width)
    gen = query.validation_input_gen()
    rng = random.Random(f"{query.name}-{opt_level}-{width}")
    finished = 0
    for trial in range(TRIALS):
        params = gen(rng)
        outcome = assert_same(compiled.bedrock_fn, compiled.spec, params, width, trial)
        finished += outcome[0] == "ok" and _rows(query, params) > 0
    assert finished, "no trial on a non-empty table ran to the end"


def test_query_corpus_is_complete():
    assert len(all_query_programs()) == 8


def _fuzz_corpus():
    engine = default_engine()
    corpus = []
    for index in range(FUZZ_COUNT):
        case = generate_case(random.Random(7000 + index), index)
        try:
            compiled = engine.compile_function(case.model, case.spec)
        except CompileError:
            continue
        corpus.append((case, compiled))
    return corpus


@pytest.fixture(scope="module")
def fuzz_corpus():
    return _fuzz_corpus()


def test_fuzz_programs(fuzz_corpus):
    assert len(fuzz_corpus) >= 100
    rng = random.Random(0xC10)
    for case, compiled in fuzz_corpus:
        for width in WIDTHS:
            for trial in range(2):
                assert_same(compiled.bedrock_fn, case.spec, case.input_gen(rng), width, trial)


# -- Hand-built programs ----------------------------------------------------------


def run_both(program, name, args, width=64, external=None, fuel=Interpreter.DEFAULT_FUEL,
             make_memory=None):
    """Run ``name`` on both executors via ``Interpreter.run``, each on a
    fresh ``make_memory(width)`` (default :func:`_memory`)."""

    def one(cls):
        interp = cls(program, width=width, external=external)
        memory = (make_memory or _memory)(width)
        try:
            rets, state = interp.run(name, [Word(width, a) for a in args], memory, fuel)
        except Exception as error:  # noqa: BLE001 - compared, not swallowed
            outcome = ("error", type(error).__name__, str(error))
        else:
            outcome = ("ok", [r.unsigned for r in rets],
                       [(e.action, e.args, e.rets) for e in state.trace])
        return outcome + (interp.counts.as_dict(), memory.snapshot(),
                          memory.read_count, memory.write_count, memory._stack_top)

    reference, fast = one(TreeWalker), one(Interpreter)
    assert fast == reference
    return fast


def _memory(width):
    """A memory holding one 16-byte buffer at 0x1000."""
    memory = Memory(width)
    memory.allocate(16, label="buf")
    return memory


def single(body, args=(), rets=("r",)):
    return Program((Function("f", tuple(args), tuple(rets), body),))


FAILING = {
    "oob-load": (single(SSet("r", load(8, lit(0x10)))), "out of bounds"),
    "oob-store": (single(seq_of(store(4, lit(0x100e), lit(1)), SSet("r", lit(0)))),
                  "out of bounds"),
    "unbound-local": (single(SSet("r", add(lit(1), var("nope")))), "unbound local"),
    "unbound-in-store": (single(store(1, lit(0x1000), var("nope"))), "unbound local"),
    "table-overrun": (single(SSet("r", EInlineTable(2, b"\x01\x02\x03", lit(2)))),
                      "exceeds table length"),
    "missing-return": (single(SSet("x", lit(1))), "did not set return variable"),
    "no-external-handler": (single(SInteract(("r",), "read", ())),
                            "no external handler"),
    "call-arity": (
        Program((
            Function("f", (), ("r",), SCall(("r",), "g", (lit(1), lit(2)))),
            Function("g", ("x",), ("y",), SSet("y", var("x"))),
        )),
        "takes 1 arguments, got 2",
    ),
    "call-returns": (
        Program((
            Function("f", (), ("r",), SCall(("r", "s"), "g", (lit(1),))),
            Function("g", ("x",), ("y",), SSet("y", var("x"))),
        )),
        "returned 1 values, expected 2",
    ),
}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_programs_raise_alike(case, width):
    program, fragment = FAILING[case]
    outcome = run_both(program, "f", [], width=width)
    assert outcome[0] == "error"
    assert fragment in outcome[2]


def test_interact_handler_sees_and_edits_the_frame():
    def external(action, args, state):
        assert state.locals["x"].unsigned == 5
        state.locals["z"] = Word(64, 9)
        return [Word(64, args[0].unsigned + 1)]

    body = seq_of(SSet("x", lit(5)), SInteract(("y",), "bump", (var("x"),)),
                  SSet("r", add(var("y"), var("z"))))
    outcome = run_both(single(body), "f", [], external=external)
    assert outcome[:3] == ("ok", [15], [("bump", (5,), (6,))])


# A program that uses every statement form: nested sequences with skips,
# a loop, a branch, a stack frame, a call and an unset.
DOUBLE = Function("double", ("x",), ("y",), seq_of(SSet("y", add(var("x"), var("x"))),
                                                   SSkip()))
KITCHEN = Function(
    "main", ("n",), ("r",),
    ast.SSeq(
        seq_of(SSet("r", lit(0)), SSet("i", lit(0)), SSkip()),
        ast.SSeq(
            SWhile(
                ltu(var("i"), var("n")),
                seq_of(
                    SStackalloc("buf", 8, seq_of(
                        store(8, var("buf"), var("i")),
                        SCall(("t",), "double", (load(8, var("buf")),)),
                        SSet("r", add(var("r"), var("t"))),
                    )),
                    SCond(band(var("t"), lit(2)), SSkip(), SUnset("t")),
                    SSet("i", add(var("i"), lit(1))),
                    SSkip(),
                ),
            ),
            SSkip(),
        ),
    ),
)
KITCHEN_PROGRAM = Program((KITCHEN, DOUBLE))


@pytest.mark.parametrize("width", WIDTHS)
def test_every_statement_form(width):
    outcome = run_both(KITCHEN_PROGRAM, "main", [5], width=width)
    assert outcome[:2] == ("ok", [20])


# -- Fuel ------------------------------------------------------------------------
#
# A loop whose body holds no loop, call, external action or stack frame
# runs whole iterations without fuel checks while the fuel covers the
# costliest iteration, then finishes in a loop that checks before every
# statement.  Each subject below runs on every fuel from 0 up to the
# least it does not run out on, plus 2, so every way of running out --
# in the checked loop, between the two loops, after any number of
# unchecked iterations -- meets the tree-walker.


def _sweep(run):
    """``run(fuel)``, which compares both executors, on every fuel from 0
    to the least that does not run out, plus 2; returns that least fuel
    and the outcome there, which more fuel must not change."""
    fuel = 0
    while True:
        outcome = run(fuel)
        if outcome[:2] != ("error", "OutOfFuel"):
            break
        fuel += 1
    assert run(fuel + 1) == run(fuel + 2) == outcome
    return fuel, outcome


def _filled(width):
    """``_memory`` with the buffer holding 5, 4, 3, 2, 1, 0, 0, ..."""
    memory = _memory(width)
    memory.store_bytes(0x1000, bytes([5, 4, 3, 2, 1]))
    return memory


def _counted(body, trips=lit(6)):
    """``r = 0; i = 0; while i < trips: body; i = i + 1``."""
    return seq_of(SSet("r", lit(0)), SSet("i", lit(0)),
                  SWhile(ltu(var("i"), trips), seq_of(body, SSet("i", add(var("i"), lit(1))))))


def _echo(action, args, state):
    return [Word(args[0].width, args[0].unsigned + 1)]


def _to_the_edge(action, args, state):
    """Sets the caller's ``i`` to the mask, as a handler may."""
    width = args[0].width
    state.locals["i"] = Word(width, (1 << width) - 1)
    return [Word(width, 0)]


#: name -> (program, function, args, memory, external, what the run ends in)
FUEL_SUBJECTS = {
    # Branch arms that cost 3 or 4 units (through a nested branch)
    # against 1, and 0 against 1.
    "uneven-arms": (single(_counted(seq_of(
        SCond(band(var("i"), lit(1)),
              seq_of(SSet("r", add(var("r"), var("i"))),
                     SCond(band(var("i"), lit(2)),
                           seq_of(SSet("r", add(var("r"), lit(7))),
                                  SSet("r", EOp("mul", var("r"), lit(3)))),
                           seq_of(SSet("r", add(var("r"), lit(1))), SSkip()))),
              SSet("r", add(var("r"), lit(2)))),
        SCond(ltu(var("r"), lit(9)), SSkip(), SSet("r", add(var("r"), lit(3)))),
    ))), "f", [], _memory, None, "ok"),
    # The test loads a byte, then two bytes, from memory.
    "loaded-test": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(0)),
        SWhile(load(1, add(lit(0x1000), var("i"))),
               seq_of(SSet("r", add(var("r"), load(1, add(lit(0x1000), var("i"))))),
                      SSet("i", add(var("i"), lit(1))))),
        SSet("i", lit(0)),
        SWhile(ltu(lit(1), load(2, add(lit(0x1000), var("i")))),
               SSet("i", add(var("i"), lit(1)))),
        SSet("r", add(var("r"), var("i"))),
    )), "f", [], _filled, None, "ok"),
    # A precise outer loop (its body holds a loop) around a fast inner one
    # that loads and stores 2, 4 and 8 bytes.
    "nested": (single(_counted(seq_of(
        SSet("j", lit(0)),
        SWhile(ltu(var("j"), var("i")), seq_of(
            store(4, add(lit(0x1000), var("j")), add(load(8, lit(0x1008)), var("j"))),
            SSet("r", add(var("r"), load(2, add(lit(0x1004), var("j"))))),
            SSet("j", add(var("j"), lit(1))),
        )),
    ), lit(4))), "f", [], _filled, None, "ok"),
    # Mid-iteration failures after unchecked iterations: a 4-byte load
    # past the buffer's end at i = 7, an 8-byte store past it at i = 3,
    # a 4-byte read past the 10-byte table's end at i = 7.
    "load-fault": (single(_counted(seq_of(
        SSet("r", add(var("r"), lit(1))),
        SSet("r", add(var("r"), load(4, add(lit(0x1000), EOp("mul", var("i"), lit(2)))))),
    ), lit(10))), "f", [], _filled, None, "ExecutionError"),
    "store-fault": (single(_counted(seq_of(
        SSet("r", add(var("r"), lit(1))),
        store(8, add(lit(0x1000), EOp("mul", var("i"), lit(4))), var("r")),
    ), lit(10))), "f", [], _memory, None, "ExecutionError"),
    "table-overrun": (single(_counted(seq_of(
        SSet("r", add(var("r"), lit(1))),
        SSet("r", add(var("r"), EInlineTable(4, bytes(range(1, 11)), var("i")))),
    ), lit(10))), "f", [], _memory, None, "ExecutionError"),
    # Bodies that keep every fuel check: a call, an external action, a frame.
    "call": (Program((Function("f", (), ("r",), _counted(
        SCall(("r",), "double", (add(var("r"), lit(1)),)))), DOUBLE)),
        "f", [], _memory, None, "ok"),
    "interact": (single(_counted(seq_of(
        SInteract(("r",), "bump", (var("r"),)), SSet("r", add(var("r"), lit(1)))))),
        "f", [], _memory, _echo, "ok"),
    "stackalloc": (single(_counted(SStackalloc("p", 8, seq_of(
        store(8, var("p"), var("i")), SSet("r", add(var("r"), load(4, var("p")))))))),
        "f", [], _memory, None, "ok"),
    # Counters at the word's edge (literals are taken mod 2 ** width):
    # ``i <u e`` keeps ``i + 1`` within the word, so its mask is dropped;
    # a signed test, an assignment before the increment and ``i + 2``
    # keep the mask, and each of these counters wraps.
    "edge-ltu": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(-3)), SSet("e", lit(-1)),
        SWhile(ltu(var("i"), var("e")), seq_of(
            SSet("r", add(var("r"), var("i"))), SSet("i", add(var("i"), lit(1))))),
    ), rets=("r", "i")), "f", [], _memory, None, "ok"),
    "edge-lts": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(-2)),
        SWhile(EOp("lts", var("i"), lit(2)), seq_of(
            SSet("r", add(var("r"), lit(1))), SSet("i", add(var("i"), lit(1))))),
    ), rets=("r", "i")), "f", [], _memory, None, "ok"),
    "edge-arm": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(0)), SSet("n", lit(0)),
        SWhile(ltu(var("i"), lit(4)), seq_of(
            SCond(EOp("eq", var("n"), lit(0)),
                  seq_of(SSet("n", lit(1)), SSet("i", lit(-1))), SSkip()),
            SSet("r", add(var("r"), lit(1))),
            SSet("i", add(var("i"), lit(1))))),
    ), rets=("r", "i")), "f", [], _memory, None, "ok"),
    # Past its first assignment the counter may be the mask: ``i + 1``
    # after the increment, and in an inner loop that also increments it,
    # wraps to 0, which ``i + 1 <u 1`` tells from ``2 ** width``.
    "edge-after-increment": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(-2)),
        SWhile(ltu(var("i"), lit(-1)), seq_of(
            SSet("i", add(var("i"), lit(1))),
            SSet("r", ltu(add(var("i"), lit(1)), lit(1))))),
    ), rets=("r", "i")), "f", [], _memory, None, "ok"),
    "edge-inner-loop": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(-3)), SSet("e", lit(-1)),
        SWhile(ltu(var("i"), var("e")), seq_of(
            SSet("j", lit(0)),
            SWhile(ltu(var("j"), lit(3)), seq_of(
                SSet("r", add(var("r"), ltu(add(var("i"), lit(1)), lit(1)))),
                SSet("i", add(var("i"), lit(1))),
                SSet("j", add(var("j"), lit(1))))),
            SSet("e", lit(0)))),
    ), rets=("r", "i")), "f", [], _memory, None, "ok"),
    "edge-interact": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(0)),
        SWhile(ltu(var("i"), lit(1)), seq_of(
            SInteract(("x",), "edge", (var("i"),)),
            SSet("r", ltu(add(var("i"), lit(1)), lit(1))))),
    ), rets=("r", "i")), "f", [], _memory, _to_the_edge, "ok"),
    "edge-plus-two": (single(seq_of(
        SSet("r", lit(0)), SSet("i", lit(-2)), SSet("e", lit(-1)),
        SWhile(ltu(var("i"), var("e")), seq_of(
            SSet("r", add(var("r"), lit(1))), SSet("e", band(var("e"), lit(7))),
            SSet("i", add(var("i"), lit(2))))),
    ), rets=("r", "i")), "f", [], _memory, None, "ok"),
}


def _fnv1a_program():
    (program,) = [p for p in all_programs() if p.name == "fnv1a"]
    fn = program.compile(opt_level=1).bedrock_fn
    return Program((fn,)), fn.name


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("subject", sorted(FUEL_SUBJECTS))
def test_fuel_sweep_hand_built(subject, width):
    program, name, args, memory, external, ends = FUEL_SUBJECTS[subject]
    exact, outcome = _sweep(lambda fuel: run_both(
        program, name, args, width=width, external=external, fuel=fuel, make_memory=memory))
    assert exact > 0
    assert (outcome[1] if outcome[0] == "error" else "ok") == ends


@pytest.mark.parametrize("subject", ["kitchen", "fnv1a"])
def test_fuel_sweep(subject):
    if subject == "kitchen":
        program, name, args = KITCHEN_PROGRAM, "main", [3]
    else:
        program, name = _fnv1a_program()
        args = [0x1000, 3]  # three bytes of the pre-allocated 16-byte buffer
    exact, outcome = _sweep(lambda fuel: run_both(program, name, args, fuel=fuel))
    assert exact > 0
    assert outcome[0] == "ok"


def _short_input(program, rng):
    """An input of a few bytes or rows, for a sweep over every fuel."""
    if program in all_query_programs():
        while True:
            tables, out_len = program.gen_tables(rng)
            if all(0 < len(col) <= 3 for table in tables.values() for col in table.values()):
                return program.inputs_from_tables(tables, out_len)
    if program.calling_style in ("hash", "inplace"):
        return {"s": list(program.gen_input(rng, 5))}
    return (program.validation_input_gen() or _generic_gen(program.build_model()))(rng)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize(
    "program", all_programs() + all_query_programs(), ids=lambda p: p.name
)
def test_fuel_sweep_corpus(program, width):
    query = program in all_query_programs()
    compiled = _query_compiled(program, 1, width) if query else program.compile(opt_level=1)
    params = _short_input(program, random.Random(f"fuel-{program.name}-{width}"))
    exact, outcome = _sweep(
        lambda fuel: assert_same(compiled.bedrock_fn, compiled.spec, params, width, 0, fuel)
    )
    assert exact > 0
    assert outcome[0] == "ok"
