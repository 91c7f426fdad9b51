"""The model evaluator agrees with the tree-walker oracle.

``Evaluator.eval`` runs functional models compiled into generated Python
functions (:mod:`repro.source.closures`); :class:`TreeWalker`
(``tests/source/tree_walker.py``) walks the term instead, and is the
reference here.
Over the Table 2, query and fuzz models, at widths 32 and 64, on boundary
inputs first and seeded random ones after, both must show the same value,
step count, ``io_output``, ``writer_output``, ``state``, error flag and
reads consumed, or the same exception type and message; under every fuel
bound up to the exact requirement plus 2, the same result or the same
``EvalError``; and on hand-built stuck terms, the same error.  The last
tests inject mutants into the generator and check that this comparator
catches each one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from unittest import mock

import pytest

from repro import codegen
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.resilience.generator import generate_case
from repro.source import closures
from repro.source import terms as t
from repro.source.evaluator import CellV, EffectContext, EvalError, Evaluator
from repro.source.types import ARRAY_WORD, BOOL, BYTE, NAT, WORD, TypeKind
from repro.validation.runners import make_inputs
from tests.source.tree_walker import TreeWalker

WIDTHS = (32, 64)
TRIALS = 4
FUZZ_COUNT = 110
MAX_LEN = 47  # the longest array the validators' samplers draw
FUEL = 100_000  # ends the boundary runs whose loop counts are 2^w - 1


def observe(term, params, width, evaluator_cls, seed, fuel=FUEL):
    """Everything one run shows: its value or its error, and its effects."""
    rng = random.Random(seed)
    io_input = [rng.getrandbits(width) for _ in range(4)]
    consumed = [0]

    def reads():
        for value in io_input:
            consumed[0] += 1
            yield value

    def oracle(tag, arg):
        if tag == "alloc":
            return [rng.randrange(256) for _ in range(int(arg))]
        return rng.getrandbits(width)

    fx = EffectContext(io_input=reads(), oracle=oracle, state=7)
    evaluator = evaluator_cls(width=width, fuel=fuel)
    try:
        outcome = ("ok", evaluator.eval(term, params, fx))
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        outcome = ("error", type(error).__name__, str(error))
    return outcome + (
        evaluator._steps, fx.io_output, fx.writer_output, fx.state, fx.error, consumed[0],
    )


def assert_same(term, params, width, seed, fuel=FUEL):
    reference = observe(term, params, width, Reference, seed, fuel)
    fast = observe(term, params, width, Evaluator, seed, fuel)
    assert fast == reference
    return fast


# -- Inputs ------------------------------------------------------------------------


def boundary_inputs(model, width, rng):
    """Empty, singleton and max-length arrays; scalars 0, 1 and 2^w - 1."""
    top = (1 << width) - 1
    corners = []
    for corner in range(3):
        values = {}
        for name, ty in model.params:
            if ty.kind is TypeKind.ARRAY:
                limit = min(1 << (8 * ty.elem.scalar_size(8)), top + 1)
                length = (0, 1, MAX_LEN)[corner]
                values[name] = (
                    [limit - 1] if length == 1
                    else [rng.randrange(limit) for _ in range(length)]
                )
            elif ty.kind is TypeKind.CELL:
                values[name] = CellV((0, 1, top)[corner])
            elif ty.kind is TypeKind.BOOL:
                values[name] = corner > 0
            elif ty.kind is TypeKind.BYTE:
                values[name] = (0, 1, 255)[corner]
            else:
                values[name] = (0, 1, top)[corner]
        corners.append(values)
    return corners


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


def _generic_gen(model):
    return lambda rng: make_inputs(model, rng, array_len=rng.randrange(MAX_LEN + 1))


def _check_model(model, gen, label):
    for width in WIDTHS:
        rng = random.Random(f"{label}-{width}")
        cases = boundary_inputs(model, width, rng)
        cases += [_narrow(gen(rng), width) for _ in range(TRIALS)]
        for seed, params in enumerate(cases):
            assert_same(model.term, params, width, seed)


# -- Corpora -----------------------------------------------------------------------


@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_table2_models(program):
    model = program.build_model()
    _check_model(model, program.validation_input_gen() or _generic_gen(model), program.name)


@pytest.mark.parametrize("query", all_query_programs(), ids=lambda q: q.name)
def test_query_models(query):
    _check_model(query.build_model(), query.validation_input_gen(), query.name)


def test_query_corpus_is_complete():
    assert len(all_query_programs()) == 8


def _fuzz_corpus():
    return [generate_case(random.Random(7000 + index), index) for index in range(FUZZ_COUNT)]


@pytest.fixture(scope="module")
def fuzz_corpus():
    return _fuzz_corpus()


def test_fuzz_models(fuzz_corpus):
    assert len(fuzz_corpus) == FUZZ_COUNT
    for case in fuzz_corpus:
        _check_model(case.model, case.input_gen, case.name)


# -- Every node form ----------------------------------------------------------------


def w(value):
    return t.Lit(value, WORD)


def n(value):
    return t.Lit(value, NAT)


def add(a, b):
    return t.Prim("word.add", (a, b))


@t.subterms("value")
@dataclass(frozen=True)
class PlusOne(t.Term):
    """An extension head: its ``compile_node`` is all the core knows of it."""

    value: t.Term

    def compile_node(self, g):
        return g.let(f"{g(self.value)} + 1")


class Reference(TreeWalker):
    """The oracle, taught :class:`PlusOne` as a test's own head is taught."""

    def _eval(self, term, env, fx):
        if isinstance(term, PlusOne):
            self._tick()
            return self._eval(term.value, env, fx) + 1
        return super()._eval(term, env, fx)


@dataclass(frozen=True)
class Opaque(t.Term):
    """A node no evaluator knows."""


# One term that reaches every core node form, the three query nodes and
# an extension node of the test's own.
KITCHEN = t.Let(
    "a", t.Copy(t.Stack(t.Append(t.Var("xs"), t.Lit((5, 6), ARRAY_WORD)))),
    t.LetTuple(
        ("p", "q"), t.TupleTerm((t.ArrayLen(t.Var("a")), t.CellGet(t.Var("c")))),
        t.MBind(
            "r", t.IORead(),
            t.MBind(
                "_", t.ErrGuard(t.Prim("word.eq", (t.Var("r"), t.Var("r")))),
                t.MRet(t.TupleTerm((
                    t.ArrayFold("acc", "e", add(t.Var("acc"), t.Var("e")), w(0),
                                t.ArrayMap("e", add(t.Var("e"), t.Var("q")), t.Var("a"))),
                    t.ArrayFoldBreak("acc", "e", add(t.Var("acc"), t.Var("e")), w(0),
                                     t.FirstN(n(3), t.Var("a")),
                                     t.Prim("word.ltu", (w(100), t.Var("acc")))),
                    t.RangedFor(n(1), t.Var("p"), "i", "acc",
                                add(t.Var("acc"), t.ArrayGet(t.Var("a"), t.Var("i"))), w(0)),
                    t.NatIter(n(3), "acc", add(t.Var("acc"), t.Var("q")), w(1)),
                    t.ArrayPut(t.SkipN(n(1), t.Var("a")), n(0), t.Var("r")),
                    t.TableGet((9, 8, 7), BYTE, t.Prim("word.remu", (t.Var("p"), w(3)))),
                    t.CellPut(t.Var("c"), t.If(t.Lit(True, BOOL), w(4), w(5))),
                    t.Call("double", (t.Var("p"),)),
                    t.IOWrite(t.Var("p")),
                    t.WriterTell(t.Var("q")),
                    t.NdAny(WORD),
                    t.NdAllocBytes(3),
                    t.StPut(add(t.StGet(), w(1))),
                    QAggregate("i", "acc", t.Var("p"), w(0),
                               add(t.Var("acc"), t.Var("i"))),
                    QJoinAgg("i", "j", "acc", n(2), t.Var("p"), w(0),
                             add(t.Var("acc"), t.Prim("word.mul", (t.Var("i"), t.Var("j"))))),
                    QProjectInto("i", t.Var("a"), t.ArrayGet(t.Var("a"), t.Var("i"))),
                    PlusOne(t.Var("q")),
                ))),
            ),
        ),
    ),
)
KITCHEN_ENV = {"xs": [1, 2, 3], "c": CellV(10), "__functions__": {"double": lambda x: 2 * x}}


@pytest.mark.parametrize("width", WIDTHS)
def test_every_node_form(width):
    outcome = assert_same(KITCHEN, KITCHEN_ENV, width, seed=3)
    assert outcome[0] == "ok", outcome
    assert outcome[3:] == ([5], [10], 8, False, 1)


def test_error_monad_short_circuits_alike():
    term = t.MBind("_", t.ErrGuard(t.Lit(False, BOOL)),
                   t.MBind("x", t.IORead(), t.MRet(t.IOWrite(t.Var("x")))))
    outcome = assert_same(term, {}, 64, seed=0)
    assert outcome[:2] == ("ok", 0) and outcome[-2:] == (True, 0)


# -- Stuck terms --------------------------------------------------------------------

STUCK = {
    "unbound-var": (add(w(1), t.Var("nope")), "unbound variable"),
    "get-out-of-bounds": (t.ArrayGet(t.Var("xs"), n(3)), "get: index 3 out of bounds"),
    "put-out-of-bounds": (t.ArrayPut(t.Var("xs"), n(9), w(0)), "put: index 9 out of bounds"),
    "table-out-of-bounds": (t.TableGet((1, 2), BYTE, n(2)), "InlineTable.get: index 2"),
    "let-tuple-arity": (t.LetTuple(("a", "b"), t.TupleTerm((w(1),)), t.Var("a")),
                        "let-tuple of 2 names"),
    "let-tuple-non-tuple": (t.Let("z", w(0), t.LetTuple(("a",), w(1), t.Var("a"))),
                            "let-tuple of 1 names got 1"),
    "get-non-cell": (t.CellGet(t.Var("xs")), "get of non-cell value"),
    "put-non-cell": (t.CellPut(w(3), w(1)), "put of non-cell value"),
    "read-past-end": (t.TupleTerm((t.IORead(),) * 5), "io.read past end of input"),
    "missing-external": (t.Call("nowhere", (t.Var("nope"),)),
                         "no model for external function"),
    "non-array": (t.ArrayLen(w(5)), "expected an array"),
    "fold-non-array": (t.ArrayFold("a", "e", t.Var("a"), w(0), t.Var("c")),
                       "expected an array"),
    "bad-arity-reached": (t.Prim("word.add", (w(1),)), "word.add expects 2 arguments"),
    "unknown-op": (t.Prim("word.frob", (w(1), t.Var("nope"))), "unbound variable"),
    "unknown-op-args-ok": (t.Prim("word.frob", (w(1),)), "unknown primitive operation"),
    "int-of-list": (t.RangedFor(n(0), t.Var("xs"), "i", "a", t.Var("a"), w(0)),
                    "int() argument"),
    "unknown-node": (add(w(1), Opaque()), "cannot evaluate Opaque()"),
    # Which stuck child is reached first:
    "firstn-count-first": (t.FirstN(t.Var("nope"), w(5)), "unbound variable"),
    "skipn-count-first": (t.SkipN(t.Var("nope"), w(5)), "unbound variable"),
    "get-array-first": (t.ArrayGet(w(5), t.Var("nope")), "expected an array"),
    "fold-array-first": (t.ArrayFold("a", "e", t.Var("a"), t.Var("nope"), w(5)),
                         "expected an array"),
}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("case", sorted(STUCK))
def test_stuck_terms_raise_alike(case, width):
    term, fragment = STUCK[case]
    outcome = assert_same(term, {"xs": [1, 2, 3], "c": CellV(1)}, width, seed=0)
    assert outcome[0] == "error"
    assert fragment in outcome[2]


def test_bad_arity_never_reached_is_harmless():
    term = t.If(t.Lit(False, BOOL), t.Prim("word.add", (w(1),)), w(2))
    for width in WIDTHS:
        outcome = assert_same(term, {}, width, seed=0)
        assert outcome[:2] == ("ok", 2)


def test_compiling_never_raises():
    for term, _ in STUCK.values():
        for width in WIDTHS:
            closures.build(term, width)


def test_a_head_with_no_hook_is_stuck_when_reached():
    # Opaque has no compile_node: it compiles, and raises once it runs.
    harmless = t.If(t.Lit(False, BOOL), Opaque(), w(2))
    assert Evaluator().eval(harmless) == 2
    evaluator = Evaluator()
    with pytest.raises(EvalError, match=r"^cannot evaluate Opaque\(\)$"):
        evaluator.eval(add(w(1), Opaque()))
    assert evaluator._steps == 3


# -- Fuel ---------------------------------------------------------------------------


def _sweep(term, params, width=64):
    """Fuel 0 .. exact + 2, where ``exact`` is what an unbounded run takes."""
    unbounded = observe(term, params, width, Reference, 0)
    exact = unbounded[2]
    assert exact > 0
    for fuel in range(exact + 3):
        outcome = assert_same(term, params, width, seed=0, fuel=fuel)
        if fuel < exact:
            assert outcome[:3] == ("error", "EvalError", "evaluation fuel exhausted")
        else:
            assert outcome == unbounded


@pytest.mark.parametrize(
    "program", all_programs() + all_query_programs(), ids=lambda p: p.name
)
def test_fuel_sweep(program):
    model = program.build_model()
    gen = program.validation_input_gen() or _generic_gen(model)
    params = gen(random.Random(program.name))
    short = {k: v[:2] if isinstance(v, list) else v for k, v in params.items()}
    if "off" in short:  # a window needs 4 bytes past its offset
        short = {"s": params["s"][:6], "off": 1}
    _sweep(model.term, short)


def test_fuel_sweep_every_node_form():
    _sweep(KITCHEN, KITCHEN_ENV)


# -- Mutants ------------------------------------------------------------------------
#
# Each mutant breaks one rule of the generator.  The comparator over the
# corpora above must flag every one of them.


def _fold_skips_first(g, term):
    values = g.array(term.arr)
    acc = g.local(g(term.init))
    with g.each(f"{values}[1:]") as elem, \
            g.bind({term.acc_name: acc, term.elem_name: elem}):
        g.assign(acc, g(term.body))
    return acc


def _get_unchecked(g, term):
    values = g.array(term.arr)
    index = g.int(term.index)
    return g.let(f"{values}[{index} % len({values})] if {values} else 0")


def _lit_without_tick(g, term):
    g.pending -= 1  # takes back the tick the generator charged
    return closures.Generator._lit(g, term)


def _if_swapped(g, term):
    test = g(term.cond)
    result = g.fresh()
    g.open_if(test)
    g.emit(f"{result} = {g(term.else_)}")
    g.open_else()
    g.emit(f"{result} = {g(term.then_)}")
    g.close_if()
    return result


def _get_check_outside_ticks(g, term):
    # The ticks charged before the bounds check are summed with those
    # after it, as if the check could not raise.
    values = g.array(term.arr)
    index = g.int(term.index)
    pending, g.pending = g.pending, 0
    g.emit(f"if not 0 <= {index} < len({values}): "
           f"raise _out_of_bounds({g.const('get')}, {index}, len({values}))")
    g.pending += pending
    return g.let(f"{values}[{index}]")


MUTANTS = {
    "fold-starts-late": (t.ArrayFold, _fold_skips_first),
    "get-drops-bounds-check": (t.ArrayGet, _get_unchecked),
    "lit-drops-fuel-tick": (t.Lit, _lit_without_tick),
    "if-swaps-branches": (t.If, _if_swapped),
    "ticks-summed-across-get-check": (t.ArrayGet, _get_check_outside_ticks),
}


def _caught(corpus) -> bool:
    return any(
        observe(term, params, width, Evaluator, 0) != observe(term, params, width, Reference, 0)
        for term, params, width in corpus
    )


def _mutation_corpus():
    corpus = []
    for program in all_programs():
        model = program.build_model()
        gen = program.validation_input_gen() or _generic_gen(model)
        for width in WIDTHS:
            rng = random.Random(f"{program.name}-{width}")
            for params in boundary_inputs(model, width, rng) + [_narrow(gen(rng), width)]:
                corpus.append((model.term, params, width))
    corpus.append((KITCHEN, KITCHEN_ENV, 64))
    return corpus


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_comparator_catches_mutant(mutant):
    node, rule = MUTANTS[mutant]
    corpus = _mutation_corpus()
    assert not _caught(corpus)
    with mock.patch.dict(closures._DISPATCH, {node: rule}), \
            mock.patch.dict(codegen._CACHE, clear=True):
        assert _caught(corpus), f"mutant {mutant} survived"
