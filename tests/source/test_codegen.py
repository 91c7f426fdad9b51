"""The generated model evaluator at its edges, against the tree-walker.

Each case compares ``Evaluator`` with :class:`TreeWalker` through
``assert_same`` (value or error, steps and effects): names that are not
Python identifiers, terms nested exactly :data:`MAX_DEPTH` deep (deeper
than CPython nests in one function, so they run through helper
functions), and every corpus model with every node moved into a helper.
The generated sources are checked to be built from the generator's own
vocabulary only, so no string of a term can reach them.
"""

from __future__ import annotations

import io
import keyword
import random
import re
import tokenize
from unittest import mock

import pytest

from repro import codegen
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.resilience.generator import generate_case
from repro.source import closures
from repro.source import terms as t
from repro.source.evaluator import CellV, EvalError, Evaluator
from repro.source.types import ARRAY_WORD, BOOL, BYTE, NAT, WORD
from tests.source.test_model_eval_equivalence import (
    KITCHEN,
    KITCHEN_ENV,
    STUCK,
    _generic_gen,
    _sweep,
    assert_same,
)
from tests.source.tree_walker import TreeWalker

LIMIT = closures.MAX_DEPTH
TOO_DEEP = f"^term nests deeper than the model evaluator's limit of {LIMIT}$"


def _source(term, width=64):
    return closures.compiled(term, width).source


def w(value):
    return t.Lit(value, WORD)


def add(a, b):
    return t.Prim("word.add", (a, b))


# -- Names ----------------------------------------------------------------------

# Binder, parameter and function names no Python identifier could be, and
# names of the generator's own locals and runtime objects.
HOSTILE = [
    "x); import os; (",
    "acc\nraise SystemExit",
    "'''",
    '"',
    "{a}",
    "f",
    "fuel",
    "ev",
    "t1",
    "v1",
    "k0",
    "_U",
    "EvalError",
]


def _hostile_term(names):
    a, b, c, d, e, g, h, i, j, k, m, n, p = names
    return t.Let(
        a, add(t.Var(b), w(1)),
        t.LetTuple(
            (c, d), t.TupleTerm((t.Var(a), t.ArrayLen(t.Var(e)))),
            t.TupleTerm((
                t.ArrayFold(g, h, add(t.Var(g), t.Var(h)), t.Var(c), t.Var(e)),
                t.RangedFor(t.Lit(0, NAT), t.Var(d), i, g, add(t.Var(g), t.Var(i)), w(0)),
                t.ArrayMap(h, add(t.Var(h), t.Var(d)), t.Var(e)),
                QAggregate(i, g, t.Var(d), w(0), add(t.Var(g), t.Var(i))),
                QJoinAgg(i, j, g, t.Var(d), t.Lit(2, NAT), w(0),
                         add(t.Var(g), t.Prim("word.mul", (t.Var(i), t.Var(j))))),
                QProjectInto(i, t.Var(e), t.ArrayGet(t.Var(e), t.Var(i))),
                t.MBind(k, t.IORead(), t.MRet(add(t.Var(k), t.Var(a)))),
                t.Call(m, (t.Var(a),)),
                t.TableGet((9, 8, 7), BYTE, t.Prim("word.remu", (t.Var(n), w(3)))),
                t.If(t.Var(p), t.Var(n), t.Var(b)),
            )),
        ),
    )


def _hostile_env(names):
    _, b, _, _, e, _, _, _, _, _, m, n, p = names
    return {b: 4, e: [1, 2, 3], n: 5, p: True, "__functions__": {m: lambda x: 3 * x}}


@pytest.mark.parametrize("width", (32, 64))
@pytest.mark.parametrize("shift", range(3))
def test_hostile_names_evaluate_like_the_tree_walker(shift, width):
    names = (HOSTILE * 2)[shift:shift + 13]
    term, env = _hostile_term(names), _hostile_env(names)
    outcome = assert_same(term, env, width, seed=0)
    assert outcome[0] == "ok", outcome
    _sweep(term, env, width)


def test_no_term_string_appears_in_the_source():
    names = [f"zq{index}{name}" for index, name in enumerate(HOSTILE)]
    term = _hostile_term(names)
    source = _source(term)
    assert not [name for name in names if name in source]
    # Its messages and tables are constants too.
    assert "word." not in source and "9, 8, 7" not in source
    assert "unbound" not in source and "InlineTable" not in source


# -- Temporaries ----------------------------------------------------------------


def _lt(a, b):
    return t.Prim("word.ltu", (a, b))


# Each reads a name bound to the temporary of the node just before it, in
# a place the generator folds a fresh temporary into (an ``if`` test, an
# arm, a loop body's result, a break test), and reads it again after.
BOUND_TEMPORARIES = [
    t.Let("x", _lt(t.Var("a"), t.Var("b")), t.If(t.Var("x"), t.Var("x"), w(0))),
    t.Let("x", add(t.Var("a"), w(1)),
          t.If(t.Var("c"), t.Let("y", add(t.Var("x"), w(2)), t.Var("y")), t.Var("x"))),
    t.ArrayFold("acc", "e",
                t.Let("y", add(t.Var("acc"), t.Var("e")),
                      t.If(_lt(t.Var("y"), w(9)), t.Var("y"), t.Var("acc"))),
                w(0), t.Var("xs")),
    t.ArrayFoldBreak("acc", "e", t.Let("y", add(t.Var("acc"), t.Var("e")), t.Var("y")),
                     w(0), t.Var("xs"),
                     t.Let("z", _lt(w(5), t.Var("acc")), t.Var("z"))),
    t.Let("x", _lt(t.Var("a"), t.Var("b")),
          t.MBind("_", t.ErrGuard(t.Var("x")), t.MRet(t.Var("x")))),
]


@pytest.mark.parametrize("index", range(len(BOUND_TEMPORARIES)))
def test_a_temporary_bound_to_a_name_stays_defined(index):
    env = {"a": 1, "b": 2, "c": False, "xs": [3, 4, 5]}
    outcome = assert_same(BOUND_TEMPORARIES[index], env, 64, seed=0)
    assert outcome[0] == "ok", outcome


# -- Vocabulary -----------------------------------------------------------------

_OWN_NAMES = {
    "ev", "env", "fx", "fuel", "f", "e", "run", "Exception",
    # builtins the templates and node rules call
    "int", "len", "list", "isinstance", "range", "max", "bool", "tuple", "dict",
    # attributes of the evaluator, the effects and the traceback
    "_steps", "error", "state", "oracle", "io_output", "writer_output", "append",
    "value", "get", "__traceback__", "tb_lineno",
}
_OWN_PATTERN = re.compile(r"[tvkh]\d+")


def _foreign_tokens(source: str):
    """Tokens of ``source`` outside the generator's own vocabulary."""
    foreign = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.STRING:
            foreign.append(token.string)
        elif token.type == tokenize.NUMBER and not token.string.isdigit():
            foreign.append(token.string)
        elif token.type == tokenize.NAME and not (
            keyword.iskeyword(token.string)
            or token.string in _OWN_NAMES
            or token.string in closures._RUNTIME
            or _OWN_PATTERN.fullmatch(token.string)
            or token.string == "_P"
        ):
            foreign.append(token.string)
    return foreign


def _corpus_terms():
    terms = [program.build_model().term for program in all_programs() + all_query_programs()]
    terms += [generate_case(random.Random(9100 + index), index).model.term for index in range(30)]
    terms += [KITCHEN, _hostile_term(HOSTILE)]
    terms += [term for term, _ in STUCK.values()]
    return terms


def test_sources_hold_only_the_generators_own_tokens():
    for term in _corpus_terms():
        for width in (32, 64):
            source = _source(term, width)
            assert not _foreign_tokens(source), source


# -- Depth ----------------------------------------------------------------------


def _depth(term) -> int:
    """Nodes on the longest path from ``term`` down."""
    return 1 + max((_depth(child) for child in term.children()), default=0)


def _prim_chain(depth):
    term = t.Var("x")
    for level in range(depth - 1):
        term = t.Prim("word.xor" if level % 2 else "word.add", (term, w(level)))
    return term, {"x": 5}


def _if_chain(depth):
    term = t.Var("x")
    for level in range(depth - 1):
        term = t.If(t.Var(f"c{level % 3}"), term, w(level))
    return term, {"x": 5, "c0": True, "c1": 1, "c2": [0]}


def _let_chain(depth):
    term = t.Var("x")
    for level in range(depth - 1):
        term = t.Let("x", t.Var("x") if level < 2 else add(t.Var("x"), w(level)), term)
    return term, {"x": 5}


def _fold_chain(depth):
    # Each fold runs over a one-element array, so the work stays linear.
    term = t.Var("acc")
    for level in range(depth - 1):
        init = t.Var("acc") if level else w(1)
        term = t.ArrayFold("acc", f"e{level % 4}", term, init, t.Var("xs"))
    return term, {"xs": [3], "acc": 0}


SHAPES = {
    "prim-chain": _prim_chain,
    "if-chain": _if_chain,
    "let-chain": _let_chain,
    "fold-chain": _fold_chain,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_term_exactly_max_depth_deep_runs_like_the_tree_walker(shape):
    term, env = SHAPES[shape](LIMIT)
    assert _depth(term) == LIMIT
    outcome = assert_same(term, env, 64, seed=0)
    assert outcome[0] == "ok", outcome
    # Too deep for one Python function: the nests run through helpers.
    if shape in ("if-chain", "fold-chain"):
        assert "def h0(" in _source(term)
    fuel = outcome[2] - 1  # one tick short
    short = assert_same(term, env, 64, seed=0, fuel=fuel)
    assert short[:3] == ("error", "EvalError", "evaluation fuel exhausted")


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_deeper_is_the_eval_error_that_names_the_limit(shape):
    term, env = SHAPES[shape](LIMIT + 1)
    assert _depth(term) == LIMIT + 1
    evaluator = Evaluator()
    with pytest.raises(EvalError, match=TOO_DEEP):
        evaluator.eval(term, env)
    assert evaluator._steps == 0
    assert TreeWalker().eval(term, env) is not None  # the oracle has no limit


# -- Helpers --------------------------------------------------------------------


@pytest.fixture
def every_node_in_a_helper(monkeypatch):
    """Limits so low that each node below the top moves into a helper."""
    monkeypatch.setattr(codegen, "MAX_INDENT", 2)
    monkeypatch.setattr(codegen, "MAX_BLOCKS", 1)
    with mock.patch.dict(codegen._CACHE, clear=True):
        yield


def test_helpers_keep_values_steps_and_effects(every_node_in_a_helper):
    assert _source(KITCHEN).count("def h") > 40
    _sweep(KITCHEN, KITCHEN_ENV)
    names = (HOSTILE * 2)[:13]
    _sweep(_hostile_term(names), _hostile_env(names))
    for term, _ in STUCK.values():
        assert_same(term, {"xs": [1, 2, 3], "c": CellV(1)}, 64, seed=0)


@pytest.mark.parametrize(
    "program", all_programs() + all_query_programs(), ids=lambda p: p.name
)
def test_helpers_agree_on_the_corpus(every_node_in_a_helper, program):
    model = program.build_model()
    gen = program.validation_input_gen() or _generic_gen(model)
    rng = random.Random(program.name)
    for seed in range(3):
        assert_same(model.term, gen(rng), 64, seed)


def test_error_monad_and_effects_through_helpers(every_node_in_a_helper):
    term = t.MBind(
        "r", t.IORead(),
        t.MBind("_", t.ErrGuard(t.Prim("word.ltu", (t.Var("r"), w(1 << 40)))),
                t.MRet(t.TupleTerm((t.IOWrite(t.Var("r")), t.WriterTell(w(7)),
                                    t.StPut(add(t.StGet(), w(1))),
                                    t.NdAny(WORD), t.NdAllocBytes(2),
                                    t.Lit((1, 2), ARRAY_WORD), t.Lit(False, BOOL))))),
    )
    for seed in range(4):
        assert_same(term, {}, 64, seed)
    _sweep(term, {})
