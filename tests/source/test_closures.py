"""The model evaluator's caches, per-width entries and thread safety."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import codegen
from repro.programs import get_program
from repro.source import closures
from repro.source import terms as t
from repro.source.evaluator import EvalError, Evaluator
from repro.source.types import ARRAY_WORD, BYTE, WORD
from tests.source.tree_walker import TreeWalker


def _sum_model(tag: int) -> t.Term:
    """An interned model no other test builds."""
    return t.ArrayFold(
        "acc", "e", t.Prim("word.add", (t.Var("acc"), t.Var("e"))),
        t.Lit(tag, WORD), t.Var("xs"),
    )


# -- Cache lifetime ----------------------------------------------------------------


def test_entry_dies_with_a_model_that_is_not_interned():
    # A list payload cannot be interned, and neither can its parents.
    term = t.Let("a", t.Lit([1, 2, 3], ARRAY_WORD), t.ArrayLen(t.Var("a")))
    assert not term.__dict__.get("_hc_canonical")
    assert Evaluator().eval(term) == 3
    key = id(term)
    assert key in codegen._CACHE
    del term
    gc.collect()
    assert key not in codegen._CACHE


def test_clearing_the_intern_table_releases_interned_models():
    term = _sum_model(0x5EED_C10)
    assert term.__dict__.get("_hc_canonical")
    assert Evaluator().eval(term, {"xs": [1, 2]}) == 0x5EED_C10 + 3
    key = id(term)
    del term
    gc.collect()
    assert key in codegen._CACHE  # the intern table still holds the model
    t.clear_intern_table()
    gc.collect()
    assert key not in codegen._CACHE


def test_entries_are_per_width():
    term = t.Prim("word.add", (t.Var("x"), t.Lit(1, WORD)))
    assert Evaluator(width=32).eval(term, {"x": 2**32 - 1}) == 0
    assert Evaluator(width=64).eval(term, {"x": 2**32 - 1}) == 2**32
    code32, code64 = closures.compiled(term, 32), closures.compiled(term, 64)
    assert code32 is not code64
    assert closures.compiled(term, 32) is code32
    assert set(codegen._CACHE[id(term)][1]) == {32, 64}


def test_no_closure_references_a_term():
    # The compiled model holds its source, its function and the function's
    # namespace of constants; none of them keeps the model alive.
    model = get_program("crc32").build_model().term
    code = closures.compiled(model, 64)
    namespace = code.run.__globals__
    assert namespace is not vars(closures)
    assert code.run.__closure__ is None
    assert len(namespace) > 10
    assert not [v for v in namespace.values() if isinstance(v, t.Term)]


def test_cache_stays_bounded_over_fresh_models():
    gc.collect()
    before = len(codegen._CACHE)
    for tag in range(500):
        term = t.Let("a", t.Lit([tag], ARRAY_WORD), t.ArrayLen(t.Var("a")))
        assert Evaluator().eval(term) == 1
    del term
    gc.collect()
    assert len(codegen._CACHE) <= before


def test_code_cache_is_a_bounded_lru_keyed_by_source():
    capacity = codegen.CODE_CACHE_SIZE
    for tag in range(capacity + 40):
        assert Evaluator().eval(_sum_model(0x10_000 + tag), {"xs": [1]}) == 0x10_001 + tag
        assert len(codegen._CODE) <= capacity
    assert len(codegen._CODE) == capacity
    newest = closures.compiled(_sum_model(0x10_000 + capacity + 39), 64).source
    assert next(reversed(codegen._CODE)) == newest


def test_models_that_differ_only_in_constants_share_code():
    # Tables and names are namespace constants, so two such models
    # generate the same source: one code object, two namespaces.
    def model(name, data):
        return t.Let(name, t.Var("x"), t.TableGet(data, BYTE, t.Var(name)))

    first = closures.compiled(model("i", (1, 2, 3)), 64)
    second = closures.compiled(model("j", (7, 8, 9)), 64)
    assert first.source == second.source
    assert first.run.__code__ is second.run.__code__
    assert Evaluator().eval(model("i", (1, 2, 3)), {"x": 1}) == 2
    assert Evaluator().eval(model("j", (7, 8, 9)), {"x": 1}) == 8


# -- Concurrency -------------------------------------------------------------------


def _outcome(evaluator_cls, term, env, fuel):
    evaluator = evaluator_cls(fuel=fuel)
    try:
        return ("ok", evaluator.eval(term, env), evaluator._steps)
    except EvalError as error:
        return ("error", str(error), evaluator._steps)


def test_threads_share_one_compiled_model_and_no_run_state():
    model = get_program("crc32").build_model().term
    requests = [
        ({"s": list(range(40))}, 10_000_000),
        ({"s": [0xFF] * 33}, 200),  # runs out of fuel part-way
        ({"s": [7, 9]}, 10_000_000),
    ]
    expected = [_outcome(TreeWalker, model, env, fuel) for env, fuel in requests]
    assert expected[1][0] == "error"
    closures.compiled(model, 64)  # one compile, shared by every thread
    seen = {index: [] for index in range(len(requests))}

    def client(index):
        env, fuel = requests[index]
        for _ in range(40):
            seen[index].append(_outcome(Evaluator, model, env, fuel))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, outcomes in seen.items():
        assert outcomes == [expected[index]] * 40


def _mret_nest(depth: int) -> t.Term:
    term = t.Lit(depth, WORD)
    for _ in range(depth):
        term = t.MRet(term)
    return term


def test_a_term_too_deep_to_compile_is_an_eval_error():
    limit = closures.MAX_DEPTH
    message = f"term nests deeper than the model evaluator's limit of {limit}"
    for depth in (sys.getrecursionlimit() * 2 // 3, sys.getrecursionlimit() * 3 // 2):
        assert depth > limit
        evaluator = Evaluator()
        with pytest.raises(EvalError, match=f"^{message}$"):
            evaluator.eval(_mret_nest(depth))
        assert evaluator._steps == 0
    # The deepest term within the limit compiles and runs.
    evaluator = Evaluator()
    assert evaluator.eval(_mret_nest(limit - 1)) == limit - 1
    assert evaluator._steps == limit
    with pytest.raises(EvalError, match=f"^{message}$"):
        Evaluator().eval(_mret_nest(limit))
