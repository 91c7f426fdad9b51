"""The generated-code core (:mod:`repro.codegen`) both semantics share."""

from __future__ import annotations

import ast
import inspect

from repro import codegen
from repro.bedrock2 import ast as b2
from repro.bedrock2 import closures as b2_closures
from repro.bedrock2.semantics import Interpreter
from repro.source import closures as model_closures
from repro.source import terms as t
from repro.source.evaluator import Evaluator
from repro.source.types import ARRAY_WORD, WORD


def _counter(bound: int) -> b2.Function:
    body = b2.seq_of(
        b2.SSet("i", b2.lit(0)),
        b2.SWhile(b2.ltu(b2.var("i"), b2.lit(bound)),
                  b2.SSet("i", b2.add(b2.var("i"), b2.lit(1)))),
    )
    return b2.Function(f"count{bound}", (), ("i",), body)


def _sum_model(tag: int) -> t.Term:
    return t.ArrayFold(
        "acc", "e", t.Prim("word.add", (t.Var("acc"), t.Var("e"))),
        t.Lit(tag, WORD), t.Var("xs"),
    )


def test_the_core_imports_neither_language():
    tree = ast.parse(inspect.getsource(codegen))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert imported
    assert not [name for name in imported if name.startswith("repro")]
    modules = {getattr(value, "__module__", None) for value in vars(codegen).values()}
    assert not [m for m in modules if m and m.startswith(("repro.bedrock2", "repro.source"))]


def test_one_code_lru_bounds_both_languages():
    # Each bound and tag is a distinct literal, so each function and each
    # model a distinct source; the two languages alternate in one LRU.
    capacity = codegen.CODE_CACHE_SIZE
    sources = []
    for n in range(capacity // 2 + 20):
        fn = _counter(5000 + n)
        rets, _ = Interpreter(b2.Program((fn,))).run(fn.name, [])
        assert [ret.unsigned for ret in rets] == [5000 + n]
        sources.append(b2_closures.compiled(fn, 64).source)
        model = _sum_model(0x20_000 + n)
        assert Evaluator().eval(model, {"xs": [1]}) == 0x20_001 + n
        sources.append(model_closures.compiled(model, 64).source)
        assert len(codegen._CODE) <= capacity
    assert len(codegen._CODE) == capacity
    assert list(codegen._CODE) == sources[-capacity:]
    assert {source.count("def run(interp, state, f)") for source in sources[::2]} == {1}
    assert {source.count("def run(ev, env, fx)") for source in sources[1::2]} == {1}


def test_constants_share_a_name_only_when_interchangeable():
    module = codegen.Module({})
    assert module.const((1, ("a", b"b"))) == module.const((1, ("a", b"b")))
    assert module.const("a") == module.const("a")
    # Equal across types, but a bool stays a bool and an int an int.
    assert len({module.const(v) for v in [1, True, (1,), (True,), ((1,),), ((True,),)]}) == 6
    assert module.const([1]) != module.const([1])  # unhashable: one name each
    term = t.TupleTerm((t.Lit((True, 2), ARRAY_WORD), t.Lit((1, 2), ARRAY_WORD)))
    first, second = Evaluator().eval(term)
    assert [type(v) for v in first + second] == [bool, int, int, int]
