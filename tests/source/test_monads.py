"""Tests for monadic model construction and the free monad (§3.4.1)."""

import pytest

from repro.source import monads
from repro.source import terms as t
from repro.source import listarray
from repro.source.builder import let_n, ranged_for, sym, word_lit
from repro.source.evaluator import EffectContext, eval_term
from repro.source.types import BYTE, WORD, array_of


class TestBindAndRet:
    def test_ret_wraps_value(self):
        v = monads.ret(word_lit(5))
        assert isinstance(v.term, t.MRet)
        assert eval_term(v.term) == 5

    def test_ret_lifts_int(self):
        assert eval_term(monads.ret(7).term) == 7

    def test_bind_with_symvalue_body(self):
        program = monads.bind("x", monads.ret(word_lit(3)), sym("x", WORD) + 1)
        assert eval_term(program.term) == 4

    def test_bind_with_callable_body(self):
        program = monads.bind("x", monads.ret(word_lit(3)), lambda x: x * 2)
        assert eval_term(program.term) == 6

    def test_bind_name_matches_binder(self):
        program = monads.bind("result", monads.io_read(), lambda r: monads.ret(r))
        assert program.term.name == "result"


class TestEffectSurface:
    def test_io_primitives_build_terms(self):
        assert isinstance(monads.io_read().term, t.IORead)
        assert isinstance(monads.io_write(word_lit(1)).term, t.IOWrite)

    def test_writer_tell(self):
        assert isinstance(monads.tell(word_lit(1)).term, t.WriterTell)

    def test_nd_primitives(self):
        assert isinstance(monads.nd_any(WORD).term, t.NdAny)
        alloc = monads.nd_alloc(16)
        assert isinstance(alloc.term, t.NdAllocBytes)
        assert alloc.ty == array_of(BYTE)

    def test_state_primitives(self):
        assert isinstance(monads.st_get().term, t.StGet)
        assert isinstance(monads.st_put(word_lit(1)).term, t.StPut)

    def test_mixed_pure_and_effectful_evaluation(self):
        fx = EffectContext(io_input=iter([10]))
        program = monads.bind(
            "x",
            monads.io_read(),
            lambda x: let_n("y", x * 2, monads.bind("_", monads.io_write(sym("y", WORD)), monads.ret(sym("y", WORD)))),
        )
        assert eval_term(program.term, effects=fx) == 20
        assert fx.io_output == [20]


class TestFreeMonad:
    def test_free_op_builds_call(self):
        op = monads.free_op("emit", word_lit(1))
        assert isinstance(op.term, t.Call)
        assert op.term.func == "free.emit"

    def test_interpret_free_rewrites_handled_ops(self):
        program = monads.bind(
            "_", monads.free_op("emit", word_lit(42)), monads.ret(word_lit(0))
        )
        handled = monads.interpret_free(
            program.term, {"emit": lambda v: t.IOWrite(v)}
        )
        fx = EffectContext()
        eval_term(handled, effects=fx)
        assert fx.io_output == [42]

    def test_interpret_free_leaves_unhandled_ops(self):
        program = monads.free_op("mystery", word_lit(1))
        result = monads.interpret_free(program.term, {})
        assert isinstance(result, t.Call)
        assert result.func == "free.mystery"

    @pytest.mark.parametrize("loop", ["ranged_for", "fold"])
    def test_interpret_free_rewrites_ops_inside_loop_bodies(self, loop):
        emit = lambda acc: monads.free_op("emit", acc)
        if loop == "ranged_for":
            program = ranged_for(0, 3, lambda i, acc: emit(acc), word_lit(0))
        else:
            program = listarray.fold(
                lambda acc, b: emit(acc), word_lit(0), sym("s", array_of(BYTE))
            )
        bump = lambda v: t.Prim("word.add", (v, t.Lit(1, WORD)))
        handled = monads.interpret_free(program.term, {"emit": bump})
        assert not [n for n in t.walk_terms(handled) if isinstance(n, t.Call)]
        assert handled.body == bump(program.term.body.args[0])

    def test_unhandled_free_op_stalls_compilation(self):
        """An uninterpreted free operation stalls compilation with the
        stall-and-ask message (the call lemma deliberately refuses
        ``free.*`` names: they must be handled first)."""
        from repro.core.goals import CompilationStalled
        from repro.core.spec import FnSpec, Model, scalar_out
        from repro.stdlib import default_engine

        program = monads.bind(
            "x", monads.free_op("mystery"), lambda x: monads.ret(x)
        )
        model = Model("freeprog", [], program.term, WORD)
        spec = FnSpec("freeprog", [], [scalar_out()])
        with pytest.raises(CompilationStalled):
            default_engine().compile_function(model, spec)

    def test_interpret_free_then_compile(self):
        """The intended workflow: handle the free ops, then compile."""
        from repro.core.spec import FnSpec, Model, scalar_out
        from repro.stdlib import default_engine
        from repro.validation.checker import validate

        program = monads.bind(
            "_",
            monads.free_op("emit", word_lit(9)),
            monads.ret(word_lit(0)),
        )
        handled = monads.interpret_free(program.term, {"emit": lambda v: t.IOWrite(v)})
        model = Model("emit9", [], handled, WORD)
        spec = FnSpec("emit9", [], [scalar_out()])
        compiled = default_engine().compile_function(model, spec)
        import random

        validate(compiled, trials=5, rng=random.Random(0))
        from repro.validation.runners import run_function

        result = run_function(compiled.bedrock_fn, spec, {})
        assert [e.args[0] for e in result.trace if e.action == "write"] == [9]
