"""Tests for the translation-validation layer."""

import random

import pytest

from repro.bedrock2 import ast as b2
from repro.core.certificate import Certificate, CertNode
from repro.core.spec import (
    FnSpec,
    Model,
    OutKind,
    array_out,
    error_out,
    ptr_arg,
    scalar_arg,
    scalar_out,
)
from repro.programs import all_programs, get_program
from repro.programs.extra import EXTRA
from repro.source.builder import let_n, sym
from repro.source.evaluator import CellV, EffectContext, Evaluator
from repro.source.types import WORD, cell_of
from repro.stdlib import default_engine
from repro.validation import (
    CertificateError,
    check_certificate,
    differential_check,
    eval_model,
    make_inputs,
    run_function,
)
from repro.validation.checker import validate
from repro.validation.runners import ModelResult


def compile_inc():
    engine = default_engine()
    body = let_n("r", sym("x", WORD) + 1, sym("r", WORD))
    model = Model("inc", [("x", WORD)], body.term, WORD)
    spec = FnSpec("inc", [scalar_arg("x")], [scalar_out()])
    return engine.compile_function(model, spec)


class TestRunner:
    def test_scalar_roundtrip(self):
        compiled = compile_inc()
        result = run_function(compiled.bedrock_fn, compiled.spec, {"x": 41})
        assert result.rets == [42]

    def test_pointer_layout(self):
        upstr = get_program("upstr").compile()
        result = run_function(
            upstr.bedrock_fn, upstr.spec, {"s": list(b"abc")}
        )
        assert result.out_memory["s"] == list(b"ABC")

    def test_cell_layout(self):
        engine = default_engine()
        from repro.source import cells

        c = cells.cell_var("c", WORD)
        body = let_n("c", cells.put(c, cells.get(c) * 2), c)
        model = Model("dbl", [("c", cell_of(WORD))], body.term, cell_of(WORD))
        spec = FnSpec("dbl", [ptr_arg("c", cell_of(WORD))], [array_out("c")])
        compiled = engine.compile_function(model, spec)
        result = run_function(compiled.bedrock_fn, compiled.spec, {"c": CellV(21)})
        assert result.out_memory["c"] == CellV(42)

    def test_counts_collected(self):
        compiled = compile_inc()
        result = run_function(compiled.bedrock_fn, compiled.spec, {"x": 1})
        assert result.counts.total() > 0

    def test_make_inputs_shapes(self):
        model = get_program("upstr").build_model()
        inputs = make_inputs(model, random.Random(0), array_len=5)
        assert isinstance(inputs["s"], list)
        assert len(inputs["s"]) == 5

    def test_eval_model_output_arity_checked(self):
        compiled = compile_inc()
        bad_spec = FnSpec("inc", [scalar_arg("x")], [scalar_out(), scalar_out()])
        with pytest.raises(ValueError):
            eval_model(compiled.model, bad_spec, {"x": 1})

    def test_eval_model_weaves_the_error_flag_where_each_spec_puts_it(self):
        model, _, _ = EXTRA["checked_index"]()
        params = {"s": [7, 8], "j": 1}
        for outputs, expected in (
            ([error_out(), scalar_out()], [1, 8]),
            ([scalar_out(), error_out()], [8, 1]),
            ([error_out(), scalar_out(), error_out()], [1, 8, 1]),
        ):
            spec = FnSpec("checked_index", [], outputs)
            assert eval_model(model, spec, params).outputs == expected
            assert eval_model(model, spec, params).outputs == expected
        failed = eval_model(model, FnSpec("f", [], [scalar_out(), error_out()]),
                            {"s": [7], "j": 3})
        assert failed.error and failed.outputs[1] == 0
        spec = FnSpec("f", [], [error_out(), scalar_out()])
        assert eval_model(model, spec, params).outputs == [1, 8]
        spec.outputs = [scalar_out(), error_out()]
        assert eval_model(model, spec, params).outputs == [8, 1]

    def test_eval_model_matches_a_direct_evaluation(self):
        cases = [EXTRA[name]()[:2] for name in sorted(EXTRA)]
        cases += [(p.build_model(), p.build_spec()) for p in all_programs()]
        rng = random.Random(5)
        for model, spec in cases:
            for _ in range(3):
                params = make_inputs(model, rng, array_len=rng.randrange(6))
                io_input = [rng.getrandbits(16) for _ in range(rng.randrange(4))]
                try:
                    expected = _direct_eval_model(model, spec, params, io_input)
                except Exception as error:  # noqa: BLE001 - compared, not swallowed
                    with pytest.raises(type(error)):
                        eval_model(model, spec, params, io_input=io_input)
                    continue
                assert eval_model(model, spec, params, io_input=io_input) == expected


def _direct_eval_model(model, spec, params, io_input):
    """``eval_model`` written out: evaluate, then weave the error flags."""
    reads = iter(io_input)
    fx = EffectContext(io_input=reads)
    result = Evaluator(width=64).eval(model.term, params, fx)
    values = iter(list(result) if isinstance(result, tuple) else [result])
    outputs = [(0 if fx.error else 1) if output.kind is OutKind.ERROR_FLAG else next(values)
               for output in spec.outputs]
    return ModelResult(outputs, fx.io_output, fx.writer_output,
                       len(io_input) - len(list(reads)), fx.error)


class TestDifferential:
    def test_correct_function_passes(self):
        report = differential_check(compile_inc(), trials=10, rng=random.Random(0))
        assert report.ok
        assert report.trials == 10

    def test_wrong_code_caught(self):
        compiled = compile_inc()
        # Swap the compiled body for x + 2.
        wrong = b2.Function(
            "inc",
            ("x",),
            ("r",),
            b2.SSet("r", b2.EOp("add", b2.EVar("x"), b2.ELit(2))),
        )
        compiled.bedrock_fn = wrong
        report = differential_check(compiled, trials=5, rng=random.Random(0))
        assert not report.ok
        assert report.failures[0].kind == "ret"

    def test_wrong_memory_caught(self):
        upstr = get_program("upstr").compile(fresh=True)
        # Replace with a function that writes nothing.
        lazy = b2.Function("upstr", ("s", "len"), (), b2.SSkip())
        upstr.bedrock_fn = lazy
        report = differential_check(
            upstr,
            trials=5,
            rng=random.Random(0),
            input_gen=lambda rng: {"s": [ord("a")] * 4},
        )
        assert not report.ok
        assert report.failures[0].kind == "memory"
        # Un-cache the tampered object for other tests.
        get_program("upstr").compile(fresh=True)

    def test_out_of_footprint_write_caught(self):
        compiled = compile_inc()
        rogue = b2.Function(
            "inc",
            ("x",),
            ("r",),
            b2.seq_of(
                b2.SStore(1, b2.ELit(0x123456), b2.ELit(0)),
                b2.SSet("r", b2.EOp("add", b2.EVar("x"), b2.ELit(1))),
            ),
        )
        compiled.bedrock_fn = rogue
        report = differential_check(compiled, trials=3, rng=random.Random(0))
        assert not report.ok
        assert report.failures[0].kind == "error"

    def test_report_raise_on_failure(self):
        compiled = compile_inc()
        compiled.bedrock_fn = b2.Function(
            "inc", ("x",), ("r",), b2.SSet("r", b2.ELit(0))
        )
        report = differential_check(compiled, trials=2, rng=random.Random(0))
        with pytest.raises(AssertionError):
            report.raise_on_failure()


class TestCertificateChecker:
    def test_valid_certificate_passes(self):
        compiled = compile_inc()
        check_certificate(compiled.certificate)

    def test_unknown_lemma_rejected(self):
        root = CertNode("derive", "goal", "<code>", children=[
            CertNode("compile_made_up", "sub", "<code>"),
            CertNode("compile_done", "post", "<code>"),
        ])
        cert = Certificate("f", root)
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_missing_postcondition_rejected(self):
        root = CertNode("derive", "goal", "<code>")
        cert = Certificate("f", root)
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_wrong_root_rejected(self):
        root = CertNode("compile_done", "goal", "<code>")
        cert = Certificate("f", root)
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_bare_derivation_for_nonempty_code_rejected(self):
        root = CertNode("derive", "goal", "<code>", children=[
            CertNode("compile_done", "post", "<code>"),
        ])
        cert = Certificate("f", root)
        with pytest.raises(CertificateError, match="2 nodes for 1 statements"):
            check_certificate(cert, statement_count=1)
        check_certificate(cert, statement_count=0)  # no code, nothing to derive
        check_certificate(cert)  # size not asked about

    def test_validate_bundles_both(self):
        validate(compile_inc(), trials=5)

    def test_certificate_render(self):
        compiled = compile_inc()
        text = compiled.certificate.render()
        assert "compile_set_scalar" in text
        assert "Derivation for 'inc'" in text
