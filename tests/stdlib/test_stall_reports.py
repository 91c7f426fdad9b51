"""Structured stall taxonomy: each lemma family reports machine-readable goals.

One test per stdlib lemma family asserting that its designed stall
condition fires with the right :class:`~repro.core.goals.StallReport`
slug and family tag, that ``str(exc)`` keeps the human-readable
stall-and-report rendering, and that ``to_json()`` round-trips.
"""

import json

import pytest

from repro.core.goals import CompilationStalled, StallReport
from repro.core.spec import FnSpec, array_out, len_arg, ptr_arg, scalar_out
from repro.query import terms as qt
from repro.source import listarray, monads
from repro.source import terms as t
from repro.source.annotations import stack
from repro.source.builder import let_n, sym
from repro.source.types import ARRAY_BYTE, WORD, cell_of
from repro.stdlib import default_engine

from tests.stdlib.helpers import compile_model


def compile_stalled(name, params, term, spec):
    with pytest.raises(CompilationStalled) as excinfo:
        compile_model(name, params, term, spec)
    return excinfo.value


def inplace_spec(fname):
    return FnSpec(
        fname,
        [ptr_arg("s", ARRAY_BYTE), len_arg("len", "s")],
        [array_out("s")],
    )


class TestStallTaxonomy:
    def test_loops_map_must_rebind_array_name(self):
        # A store loop (map in place, projection into an array) writes
        # the array it walks, so it must rebind that array's own name.
        s = sym("s", ARRAY_BYTE)
        project = qt.QProjectInto("k", t.Var("s"), t.ArrayGet(t.Var("s"), t.Var("k")))
        for family, value, advice in (
            ("loops", listarray.map_(lambda b: b ^ 1, s).term, "rebinding"),
            ("queries", project, "rebind"),
        ):
            body = t.Let("d", value, t.Var("d"))
            exc = compile_stalled(
                "badmap", [("s", ARRAY_BYTE)], body, inplace_spec("badmap")
            )
            assert exc.report.reason == StallReport.UNSUPPORTED_SHAPE
            assert exc.report.family == family
            assert advice in str(exc)

    def test_copying_source_shape_not_supported(self):
        # copy() of a non-array value stalls in the copying lemma.
        from repro.source.annotations import copy

        equal_lengths = t.Prim(
            "nat.eqb", (t.ArrayLen(t.Var("d")), t.ArrayLen(t.Var("s")))
        )
        # Destination is an array of words, source an array of bytes: the
        # copying lemma detects the element-type mismatch.
        from repro.source.types import array_of

        word_spec = FnSpec(
            "badcopy",
            [
                ptr_arg("s", ARRAY_BYTE),
                ptr_arg("d", array_of(WORD)),
                len_arg("len", "s"),
            ],
            [array_out("d")],
            facts=[equal_lengths],
        )
        s = sym("s", ARRAY_BYTE)
        body = let_n("d", copy(s), sym("d", array_of(WORD)))
        exc = compile_stalled(
            "badcopy",
            [("s", ARRAY_BYTE), ("d", array_of(WORD))],
            body.term,
            word_spec,
        )
        assert exc.report.family == "copying"
        assert exc.report.reason == StallReport.UNSUPPORTED_SHAPE

    def test_stack_alloc_requires_literal_initializer(self):
        s = sym("s", ARRAY_BYTE)
        body = let_n(
            "tmp",
            stack(s),
            let_n(
                "r",
                listarray.get(sym("tmp", ARRAY_BYTE), 0).to_word(),
                sym("r", WORD),
            ),
        )
        spec = FnSpec(
            "badstack",
            [ptr_arg("s", ARRAY_BYTE), len_arg("len", "s")],
            [scalar_out()],
        )
        exc = compile_stalled("badstack", [("s", ARRAY_BYTE)], body.term, spec)
        assert exc.report.family == "stack_alloc"
        assert exc.report.reason == StallReport.UNSUPPORTED_SHAPE
        assert "literal" in exc.advice

    def test_monads_state_param_without_pointer_arg(self):
        program = monads.bind("v", monads.st_get(), lambda v: monads.ret(v))
        spec = FnSpec(
            "badst", [], [scalar_out()], state_param="st"
        )
        exc = compile_stalled("badst", [("st", cell_of(WORD))], program.term, spec)
        assert exc.report.family == "monads"
        assert exc.report.reason == StallReport.SPEC_MISMATCH

    def test_exprs_prim_engine_stall_names_databases(self):
        # An expression goal no lemma matches: the engine's structured
        # stall carries the expr database name and the taxonomy slug.
        engine = default_engine()
        from repro.core.sepstate import SymState

        bad_term = t.Lit((1, 2, 3), ARRAY_BYTE)  # an array literal is not scalar
        with pytest.raises(CompilationStalled) as excinfo:
            engine.compile_expr_term(SymState(), bad_term, None)
        exc = excinfo.value
        assert exc.report.reason == StallReport.NO_EXPR_LEMMA
        assert "exprs" in exc.report.databases

    def test_expr_reflective_unhandled_term(self):
        from repro.stdlib.expr_reflective import compile_expr_reflective
        from repro.core.sepstate import SymState

        engine = default_engine()
        bad_term = t.Lit((1, 2, 3), ARRAY_BYTE)
        with pytest.raises(CompilationStalled) as excinfo:
            compile_expr_reflective(engine, SymState(), bad_term)
        exc = excinfo.value
        assert exc.report.reason == StallReport.NO_EXPR_LEMMA
        assert exc.report.family == "expr_reflective"

    def test_stall_report_json_roundtrip(self):
        s = sym("s", ARRAY_BYTE)
        body = let_n("d", listarray.map_(lambda b: b ^ 1, s), sym("d", ARRAY_BYTE))
        exc = compile_stalled(
            "jsonmap", [("s", ARRAY_BYTE)], body.term, inplace_spec("jsonmap")
        )
        payload = json.loads(exc.to_json())
        assert payload["reason"] == StallReport.UNSUPPORTED_SHAPE
        assert payload["family"] == "loops"
        assert payload["goal"]

    def test_nearest_misses_name_shape_matching_lemmas(self):
        # A ListArray.map whose array operand is not a Var: the in-place
        # lemma's `matches` refuses, so the engine stall lists it as a
        # nearest miss (same ArrayMap head constructor).
        s = sym("s", ARRAY_BYTE)
        mapped_twice = listarray.map_(
            lambda b: b ^ 1, listarray.map_(lambda b: b + 1, s)
        )
        body = let_n("s", mapped_twice, s)
        exc = compile_stalled(
            "missmap", [("s", ARRAY_BYTE)], body.term, inplace_spec("missmap")
        )
        assert exc.report.reason == StallReport.NO_BINDING_LEMMA
        assert "compile_arraymap_inplace" in exc.report.nearest_misses

    def test_message_format_backward_compatible(self):
        s = sym("s", ARRAY_BYTE)
        body = let_n("d", listarray.map_(lambda b: b ^ 1, s), sym("d", ARRAY_BYTE))
        exc = compile_stalled(
            "compatmap", [("s", ARRAY_BYTE)], body.term, inplace_spec("compatmap")
        )
        rendered = str(exc)
        assert rendered.startswith("compilation stalled on unsolved subgoal:")
        assert "hint:" in rendered
