"""Tests for predicate inference (§3.4.2): classify, abstract, instantiate."""

from repro.core.invariants import (
    classify_target,
    infer_template,
    merge_conditional,
)
from repro.core.sepstate import Clause, PtrSym, SymState
from repro.source import terms as t
from repro.source.types import ARRAY_BYTE, WORD, cell_of


def w(value):
    return t.Lit(value, WORD)


def cas_state():
    """The paper's CAS example: locals {"c": p}, memory cell p c."""
    state = SymState()
    ptr = PtrSym("p")
    state.bind_pointer("c", ptr, cell_of(WORD))
    state.add_clause(Clause(ptr, cell_of(WORD), t.Var("c0")))
    return state, ptr


class TestClassify:
    def test_unbound_name_is_scalar(self):
        state, _ = cas_state()
        # "r" because we do not find a binding for it in the map of locals.
        assert classify_target(state, "r").kind == "scalar"

    def test_pointer_binding_is_pointer(self):
        state, ptr = cas_state()
        # "c" because the binding we find for it is to a pointer.
        target = classify_target(state, "c")
        assert target.kind == "pointer"
        assert target.ptr == ptr

    def test_scalar_binding_is_scalar(self):
        state, _ = cas_state()
        state.bind_scalar("x", w(1), WORD)
        assert classify_target(state, "x").kind == "scalar"

    def test_pointer_without_clause_is_scalar(self):
        state = SymState()
        state.bind_pointer("d", PtrSym("q"), ARRAY_BYTE)  # no clause for q
        assert classify_target(state, "d").kind == "scalar"


class TestTemplateInstantiation:
    def test_scalar_hole_filled(self):
        state, _ = cas_state()
        template = infer_template(state, ["r"])
        new = template.instantiate({"r": w(5)}, {"r": WORD})
        assert new.value_of("r") == w(5)

    def test_pointer_hole_filled(self):
        state, ptr = cas_state()
        template = infer_template(state, ["c"])
        new = template.instantiate({"c": w(9)})
        assert new.heap[ptr].value == w(9)

    def test_base_state_unchanged(self):
        state, ptr = cas_state()
        template = infer_template(state, ["c"])
        template.instantiate({"c": w(9)})
        assert state.heap[ptr].value == t.Var("c0")


class TestConditionalMerge:
    def test_merged_value_is_source_conditional(self):
        """The CAS walkthrough: merged cell content is if t then put else c."""
        state, ptr = cas_state()
        cond = t.Var("t")
        put = t.Var("x")
        merged = merge_conditional(
            state, ["c"], cond, {"c": put}, {"c": t.Var("c0")}
        )
        assert merged.heap[ptr].value == t.If(cond, put, t.Var("c0"))

    def test_equal_branches_skip_the_conditional(self):
        state, ptr = cas_state()
        merged = merge_conditional(
            state, ["c"], t.Var("t"), {"c": w(1)}, {"c": w(1)}
        )
        assert merged.heap[ptr].value == w(1)

    def test_scalar_target_merge(self):
        state, _ = cas_state()
        merged = merge_conditional(
            state,
            ["r"],
            t.Var("t"),
            {"r": t.Lit(True, WORD)},
            {"r": t.Lit(False, WORD)},
            {"r": WORD},
        )
        value = merged.value_of("r")
        assert isinstance(value, t.If)
