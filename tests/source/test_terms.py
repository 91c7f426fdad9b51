"""Tests for the source term IR: free variables, substitution, printing."""

from dataclasses import dataclass

import pytest

from repro.source import terms as t
from repro.source.types import BYTE, WORD


def w(value):
    return t.Lit(value, WORD)


class TestFreeVars:
    def test_var(self):
        assert t.free_vars(t.Var("x")) == {"x"}

    def test_lit(self):
        assert t.free_vars(w(1)) == set()

    def test_prim(self):
        term = t.Prim("word.add", (t.Var("x"), t.Var("y")))
        assert t.free_vars(term) == {"x", "y"}

    def test_let_binds_body(self):
        term = t.Let("x", t.Var("y"), t.Var("x"))
        assert t.free_vars(term) == {"y"}

    def test_let_value_not_bound(self):
        term = t.Let("x", t.Var("x"), t.Var("x"))
        assert t.free_vars(term) == {"x"}

    def test_map_binds_elem(self):
        term = t.ArrayMap("b", t.Prim("byte.and", (t.Var("b"), t.Var("m"))), t.Var("a"))
        assert t.free_vars(term) == {"m", "a"}

    def test_fold_binds_acc_and_elem(self):
        body = t.Prim("word.add", (t.Var("acc"), t.Var("b")))
        term = t.ArrayFold("acc", "b", body, t.Var("init"), t.Var("a"))
        assert t.free_vars(term) == {"init", "a"}

    def test_ranged_for(self):
        body = t.Prim("word.add", (t.Var("acc"), t.Var("i")))
        term = t.RangedFor(w(0), t.Var("n"), "i", "acc", body, t.Var("z"))
        assert t.free_vars(term) == {"n", "z"}

    def test_nat_iter(self):
        term = t.NatIter(t.Var("n"), "acc", t.Var("acc"), t.Var("c"))
        assert t.free_vars(term) == {"n", "c"}

    def test_mbind(self):
        term = t.MBind("x", t.IORead(), t.IOWrite(t.Var("x")))
        assert t.free_vars(term) == set()


class TestSubst:
    def test_var_replaced(self):
        assert t.subst(t.Var("x"), "x", w(1)) == w(1)

    def test_other_var_untouched(self):
        assert t.subst(t.Var("y"), "x", w(1)) == t.Var("y")

    def test_shadowing_let(self):
        term = t.Let("x", t.Var("x"), t.Var("x"))
        result = t.subst(term, "x", w(5))
        assert result == t.Let("x", w(5), t.Var("x"))

    def test_subst_under_let(self):
        term = t.Let("y", w(0), t.Var("x"))
        assert t.subst(term, "x", w(7)).body == w(7)

    def test_subst_in_prim(self):
        term = t.Prim("word.add", (t.Var("x"), t.Var("x")))
        assert t.subst(term, "x", w(2)) == t.Prim("word.add", (w(2), w(2)))

    def test_map_shadowing(self):
        term = t.ArrayMap("b", t.Var("b"), t.Var("a"))
        result = t.subst(term, "b", w(9))
        assert result.body == t.Var("b")

    def test_subst_in_if(self):
        term = t.If(t.Var("c"), t.Var("x"), t.Var("x"))
        result = t.subst(term, "x", w(3))
        assert result.then_ == w(3) and result.else_ == w(3)

    def test_subst_array_nodes(self):
        term = t.ArrayPut(t.Var("a"), t.Var("i"), t.Var("v"))
        result = t.subst(t.subst(term, "i", w(0)), "v", w(1))
        assert result == t.ArrayPut(t.Var("a"), w(0), w(1))

    def test_subst_under_err_guard(self):
        # ``subst`` used to return an ``ErrGuard`` unchanged while
        # ``free_vars`` of the same term reported the variable.
        term = t.ErrGuard(t.Var("x"))
        assert t.free_vars(term) == {"x"}
        assert t.subst(term, "x", w(1)) == t.ErrGuard(w(1))

    def test_fold_break_scopes(self):
        # ``acc`` is bound in the body and the break predicate, ``b`` in
        # the body alone, and neither in ``init`` or ``arr``.
        pred = t.Prim("word.ltu", (t.Var("acc"), t.Var("b")))
        term = t.ArrayFoldBreak("acc", "b", t.Var("b"), t.Var("acc"), t.Var("b"), pred)
        assert t.free_vars(term) == {"acc", "b"}
        result = t.subst(term, "b", w(4))
        assert result.body == t.Var("b") and result.arr == w(4)
        assert result.break_pred == t.Prim("word.ltu", (t.Var("acc"), w(4)))
        assert t.subst(term, "acc", w(5)).break_pred == pred

    def test_unchanged_term_is_returned_itself(self):
        term = t.Let("x", w(0), t.Prim("word.add", (t.Var("x"), w(1))))
        assert t.subst(term, "x", w(9)) is term
        assert t.subst(term, "y", w(9)) is term


class TestBindersAndChildren:
    def test_let_binders(self):
        assert t.Let("x", w(0), t.Var("x")).binders() == ("x",)

    def test_fold_binders(self):
        term = t.ArrayFold("acc", "b", t.Var("acc"), w(0), t.Var("a"))
        assert term.binders() == ("acc", "b")

    def test_lit_has_no_children(self):
        assert w(0).children() == ()

    def test_prim_children(self):
        term = t.Prim("word.add", (w(1), w(2)))
        assert term.children() == (w(1), w(2))

    def test_map_binders(self):
        assert t.ArrayMap("b", t.Var("b"), t.Var("a")).binders() == ("b",)


class TestWalkAndMap:
    def test_walk_terms_is_pre_order(self):
        term = t.Let("x", t.Prim("word.add", (w(1), w(2))), t.Var("x"))
        assert t.walk_terms(term) == [
            term, term.value, w(1), w(2), t.Var("x"),
        ]

    def test_map_term_is_bottom_up_and_binder_naive(self):
        term = t.Let("x", t.Var("x"), t.Prim("word.add", (t.Var("x"), w(1))))
        seen = []

        def rename(node):
            seen.append(type(node).__name__)
            return t.Var("y") if node == t.Var("x") else node

        result = t.map_term(term, rename)
        assert result == t.Let("x", t.Var("y"), t.Prim("word.add", (t.Var("y"), w(1))))
        assert seen == ["Var", "Var", "Lit", "Prim", "Let"]


@dataclass(frozen=True)
class Undeclared(t.Term):
    """A head with a ``Term``-valued field and no ``@subterms``."""

    value: t.Term


@dataclass(frozen=True)
class Fieldless(t.Term):
    """A head without fields: a leaf, no declaration needed."""


class TestUndeclaredHeads:
    @pytest.mark.parametrize(
        "traverse",
        [
            Undeclared.children,
            Undeclared.binders,
            t.free_vars,
            lambda term: t.subst(term, "x", w(1)),
            t.walk_terms,
            lambda term: t.map_term(term, lambda node: node),
        ],
        ids=["children", "binders", "free_vars", "subst", "walk_terms", "map_term"],
    )
    def test_term_valued_fields_without_declaration_raise(self, traverse):
        with pytest.raises(TypeError, match="Undeclared"):
            traverse(Undeclared(t.Var("x")))
        if traverse not in (Undeclared.children, Undeclared.binders):
            with pytest.raises(TypeError, match="Undeclared"):
                traverse(t.Let("y", w(0), Undeclared(t.Var("x"))))

    def test_fieldless_head_is_a_leaf(self):
        node = Fieldless()
        assert node.children() == () and node.binders() == ()
        assert t.free_vars(node) == set()
        assert t.subst(node, "x", w(1)) is node
        assert t.walk_terms(t.MRet(node)) == [t.MRet(node), node]

    def test_declaration_names_real_fields(self):
        with pytest.raises(TypeError, match="no field 'missing'"):
            t.subterms("missing")(Undeclared)
        with pytest.raises(TypeError, match="scope"):
            t.subterms("value", other=("value",))(Undeclared)


class TestPretty:
    def test_let_renders_with_name(self):
        text = t.pretty(t.Let("h", w(0), t.Var("h")))
        assert "let/n h :=" in text

    def test_map_renders_lambda(self):
        term = t.ArrayMap("b", t.Var("b"), t.Var("s"))
        assert "ListArray.map (fun b =>" in t.pretty(term)

    def test_table_renders_size(self):
        term = t.TableGet((1, 2, 3), BYTE, t.Var("i"))
        assert "<3 entries>" in t.pretty(term)

    def test_monadic_bind_renders(self):
        term = t.MBind("x", t.IORead(), t.MRet(t.Var("x")))
        text = t.pretty(term)
        assert "let/n! x := io.read()" in text
