"""The query term heads' binding structure, substitution, evaluation, and
pretty-printing, exercised through the *core* entry points: free_vars and
subst read each head's declared scopes, pretty and Evaluator dispatch to
its hooks, and none of them imports repro.query."""

from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.source import terms as t
from repro.source.evaluator import Evaluator
from repro.source.types import NAT, WORD
from tests.source.tree_walker import TreeWalker


def _agg(count=t.ArrayLen(t.Var("a"))):
    body = t.Prim("word.add", (t.Var("acc"), t.ArrayGet(t.Var("a"), t.Var("i"))))
    return QAggregate("i", "acc", count, t.Lit(0, WORD), body)


def test_free_vars_hide_binders():
    agg = _agg()
    assert t.free_vars(agg) == {"a"}
    join = QJoinAgg(
        "i", "j", "acc",
        t.ArrayLen(t.Var("l")), t.ArrayLen(t.Var("r")),
        t.Lit(0, WORD),
        t.Prim("word.add", (t.Var("acc"), t.Var("x"))),
    )
    assert t.free_vars(join) == {"l", "r", "x"}
    proj = QProjectInto("i", t.Var("out"), t.ArrayGet(t.Var("a"), t.Var("i")))
    assert t.free_vars(proj) == {"out", "a"}


def test_subst_respects_shadowing():
    agg = _agg()
    # "i" and "acc" are bound: substituting them leaves the body alone.
    assert t.subst(agg, "i", t.Lit(9, NAT)).body == agg.body
    assert t.subst(agg, "acc", t.Lit(9, WORD)).body == agg.body
    # A free variable substitutes everywhere.
    replaced = t.subst(agg, "a", t.Var("b"))
    assert t.free_vars(replaced) == {"b"}


def test_subst_into_projection_body():
    proj = QProjectInto(
        "i", t.Var("out"),
        t.Prim("word.add", (t.ArrayGet(t.Var("a"), t.Var("i")), t.Var("c"))),
    )
    replaced = t.subst(proj, "c", t.Lit(5, WORD))
    assert "c" not in t.free_vars(replaced)
    # The index binder shadows.
    assert t.subst(proj, "i", t.Lit(3, NAT)).body == proj.body


def test_eval_aggregate():
    agg = _agg()
    value = Evaluator().eval(agg, {"a": [1, 2, 3]})
    assert value == 6


def test_eval_join_agg_order_and_accumulation():
    body = t.If(
        t.Prim(
            "word.eq",
            (t.ArrayGet(t.Var("l"), t.Var("i")), t.ArrayGet(t.Var("r"), t.Var("j"))),
        ),
        t.Prim("word.add", (t.Var("acc"), t.Lit(1, WORD))),
        t.Var("acc"),
    )
    join = QJoinAgg(
        "i", "j", "acc",
        t.ArrayLen(t.Var("l")), t.ArrayLen(t.Var("r")),
        t.Lit(0, WORD), body,
    )
    value = Evaluator().eval(join, {"l": [1, 2], "r": [2, 2, 5]})
    assert value == 2  # the 2 matches twice


def test_eval_project_into():
    proj = QProjectInto(
        "i", t.Var("out"),
        t.Prim("word.mul", (t.ArrayGet(t.Var("a"), t.Var("i")), t.Lit(2, WORD))),
    )
    value = Evaluator().eval(proj, {"a": [1, 2, 3], "out": [0, 0, 0]})
    assert value == [2, 4, 6]


def _agree(head, reduced, env):
    """The head compiled, the model oracle's case for the head, and the
    oracle on the core loop the lemma reduces the head to: one value."""
    expected = TreeWalker().eval(reduced, env)
    assert Evaluator().eval(head, env) == expected
    assert TreeWalker().eval(head, env) == expected


def test_as_ranged_for_agrees_with_eval_node():
    agg = _agg()
    _agree(agg, agg.as_ranged_for(), {"a": [5, 7, 9]})


def test_as_nested_ranged_for_agrees_with_eval_node():
    body = t.Prim(
        "word.add",
        (t.Var("acc"),
         t.Prim(
             "word.mul",
             (t.ArrayGet(t.Var("l"), t.Var("i")),
              t.ArrayGet(t.Var("r"), t.Var("j"))),
         )),
    )
    join = QJoinAgg(
        "i", "j", "acc",
        t.ArrayLen(t.Var("l")), t.ArrayLen(t.Var("r")),
        t.Lit(0, WORD), body,
    )
    _agree(join, join.as_nested_ranged_for(), {"l": [1, 2, 3], "r": [4, 5]})


def test_pretty_round_trip_mentions_structure():
    agg = _agg()
    text = t.pretty(agg)
    assert "query.aggregate" in text and "acc" in text
    proj = QProjectInto("i", t.Var("out"), t.Var("i"))
    assert "query.project" in t.pretty(proj)
    join = QJoinAgg(
        "i", "j", "acc", t.Lit(1, NAT), t.Lit(1, NAT), t.Lit(0, WORD),
        t.Var("acc"),
    )
    assert "query.join_agg" in t.pretty(join)
