"""The shared source-Term traversal agrees with the hand-written oracle.

Every head's subterms and binder scopes are declared once
(``@subterms`` in :mod:`repro.source.terms`), and ``free_vars``,
``subst``, ``children()`` and ``walk_terms`` are all built on that
declaration.  :mod:`tests.source.term_oracle` keeps the per-head
``isinstance`` chains they replaced.  On the ``KITCHEN`` term, one
scope probe per binding head, every registry, auxiliary and query model,
and the 110 fuzz models, under both
``fast_search`` settings, the two must give the same free variables at
every node, the same ``children()`` in the same order, and the same
result for substituting each free variable and each binder name.
"""

from __future__ import annotations

import random

import pytest

from repro.config import engine_config
from repro.programs import all_programs
from repro.programs.extra import EXTRA
from repro.query.programs import all_query_programs
from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.resilience.generator import generate_case
from repro.source import terms as t
from repro.source.types import NAT, WORD
from tests.source import term_oracle as oracle
from tests.source.test_model_eval_equivalence import KITCHEN, PlusOne

FUZZ_COUNT = 110

oracle.EXTENSIONS[PlusOne] = (lambda n: (n.value,), lambda n, cs: PlusOne(*cs))


def _scope_probes():
    """Each binding head with every subterm reading all the binder names
    and one outside name, so a scope declared too wide or too narrow
    shows in ``free_vars`` and ``subst``."""
    every = t.TupleTerm(tuple(t.Var(n) for n in ("x", "y", "e", "acc", "i", "j", "z")))
    return [
        t.Let("x", every, every),
        t.LetTuple(("x", "y"), every, every),
        t.MBind("x", every, every),
        t.ArrayMap("e", every, every),
        t.ArrayFold("acc", "e", every, every, every),
        t.ArrayFoldBreak("acc", "e", every, every, every, every),
        t.RangedFor(every, every, "i", "acc", every, every),
        t.NatIter(every, "acc", every, every),
        QAggregate("i", "acc", every, every, every),
        QProjectInto("i", every, every),
        QJoinAgg("i", "j", "acc", every, every, every, every),
    ]


def _corpus():
    """(label, term) for every model the oracle is checked on."""
    terms = [("KITCHEN", KITCHEN)]
    terms += [(type(probe).__name__, probe) for probe in _scope_probes()]
    for program in all_programs():
        terms.append((program.name, program.build_model().term))
    for name, build in sorted(EXTRA.items()):
        terms.append((name, build()[0].term))
    for query in all_query_programs():
        terms.append((query.name, query.build_model().term))
    for index in range(FUZZ_COUNT):
        case = generate_case(random.Random(7000 + index), index)
        terms.append((case.name, case.model.term))
    return terms


def _oracle_walk(term):
    out = [term]
    for child in oracle.children(term):
        out += _oracle_walk(child)
    return out


def _check(label, term):
    nodes = _oracle_walk(term)
    assert t.walk_terms(term) == nodes, label
    binder_names = set()
    for node in nodes:
        assert node.children() == oracle.children(node), (label, node)
        assert t.free_vars(node) == oracle.free_vars(node), (label, node)
        binder_names.update(node.binders())
    names = sorted(oracle.free_vars(term) | binder_names)
    replacements = (t.Lit(7, WORD), t.Prim("word.add", (t.Var(names[0]), t.Lit(1, WORD))))
    for name in names:
        for replacement in replacements:
            got = t.subst(term, name, replacement)
            want = oracle.subst(term, name, replacement)
            assert got == want and repr(got) == repr(want), (label, name)
            assert t.free_vars(got) == oracle.free_vars(want), (label, name)
    return len(names)


@pytest.mark.parametrize("fast_search", (True, False))
def test_shared_traversal_matches_oracle(fast_search):
    with engine_config(fast_search=fast_search):
        corpus = _corpus()
        assert len(corpus) >= 1 + 9 + 8 + FUZZ_COUNT
        substituted = sum(_check(label, term) for label, term in corpus)
    assert substituted > len(corpus)


def test_oracle_and_kitchen_cover_every_head():
    core_heads = {
        cls for cls in vars(t).values()
        if isinstance(cls, type) and issubclass(cls, t.Term) and cls is not t.Term
    }
    assert core_heads | {QAggregate, QJoinAgg, QProjectInto} == set(oracle.CHILDREN)
    assert set(oracle.CHILDREN) <= {type(node) for node in _oracle_walk(KITCHEN)}


def w(value):
    return t.Lit(value, WORD)


def v(name):
    return t.Var(name)


# One instance per head with binders or several subterms, and its
# ``children()`` spelled out: absint and the loop lemmas walk in this order.
PINNED_ORDER = [
    (t.Prim("word.add", (v("a"), v("b"))), ("a", "b")),
    (t.Let("x", v("a"), v("b")), ("a", "b")),
    (t.LetTuple(("x", "y"), v("a"), v("b")), ("a", "b")),
    (t.If(v("a"), v("b"), v("c")), ("a", "b", "c")),
    (t.TupleTerm((v("a"), v("b"))), ("a", "b")),
    (t.ArrayGet(v("a"), v("b")), ("a", "b")),
    (t.ArrayPut(v("a"), v("b"), v("c")), ("a", "b", "c")),
    (t.ArrayMap("e", v("a"), v("b")), ("a", "b")),
    (t.ArrayFold("acc", "e", v("a"), v("b"), v("c")), ("a", "b", "c")),
    (t.ArrayFoldBreak("acc", "e", v("a"), v("b"), v("c"), v("d")), ("a", "b", "c", "d")),
    (t.RangedFor(v("a"), v("b"), "i", "acc", v("c"), v("d")), ("a", "b", "c", "d")),
    (t.NatIter(v("a"), "acc", v("b"), v("c")), ("a", "b", "c")),
    (t.FirstN(v("a"), v("b")), ("a", "b")),
    (t.SkipN(v("a"), v("b")), ("a", "b")),
    (t.Append(v("a"), v("b")), ("a", "b")),
    (t.CellPut(v("a"), v("b")), ("a", "b")),
    (t.Call("f", (v("a"), v("b"))), ("a", "b")),
    (t.MBind("x", v("a"), v("b")), ("a", "b")),
    (QAggregate("i", "acc", v("a"), v("b"), v("c")), ("a", "b", "c")),
    (QProjectInto("i", v("a"), v("b")), ("a", "b")),
    (QJoinAgg("i", "j", "acc", v("a"), v("b"), v("c"), v("d")), ("a", "b", "c", "d")),
]


@pytest.mark.parametrize(
    "term, order", PINNED_ORDER, ids=[type(term).__name__ for term, _ in PINNED_ORDER]
)
def test_children_order_is_pinned(term, order):
    assert term.children() == tuple(v(name) for name in order)
    assert oracle.children(term) == term.children()


def test_binders_are_in_field_order():
    assert t.LetTuple(("x", "y"), w(0), w(1)).binders() == ("x", "y")
    assert t.RangedFor(w(0), w(1), "i", "acc", w(2), w(3)).binders() == ("i", "acc")
    assert QJoinAgg("i", "j", "acc", w(0), w(1), w(2), w(3)).binders() == ("i", "j", "acc")
    assert t.Lit(0, NAT).binders() == ()
