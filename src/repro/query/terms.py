"""Query-combinator term heads: the relational algebra's footprint in
the source IR.

The paper's extension story (Table 1, §4.1) is that a new domain enters
the compiler as *new term heads plus new lemmas*, never as edits to the
engine.  These three nodes are exactly the residue left after
:mod:`repro.query.reify` lowers a relational-algebra plan: a bounded
aggregation loop, an index-driven projection into an existing array, and
a nested-loop join aggregation.  Everything simpler (unfiltered
single-column folds, existence checks) reuses ``ListArray``'s
``fold``/``fold_break`` and introduces no new heads at all.

Each class declares its shape with :func:`repro.source.terms.subterms`
-- which fields are subterms, and which of its binder names each one is
under -- and the core's generic traversals (``children``/``binders``,
``free_vars``, ``subst``, the engine's ``resolve``) read it from there.
What remains per class is meaning: the duck-typed hooks the core
consults on unknown heads -- ``pretty_node``
(:mod:`repro.source.terms`), ``compile_node``
(:mod:`repro.source.closures`, the one evaluation hook: it emits the
head's loop into the model's generated function), ``infer_type_node``
(:mod:`repro.core.typecheck`), and the solver's length hooks -- so
``repro.source``/``repro.core`` never import this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.source import terms as t
from repro.source.types import NAT, SourceType


@t.subterms("count", "init", "body", body=("idx_name", "acc_name"))
@dataclass(frozen=True)
class QAggregate(t.Term):
    """``aggregate over idx in [0, count) with acc := init { body }``.

    The accumulator form of ``Filter . Aggregate``: ``body`` (free in
    ``idx_name`` and ``acc_name``) computes the next accumulator, and a
    filtered row simply returns the accumulator unchanged.  Semantically
    a :class:`~repro.source.terms.RangedFor` from 0; the compilation
    lemma discharges it by exactly that reduction.
    """

    idx_name: str
    acc_name: str
    count: t.Term
    init: t.Term
    body: t.Term

    statement_shape = True  # compiles to a loop, never to one expression

    def as_ranged_for(self) -> t.RangedFor:
        """The equivalent core term the lemma family reduces to."""
        return t.RangedFor(
            t.Lit(0, NAT), self.count, self.idx_name, self.acc_name,
            self.body, self.init,
        )

    # -- core extension hooks -------------------------------------------------

    def compile_node(self, g):
        count = g.int(self.count)
        acc = g.local(g(self.init))
        with g.range(count) as index, g.bind({self.idx_name: index, self.acc_name: acc}):
            g.assign(acc, g(self.body))
        return acc

    def infer_type_node(self, state, infer_type) -> SourceType:
        return infer_type(state, self.init)

    def pretty_node(self, pretty) -> str:
        return (
            f"query.aggregate {self.idx_name} < {pretty(self.count)} "
            f"(acc {self.acc_name} := {pretty(self.init)}) "
            f"{{ {pretty(self.body)} }}"
        )


@t.subterms("out", "body", body=("idx_name",))
@dataclass(frozen=True)
class QProjectInto(t.Term):
    """``[ body idx | idx < length out ]`` -- projection into ``out``.

    Rebinding ``out``'s own name (``let/n out := QProjectInto(idx, out,
    body) in k``) licenses in-place mutation, exactly like the paper's
    ``ListArray.map`` walkthrough -- but the body is *index*-driven, so
    it can read several source columns at once.  The loop invariant is
    ``QProjectInto(idx, firstn i out, body) ++ skipn i out``.
    """

    idx_name: str
    out: t.Term
    body: t.Term

    statement_shape = True

    # -- core extension hooks -------------------------------------------------

    def compile_node(self, g):
        out = g.array(self.out)
        result = g.let("[]")
        with g.range(f"len({out})") as index, g.bind({self.idx_name: index}):
            g.emit(f"{result}.append({g(self.body)})")
        return result

    def infer_type_node(self, state, infer_type) -> SourceType:
        return infer_type(state, self.out)

    def pretty_node(self, pretty) -> str:
        return (
            f"query.project (fun {self.idx_name} => {pretty(self.body)}) "
            f"into {pretty(self.out)}"
        )

    # -- solver hooks (structural length facts) -------------------------------

    def normalize_len_node(self, normalize_len) -> t.Term:
        # One output element per element of the target array.
        return normalize_len(self.out)

    def invariant_prefix_node(self) -> t.Term:
        # For the ``QProjectInto(_, firstn i l, _) ++ skipn i l`` loop
        # invariant: the prefix whose length this node preserves.
        return self.out


@t.subterms(
    "left_count", "right_count", "init", "body", body=("i_name", "j_name", "acc_name")
)
@dataclass(frozen=True)
class QJoinAgg(t.Term):
    """Nested-loop equi-join folded straight into an accumulator.

    ``body`` (free in ``i_name``, ``j_name``, ``acc_name``) sees one row
    pair per iteration of the ``left_count`` x ``right_count`` product;
    the join predicate lives inside it as an ``if``.  Semantically two
    nested :class:`~repro.source.terms.RangedFor` loops sharing one
    accumulator, which is precisely the reduction the lemma performs.
    """

    i_name: str
    j_name: str
    acc_name: str
    left_count: t.Term
    right_count: t.Term
    init: t.Term
    body: t.Term

    statement_shape = True

    def as_nested_ranged_for(self) -> t.RangedFor:
        """Outer loop over the left table, inner over the right.

        Both loops bind the *same* accumulator name: the inner loop's
        init reads the outer accumulator, and the outer body's value is
        the inner loop itself.
        """
        inner = t.RangedFor(
            t.Lit(0, NAT), self.right_count, self.j_name, self.acc_name,
            self.body, t.Var(self.acc_name),
        )
        return t.RangedFor(
            t.Lit(0, NAT), self.left_count, self.i_name, self.acc_name,
            inner, self.init,
        )

    # -- core extension hooks -------------------------------------------------

    def compile_node(self, g):
        left, right = g.int(self.left_count), g.int(self.right_count)
        acc = g.local(g(self.init))
        with g.range(left) as i, g.range(right) as j, \
                g.bind({self.i_name: i, self.j_name: j, self.acc_name: acc}):
            g.assign(acc, g(self.body))
        return acc

    def infer_type_node(self, state, infer_type) -> SourceType:
        return infer_type(state, self.init)

    def pretty_node(self, pretty) -> str:
        return (
            f"query.join_agg {self.i_name} < {pretty(self.left_count)}, "
            f"{self.j_name} < {pretty(self.right_count)} "
            f"(acc {self.acc_name} := {pretty(self.init)}) "
            f"{{ {pretty(self.body)} }}"
        )


QUERY_TERM_HEADS = ("QAggregate", "QJoinAgg", "QProjectInto")
