"""Compilation lemmas for the relational-algebra query combinators.

The paper's Table 1 argues extensibility: a new source domain is
supported by *registering lemmas*, not by touching the engine.  This
module is that claim exercised end-to-end for ``repro.query``: three
lemmas, two of which are pure *reductions* -- they rewrite the query
head into the equivalent core loop term and delegate to the existing
loop lemmas, so their correctness argument is exactly the equation the
reduction implements:

- :class:`CompileQueryAggregate`: ``QAggregate(i, acc, n, init, body)``
  *is* ``RangedFor(0, n, i, acc, body, init)``; compile that.
- :class:`CompileQueryJoinAgg`: a nested-loop join aggregation *is* two
  nested ``RangedFor`` loops sharing one accumulator; compile those.
- :class:`CompileQueryProjectInto`: a new loop lemma for index-driven
  projection into an array the binding rebinds, with the §3.4.2
  invariant ``QProjectInto(idx, firstn i out, body) ++ skipn i out``.
  It runs on the store-loop skeleton the in-place map uses.

Each firing emits a ``query_lower`` trace event and a
``query.lowered.<Head>`` counter; the engine's own instrumentation
already yields ``lemma.family.queries`` hits because families are named
after defining modules.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import CertNode
from repro.core.goals import BindingGoal
from repro.core.lemma import BindingLemma, HintDb
from repro.query import terms as qt
from repro.source import terms as t
from repro.stdlib.loops import _StoreLoop


def _note_lowering(engine, head: str, via: str, name: str) -> None:
    """Flight-recorder breadcrumb: which reduction fired for which goal."""
    tracer = engine.tracer
    if tracer.enabled:
        tracer.event("query_lower", head=head, via=via, name=name)
        tracer.inc(f"query.lowered.{head}")


class CompileQueryAggregate(BindingLemma):
    """``let/n x := QAggregate(...) in k`` by reduction to ``RangedFor``."""

    name = "compile_query_aggregate"
    shapes = ("QAggregate",)
    index_heads = shapes
    shape_total = True

    def matches(self, goal: BindingGoal) -> bool:
        return isinstance(goal.value, qt.QAggregate)

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, qt.QAggregate)
        _note_lowering(engine, "QAggregate", "compile_rangedfor", goal.name)
        stmt, state, node = engine.compile_binding(
            goal.state, goal.name, value.as_ranged_for(), goal.spec
        )
        return stmt, state, [node]


class CompileQueryJoinAgg(BindingLemma):
    """Nested-loop join aggregation by reduction to nested ``RangedFor``."""

    name = "compile_query_join_agg"
    shapes = ("QJoinAgg",)
    index_heads = shapes
    shape_total = True

    def matches(self, goal: BindingGoal) -> bool:
        return isinstance(goal.value, qt.QJoinAgg)

    def apply(self, goal: BindingGoal, engine) -> Tuple[ast.Stmt, object, List[CertNode]]:
        value = goal.value
        assert isinstance(value, qt.QJoinAgg)
        _note_lowering(engine, "QJoinAgg", "compile_rangedfor", goal.name)
        stmt, state, node = engine.compile_binding(
            goal.state, goal.name, value.as_nested_ranged_for(), goal.spec
        )
        return stmt, state, [node]


class CompileQueryProjectInto(_StoreLoop):
    """``let/n out := QProjectInto(idx, out, body) in k`` ~ a store loop.

    The rebinding of ``out``'s own name licenses in-place mutation, as
    in the paper's ``ListArray.map`` walkthrough; unlike a map the body
    is a function of the *index*, so it can read any number of source
    columns (whose lengths the spec's facts equate with ``out``'s).
    """

    name = "compile_query_project_into"
    shapes = ("QProjectInto",)
    index_heads = shapes
    head = qt.QProjectInto
    array_field = "out"
    rebind_advice = (
        "projection writes in place: rebind the target "
        "array's own name (let/n out := project ... into out)"
    )

    def _target(self, goal: BindingGoal, engine):
        target = super()._target(goal, engine)
        _note_lowering(engine, "QProjectInto", "store_loop", goal.name)
        return target

    def prefix(self, resolved: qt.QProjectInto, firstn: t.Term) -> t.Term:
        return qt.QProjectInto(resolved.idx_name, firstn, resolved.body)

    def element(self, resolved: qt.QProjectInto, arr0: t.Term, ghost: t.Var) -> t.Term:
        # The index binder denotes the ghost counter inside the body.
        return t.subst(resolved.body, resolved.idx_name, ghost)


def register(db: HintDb) -> HintDb:
    db.register(CompileQueryAggregate(), priority=23)
    db.register(CompileQueryJoinAgg(), priority=23)
    db.register(CompileQueryProjectInto(), priority=23)
    return db


# -- Inverse patterns (repro.lift) -------------------------------------------
#
# The query lemmas emit the loop family's counted skeletons, so their
# code lifts through the generic loop inverses; the entries here record
# that the family is liftable (auditor liftability column) even though
# the lifted model is RangedFor/If-shaped rather than a Q* plan term.

from repro.lift.patterns import InversePattern, register_inverse  # noqa: E402

register_inverse(
    InversePattern(
        name="lift_query_aggregate",
        lemma="compile_query_aggregate",
        family="queries",
        heads=("SWhile",),
        source_head="QAggregate",
        priority=23,
        description="aggregate scans lift through the RangedFor inverse",
    )
)
register_inverse(
    InversePattern(
        name="lift_query_join_agg",
        lemma="compile_query_join_agg",
        family="queries",
        heads=("SWhile",),
        source_head="QJoinAgg",
        priority=23,
        description="nested-loop join aggregates lift through RangedFor",
    )
)
register_inverse(
    InversePattern(
        name="lift_query_project_into",
        lemma="compile_query_project_into",
        family="queries",
        heads=("SWhile",),
        source_head="QProjectInto",
        priority=23,
        description="projection store loops lift through RangedFor/ArrayPut",
    )
)
