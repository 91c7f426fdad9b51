"""The query program registry: named plans wired into every harness.

Each :class:`QueryProgram` bundles a plan, a seeded random-table
generator, and the plumbing the shared harnesses expect: it duck-types
the benchmark registry's ``build_model``/``build_spec``/
``validation_input_gen`` trio, so ``compile_program_cached``, the
optimizer's per-pass differential checks, and ``validate`` all work on
query programs unchanged.  Query programs live in their *own* registry
-- the Table 2 suite (``repro.programs``) keeps its fixed membership,
which CI asserts on -- but share its namespace: ``repro.programs.get_program``
resolves a query name too, so every command, serve op, batch manifest
and ``cache repair`` takes one.  ``python -m repro query`` adds the
query-only actions (``list``, ``explain``, ``run``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.spec import CompiledFunction, FnSpec, Model
from repro.programs.registry import MemoizedCompile
from repro.query import evaluator as qe
from repro.query import ir
from repro.query.reify import ReifiedQuery, reify

# A generator draws one random database: the tables dict plus -- for
# array-producing plans -- the output array length.
TableGen = Callable[[random.Random], Tuple[qe.Tables, int]]


@dataclass
class QueryProgram(MemoizedCompile):
    """One registered query: a plan plus its test-data distribution."""

    name: str
    description: str
    plan: ir.Plan
    gen_tables: TableGen

    _reified: Optional[ReifiedQuery] = field(default=None, repr=False)
    _compiled: Optional[CompiledFunction] = field(default=None, repr=False)
    _optimized: Dict[int, CompiledFunction] = field(
        default_factory=dict, repr=False
    )

    def reified(self) -> ReifiedQuery:
        if self._reified is None:
            self._reified = reify(self.plan, self.name)
        return self._reified

    def build_model(self) -> Model:
        return self.reified().model

    def build_spec(self) -> FnSpec:
        return self.reified().spec

    def explain(self) -> str:
        lines = [ir.explain(self.plan), f"-- lowering: {self.reified().via}"]
        return "\n".join(lines)

    def inputs_from_tables(self, tables: qe.Tables, out_len: int) -> Dict[str, list]:
        """Flatten a tables dict into the compiled function's parameters."""
        reified = self.reified()
        params: Dict[str, list] = {}
        for table, cols in reified.table_cols:
            for col in cols:
                params[col.name] = list(tables[table][col.name])
        if reified.out_param is not None:
            params[reified.out_param] = [0] * out_len
        return params

    def validation_input_gen(self):
        def gen(rng: random.Random) -> Dict[str, list]:
            tables, out_len = self.gen_tables(rng)
            return self.inputs_from_tables(tables, out_len)

        return gen

    def reference(self, tables: qe.Tables, out_len: int = 0):
        """The reference evaluator's answer on one database."""
        result = qe.eval_plan(self.plan, tables, groups=out_len)
        if isinstance(self.plan, ir.Project):
            (name, _expr), = self.plan.cols
            return [row[name] for row in result]
        return result


QUERY_PROGRAMS: Dict[str, QueryProgram] = {}


def register_query_program(program: QueryProgram) -> QueryProgram:
    if program.name in QUERY_PROGRAMS:
        raise ValueError(f"duplicate query program {program.name!r}")
    QUERY_PROGRAMS[program.name] = program
    return program


def all_query_programs() -> List[QueryProgram]:
    return [QUERY_PROGRAMS[name] for name in sorted(QUERY_PROGRAMS)]


# -- The standard corpus -------------------------------------------------------
#
# Together the eight programs cover every lowering shape ``reify`` knows:
# fold and fold_break reuse, QAggregate (additive and extremal),
# QJoinAgg, QProjectInto, and the nested grouped count.


def _words(rng: random.Random, n: int) -> List[int]:
    return [rng.getrandbits(64) for _ in range(n)]


def _bytes_(rng: random.Random, n: int) -> List[int]:
    return [rng.randrange(256) for _ in range(n)]


def _keys(rng: random.Random, n: int, span: int) -> List[int]:
    return [rng.randrange(span) for _ in range(n)]


_T_KV = ir.schema(("k", "byte"), "v")

register_query_program(
    QueryProgram(
        name="q_filter_sum",
        description="sum v over rows where k < 100 (byte filter column)",
        plan=ir.Aggregate(
            "sum",
            ir.Filter(
                ir.Cmp("lt", ir.ColRef("k"), ir.IntLit(100)),
                ir.Scan("t", _T_KV),
            ),
            expr=ir.ColRef("v"),
        ),
        gen_tables=lambda rng: (
            {
                "t": (
                    lambda n: {"k": _bytes_(rng, n), "v": _words(rng, n)}
                )(rng.randrange(12))
            },
            0,
        ),
    )
)

register_query_program(
    QueryProgram(
        name="q_total_sum",
        description="unfiltered single-column sum (reuses ListArray.fold)",
        plan=ir.Aggregate("sum", ir.Scan("t", ir.schema("v")), expr=ir.ColRef("v")),
        gen_tables=lambda rng: (
            {"t": {"v": _words(rng, rng.randrange(12))}},
            0,
        ),
    )
)

register_query_program(
    QueryProgram(
        name="q_any_match",
        description="does any k equal 7? (reuses ListArray.fold_break)",
        plan=ir.Aggregate(
            "any",
            ir.Scan("t", ir.schema("k")),
            expr=ir.Cmp("eq", ir.ColRef("k"), ir.IntLit(7)),
        ),
        gen_tables=lambda rng: (
            {"t": {"k": _keys(rng, rng.randrange(12), 10)}},
            0,
        ),
    )
)

register_query_program(
    QueryProgram(
        name="q_project_copy",
        description="out := a + b, row for row (store loop)",
        plan=ir.Project(
            (("c", ir.BinOp("add", ir.ColRef("a"), ir.ColRef("b"))),),
            ir.Scan("t", ir.schema("a", "b")),
        ),
        gen_tables=lambda rng: (
            lambda n: (
                {"t": {"a": _words(rng, n), "b": _words(rng, n)}},
                n,
            )
        )(rng.randrange(12)),
    )
)

register_query_program(
    QueryProgram(
        name="q_equi_join",
        description="sum (v + w) over l join r on k == j (nested loops)",
        plan=ir.Aggregate(
            "sum",
            ir.EquiJoin(
                ir.Scan("l", ir.schema("k", "v")),
                ir.Scan("r", ir.schema("j", "w")),
                "k",
                "j",
            ),
            expr=ir.BinOp("add", ir.ColRef("v"), ir.ColRef("w")),
        ),
        gen_tables=lambda rng: (
            lambda n, m: (
                {
                    "l": {"k": _keys(rng, n, 5), "v": _words(rng, n)},
                    "r": {"j": _keys(rng, m, 5), "w": _words(rng, m)},
                },
                0,
            )
        )(rng.randrange(8), rng.randrange(8)),
    )
)

register_query_program(
    QueryProgram(
        name="q_max_value",
        description="unfiltered single-column max (reuses ListArray.fold)",
        plan=ir.Aggregate("max", ir.Scan("t", ir.schema("v")), expr=ir.ColRef("v")),
        gen_tables=lambda rng: (
            {"t": {"v": _words(rng, rng.randrange(12))}},
            0,
        ),
    )
)

register_query_program(
    QueryProgram(
        name="q_min_filtered",
        description="min (v + 1) over rows where k < 50 (extremal QAggregate)",
        plan=ir.Aggregate(
            "min",
            ir.Filter(
                ir.Cmp("lt", ir.ColRef("k"), ir.IntLit(50)),
                ir.Scan("t", _T_KV),
            ),
            expr=ir.BinOp("add", ir.ColRef("v"), ir.IntLit(1)),
        ),
        gen_tables=lambda rng: (
            {
                "t": (
                    lambda n: {"k": _bytes_(rng, n), "v": _words(rng, n)}
                )(rng.randrange(12))
            },
            0,
        ),
    )
)

register_query_program(
    QueryProgram(
        name="q_group_count",
        description="histogram: count rows per key (byte group column)",
        plan=ir.Aggregate(
            "count", ir.Scan("t", ir.schema(("key", "byte"))), group_by="key"
        ),
        gen_tables=lambda rng: (
            lambda n, g: ({"t": {"key": _keys(rng, n, max(1, g + 2))}}, g)
        )(rng.randrange(12), rng.randrange(1, 7)),
    )
)
