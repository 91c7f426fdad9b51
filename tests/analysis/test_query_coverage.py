"""Coverage-matrix honesty on the query extension (ISSUE satellite 1).

``all_term_heads`` enumerates the query package's term heads, so the
auditor's RA201 predictions stay truthful for databases missing the
query lemma family -- and the prediction is cross-checked against the
flight recorder's *observed* stall counters on a real compile attempt.
"""

import pytest

from repro.analysis.hintdb import CoverageMatrix, all_term_heads, audit_hintdb
from repro.core.engine import Engine
from repro.core.goals import CompilationStalled
from repro.obs.trace import Tracer, use_tracer
from repro.programs import get_program
from repro.query.terms import QUERY_TERM_HEADS
from repro.stdlib import default_databases

QUERY_LEMMAS = (
    "compile_query_aggregate",
    "compile_query_join_agg",
    "compile_query_project_into",
)


def _stripped_databases():
    binding_db, expr_db = default_databases()
    for name in QUERY_LEMMAS:
        binding_db.remove(name)
    return binding_db, expr_db


def test_all_term_heads_includes_query_heads():
    heads = all_term_heads()
    for head in QUERY_TERM_HEADS:
        assert head in heads
    assert "Let" in heads and "RangedFor" in heads


def test_full_database_covers_query_heads():
    binding_db, _ = default_databases()
    matrix = CoverageMatrix.from_db(binding_db, "binding")
    for head in ("QAggregate", "QJoinAgg"):
        # shape-total reductions: stall-proof claims
        assert matrix.levels[head] == "total"
    assert matrix.levels["QProjectInto"] == "guarded"
    diags = audit_hintdb(binding_db, "binding")
    uncovered = {d.where for d in diags if d.code == "RA201"}
    assert not uncovered & set(QUERY_TERM_HEADS)


def test_stripped_database_predicts_query_stalls():
    binding_db, _ = _stripped_databases()
    matrix = CoverageMatrix.from_db(binding_db, "binding")
    assert set(QUERY_TERM_HEADS) <= set(matrix.uncovered_heads())
    diags = audit_hintdb(binding_db, "binding")
    ra201 = {d.where for d in diags if d.code == "RA201"}
    assert set(QUERY_TERM_HEADS) <= ra201


@pytest.mark.parametrize(
    "program,head",
    [
        ("q_filter_sum", "QAggregate"),
        ("q_equi_join", "QJoinAgg"),
        ("q_project_copy", "QProjectInto"),
    ],
)
def test_predicted_stall_matches_observed_counter(program, head):
    """The static RA201 prediction and the runtime stall counter agree."""
    binding_db, expr_db = _stripped_databases()
    prog = get_program(program)
    tracer = Tracer(name=f"stall:{program}")
    with use_tracer(tracer):
        engine = Engine(binding_db, expr_db)
        with pytest.raises(CompilationStalled) as exc:
            engine.compile_function(prog.build_model(), prog.build_spec())
    assert exc.value.report.reason == "no-binding-lemma"
    counter = f"stall.no-binding-lemma.head.{head}"
    assert tracer.metrics.counters.get(counter, 0) == 1
    # The stall report should point at the missing stdlib family.
    assert any("queries." in miss for miss in exc.value.report.nearest_misses)
