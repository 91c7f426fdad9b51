"""Flight-recorder coverage for the query lemma family: ``query_lower``
events, ``query.lowered.*`` counters, and the automatic
``lemma.family.queries`` hit accounting."""

from repro.obs.trace import Tracer, use_tracer, validate_events
from repro.programs import get_program
from repro.stdlib import default_engine


def _compile_traced(name):
    program = get_program(name)
    tracer = Tracer(name=f"test:{name}", detail="debug")
    with use_tracer(tracer):
        engine = default_engine()
        engine.compile_function(program.build_model(), program.build_spec())
    return tracer


def test_aggregate_emits_lowering_breadcrumbs():
    tracer = _compile_traced("q_filter_sum")
    events = [e for e in tracer.events if e.get("ev") == "query_lower"]
    assert events and events[0]["head"] == "QAggregate"
    assert events[0]["via"] == "compile_rangedfor"
    counters = tracer.metrics.counters
    assert counters.get("query.lowered.QAggregate", 0) >= 1
    assert counters.get("lemma.family.queries", 0) >= 1
    validate_events(tracer.events)


def test_join_and_project_counters():
    join_tracer = _compile_traced("q_equi_join")
    assert join_tracer.metrics.counters.get("query.lowered.QJoinAgg", 0) == 1
    project_tracer = _compile_traced("q_project_copy")
    assert (
        project_tracer.metrics.counters.get("query.lowered.QProjectInto", 0) == 1
    )
    validate_events(join_tracer.events)
    validate_events(project_tracer.events)


def test_group_count_fires_both_lemmas():
    tracer = _compile_traced("q_group_count")
    counters = tracer.metrics.counters
    assert counters.get("query.lowered.QProjectInto", 0) == 1
    assert counters.get("query.lowered.QAggregate", 0) == 1
    assert counters.get("lemma.family.queries", 0) >= 2


def test_reuse_paths_fire_no_query_lemma():
    for name in ("q_total_sum", "q_any_match"):
        tracer = _compile_traced(name)
        counters = tracer.metrics.counters
        assert counters.get("lemma.family.queries", 0) == 0, name
        assert not [
            e for e in tracer.events if e.get("ev") == "query_lower"
        ], name
