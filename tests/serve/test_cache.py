"""Cache correctness: hits are byte-identical, invalidation is exact,
corruption falls back to a cold compile (ISSUE satellite 3).

The trust model under test: the cache is untrusted; every load runs the
trusted checkers, so the worst a poisoned entry can do is cost one cold
compile.
"""

import json
import os
import sys
import threading
from dataclasses import FrozenInstanceError, replace

import pytest

import repro.bedrock2.c_printer as c_printer
import repro.validation.checker as checker
from repro.bedrock2.serial import encode_function
from repro.core.engine import Engine
from repro.obs.trace import Tracer, use_tracer
from repro.programs import all_programs, get_program
from repro.serve.admin import verify_cache
from repro.serve.cache import (
    CHECKED_TABLE_SIZE,
    HIT,
    INVALIDATED,
    MISS,
    CompilationCache,
    compile_program_cached,
)
from repro.serve.fingerprint import compile_key
from repro.serve.service import CompileService
from repro.stdlib import default_databases, default_engine
from tests.validation.test_trusted_chain import (
    LINT,
    _forge_entry,
    _memcpy,
    _redirected_store,
)


def _fresh(program, opt_level=0):
    """A cold compile bypassing both the program memo and the disk cache."""
    compiled = default_engine().compile_function(
        program.build_model(), program.build_spec()
    )
    if opt_level > 0:
        compiled = compiled.optimize(
            opt_level, input_gen=program.validation_input_gen()
        )
    return compiled


def test_warm_hit_is_byte_identical_to_cold(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("crc32")
    cold, outcome = compile_program_cached(cache, program, opt_level=1)
    assert outcome == MISS
    warm, outcome = compile_program_cached(cache, program, opt_level=1)
    assert outcome == HIT
    assert warm.bedrock_fn == cold.bedrock_fn
    assert warm.c_source() == cold.c_source()
    assert warm.certificate.to_json() == cold.certificate.to_json()
    assert warm.opt_report is not None
    assert warm.opt_report.to_dict() == cold.opt_report.to_dict()
    # ... and identical to a from-scratch derivation, not just to the
    # stored copy: determinism is what licenses memoization.
    fresh = _fresh(program, opt_level=1)
    assert warm.bedrock_fn == fresh.bedrock_fn
    assert warm.certificate.to_json() == fresh.certificate.to_json()


def test_whole_suite_hits_after_one_pass(tmp_path):
    cache = CompilationCache(str(tmp_path))
    for program in all_programs():
        _, outcome = compile_program_cached(cache, program)
        assert outcome == MISS, program.name
    for program in all_programs():
        _, outcome = compile_program_cached(cache, program)
        assert outcome == HIT, program.name
    assert cache.stats.hits == 9 and cache.stats.misses == 9
    assert cache.stats.invalidated == 0 and cache.stats.stores == 9


def test_opt_level_flip_moves_only_that_key(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("fnv1a")
    model, spec = program.build_model(), program.build_spec()
    engine = default_engine()
    key0 = compile_key(model, spec, engine, opt_level=0)
    key1 = compile_key(model, spec, engine, opt_level=1)
    assert key0 != key1
    compile_program_cached(cache, program, opt_level=0)
    assert cache.contains(key0) and not cache.contains(key1)
    # -O1 is a separate entry; -O0 stays warm and untouched.
    _, outcome = compile_program_cached(cache, program, opt_level=1)
    assert outcome == MISS
    _, outcome = compile_program_cached(cache, program, opt_level=0)
    assert outcome == HIT


def test_lemma_db_edit_invalidates_exactly_the_affected_keys(tmp_path):
    """Removing one binding lemma moves every key derived *under that DB*
    but leaves entries addressed under the original DB warm."""
    cache = CompilationCache(str(tmp_path))
    binding_db, expr_db = default_databases()
    engine = Engine(binding_db, expr_db, width=64)

    program = get_program("upstr")
    model, spec = program.build_model(), program.build_spec()
    old_key = compile_key(model, spec, engine, opt_level=0)
    cache.compile(model, spec, engine=engine)
    assert cache.contains(old_key)

    edited = binding_db.copy()
    removed = edited.lemma_names()[0]
    assert edited.remove(removed)
    edited_engine = Engine(edited, expr_db, width=64)
    new_key = compile_key(model, spec, edited_engine, opt_level=0)
    assert new_key != old_key, "editing the lemma DB must move the key"
    assert not cache.contains(new_key)
    assert cache.contains(old_key), "the original entry must survive untouched"

    # An unrelated program's key is unaffected by which engine compiled
    # upstr -- content addressing is per-derivation-input, not global.
    other = get_program("fnv1a")
    other_key = compile_key(other.build_model(), other.build_spec(), engine, 0)
    assert other_key == compile_key(other.build_model(), other.build_spec(), engine, 0)


def test_corrupted_entry_is_rejected_and_recompiled(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("utf8")
    cold, _ = compile_program_cached(cache, program)
    key = cache.key_for(program.build_model(), program.build_spec())
    path = cache._path(key)

    # Truncation: not even JSON any more.
    with open(path, "w") as fh:
        fh.write('{"entry_schema": 1, "key": "')
    recovered, outcome = compile_program_cached(cache, program)
    assert outcome == INVALIDATED
    assert recovered.c_source() == cold.c_source()
    # The fallback compile repaired the entry in place.
    _, outcome = compile_program_cached(cache, program)
    assert outcome == HIT


def test_bitflip_fails_digest_check(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("utf8")
    compile_program_cached(cache, program)
    key = cache.key_for(program.build_model(), program.build_spec())
    path = cache._path(key)
    with open(path) as fh:
        entry = json.load(fh)
    entry["opt_level"] = 9  # silent mutation, digest now stale
    with open(path, "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    _, outcome = compile_program_cached(cache, program)
    assert outcome == INVALIDATED
    assert cache.stats.invalidation_reasons.get("payload digest mismatch (corrupted entry)", 0) == 1


def test_tampered_payload_rejected_by_revalidation(tmp_path):
    """A forged entry with a *correct* digest still fails the trusted
    checkers: swap in another program's function and re-sign."""
    from repro.serve.cache import _payload_digest

    cache = CompilationCache(str(tmp_path))
    victim = get_program("crc32")
    donor = get_program("fnv1a")
    compile_program_cached(cache, victim)
    donor_compiled, _ = compile_program_cached(cache, donor)
    key = cache.key_for(victim.build_model(), victim.build_spec())
    path = cache._path(key)
    with open(path) as fh:
        entry = json.load(fh)
    entry["function"] = encode_function(donor_compiled.bedrock_fn)
    entry.pop("payload_sha")
    entry["payload_sha"] = _payload_digest(entry)  # attacker re-signs
    with open(path, "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    recovered, outcome = compile_program_cached(cache, victim)
    assert outcome == INVALIDATED
    assert recovered.bedrock_fn.name == "crc32"


def test_wrong_address_is_rejected(tmp_path):
    """An entry copied to a different address fails the key check."""
    cache = CompilationCache(str(tmp_path))
    program = get_program("fnv1a")
    compile_program_cached(cache, program)
    key = cache.key_for(program.build_model(), program.build_spec())
    fake_key = ("0" if key[0] != "0" else "1") + key[1:]
    fake_path = cache._path(fake_key)
    os.makedirs(os.path.dirname(fake_path), exist_ok=True)
    with open(cache._path(key)) as src, open(fake_path, "w") as dst:
        dst.write(src.read())
    bundle, outcome = cache.lookup(
        fake_key, program.build_model(), program.build_spec()
    )
    assert bundle is None and outcome == INVALIDATED


def test_cache_traffic_is_traced(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("fasta")
    tracer = Tracer(name="test")
    with use_tracer(tracer):
        compile_program_cached(cache, program)
        compile_program_cached(cache, program)
    kinds = [e["ev"] for e in tracer.events if e["ev"].startswith("cache_")]
    assert kinds.count("cache_lookup") == 2
    assert kinds.count("cache_store") == 1
    counters = tracer.metrics.to_dict()["counters"]
    assert counters["cache.misses"] == 1
    assert counters["cache.hits"] == 1
    assert counters["cache.stores"] == 1


# -- The checked-entry table ----------------------------------------------------
#
# A handle checks each distinct byte string once: a repeat hit on the same
# bytes and key is served from the table; any other bytes run the chain.


def _table_counters(tracer):
    counters = tracer.metrics.to_dict()["counters"]
    return counters.get("cache.hits", 0), counters.get("cache.table_hits", 0)


def test_repeat_hit_is_served_from_the_table(tmp_path):
    cache = CompilationCache(str(tmp_path))
    program = get_program("fasta")
    compile_program_cached(cache, program)
    tracer = Tracer(name="test")
    with use_tracer(tracer):
        first, outcome = compile_program_cached(cache, program)
        assert outcome == HIT
        second, outcome = compile_program_cached(cache, program)
        assert outcome == HIT
    assert _table_counters(tracer) == (2, 1)
    assert second.bedrock_fn is first.bedrock_fn
    assert second.certificate is first.certificate


def test_repeat_hits_build_no_engine(tmp_path, monkeypatch):
    """A hit reads the per-process engine fingerprint: no database copy."""
    from repro.core.lemma import HintDb

    cache = CompilationCache(str(tmp_path))
    program = get_program("crc32")
    for _ in range(2):
        compile_program_cached(cache, program, opt_level=1)
    copies = []
    copy = HintDb.copy

    def counting_copy(self):
        copies.append(self.name)
        return copy(self)

    monkeypatch.setattr(HintDb, "copy", counting_copy)
    for _ in range(3):
        _bundle, outcome = compile_program_cached(cache, program, opt_level=1)
        assert outcome == HIT
    assert copies == []
    _model, _spec, key = cache.program_inputs(program, opt_level=1)
    assert key == compile_key(
        program.build_model(), program.build_spec(), default_engine(), 1
    )


def test_c_text_is_rendered_once_per_table_entry(tmp_path, monkeypatch):
    cache = CompilationCache(str(tmp_path))
    program = get_program("crc32")
    cold, _ = compile_program_cached(cache, program, opt_level=1)
    expected = cold.c_source()
    calls = []
    real = c_printer.print_c_function

    def counting(fn):
        calls.append(fn.name)
        return real(fn)

    monkeypatch.setattr(c_printer, "print_c_function", counting)
    for _ in range(3):
        warm, outcome = compile_program_cached(cache, program, opt_level=1)
        assert outcome == HIT
        assert warm.c_source() == expected
    assert calls == ["crc32"]
    # A bundle given other code prints that code, not the entry's C.
    other = get_program("fnv1a").compile()
    swapped = replace(warm, bedrock_fn=other.bedrock_fn)
    assert swapped.c_source() == other.c_source()
    assert swapped.statement_count() == other.statement_count()


def test_rewritten_entry_is_checked_again(tmp_path):
    """A hit, then the entry rewritten with a re-signed payload digest and
    a lint-failing body, then the same key: the new bytes miss the table,
    the chain rejects them and the entry is quarantined."""
    clean, _input_gen = _memcpy()
    cache = CompilationCache(str(tmp_path))
    engine = default_engine()
    cache.compile(clean.model, clean.spec, engine=engine)
    key = cache.key_for(clean.model, clean.spec, engine=engine)
    _bundle, outcome = cache.lookup(key, clean.model, clean.spec)
    assert outcome == HIT
    assert _forge_entry(tmp_path, clean, _redirected_store(clean)) == key
    bundle, outcome = cache.lookup(key, clean.model, clean.spec)
    assert bundle is None and outcome == INVALIDATED
    reason_path = tmp_path / "quarantine" / f"{key}.json.reason"
    assert reason_path.read_text() == LINT + "\n"
    assert not cache.contains(key)


def test_rewritten_entry_keeping_its_digest_is_checked_again(tmp_path):
    """The entry's own ``payload_sha`` is the writer's claim: new bytes that
    keep the old digest still miss the table and fail the digest check."""
    cache = CompilationCache(str(tmp_path))
    program = get_program("ip")
    compile_program_cached(cache, program)
    _bundle, outcome = compile_program_cached(cache, program)
    assert outcome == HIT
    donor, _ = compile_program_cached(cache, get_program("xorsum"))
    _model, _spec, key = cache.program_inputs(program, default_engine())
    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    entry["function"] = encode_function(donor.bedrock_fn)
    with open(cache._path(key), "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    recovered, outcome = compile_program_cached(cache, program)
    assert outcome == INVALIDATED
    assert recovered.bedrock_fn == _fresh(program).bedrock_fn
    assert cache.stats.invalidation_reasons == {
        "payload digest mismatch (corrupted entry)": 1
    }


def test_concurrent_hits_share_one_handle(tmp_path, monkeypatch):
    """8 threads x the 18 served keys x 20 rounds over one handle, with a
    short switch interval: every lookup is a hit whose C equals the cold
    compile's, the table holds one entry per key, and each entry's C is
    printed once however the threads race."""
    cache = CompilationCache(str(tmp_path))
    keys = [(program, level) for program in all_programs() for level in (0, 1)]
    expected = {}
    for program, level in keys:
        cold, outcome = compile_program_cached(cache, program, opt_level=level)
        assert outcome == MISS
        expected[program.name, level] = cold.c_source()
    printed = []
    real = c_printer.print_c_function

    def counting(fn):
        printed.append(fn.name)
        return real(fn)

    monkeypatch.setattr(c_printer, "print_c_function", counting)
    results = [[] for _ in range(8)]

    def client(offset):
        for round_ in range(20):
            for index in range(len(keys)):
                program, level = keys[(offset + round_ + index) % len(keys)]
                bundle, outcome = compile_program_cached(cache, program, opt_level=level)
                same = outcome == HIT and bundle.c_source() == expected[program.name, level]
                results[offset].append(same)

    threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(r) for r in results] == [20 * len(keys)] * 8
    assert all(all(r) for r in results)
    assert cache.stats.invalidated == 0
    assert len(cache._checked) == len(keys)
    assert len(printed) == len(keys)


def test_served_bundles_cannot_reach_table_state(tmp_path):
    """Mutating a served bundle's certificate or opt report does not change
    the next hit's ``cert``/``compile`` response."""
    service = CompileService(cache_dir=str(tmp_path))
    cert_request = {"op": "cert", "program": "sbox", "opt_level": 1}
    compile_request = {"op": "compile", "program": "sbox", "opt_level": 1}
    assert service.handle(cert_request)["cache"] == MISS
    before_cert = service.handle(cert_request)
    before_compile = service.handle(compile_request)
    assert before_cert["cache"] == HIT and before_compile["cache"] == HIT

    bundle, outcome = compile_program_cached(
        service.cache, get_program("sbox"), opt_level=1
    )
    assert outcome == HIT
    certificate, report = bundle.certificate, bundle.opt_report
    with pytest.raises(FrozenInstanceError):
        certificate.function_name = "forged"
    with pytest.raises(FrozenInstanceError):
        certificate.root.lemma = "forged"
    with pytest.raises(AttributeError):
        certificate.root.children.append(certificate.root.children[0])
    with pytest.raises(FrozenInstanceError):
        report.stmts_after = 0
    with pytest.raises(AttributeError):
        report.certificates.append(report.certificates[0])
    # The bundle itself is the caller's to change; the table is not.
    bundle.certificate = None
    bundle.opt_report = None

    after_cert = service.handle(cert_request)
    after_compile = service.handle(compile_request)
    assert after_cert["certificate"] == before_cert["certificate"]
    assert after_compile["c"] == before_compile["c"]
    assert after_compile["statements"] == before_compile["statements"]


def test_table_stays_at_its_bound(tmp_path):
    """More distinct checked byte strings than the bound: the table keeps
    the most recent ``CHECKED_TABLE_SIZE``.  Re-spacing the JSON gives new
    bytes with the same canonical payload, so each variant passes."""
    cache = CompilationCache(str(tmp_path))
    program = get_program("m3s")
    compile_program_cached(cache, program)
    model, spec, key = cache.program_inputs(program, default_engine())
    path = cache._path(key)
    with open(path) as fh:
        text = fh.read()
    for pad in range(CHECKED_TABLE_SIZE + 6):
        with open(path, "w") as fh:
            fh.write(text + " " * pad)
        _bundle, outcome = cache.lookup(key, model, spec)
        assert outcome == HIT
    assert len(cache._checked) == CHECKED_TABLE_SIZE


def test_verify_rechecks_entries_a_warm_handle_served(tmp_path, monkeypatch):
    """``repro cache verify`` is an uncached audit: it runs the chain on
    an entry that a warm handle has already checked and served."""
    cache = CompilationCache(str(tmp_path))
    program = get_program("upstr")
    compile_program_cached(cache, program)
    for _ in range(2):
        _bundle, outcome = compile_program_cached(cache, program)
        assert outcome == HIT
    calls = []
    real = checker.first_rejection

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(checker, "first_rejection", counting)
    report = verify_cache(str(tmp_path))
    assert report.scanned == 1 and report.ok == 1
    assert calls == ["upstr"]
