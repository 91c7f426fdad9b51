"""Offline cache maintenance sweeps: ``repro cache verify|gc|repair``."""

import json
import os
import time

from repro.programs import get_program
from repro.serve.admin import gc_cache, repair_cache, verify_cache
from repro.serve.cache import (
    HIT,
    CompilationCache,
    compile_program_cached,
)


def _prime(tmp_path, name="fnv1a", opt_level=0):
    cache = CompilationCache(str(tmp_path))
    program = get_program(name)
    compiled, _ = compile_program_cached(cache, program, opt_level=opt_level)
    key = cache.key_for(
        program.build_model(), program.build_spec(), opt_level=opt_level
    )
    return cache, program, compiled, key


def test_verify_clean_cache(tmp_path):
    _prime(tmp_path)
    report = verify_cache(str(tmp_path))
    assert report.clean and report.scanned == 1 and report.ok == 1
    assert report.to_dict()["clean"] is True
    assert "clean" in report.render()


def test_verify_finds_corruption_and_optionally_quarantines(tmp_path):
    cache, _, _, key = _prime(tmp_path)
    with open(cache._path(key), "a") as fh:
        fh.write("GARBAGE")
    report = verify_cache(str(tmp_path))
    assert not report.clean
    assert [f["key"] for f in report.corrupt] == [key]
    assert not report.quarantined, "verify without --quarantine must not move"
    assert os.path.exists(cache._path(key))

    report = verify_cache(str(tmp_path), quarantine=True)
    assert report.quarantined == [key]
    assert not os.path.exists(cache._path(key))
    assert key in CompilationCache(str(tmp_path)).quarantined_keys()


def test_verify_catches_resigned_forgeries(tmp_path):
    """verify runs the trusted checkers, not just the digest: a forged
    entry with a correct digest but an ill-formed function is corrupt."""
    from repro.serve.cache import _payload_digest

    cache, _, _, key = _prime(tmp_path)
    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    entry["certificate"]["root"]["lemma"] = "phantom_lemma"
    entry.pop("payload_sha")
    entry["payload_sha"] = _payload_digest(entry)  # attacker re-signs
    with open(cache._path(key), "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    report = verify_cache(str(tmp_path))
    assert not report.clean
    assert "certificate" in report.corrupt[0]["reason"]


def test_verify_lints_resigned_table_overruns(tmp_path):
    """verify runs the spec-free errors-only lint: a re-signed entry that
    is well-formed, certificate-clean and reads past an inline table's
    end is reported offline, not only quarantined on its first load."""
    from repro.bedrock2 import ast as b2
    from repro.bedrock2.serial import decode_function, encode_function
    from repro.serve.cache import _payload_digest

    cache, _, _, key = _prime(tmp_path, name="sbox")
    assert verify_cache(str(tmp_path)).clean

    def past_the_end(expr):
        if isinstance(expr, b2.EInlineTable):
            return b2.EInlineTable(expr.size, expr.data, b2.lit(len(expr.data)))
        return expr

    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    fn = decode_function(entry["function"])
    body = b2.map_stmt(fn.body, on_expr=lambda e: b2.map_expr(e, past_the_end))
    entry["function"] = encode_function(
        b2.Function(name=fn.name, args=fn.args, rets=fn.rets, body=body)
    )
    entry.pop("payload_sha")
    entry["payload_sha"] = _payload_digest(entry)  # attacker re-signs
    with open(cache._path(key), "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    report = verify_cache(str(tmp_path))
    assert [f["key"] for f in report.corrupt] == [key]
    assert report.corrupt[0]["reason"].startswith("lint: RB302 ")


def test_gc_sweeps_spools_stale_locks_and_quarantine(tmp_path):
    cache, program, _, key = _prime(tmp_path)
    shard = os.path.dirname(cache._path(key))
    spool = os.path.join(shard, "orphan.tmp")
    with open(spool, "w") as fh:
        fh.write("half-written")
    stale_lock = cache._lock_path(key)
    with open(stale_lock, "w") as fh:
        fh.write("12345\n")
    old = time.time() - 3600
    os.utime(stale_lock, (old, old))
    fresh_lock = os.path.join(shard, "held.lock")
    with open(fresh_lock, "w") as fh:
        fh.write(f"{os.getpid()}\n")
    cache.quarantine(key, "test corruption")

    report = gc_cache(str(tmp_path))
    removed = {os.path.basename(p) for p in report.removed}
    assert "orphan.tmp" in removed
    assert os.path.basename(stale_lock) in removed
    assert f"{key}.json" in removed, "quarantine bodies are debris to gc"
    assert os.path.exists(fresh_lock), "a live lock must survive gc"
    assert not os.path.isdir(cache.quarantine_root)


def test_repair_recompiles_quarantined_programs(tmp_path):
    cache, program, cold, key = _prime(tmp_path, name="crc32", opt_level=1)
    with open(cache._path(key), "a") as fh:
        fh.write("TRAILING GARBAGE")
    report = repair_cache(str(tmp_path))
    assert report.clean, report.render()
    assert [r["key"] for r in report.repaired] == [key]
    assert report.repaired[0]["program"] == "crc32"
    assert report.repaired[0]["opt_level"] == 1
    # The repaired entry is warm and byte-identical to the original.
    fresh = CompilationCache(str(tmp_path))
    warm, outcome = compile_program_cached(
        fresh, get_program("crc32"), opt_level=1
    )
    assert outcome == HIT
    assert warm.c_source() == cold.c_source()


def test_repair_reports_unrepairable_claims(tmp_path):
    cache, _, _, key = _prime(tmp_path)
    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    entry["program"] = "no_such_program"
    with open(cache._path(key), "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    report = repair_cache(str(tmp_path))
    assert not report.clean
    assert report.unrepairable
    assert "no_such_program" in report.unrepairable[0]["reason"]


def test_cache_cli_round_trip(tmp_path):
    from repro.__main__ import main

    _prime(tmp_path, name="upstr")
    assert main(["cache", "verify", str(tmp_path)]) == 0
    cache = CompilationCache(str(tmp_path))
    key = cache.key_for(
        get_program("upstr").build_model(), get_program("upstr").build_spec()
    )
    with open(cache._path(key), "a") as fh:
        fh.write("junk")
    assert main(["cache", "verify", str(tmp_path)]) == 1
    assert main(["cache", "repair", str(tmp_path)]) == 0
    assert main(["cache", "verify", str(tmp_path)]) == 0
    assert main(["cache", "gc", str(tmp_path)]) == 0
    # A typo'd path must not read as a healthy (vacuously clean) cache.
    assert main(["cache", "verify", str(tmp_path / "no-such-dir")]) == 2
