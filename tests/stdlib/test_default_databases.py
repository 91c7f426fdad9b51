"""The standard databases: built once per process, handed out as copies.

A derivation is a pure function of the model, the spec and the ordered
databases (§3.2), so ``repro.stdlib`` builds them once.  Every caller
still gets databases of its own: what one caller registers, removes or
wraps must never reach the next caller, nor move the default engine's
fingerprint (and with it every compile key).
"""

import sys
import threading
import time

import repro.stdlib as stdlib
from repro.stdlib import default_databases, default_engine


class ExtraLemma:
    name = "extra_test_lemma"


def _shape(db):
    """What a derivation depends on, comparable across separate builds."""
    return [
        (priority, lemma.name, type(lemma)) for priority, lemma in db.entries()
    ]


def test_mutating_a_returned_database_reaches_no_other_caller():
    engine_fingerprint = default_engine().fingerprint()
    binding_db, expr_db = default_databases()
    reference = [_shape(db) for db in default_databases()]
    victim = binding_db.lemma_names()[0]
    assert binding_db.remove(victim)
    binding_db.register(ExtraLemma(), priority=0)
    assert expr_db.remove(expr_db.lemma_names()[0])

    again = default_databases()
    assert victim in again[0].lemma_names()
    assert ExtraLemma.name not in again[0].lemma_names()
    assert [_shape(db) for db in again] == reference
    assert default_engine().fingerprint() == engine_fingerprint


def test_copies_answer_like_a_fresh_build():
    fresh = stdlib._build_databases()
    copies = default_databases()
    for copy, built in zip(copies, fresh):
        assert copy.fingerprint() == built.fingerprint()
        for head in built.indexed_heads() + ["NoSuchHead"]:
            assert [type(lemma) for lemma in copy.candidates(head)] == [
                type(lemma) for lemma in built.candidates(head)
            ]


def test_each_call_returns_distinct_databases():
    first, second = default_databases(), default_databases()
    for a, b in zip(first, second):
        assert a is not b
        assert a._candidate_cache is not b._candidate_cache


def test_concurrent_first_calls_build_once(monkeypatch):
    builds = []
    build = stdlib._build_databases

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.05)  # hold the window open for the other threads
        return build()

    monkeypatch.setattr(stdlib, "_BUILT", None)
    monkeypatch.setattr(stdlib, "_build_databases", slow_build)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def call(index):
        barrier.wait(timeout=30)
        results[index] = default_databases()

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len({tuple(db.fingerprint() for db in pair) for pair in results}) == 1
    handed_out = [db for pair in results for db in pair]
    assert len({id(db) for db in handed_out}) == len(handed_out)
