"""The serve cache runs the dataflow lint on every load.

The existing revalidation chain (address, digest, well-formedness,
certificate shape) cannot see *expression-level* tampering that keeps
the statement count intact: redirecting a store from the output buffer
to the read-only input is invisible to all of them.  The lint's
footprint check (RB206) is the layer that catches it.
"""

from __future__ import annotations

import json

from repro.bedrock2 import ast as b2
from repro.bedrock2.serial import decode_function, encode_function
from repro.core.spec import FnSpec, Model, array_out, len_arg, ptr_arg
from repro.serve.cache import HIT, INVALIDATED, MISS, CompilationCache, _payload_digest
from repro.source import terms as t
from repro.source.annotations import copy
from repro.source.builder import let_n, sym
from repro.source.types import ARRAY_BYTE
from repro.stdlib import default_engine


def copy_inputs():
    """A two-buffer memcpy: s is read-only, d is the declared output."""
    s, d = sym("s", ARRAY_BYTE), sym("d", ARRAY_BYTE)
    body = let_n("d", copy(s), d)
    model = Model(
        "memcpy", [("s", ARRAY_BYTE), ("d", ARRAY_BYTE)], body.term, ARRAY_BYTE
    )
    equal_lengths = t.Prim(
        "nat.eqb", (t.ArrayLen(t.Var("d")), t.ArrayLen(t.Var("s")))
    )
    spec = FnSpec(
        "memcpy",
        [ptr_arg("s", ARRAY_BYTE), ptr_arg("d", ARRAY_BYTE), len_arg("len", "s")],
        [array_out("d")],
        facts=[equal_lengths],
    )
    return model, spec


def redirect_stores_to_source(fn: b2.Function) -> b2.Function:
    """The tamper: every use of d becomes a use of s (same statement
    count, still well-formed, certificate untouched)."""

    def rename(expr):
        if isinstance(expr, b2.EVar) and expr.name == "d":
            return b2.EVar("s")
        return expr

    body = b2.map_stmt(fn.body, on_expr=lambda e: b2.map_expr(e, rename))
    return b2.Function(name=fn.name, args=fn.args, rets=fn.rets, body=body)


def test_redirected_store_is_caught_by_lint_on_load(tmp_path):
    cache = CompilationCache(str(tmp_path))
    model, spec = copy_inputs()
    engine = default_engine()

    compiled, outcome = cache.compile(model, spec, engine=engine)
    assert outcome == MISS
    key = cache.key_for(model, spec, engine=engine)
    path = cache._path(key)

    with open(path) as fh:
        entry = json.load(fh)
    tampered = redirect_stores_to_source(decode_function(entry["function"]))
    entry["function"] = encode_function(tampered)
    entry.pop("payload_sha")
    entry["payload_sha"] = _payload_digest(entry)  # attacker re-signs
    with open(path, "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))

    # The forged entry decodes, digest-checks, is well-formed, and its
    # certificate still matches -- only the lint can reject it.
    recovered, outcome = cache.compile(model, spec, engine=engine)
    assert outcome == INVALIDATED
    assert cache.stats.invalidation_reasons.get("lint", 0) == 1
    # The fallback recompile served (and re-stored) the honest bundle.
    assert recovered.bedrock_fn == compiled.bedrock_fn
    _, outcome = cache.compile(model, spec, engine=engine)
    assert outcome == HIT


def test_tamper_is_invisible_to_the_other_checks(tmp_path):
    """Control: the digest and decode accept the forged entry, proving
    the lint (not an earlier layer) is what rejects it."""
    cache = CompilationCache(str(tmp_path))
    model, spec = copy_inputs()
    engine = default_engine()
    cache.compile(model, spec, engine=engine)
    key = cache.key_for(model, spec, engine=engine)
    path = cache._path(key)

    with open(path) as fh:
        entry = json.load(fh)
    entry["function"] = encode_function(
        redirect_stores_to_source(decode_function(entry["function"]))
    )
    entry.pop("payload_sha")
    entry["payload_sha"] = _payload_digest(entry)
    raw = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(raw)

    # The digest and decode alone accept the forgery.
    fn, _certificate, _opt_report = cache._decode_entry(key, raw)
    assert encode_function(fn) == entry["function"]

    honest = CompilationCache(str(tmp_path))
    bundle, outcome = honest.lookup(key, model, spec)
    assert bundle is None and outcome == INVALIDATED


def test_clean_entries_round_trip_through_the_lint(tmp_path):
    cache = CompilationCache(str(tmp_path))
    model, spec = copy_inputs()
    _, first = cache.compile(model, spec, engine=default_engine())
    _, second = cache.compile(model, spec, engine=default_engine())
    assert (first, second) == (MISS, HIT)
    assert cache.stats.invalidated == 0
