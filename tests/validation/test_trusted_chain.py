"""One trusted chain, named the same way by every caller.

``repro.validation.checker.first_rejection`` runs wellformed ->
certificate -> replay -> lint.  The cache's load path runs it with lint,
``repro cache verify`` without replay or lint, and the fault campaign's
checker bank with replay.  Four forged artifacts pin the order and the
rejection strings through all three paths.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.bedrock2 import ast as b2
from repro.bedrock2.serial import encode_function
from repro.programs import get_program
from repro.resilience.faults import _run_trusted_checkers, corrupt_first_literal
from repro.resilience.generator import FuzzCase
from repro.serve.admin import verify_cache
from repro.serve.cache import HIT, INVALIDATED, CompilationCache, _payload_digest
from repro.stdlib import default_engine
from repro.validation.checker import first_rejection
from tests.analysis.test_cache_lint import copy_inputs, redirect_stores_to_source

WELLFORMED = (
    "wellformed: assignment to 'zz': variable 'undefined_q' may be read before "
    "assignment"
)
PHANTOM = "certificate: certificate references unknown lemma 'phantom_lemma'"
REPLAY = "replay: CertificateError"
LINT = (
    "lint: RB206 footprint-violation [error] memcpy::body[1].body[0]: store "
    "through pointer argument 's', which the spec does not declare writable"
)


def _with_body(compiled, body):
    fn = compiled.bedrock_fn
    return replace(compiled, bedrock_fn=b2.Function(fn.name, fn.args, fn.rets, body))


def _ill_formed(compiled):
    undefined = b2.SSet("zz", b2.EVar("undefined_q"))
    return _with_body(compiled, b2.SSeq(undefined, compiled.bedrock_fn.body))


def _phantom_lemma(compiled):
    root = compiled.certificate.root
    forged = replace(root.children[0], lemma="phantom_lemma")
    root = replace(root, children=[forged] + root.children[1:])
    return replace(compiled, certificate=replace(compiled.certificate, root=root))


def _code_swap(compiled):
    return _with_body(compiled, corrupt_first_literal(compiled.bedrock_fn.body))


def _redirected_store(compiled):
    return replace(compiled, bedrock_fn=redirect_stores_to_source(compiled.bedrock_fn))


def _fnv1a():
    program = get_program("fnv1a")
    compiled = default_engine().compile_function(
        program.build_model(), program.build_spec()
    )
    return compiled, program.validation_input_gen()


def _memcpy():
    model, spec = copy_inputs()

    def input_gen(rng):
        n = rng.randrange(8)
        return {"s": [rng.randrange(256) for _ in range(n)], "d": [0] * n}

    return default_engine().compile_function(model, spec), input_gen


# fault -> (subject, forge, reason on cache load, on verify, in the fault bank)
FAULTS = {
    "ill-formed-body": (_fnv1a, _ill_formed, WELLFORMED, WELLFORMED, WELLFORMED),
    "phantom-lemma": (_fnv1a, _phantom_lemma, PHANTOM, PHANTOM, PHANTOM),
    "replay-mismatch": (_fnv1a, _code_swap, None, None, REPLAY),
    "lint-error": (_memcpy, _redirected_store, LINT, None, REPLAY),
}


def _forge_entry(root, clean, bad) -> str:
    """Store ``clean`` in a cache at ``root``, then overwrite the entry's
    code and certificate with ``bad``'s and re-sign it; returns the key."""
    cache = CompilationCache(str(root))
    engine = default_engine()
    cache.compile(clean.model, clean.spec, engine=engine)
    key = cache.key_for(clean.model, clean.spec, engine=engine)
    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    entry["function"] = encode_function(bad.bedrock_fn)
    entry["certificate"] = bad.certificate.to_dict()
    entry.pop("payload_sha")
    entry["payload_sha"] = _payload_digest(entry)
    with open(cache._path(key), "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return key


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_path_names_the_same_rejection(fault, tmp_path):
    subject, forge, on_load, on_verify, in_bank = FAULTS[fault]
    clean, input_gen = subject()
    bad = forge(clean)
    fn, certificate, spec = bad.bedrock_fn, bad.certificate, bad.spec

    def chain(**stages):
        rejection = first_rejection(fn, certificate, spec=spec, **stages)
        return None if rejection is None else rejection.reason

    # The chain itself, at each caller's choice of stages.
    assert chain(lint=True) == on_load
    assert chain() == on_verify
    assert chain(replay=bad) == in_bank

    # repro cache verify: the spec-independent stages.
    key = _forge_entry(tmp_path, clean, bad)
    rows = verify_cache(str(tmp_path)).corrupt
    assert [row["reason"] for row in rows] == ([] if on_verify is None else [on_verify])

    # The cache's load path: CacheRejected's reason lands in quarantine.
    cache = CompilationCache(str(tmp_path))
    _bundle, outcome = cache.lookup(key, clean.model, clean.spec)
    if on_load is None:
        assert outcome == HIT
    else:
        assert outcome == INVALIDATED
        reason_path = tmp_path / "quarantine" / f"{key}.json.reason"
        assert reason_path.read_text() == on_load + "\n"

    # The fault campaign's checker bank (replay on, then differential).
    case = FuzzCase(clean.name, "chain", clean.model, spec, input_gen, "inplace")
    assert _run_trusted_checkers(bad, case, random.Random(0)) == in_bank
