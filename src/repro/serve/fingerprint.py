"""Content-addressed cache keys for derivations.

Soundness of memoization rests on the paper's §3.2 determinism argument:
proof search never backtracks and scans ordered hint databases, so the
(code, certificate) pair is a pure function of

1. the reified source term, parameter list, and result type (the model);
2. the ABI spec -- argument bindings, outputs, incidental facts;
3. the ordered lemma-database contents and solver bank
   (:meth:`repro.core.engine.Engine.fingerprint`);
4. the optimization level and its ordered pass roster
   (:func:`repro.opt.manager.pipeline_fingerprint`);
5. the serialization schema versions (a format bump must never let an
   old entry decode as current data).

:func:`compile_key` digests all five.  Any change to any input moves the
key, which *is* the invalidation mechanism: stale entries are simply
never addressed again.

Terms, types, and spec components are frozen dataclasses whose ``repr``
recurses deterministically over the whole tree (the same property
``bedrock2.ast.fingerprint`` relies on), so hashing reprs fingerprints
the exact syntax without a second serializer.
"""

from __future__ import annotations

import hashlib

from repro.bedrock2.serial import AST_SCHEMA_VERSION
from repro.config import current_config
from repro.core.certificate import CERT_SCHEMA_VERSION
from repro.core.spec import FnSpec, Model
from repro.source.terms import register_node_memo

# Version of the key derivation itself; bump to orphan every existing
# cache entry at once (e.g. when a fingerprint input is added).
KEY_SCHEMA_VERSION = 1

_SEP = b"\x1e"


def _digest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(_SEP)
    return digest.hexdigest()


# Per-node memo for term reprs.  With hash-consing on, a model's term is
# a canonical node whose repr never changes, so the serve hot path (every
# cache lookup re-fingerprints its model) can skip the recursive repr
# walk.  Keyed by *identity* -- structural keying would conflate
# ``Lit(True)``/``Lit(1)``, which are ``==`` but repr differently -- and
# only for interned nodes, whose table entry keeps them (and hence the
# id) alive.  Each entry holds its term too, so the memo is registered
# with the intern table: ``clear_intern_table()`` empties it.
_TERM_REPR_MEMO: dict = register_node_memo({})


def _term_repr(term) -> str:
    if not current_config().fast_search:
        return repr(term)
    key = id(term)
    cached = _TERM_REPR_MEMO.get(key)
    if cached is not None and cached[0] is term:
        return cached[1]
    rendered = repr(term)
    _TERM_REPR_MEMO[key] = (term, rendered)
    return rendered


def source_fingerprint(model: Model) -> str:
    """A stable hash of the reified functional model."""
    return _digest(
        model.name,
        repr(model.params),
        _term_repr(model.term),
        repr(model.result_ty),
    )[:16]


def spec_fingerprint(spec: FnSpec) -> str:
    """A stable hash of the ABI: args, outputs, facts, state threading."""
    return _digest(
        spec.fname,
        repr(spec.args),
        repr(spec.outputs),
        repr(spec.facts),
        repr(spec.state_param),
    )[:16]


def compile_key(model: Model, spec: FnSpec, engine, opt_level: int = 0) -> str:
    """The content address of one derivation request.

    ``engine`` is a :class:`repro.core.engine.Engine`; its
    ``fingerprint()`` covers the ordered lemma databases, the solver
    bank, and the word width.
    """
    return compile_key_for(model, spec, engine.fingerprint(), opt_level)


def compile_key_for(
    model: Model, spec: FnSpec, engine_fingerprint: str, opt_level: int = 0
) -> str:
    """:func:`compile_key` given the engine's ``fingerprint()`` instead."""
    from repro.opt.manager import pipeline_fingerprint

    return _digest(
        f"key-schema:{KEY_SCHEMA_VERSION}",
        f"cert-schema:{CERT_SCHEMA_VERSION}",
        f"ast-schema:{AST_SCHEMA_VERSION}",
        source_fingerprint(model),
        spec_fingerprint(spec),
        engine_fingerprint,
        pipeline_fingerprint(opt_level),
    )[:32]


def lift_key(fn, spec: FnSpec, width: int = 64) -> str:
    """The content address of one *lift* request (``repro.lift``).

    The backward search is deterministic for the same reason the forward
    search is, so a lift result is a pure function of

    1. the exact Bedrock2 syntax (``bedrock2.ast.fingerprint``);
    2. the ABI spec directing the backward walk;
    3. the registered inverse-pattern roster
       (:func:`repro.lift.patterns.roster_fingerprint`);
    4. the word width.

    Any change to any of them moves the key -- the same
    invalidation-by-key-movement discipline as :func:`compile_key`.
    """
    from repro.bedrock2 import ast
    from repro.lift.patterns import roster_fingerprint
    from repro.stdlib import load_extensions

    load_extensions()  # the roster must be registered before fingerprinting

    return _digest(
        f"lift-key-schema:{KEY_SCHEMA_VERSION}",
        f"ast-schema:{AST_SCHEMA_VERSION}",
        ast.fingerprint(fn),
        spec_fingerprint(spec),
        roster_fingerprint(),
        str(width),
    )[:32]
