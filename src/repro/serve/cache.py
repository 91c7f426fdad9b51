"""The content-addressed compilation cache.

Each entry maps a :func:`~repro.serve.fingerprint.compile_key` -- a
digest of every input the derivation is a pure function of -- to the
serialized Bedrock2 AST, the derivation
:class:`~repro.core.certificate.Certificate`, and (for optimized
entries) the per-pass :class:`~repro.opt.manager.OptimizationReport`.

**Trust model.**  The cache is *untrusted*, exactly like the proof
search that fills it (the paper's §5 translation-validation stance):

- a stored payload digest catches corruption and truncation;
- every byte string a handle loads is checked by the existing trusted
  checkers -- definite-assignment well-formedness on the decoded AST,
  the structural certificate checker and the errors-only dataflow lint
  -- before it is served;
- any failure (decode error, digest mismatch, schema drift, checker
  rejection) quarantines the entry and demotes the request to a cold
  compile.  A poisoned cache can cost time, never correctness.

**Checked once per handle.**  The outcome of that check is a pure
function of the entry's bytes, the request's key and the process's
trusted base, so each handle keeps a bounded LRU table
(:data:`CHECKED_TABLE_SIZE` entries) from ``(sha256 of the bytes as
read, compile key)`` to the checked, immutable AST, certificate and
report.  A repeat hit reads the file, hashes it and serves the table's
entry; its C text is rendered at most once per entry.  Any other bytes
miss the table and run the whole check.  The entry's own
``payload_sha`` never keys the table: whoever wrote the entry chose it.
``repro cache verify`` (:mod:`repro.serve.admin`) keeps no table.

**Invalidation** is purely content-addressed: editing a lemma database,
flipping ``-O0``/``-O1``, changing the solver bank or word width, or
bumping a serialization schema all move the key, so stale entries are
simply never addressed again.  Entries that *are* addressed but fail
re-validation are counted as ``invalidated`` and overwritten by the
fallback compile's fresh result.

All cache traffic is observable: ``cache_lookup`` / ``cache_store``
events and ``cache.{hits,misses,invalidated,stores}`` counters flow to
the active :mod:`repro.obs` tracer (``cache.table_hits`` counts the
hits served from the table without the check), and loads run under a
``cache_load`` span so traces show exactly which derivations were
served from disk.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.bedrock2.serial import (
    ASTDecodeError,
    decode_function,
    encode_function,
)
from repro.core.certificate import Certificate, CertificateDecodeError
from repro.core.spec import CompiledFunction, FnSpec, Model
from repro.serve.fingerprint import compile_key, compile_key_for

ENTRY_SCHEMA_VERSION = 1

HIT = "hit"
MISS = "miss"
INVALIDATED = "invalidated"

QUARANTINE_DIR = "quarantine"

#: A publish lock untouched for this long belongs to a dead writer and
#: may be stolen.  Publishes are a single serialize + rename, so any
#: live holder is done in milliseconds, not tens of seconds.
LOCK_STALE_SECONDS = 30.0

#: Checked entries one handle keeps, least recently used first out.  64
#: holds all 34 registry and query keys at ``-O0`` and ``-O1``.
CHECKED_TABLE_SIZE = 64


@dataclass
class CacheStats:
    """Counters for one cache handle's lifetime (also mirrored to obs)."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    stores: int = 0
    quarantined: int = 0
    invalidation_reasons: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "invalidation_reasons": dict(self.invalidation_reasons),
        }

    def merge(self, other: dict) -> None:
        """Fold another handle's ``to_dict()`` into this one (batch workers)."""
        self.hits += other.get("hits", 0)
        self.misses += other.get("misses", 0)
        self.invalidated += other.get("invalidated", 0)
        self.stores += other.get("stores", 0)
        self.quarantined += other.get("quarantined", 0)
        for reason, count in other.get("invalidation_reasons", {}).items():
            self.invalidation_reasons[reason] = (
                self.invalidation_reasons.get(reason, 0) + count
            )


def _payload_digest(entry: dict) -> str:
    """Digest of the canonical entry body (everything but the digest field)."""
    body = {k: v for k, v in entry.items() if k != "payload_sha"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _CheckedEntry:
    """An entry whose bytes passed the whole load check on this handle.

    The AST, certificate and report are immutable, so every hit on the
    same bytes shares them.  The C text is rendered at most once, on the
    first ``c_source()`` of a bundle served from this entry; the statement
    count is kept the same way, without a lock (a racing thread can only
    count the same number again).
    """

    __slots__ = ("fn", "certificate", "opt_report", "statements", "_c_text", "_c_lock")

    def __init__(self, fn, certificate: Certificate, opt_report):
        self.fn = fn
        self.certificate = certificate
        self.opt_report = opt_report
        self.statements: Optional[int] = None
        self._c_text: Optional[str] = None
        self._c_lock = threading.Lock()

    def bundle(self, spec: FnSpec, model: Model) -> "_CheckedBundle":
        return _CheckedBundle(
            bedrock_fn=self.fn,
            certificate=self.certificate,
            spec=spec,
            model=model,
            opt_report=self.opt_report,
            checked=self,
        )

    def c_source(self, bundle: CompiledFunction) -> str:
        # The one render goes through the base method, so whatever
        # observes ``CompiledFunction.c_source`` still sees it.
        text = self._c_text
        if text is None:
            with self._c_lock:
                text = self._c_text
                if text is None:
                    text = self._c_text = CompiledFunction.c_source(bundle)
        return text


@dataclass
class _CheckedBundle(CompiledFunction):
    """A bundle served from a checked entry; it prints the entry's C."""

    checked: Optional[_CheckedEntry] = field(default=None, repr=False, compare=False)

    def _entry(self) -> Optional[_CheckedEntry]:
        """The checked entry, unless ``replace`` gave this bundle other code."""
        checked = self.checked
        return checked if checked is not None and checked.fn is self.bedrock_fn else None

    def c_source(self) -> str:
        checked = self._entry()
        return super().c_source() if checked is None else checked.c_source(self)

    def statement_count(self) -> int:
        checked = self._entry()
        if checked is None:
            return super().statement_count()
        if checked.statements is None:
            checked.statements = super().statement_count()
        return checked.statements


class CacheRejected(Exception):
    """An addressed entry failed re-validation (internal control flow)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class PublishLock:
    """A per-key advisory lock file around cache publishes.

    ``O_CREAT | O_EXCL`` makes creation the atomic acquire on every
    POSIX filesystem; the file body records the holder's pid for
    ``repro cache gc`` forensics.  A lock whose mtime is older than
    ``stale_after`` is presumed orphaned (its writer was SIGKILLed
    between create and unlink) and is stolen -- publishes themselves
    are idempotent and atomic, so the worst cost of a steal is two
    processes racing one ``os.replace``, which is exactly the benign
    race the lock exists to *bound*, not to make impossible.
    """

    def __init__(
        self,
        path: str,
        timeout: float = 10.0,
        stale_after: float = LOCK_STALE_SECONDS,
        poll: float = 0.01,
    ):
        self.path = path
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll = poll
        self._held = False

    def acquire(self) -> bool:
        """Take the lock; ``False`` if the wait timed out (caller may
        still publish -- the publish is atomic -- but the race window
        is then unbounded by us)."""
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._steal_if_stale()
                if time.monotonic() >= deadline:
                    return False
                time.sleep(self.poll)
                continue
            except OSError:
                return False
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{os.getpid()}\n")
            self._held = True
            return True

    def _steal_if_stale(self) -> None:
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return  # released under us: retry the open
        if age > self.stale_after:
            with contextlib.suppress(OSError):
                os.unlink(self.path)

    def release(self) -> None:
        if self._held:
            self._held = False
            with contextlib.suppress(OSError):
                os.unlink(self.path)

    def __enter__(self) -> "PublishLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class CompilationCache:
    """A directory of re-validated, content-addressed derivations."""

    def __init__(self, root: str):
        self.root = root
        self.stats = CacheStats()
        # (program name, opt level) -> (program, engine fingerprint,
        # model, spec, key): one entry per registry program and level.
        self._program_inputs: dict = {}
        # (sha256 of the entry's bytes as read, compile key) -> the
        # _CheckedEntry those bytes decoded to; filled only by a
        # successful check.
        self._checked: "OrderedDict[Tuple[bytes, str], _CheckedEntry]" = OrderedDict()
        self._checked_lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    # -- Addressing ------------------------------------------------------------

    def key_for(
        self, model: Model, spec: FnSpec, engine=None, opt_level: int = 0
    ) -> str:
        if engine is None:
            from repro.stdlib import default_engine

            engine = default_engine()
        return compile_key(model, spec, engine, opt_level)

    def program_inputs(
        self, program, engine=None, opt_level: int = 0
    ) -> Tuple[Model, FnSpec, str]:
        """``(model, spec, key)`` for a registry program, built once per handle.

        A registry program's model and spec never change, so the
        reification and key digest are paid on the first request only.
        The entry is rebuilt when the program object or the engine
        fingerprint differs from the one it was built for.  Without an
        ``engine`` the key is the default engine's, read from the
        per-process :func:`~repro.stdlib.standard_fingerprint`, so no
        engine is built.
        """
        if engine is None:
            from repro.stdlib import standard_fingerprint

            fingerprint = standard_fingerprint()
        else:
            fingerprint = engine.fingerprint()
        slot = (program.name, opt_level)
        entry = self._program_inputs.get(slot)
        if entry is None or entry[0] is not program or entry[1] != fingerprint:
            model = program.build_model()
            spec = program.build_spec()
            key = compile_key_for(model, spec, fingerprint, opt_level)
            entry = (program, fingerprint, model, spec, key)
            self._program_inputs[slot] = entry
        return entry[2:]

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _lock_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.lock")

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    # -- Quarantine ------------------------------------------------------------

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    def quarantine(self, key: str, reason: str) -> bool:
        """Move a rejected entry aside instead of leaving it to be
        rejected again on every load.  The entry bytes are preserved
        under ``quarantine/<key>.json`` with a ``.reason`` sidecar for
        forensics (``repro cache verify`` / ``repair`` sweep them);
        the address itself goes back to a clean MISS, so the fallback
        compile's fresh store repairs it in place.  Returns ``False``
        if a concurrent reader already moved it."""
        src = self._path(key)
        os.makedirs(self.quarantine_root, exist_ok=True)
        dst = os.path.join(self.quarantine_root, f"{key}.json")
        try:
            os.replace(src, dst)
        except OSError:
            return False
        with contextlib.suppress(OSError), open(dst + ".reason", "w") as fh:
            fh.write(reason + "\n")
        self.stats.quarantined += 1
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "cache_quarantine", key=key, reason=reason.split(":", 1)[0]
            )
            tracer.inc("cache.quarantined")
        return True

    def quarantined_keys(self) -> list:
        root = self.quarantine_root
        try:
            names = os.listdir(root)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json")
        )

    # -- Load path -------------------------------------------------------------

    def _checked_entry(self, slot: Tuple[bytes, str]) -> Optional[_CheckedEntry]:
        with self._checked_lock:
            entry = self._checked.get(slot)
            if entry is not None:
                self._checked.move_to_end(slot)
            return entry

    def _remember(self, slot: Tuple[bytes, str], entry: _CheckedEntry) -> _CheckedEntry:
        """Add a checked entry (or keep the one a concurrent hit added)."""
        with self._checked_lock:
            entry = self._checked.setdefault(slot, entry)
            self._checked.move_to_end(slot)
            if len(self._checked) > CHECKED_TABLE_SIZE:
                self._checked.popitem(last=False)
            return entry

    def _decode_entry(
        self, key: str, raw: Union[str, bytes]
    ) -> Tuple[object, Certificate, object]:
        try:
            entry = json.loads(raw)
        except ValueError as exc:
            raise CacheRejected(f"not JSON: {exc}") from None
        if not isinstance(entry, dict):
            raise CacheRejected("entry is not a JSON object")
        if entry.get("entry_schema") != ENTRY_SCHEMA_VERSION:
            raise CacheRejected(
                f"entry schema {entry.get('entry_schema')!r} != {ENTRY_SCHEMA_VERSION}"
            )
        if entry.get("key") != key:
            raise CacheRejected("stored key does not match the address")
        if entry.get("payload_sha") != _payload_digest(entry):
            raise CacheRejected("payload digest mismatch (corrupted entry)")
        try:
            fn = decode_function(entry["function"])
            certificate = Certificate.from_dict(entry["certificate"])
        except (ASTDecodeError, CertificateDecodeError, KeyError) as exc:
            raise CacheRejected(f"decode failed: {exc}") from None
        opt_report = None
        if entry.get("opt_report") is not None:
            from repro.opt.manager import OptimizationReport

            try:
                opt_report = OptimizationReport.from_dict(entry["opt_report"])
            except (KeyError, TypeError) as exc:
                raise CacheRejected(f"bad optimization report: {exc!r}") from None
        return fn, certificate, opt_report

    def _revalidate(self, fn, certificate: Certificate, spec: FnSpec) -> None:
        """The trusted half: run the existing checkers over the decoded entry.

        The checkers *are* the TCB -- the cache adds no trust of its
        own.  (Semantic differential validation remains available to
        callers via ``repro.validation.checker.validate``, exactly as
        for freshly compiled bundles.)
        """
        from repro.validation.checker import first_rejection

        if fn.name != spec.fname:
            raise CacheRejected(
                f"entry is for function {fn.name!r}, request is {spec.fname!r}"
            )
        # Dataflow lint (repro.analysis) closes the chain: a tampered or
        # stale entry whose code is well-formed can still deref dead stack
        # memory or write outside the spec's footprint.
        rejection = first_rejection(fn, certificate, spec=spec, lint=True)
        if rejection is not None:
            raise CacheRejected(rejection.reason)

    def lookup(
        self, key: str, model: Model, spec: FnSpec
    ) -> Tuple[Optional[CompiledFunction], str]:
        """Serve ``key`` if present and re-validated; returns (bundle, outcome).

        Outcomes: :data:`HIT` (validated entry), :data:`MISS` (no entry),
        :data:`INVALIDATED` (an entry existed but was rejected).  Bytes
        this handle has already checked under ``key`` are served from
        the checked-entry table without decoding them again.
        """
        from repro.obs.trace import NULL_SPAN, current_tracer

        tracer = current_tracer()
        trace = tracer.enabled
        path = self._path(key)
        span = (
            tracer.span("cache_load", name=spec.fname) if trace else NULL_SPAN
        )
        with span as handle:
            try:
                with open(path, "rb") as fh:
                    raw = fh.read()
            except OSError:
                self.stats.misses += 1
                self._trace_lookup(tracer, key, MISS, spec.fname)
                return None, MISS
            # The bytes as read, never the entry's own payload_sha (its
            # writer controls that), address the checked-entry table.
            slot = (hashlib.sha256(raw).digest(), key)
            checked = self._checked_entry(slot)
            if checked is not None and checked.fn.name == spec.fname:
                self.stats.hits += 1
                if trace:
                    tracer.inc("cache.table_hits")
                self._trace_lookup(tracer, key, HIT, spec.fname)
                return checked.bundle(spec, model), HIT
            try:
                fn, certificate, opt_report = self._decode_entry(key, raw)
                self._revalidate(fn, certificate, spec)
            except CacheRejected as rejection:
                self.stats.invalidated += 1
                reason = rejection.reason.split(":", 1)[0]
                self.stats.invalidation_reasons[reason] = (
                    self.stats.invalidation_reasons.get(reason, 0) + 1
                )
                # Never serve it, never re-reject it on every load: the
                # bad bytes move to the quarantine directory and the
                # address reverts to a MISS the fallback store repairs.
                self.quarantine(key, rejection.reason)
                if trace:
                    handle.note(reason="rejected")
                self._trace_lookup(tracer, key, INVALIDATED, spec.fname)
                return None, INVALIDATED
            self.stats.hits += 1
            self._trace_lookup(tracer, key, HIT, spec.fname)
            checked = self._remember(slot, _CheckedEntry(fn, certificate, opt_report))
            return checked.bundle(spec, model), HIT

    _OUTCOME_COUNTERS = {HIT: "cache.hits", MISS: "cache.misses", INVALIDATED: "cache.invalidated"}

    @classmethod
    def _trace_lookup(cls, tracer, key: str, outcome: str, program: str) -> None:
        if not tracer.enabled:
            return
        tracer.event("cache_lookup", key=key, outcome=outcome, program=program)
        tracer.inc(cls._OUTCOME_COUNTERS[outcome])

    # -- Store path ------------------------------------------------------------

    def store(self, key: str, compiled: CompiledFunction, opt_level: int = 0) -> None:
        from repro.obs.trace import current_tracer

        entry = {
            "entry_schema": ENTRY_SCHEMA_VERSION,
            "key": key,
            "program": compiled.name,
            "opt_level": opt_level,
            "function": encode_function(compiled.bedrock_fn),
            "certificate": compiled.certificate.to_dict(),
            "opt_report": (
                compiled.opt_report.to_dict()
                if compiled.opt_report is not None
                else None
            ),
        }
        entry["payload_sha"] = _payload_digest(entry)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic publish under a per-key advisory lock: the os.replace
        # alone already guarantees a reader never observes a half-written
        # entry, and the lock serializes concurrent *writers* of the same
        # key so the parallel batch compiler and the supervised pool do
        # only one redundant serialize apiece instead of N.
        with PublishLock(self._lock_path(key)):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        self.stats.stores += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event("cache_store", key=key, program=compiled.name)
            tracer.inc("cache.stores")

    # -- The memoized compile --------------------------------------------------

    def compile(
        self,
        model: Model,
        spec: FnSpec,
        engine=None,
        opt_level: int = 0,
        input_gen=None,
    ) -> Tuple[CompiledFunction, str]:
        """Compile through the cache; returns (bundle, outcome).

        A warm entry is decoded, digest-checked, and re-validated by the
        trusted checkers (once per byte string per handle); anything else
        falls back to a cold derivation (and, for ``opt_level > 0``, the
        translation-validated optimizer), whose result is stored for next
        time.
        """
        if engine is None:
            from repro.stdlib import default_engine

            engine = default_engine()
        key = compile_key(model, spec, engine, opt_level)
        return self._compile_keyed(key, model, spec, engine, opt_level, input_gen)

    def _compile_keyed(
        self, key: str, model: Model, spec: FnSpec, engine, opt_level: int, input_gen
    ) -> Tuple[CompiledFunction, str]:
        bundle, outcome = self.lookup(key, model, spec)
        if bundle is not None:
            return bundle, outcome
        if engine is None:
            from repro.stdlib import default_engine

            engine = default_engine()
        compiled = engine.compile_function(model, spec).optimize(
            opt_level, input_gen=input_gen
        )
        self.store(key, compiled, opt_level=opt_level)
        return compiled, outcome


def compile_program_cached(
    cache: CompilationCache, program, opt_level: int = 0, engine=None
) -> Tuple[CompiledFunction, str]:
    """Compile a suite or query program (see
    :func:`~repro.programs.registry.get_program`) through ``cache`` (with
    the default engine unless ``engine`` is given); returns (bundle,
    outcome).

    A hit builds no engine: the handle's ``program_inputs`` hold the key,
    and the default engine is built only for a derivation.
    """
    model, spec, key = cache.program_inputs(program, engine, opt_level)
    return cache._compile_keyed(
        key, model, spec, engine, opt_level, program.validation_input_gen()
    )
