"""The proof-search flight recorder: hierarchical spans and typed events.

Rupicola's engineering claim (§3.1-§3.3) is that lemma-driven proof
search is *predictable*: deterministic, non-backtracking, linear in the
program.  This module makes that claim observable.  A :class:`Tracer`
records

- **spans** -- hierarchical, properly nested regions
  (``compile_function`` > ``compile_binding`` > ``lemma_apply`` >
  nested subgoals / ``opt_pass`` / ``fuzz_case``), opened and closed by
  ``span_open``/``span_close`` event pairs;
- **typed events** -- lemma hits and misses (with the goal's
  head-constructor shape), solver-bank calls, certificate-node
  emission, optimizer pass applications, validation verdicts.

Two design rules keep traces usable as a regression surface:

1. **Determinism.**  Event payloads are pure functions of the compiled
   input.  Wall-clock timings are carried *out-of-band* in
   ``Tracer.span_times`` (and serialized as a single trailing
   ``timings`` record that :func:`normalize_events` strips), so the
   normalized trace of a seeded run is byte-stable -- the golden-file
   property ``tests/obs`` locks down.
2. **Zero cost when off.**  The default tracer is the :data:`NULL`
   no-op singleton with ``enabled = False``; instrumented code guards
   every event payload construction behind ``tracer.enabled``, so
   ``-O0`` compile throughput is unchanged with tracing disabled.

The active tracer is module-global (installed with :func:`use_tracer`);
the engine re-reads it at every ``compile_function`` entry so CLI
commands can wrap cached program builders without re-plumbing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry

SCHEMA_VERSION = 1

# The event taxonomy: event name -> required payload fields (beyond "i"
# and "ev").  Optional fields are listed separately so schema validation
# can reject typos without forbidding extensions.
EVENT_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "meta": {"required": ("schema",), "optional": ("name", "seed")},
    "span_open": {
        "required": ("span", "kind", "parent"),
        "optional": ("name", "head", "family", "monadic", "program", "db"),
    },
    "span_close": {
        "required": ("span", "kind", "status"),
        "optional": ("reason", "error", "rewrites"),
    },
    "lemma_hit": {"required": ("db", "lemma", "head"), "optional": ("family", "scanned")},
    "lemma_miss": {"required": ("db", "lemma", "head"), "optional": ("family",)},
    "solver_call": {"required": ("solver", "solved"), "optional": ("goal",)},
    "cert_node": {"required": ("lemma", "kind"), "optional": ("conditions",)},
    "resolve_stats": {"required": ("rewrites",), "optional": ()},
    # Term-interning table stats at derivation end.  The intern table is
    # process-global (hits depend on what compiled earlier in the same
    # process), so this event is volatile: dumped, never golden-compared.
    "interning": {"required": ("size", "hits", "misses"), "optional": ()},
    "opt_pass": {
        "required": ("pass", "status"),
        "optional": ("before", "after", "detail"),
    },
    "verdict": {
        "required": ("check", "ok"),
        "optional": ("function", "trials", "failures", "detail"),
    },
    "fuzz_outcome": {"required": ("case", "outcome"), "optional": ("family", "stage")},
    "fault_outcome": {
        "required": ("point", "outcome"),
        "optional": ("target", "detail"),
    },
    # repro.serve: cache traffic and batch-compilation progress.
    "cache_lookup": {"required": ("key", "outcome"), "optional": ("program", "level")},
    "cache_store": {"required": ("key",), "optional": ("program", "level")},
    "batch_job": {
        "required": ("job", "outcome"),
        "optional": ("kind", "cache", "level", "detail"),
    },
    "serve_request": {"required": ("op", "ok"), "optional": ("program", "detail")},
    # repro.serve.supervisor: every failure path of the worker pool.
    "worker_restart": {
        "required": ("worker", "reason"),
        "optional": ("backoff_ms", "restarts"),
    },
    "serve_retry": {
        "required": ("op", "attempt"),
        "optional": ("program", "reason"),
    },
    "serve_degraded": {"required": ("program",), "optional": ("reason",)},
    "cache_quarantine": {"required": ("key", "reason"), "optional": ("program",)},
    # repro.query: one event per query-combinator lowering (the lemma
    # family's reduction of a query head to core loop lemmas).
    "query_lower": {"required": ("head", "via"), "optional": ("name",)},
    # repro.lift: one event per inverse-pattern application (the
    # backward analogue of lemma_hit) and one per lift outcome.
    "lift_step": {"required": ("head", "via"), "optional": ("name", "detail")},
    "lift_outcome": {
        "required": ("function", "outcome"),
        "optional": ("reason", "certificate", "detail"),
    },
    # repro.analysis: one event per lint/audit diagnostic.
    "lint_diag": {
        "required": ("code", "severity"),
        "optional": ("kind", "subject", "where", "message"),
    },
    "timings": {"required": ("spans",), "optional": ("total_ms",)},
}

# Span kinds the well-formedness property test recognizes.  Open by
# construction: unknown kinds are allowed (extensions register more),
# but these are the ones the core pipeline emits.
SPAN_KINDS = (
    "compile_function",
    "compile_binding",
    "compile_expr",
    "lemma_apply",
    "side_condition",
    "opt_pass",
    "validate",
    "fuzz_case",
    "fault_injection",
    "cache_load",
    "batch_job",
    "serve_request",
    "supervised_request",
    "lint",
    "lift_function",
)


class TraceError(Exception):
    """A trace violates the event schema or the span discipline."""


class _NullSpan:
    """The do-nothing span handle the :class:`NullTracer` hands out."""

    span_id = -1

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def note(self, **fields) -> None:
        return None


_NULL_SPAN = _NullSpan()

# Public handle for instrumented code that wants to skip even the kwargs
# construction of ``tracer.span(...)`` when tracing is disabled:
# ``span = tracer.span(...) if tracer.enabled else NULL_SPAN``.
NULL_SPAN = _NULL_SPAN


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code holds a reference to this singleton on the hot
    path; the only cost of disabled tracing is an attribute check
    (``tracer.enabled``) or an empty method call.
    """

    enabled = False
    debug = False
    metrics: Optional[MetricsRegistry] = None

    def event(self, ev: str, **fields) -> None:
        return None

    def span(self, kind: str, **fields):
        return _NULL_SPAN

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


NULL = NullTracer()

_ACTIVE: object = NULL


def current_tracer():
    """The tracer instrumented code should emit to (default: :data:`NULL`)."""
    return _ACTIVE


def reset_tracer() -> None:
    """Install the null tracer for the rest of the process.

    A forked pool worker inherits its parent's active tracer; recording
    into that copy would only be thrown away when the worker exits.
    """
    global _ACTIVE
    _ACTIVE = NULL


@contextmanager
def use_tracer(tracer):
    """Install ``tracer`` as the process-wide active tracer for a block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


class _SpanHandle:
    """Context manager for one span; ``note()`` adds close-time fields."""

    __slots__ = ("_tracer", "span_id", "_kind", "_close_fields", "_start")

    def __init__(self, tracer: "Tracer", span_id: int, kind: str):
        self._tracer = tracer
        self.span_id = span_id
        self._kind = kind
        self._close_fields: Dict[str, object] = {}
        self._start = 0.0

    def note(self, **fields) -> None:
        self._close_fields.update(fields)

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer._clock()
        self._tracer._stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        tracer.span_times[self.span_id] = tracer._clock() - self._start
        popped = tracer._stack.pop()
        if popped != self.span_id:  # pragma: no cover - internal invariant
            raise TraceError(
                f"span stack corrupted: closing {self.span_id}, top is {popped}"
            )
        status, extra = "ok", {}
        if exc is not None:
            status, extra = _classify_failure(exc)
        tracer.event(
            "span_close", span=self.span_id, kind=self._kind, status=status,
            **extra, **self._close_fields,
        )


def _classify_failure(exc: BaseException):
    """Map an exception escaping a span to a deterministic close status."""
    from repro.core.goals import CompileError

    if isinstance(exc, CompileError):
        return "stalled", {"reason": exc.report.reason}
    return "error", {"error": type(exc).__name__}


class Tracer:
    """An enabled flight recorder: events in memory, timings out-of-band.

    ``events`` is the deterministic record; ``span_times`` maps span ids
    to wall-clock durations in seconds and is *not* part of the
    normalized trace.  ``metrics`` is the attached
    :class:`~repro.obs.metrics.MetricsRegistry`.

    ``detail`` picks the recording tier:

    - ``"standard"`` (default) -- the ``lemma_hit`` sequence, verdicts,
      coarse spans (``compile_function``, opt passes, validation,
      campaign cases), and every counter/histogram.  Everything else is
      *derivable* from this tier: hint databases are ordered and each
      ``lemma_hit`` carries ``scanned``, so the missed lemmas are
      exactly the first ``scanned - 1`` entries of the database, and the
      certificate nodes mirror the hits one-to-one (a property test
      pins this).  Per-goal detail (which solver won each obligation,
      how long one binding took) lives in the counters, not in events.
    - ``"debug"`` -- additionally materializes one ``lemma_miss`` event
      per rejected candidate, one ``cert_node`` event per certificate
      node, one ``solver_call`` event (with the pretty-printed goal) per
      solver attempt, and per-goal ``compile_binding`` /
      ``compile_expr`` / ``lemma_apply`` / ``side_condition`` spans.
      This is what ``--trace`` on single-compile commands, ``profile``,
      and the golden-trace tests use; campaigns default to standard so
      tracing stays cheap at scale.
    """

    enabled = True

    def __init__(self, name: str = "", clock=time.perf_counter, detail: str = "standard"):
        if detail not in ("standard", "debug"):
            raise ValueError(f"unknown trace detail {detail!r}")
        self.detail = detail
        self.debug = detail == "debug"
        self.name = name
        self.events: List[dict] = []
        self.span_times: Dict[int, float] = {}
        self.metrics = MetricsRegistry()
        # Bound-method alias: `inc` runs several times per lemma attempt,
        # so skip the extra call frame on the traced hot path.
        self.inc = self.metrics.inc
        self._stack: List[int] = []
        self._next_span = 0
        self._clock = clock
        self.event("meta", schema=SCHEMA_VERSION, name=name)

    # -- Recording -------------------------------------------------------------

    def event(self, ev: str, **fields) -> None:
        # The kwargs dict itself becomes the record: this runs once per
        # lemma attempt on the traced hot path, so no second dict.
        fields["i"] = len(self.events)
        fields["ev"] = ev
        self.events.append(fields)

    def span(self, kind: str, **fields) -> _SpanHandle:
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1] if self._stack else None
        self.event("span_open", span=span_id, kind=kind, parent=parent, **fields)
        return _SpanHandle(self, span_id, kind)

    def inc(self, name: str, n: int = 1) -> None:
        # Shadowed per-instance by the bound ``metrics.inc`` in __init__;
        # kept for the class-level interface (and subclass overrides).
        self.metrics.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- Introspection ---------------------------------------------------------

    def open_spans(self) -> List[int]:
        return list(self._stack)

    def spans_by_kind(self, kind: str) -> List[dict]:
        return [
            e for e in self.events if e["ev"] == "span_open" and e["kind"] == kind
        ]

    def events_by_type(self, ev: str) -> List[dict]:
        return [e for e in self.events if e["ev"] == ev]

    # -- Serialization ---------------------------------------------------------

    def golden_lines(self) -> List[dict]:
        """The deterministic records: events plus the metrics snapshot."""
        return normalize_events(self.events) + [
            {"ev": "metrics", **self.metrics.to_dict()}
        ]

    def timings_record(self) -> dict:
        spans = {str(k): round(v * 1e3, 6) for k, v in sorted(self.span_times.items())}
        return {"ev": "timings", "spans": spans, "total_ms": round(sum(spans.values()), 6)}

    def write_jsonl(self, path: str, include_timings: bool = True) -> None:
        """Dump the trace as JSON Lines (one record per line).

        The deterministic records come first; the wall-clock ``timings``
        record rides at the end so :func:`normalize_events` (and any
        diffing tool) can drop it without reordering.
        """
        records = list(self.events) + [{"ev": "metrics", **self.metrics.to_dict()}]
        if include_timings:
            records.append(self.timings_record())
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# -- Normalization and schema validation -----------------------------------------

# Record types and fields that may legitimately differ between two runs
# of the same seed (wall-clock data); stripped before golden comparison.
VOLATILE_EVENTS = frozenset({"timings", "interning"})
VOLATILE_FIELDS = frozenset({"ms", "dur", "elapsed", "time"})


def normalize_events(events: Iterable[dict]) -> List[dict]:
    """Strip volatile records/fields; renumber so indices stay dense."""
    normalized: List[dict] = []
    for event in events:
        if event.get("ev") in VOLATILE_EVENTS:
            continue
        cleaned = {
            k: v for k, v in event.items() if k not in VOLATILE_FIELDS
        }
        cleaned["i"] = len(normalized)
        normalized.append(cleaned)
    return normalized


def read_jsonl(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def validate_events(events: Iterable[dict]) -> None:
    """Check schema conformance and the span discipline; raise on problems.

    Enforced properties:

    - every event names a known type and carries its required fields;
    - spans open before they close, close exactly once, and closes are
      properly nested (LIFO) with correct parent links;
    - at end of trace every opened span has been closed.
    """
    stack: List[int] = []
    opened: Dict[int, dict] = {}
    closed: set = set()
    for index, event in enumerate(events):
        ev = event.get("ev")
        if ev == "metrics":  # trailing registry snapshot, schema-free
            continue
        if ev not in EVENT_SCHEMA:
            raise TraceError(f"event {index} has unknown type {ev!r}: {event}")
        spec = EVENT_SCHEMA[ev]
        for fld in spec["required"]:
            if fld not in event:
                raise TraceError(f"event {index} ({ev}) missing field {fld!r}: {event}")
        allowed = set(spec["required"]) | set(spec["optional"]) | {"i", "ev"}
        unknown = set(event) - allowed
        if unknown:
            raise TraceError(
                f"event {index} ({ev}) has unknown fields {sorted(unknown)}: {event}"
            )
        if ev == "span_open":
            span = event["span"]
            if span in opened:
                raise TraceError(f"span {span} opened twice (event {index})")
            expect_parent = stack[-1] if stack else None
            if event["parent"] != expect_parent:
                raise TraceError(
                    f"span {span} records parent {event['parent']!r}, "
                    f"but the enclosing open span is {expect_parent!r}"
                )
            opened[span] = event
            stack.append(span)
        elif ev == "span_close":
            span = event["span"]
            if span not in opened:
                raise TraceError(f"span {span} closed but never opened (event {index})")
            if span in closed:
                raise TraceError(f"span {span} closed twice (event {index})")
            if not stack or stack[-1] != span:
                raise TraceError(
                    f"span {span} closed out of order; open stack is {stack}"
                )
            if event["kind"] != opened[span]["kind"]:
                raise TraceError(
                    f"span {span} closed as kind {event['kind']!r} but opened "
                    f"as {opened[span]['kind']!r}"
                )
            stack.pop()
            closed.add(span)
    if stack:
        raise TraceError(f"trace ended with unclosed spans: {stack}")
