"""The serve-layer fault campaign: does the supervised pool survive it?

:mod:`repro.resilience.faults` attacks the *soundness* story (do the
trusted checkers catch lies?); this module attacks the *availability*
story of :mod:`repro.serve.supervisor`.  Each injection point drives a
real supervised pool -- actual subprocess workers, actual SIGKILLs,
actual bytes corrupted on disk -- and classifies what the service did:

- ``detected``  -- the failure came back as a structured, typed
  response (timeout, overloaded, unavailable) and the service kept
  serving;
- ``recovered`` -- the service absorbed the failure and still produced
  a *correct* result (a retried request succeeded; a corrupted cache
  entry was quarantined and recompiled byte-identically);
- ``harmless``  -- the fault had no observable effect;
- ``crash``     -- the *supervisor* (not a worker -- workers are
  supposed to die) raised or wedged;
- ``silent``    -- the fault changed an answer without any signal
  (e.g. a corrupt cache entry served as a different artifact).

The acceptance bar mirrors the soundness campaign: **zero** ``crash``
and **zero** ``silent`` outcomes -- 100% detection-or-recovery.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import List, Optional, Tuple

from repro.resilience.campaign import (
    CRASH,
    DETECTED,
    HARMLESS,
    RECOVERED,
    SILENT,
    CampaignReport,
    Lost,
    Outcome,
    Vocabulary,
    ordered_map,
)

VOCABULARY = Vocabulary(
    (DETECTED, RECOVERED, HARMLESS, CRASH, SILENT),
    frozenset({DETECTED, RECOVERED}), frozenset({CRASH, SILENT}),
)


# -- Injection points ---------------------------------------------------------------
#
# Each point builds its own small pool (short timeouts, tiny backoff) so
# the whole campaign stays in CI-smoke territory; each returns exactly
# one ``(outcome, detail)`` pair and always tears its pool down.


def _pool(tmp, **overrides):
    from repro.serve.supervisor import Supervisor, SupervisorConfig

    defaults = dict(
        workers=1,
        request_timeout=20.0,
        max_retries=1,
        queue_depth=4,
        degrade_after=3,
        backoff_base=0.01,
        backoff_cap=0.1,
        restart_window=60.0,
        max_restarts_in_window=20,
        spawn_timeout=120.0,
    )
    defaults.update(overrides)
    cache_dir = os.path.join(tmp, "cache")
    return Supervisor(
        SupervisorConfig(**defaults), cache_dir=cache_dir, allow_test_ops=True
    )


def _inject_worker_crash(tmp: str) -> Tuple[str, str]:
    """SIGKILL-grade death mid-request: the retry must recover it."""
    marker = os.path.join(tmp, "crashed-once")
    with _pool(tmp) as sup:
        response = sup.submit({"op": "test_exit", "marker": marker, "code": 9})
        follow_up = sup.submit({"op": "ping"})
    if not response.get("ok"):
        return CRASH, f"retry did not recover: {response!r}"
    if not follow_up.get("ok"):
        return CRASH, f"pool wedged after crash: {follow_up!r}"
    attempts = response.get("attempts", 1)
    if attempts < 2:
        return SILENT, "crash left no trace in the response"
    return RECOVERED, f"retried once on a fresh worker (attempts={attempts})"


def _inject_slow_worker(tmp: str) -> Tuple[str, str]:
    """A wedged derivation: the deadline must fire and must not block
    the next request (the acceptance-criteria regression)."""
    with _pool(tmp) as sup:
        start = time.monotonic()
        response = sup.submit(
            {"op": "test_sleep", "seconds": 30.0, "deadline_ms": 300}
        )
        elapsed = time.monotonic() - start
        follow_up = sup.submit({"op": "ping"})
    if response.get("error") != "timeout":
        return CRASH, f"no timeout response: {response!r}"
    if elapsed > 10.0:
        return CRASH, f"deadline did not bound the wait ({elapsed:.1f}s)"
    if not follow_up.get("ok"):
        return CRASH, f"timed-out request blocked the next one: {follow_up!r}"
    return (
        DETECTED,
        f"timeout after {elapsed:.2f}s; next request served by a fresh worker",
    )


def _corrupt_one_entry(cache_dir: str) -> Optional[str]:
    """Append garbage to the first cache entry found; returns its path."""
    for dirpath, dirnames, filenames in os.walk(cache_dir):
        if os.path.basename(dirpath) == "quarantine":
            dirnames[:] = []
            continue
        for name in sorted(filenames):
            if name.endswith(".json"):
                path = os.path.join(dirpath, name)
                with open(path, "a") as fh:
                    fh.write("GARBAGE-INJECTED-BY-FAULT-CAMPAIGN")
                return path
    return None


def _inject_cache_corruption(tmp: str, program: str = "fnv1a") -> Tuple[str, str]:
    """Corrupt a published entry on disk between two warm requests: it
    must be quarantined and recompiled byte-identically, never served."""
    cache_dir = os.path.join(tmp, "cache")
    with _pool(tmp) as sup:
        cold = sup.submit({"op": "compile", "program": program})
        if not cold.get("ok"):
            return CRASH, f"priming failed: {cold!r}"
        corrupted = _corrupt_one_entry(cache_dir)
        if corrupted is None:
            return HARMLESS, "no entry was published"
        warm = sup.submit({"op": "compile", "program": program})
    if not warm.get("ok"):
        return CRASH, f"recompile after corruption failed: {warm!r}"
    if warm.get("c") != cold.get("c"):
        return SILENT, "corrupted cache changed the served artifact"
    quarantine = os.path.join(cache_dir, "quarantine")
    held = (
        [n for n in os.listdir(quarantine) if n.endswith(".json")]
        if os.path.isdir(quarantine)
        else []
    )
    if not held:
        return SILENT, "corrupt entry was not quarantined"
    return (
        RECOVERED,
        f"entry quarantined ({len(held)} held), recompiled byte-identical",
    )


def _inject_queue_saturation(tmp: str) -> Tuple[str, str]:
    """Flood a one-worker pool past its queue depth: the overflow must
    get explicit backpressure, not an unbounded wait."""
    with _pool(tmp, workers=1, queue_depth=2, request_timeout=20.0) as sup:
        results: List[dict] = []
        lock = threading.Lock()

        def client(seconds: float):
            response = sup.submit({"op": "test_sleep", "seconds": seconds})
            with lock:
                results.append(response)

        threads = [
            threading.Thread(target=client, args=(1.0,), daemon=True)
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        follow_up = sup.submit({"op": "ping"})
    if any(thread.is_alive() for thread in threads):
        return CRASH, "a flooded client never returned"
    overloaded = [r for r in results if r.get("error") == "overloaded"]
    served = [r for r in results if r.get("ok")]
    if not overloaded:
        return SILENT, f"no backpressure under flood: {len(served)} served"
    if any("retry_after_ms" not in r for r in overloaded):
        return CRASH, "overloaded response missing retry_after_ms"
    if not follow_up.get("ok"):
        return CRASH, "pool wedged after the flood"
    return (
        DETECTED,
        f"{len(served)} served, {len(overloaded)} shed with retry_after_ms",
    )


def _inject_crash_loop(tmp: str) -> Tuple[str, str]:
    """A worker binary that can never come up: the restart cap must turn
    it into 'unavailable' responses, not an infinite respawn loop."""
    import sys

    from repro.serve.supervisor import Supervisor, SupervisorConfig

    config = SupervisorConfig(
        workers=1,
        request_timeout=5.0,
        max_retries=1,
        backoff_base=0.01,
        backoff_cap=0.05,
        restart_window=60.0,
        max_restarts_in_window=2,
        spawn_timeout=10.0,
    )
    broken = [sys.executable, "-c", "import sys; sys.exit(3)"]
    with Supervisor(config, worker_command=broken) as sup:
        responses = [sup.submit({"op": "ping"}) for _ in range(4)]
        stats = sup.stats()
    if any(r.get("ok") for r in responses):
        return SILENT, "a request 'succeeded' against a dead binary"
    unavailable = [r for r in responses if r.get("error") == "unavailable"]
    if not unavailable:
        return CRASH, f"no structured unavailability: {responses!r}"
    return (
        DETECTED,
        f"{len(unavailable)}/4 answered 'unavailable'; "
        f"restarts capped at {stats['workers'][0]['restarts']}",
    )


INJECTION_POINTS = (
    ("worker-crash-mid-compile", _inject_worker_crash),
    ("slow-worker-timeout", _inject_slow_worker),
    ("cache-corruption-under-load", _inject_cache_corruption),
    ("queue-saturation", _inject_queue_saturation),
    ("worker-crash-loop", _inject_crash_loop),
)


def _run_point(index: int) -> Outcome:
    """One injection point against a fresh pool in a fresh scratch dir."""
    point, inject = INJECTION_POINTS[index]
    tmp = tempfile.mkdtemp(prefix=f"serve-fault-{index}-")
    try:
        outcome, detail = inject(tmp)
    except Exception as exc:  # noqa: BLE001 - a leaky pool is the finding
        outcome, detail = CRASH, repr(exc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return Outcome(point, "serve", outcome, detail)


def run_serve_faults(
    seed: int = 0, jobs: int = 1, progress=None, budget: Optional[int] = None
) -> CampaignReport:
    """Run the serve-layer campaign; each point gets a fresh pool and a
    fresh scratch directory.

    ``budget`` caps the number of points; ``jobs > 1`` runs them in a
    process pool, and the report is in plan order either way.  The
    supervisor never being the thing that dies is itself part of the
    assertion: any exception escaping a point is a ``crash`` outcome,
    not an abort.
    """
    report = CampaignReport("serve fault campaign", seed, [], VOCABULARY)
    indices = range(len(INJECTION_POINTS))[:budget]
    items = [(index,) for index in indices]
    for index, outcome in enumerate(ordered_map(_run_point, items, jobs)):
        point = INJECTION_POINTS[index][0]
        if isinstance(outcome, Lost):
            outcome = Outcome(point, "serve", CRASH, outcome.detail)
        if progress is not None:
            progress(f"injected {point} ({index + 1}/{len(items)})")
        report.add(outcome)
    return report
