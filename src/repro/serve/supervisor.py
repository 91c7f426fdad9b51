"""Supervised worker pool for the compilation service.

The plain JSON-lines service (:mod:`repro.serve.service`) compiles in
process: one wedged derivation blocks the loop forever and one crash
kills the server.  This module is the robustness substrate the ROADMAP's
multi-tenant server needs: a long-lived parent that owns a pool of
:mod:`repro.serve.worker` subprocesses (warm lemma DBs, persistent
between requests) and gives every failure path a budget, a retry
policy, and a trace.

Policies, all explicit in :class:`SupervisorConfig`:

- **wall-clock timeouts** -- each request gets a hard deadline (its own
  ``deadline_ms`` capped by ``request_timeout``); the supervisor
  enforces it with ``select`` on the worker pipe and SIGKILLs the
  worker when it expires.  A timeout is *deterministic* (the same
  request would wedge again), so it fails fast with a structured
  ``{"ok": false, "error": "timeout"}`` and never blocks the next
  request -- the slot respawns lazily.
- **retry with backoff** -- a worker death mid-request is *transient*
  (the retried request runs on a fresh worker), so it is retried up to
  ``max_retries`` times.  Respawns back off exponentially with jitter,
  and a slot that restarts more than ``max_restarts_in_window`` times
  inside ``restart_window`` seconds enters cooldown instead of crash
  looping; requests then get ``{"ok": false, "error": "unavailable",
  "retry_after_ms": ...}``.
- **admission control** -- at most ``queue_depth`` requests may wait
  for an idle worker; beyond that the service answers immediately with
  ``{"ok": false, "error": "overloaded", "retry_after_ms": ...}``
  instead of queueing unboundedly.
- **graceful degradation** -- after ``degrade_after`` consecutive
  compile failures for one program, the supervisor stops dispatching it
  and falls back to :func:`repro.resilience.degrade.compile_or_degrade`
  in the parent: the response carries ``"degraded": true`` and
  ``"verified": false``, never a certificate it does not have.

Everything is observable through :mod:`repro.obs` (``serve.retry.*``,
``serve.timeout.*``, ``serve.worker.restart``, ``serve.degraded``,
``serve.overloaded`` counters; ``worker_restart`` / ``serve_retry`` /
``serve_degraded`` events; a ``supervised_request`` span per dispatch)
and mirrored into :meth:`Supervisor.stats` for transports without a
tracer.
"""

from __future__ import annotations

import json
import os
import queue
import random
import select
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.serve.service import CompileService


class WorkerTimeout(Exception):
    """The worker failed to answer inside the request's wall-clock budget."""


class WorkerDied(Exception):
    """The worker process exited (or its pipe broke) mid-request."""


class WorkerUnavailable(Exception):
    """The slot is in crash-loop cooldown; carries the suggested wait."""

    def __init__(self, retry_after_ms: int):
        super().__init__(f"worker in cooldown for {retry_after_ms}ms")
        self.retry_after_ms = retry_after_ms


@dataclass(frozen=True)
class SupervisorConfig:
    """Every robustness policy of the pool, in one picklable record."""

    workers: int = 2
    request_timeout: float = 30.0   # hard wall-clock seconds per request
    max_retries: int = 1            # extra attempts for transient failures
    queue_depth: int = 8            # max requests waiting for an idle worker
    degrade_after: int = 3          # consecutive failures before degradation
    backoff_base: float = 0.05      # first respawn delay (seconds)
    backoff_cap: float = 2.0        # respawn delay ceiling
    backoff_jitter: float = 0.25    # +- fraction of the delay
    restart_window: float = 60.0    # seconds over which restarts are counted
    max_restarts_in_window: int = 5  # beyond this: cooldown, not crash loop
    spawn_timeout: float = 60.0     # ready-handshake deadline
    seed: int = 0                   # jitter RNG seed (reproducible runs)

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "request_timeout": self.request_timeout,
            "max_retries": self.max_retries,
            "queue_depth": self.queue_depth,
            "degrade_after": self.degrade_after,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "restart_window": self.restart_window,
            "max_restarts_in_window": self.max_restarts_in_window,
        }


def default_worker_command(
    cache_dir: Optional[str] = None, allow_test_ops: bool = False
) -> List[str]:
    cmd = [sys.executable, "-m", "repro.serve.worker"]
    if cache_dir is not None:
        cmd += ["--cache", cache_dir]
    if allow_test_ops:
        cmd.append("--allow-test-ops")
    return cmd


def _worker_env() -> Dict[str, str]:
    """The child environment, with this repro importable regardless of how
    the parent found it (tests run from a source tree, not an install)."""
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


class WorkerHandle:
    """One worker subprocess plus the line-buffered pipe protocol."""

    def __init__(self, index: int, command: List[str]):
        self.index = index
        self.command = command
        self.proc: Optional[subprocess.Popen] = None
        self.pid: Optional[int] = None
        self._buf = b""

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def spawn(self, ready_timeout: float) -> None:
        """Start the process and wait for the ready handshake."""
        self._buf = b""
        try:
            self.proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=_worker_env(),
                bufsize=0,
            )
        except OSError as exc:
            raise WorkerDied(f"spawn failed: {exc}") from None
        try:
            ready = self._read_line(ready_timeout)
        except (WorkerTimeout, WorkerDied) as exc:
            self.kill()
            raise WorkerDied(f"no ready handshake: {exc}") from None
        if not isinstance(ready, dict) or not ready.get("ready"):
            self.kill()
            raise WorkerDied(f"bad handshake: {ready!r}")
        self.pid = ready.get("pid")

    def request(self, payload: dict, timeout: float) -> dict:
        """One request-response exchange under a wall-clock deadline."""
        if not self.alive:
            raise WorkerDied("worker is not running")
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(f"write failed: {exc}") from None
        return self._read_line(timeout)

    def _read_line(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                raw, self._buf = self._buf[:newline], self._buf[newline + 1:]
                try:
                    return json.loads(raw.decode("utf-8"))
                except ValueError as exc:
                    raise WorkerDied(f"garbled response: {exc}") from None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerTimeout()
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                raise WorkerTimeout()
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerDied("worker closed its pipe")
            self._buf += chunk

    def kill(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5.0)
        except (subprocess.TimeoutExpired, OSError):
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self.proc = None
        self._buf = b""

    def close(self) -> None:
        """Polite shutdown: EOF on stdin, then kill if it lingers."""
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=2.0)
            self.proc.stdout.close()
            self.proc = None
        except (OSError, subprocess.TimeoutExpired):
            self.kill()


class _Slot:
    """One pool position: a worker handle plus its restart bookkeeping."""

    def __init__(self, index: int):
        self.index = index
        self.handle: Optional[WorkerHandle] = None
        self.restarts: deque = deque()      # monotonic timestamps, windowed
        self.consecutive_failures = 0       # spawn failures since last success
        self.cooldown_until = 0.0
        self.ever_spawned = False


class Supervisor:
    """Dispatches requests to a pool of supervised worker subprocesses.

    ``submit`` is thread-safe: concurrent transports check workers out
    of an idle queue, and the admission counter bounds how many callers
    may wait.  Use as a context manager (spawns eagerly on ``start``)::

        with Supervisor(SupervisorConfig(workers=2), cache_dir=d) as sup:
            response = sup.submit({"op": "compile", "program": "crc32"})
    """

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        cache_dir: Optional[str] = None,
        allow_test_ops: bool = False,
        worker_command: Optional[List[str]] = None,
        program_resolver: Optional[Callable[[str], object]] = None,
    ):
        self.config = config or SupervisorConfig()
        self.cache_dir = cache_dir
        self.worker_command = worker_command or default_worker_command(
            cache_dir, allow_test_ops
        )
        self._resolver = program_resolver
        self._slots = [_Slot(i) for i in range(self.config.workers)]
        self._idle: "queue.Queue[int]" = queue.Queue()
        self._adm_lock = threading.Lock()
        self._pending = 0
        self._fail_streak: Dict[str, int] = {}
        self._streak_lock = threading.Lock()
        self._rng = random.Random(self.config.seed)
        self._sleep = time.sleep  # injectable for tests
        self.counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        # The tracer's span stack is single-threaded by design (lock-free
        # hot path, strict LIFO nesting).  Concurrent clients would
        # interleave span_open/span_close events in an order no nesting
        # can represent, so at most one in-flight request owns a span at
        # a time; overlapping requests keep their counters and events
        # but skip the span.
        self._span_gate = threading.Lock()
        self._started = False

    # -- Lifecycle -------------------------------------------------------------

    def start(self) -> "Supervisor":
        """Spawn the pool eagerly; a slot that fails to spawn stays lazy."""
        if self._started:
            return self
        self._started = True
        for slot in self._slots:
            try:
                self._spawn_slot(slot)
            except (WorkerDied, WorkerUnavailable):
                pass  # lazily retried (with backoff) at first checkout
            self._idle.put(slot.index)
        return self

    def stop(self) -> None:
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.close()
                slot.handle = None
        self._started = False

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- Observability ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + n
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        if tracer.enabled:
            tracer.inc(name, n)

    def _event(self, name: str, **payload) -> None:
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(name, **payload)

    def stats(self) -> dict:
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "config": self.config.to_dict(),
            "counters": counters,
            "workers": [
                {
                    "index": slot.index,
                    "alive": slot.handle is not None and slot.handle.alive,
                    "pid": slot.handle.pid if slot.handle is not None else None,
                    "restarts": len(slot.restarts),
                    "cooling_down": slot.cooldown_until > time.monotonic(),
                }
                for slot in self._slots
            ],
        }

    # -- Spawn / restart policy ------------------------------------------------

    def _backoff_delay(self, consecutive: int) -> float:
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** max(0, consecutive - 1)),
        )
        jitter = 1.0 + self.config.backoff_jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, delay * jitter)

    def _spawn_slot(self, slot: _Slot) -> WorkerHandle:
        """Spawn (or respawn) a slot's worker, enforcing the restart caps."""
        now = time.monotonic()
        if slot.cooldown_until > now:
            raise WorkerUnavailable(int((slot.cooldown_until - now) * 1000) + 1)
        window = self.config.restart_window
        while slot.restarts and now - slot.restarts[0] > window:
            slot.restarts.popleft()
        if len(slot.restarts) >= self.config.max_restarts_in_window:
            slot.cooldown_until = slot.restarts[0] + window
            self._count("serve.worker.cooldown")
            self._event(
                "worker_restart",
                worker=slot.index,
                reason="cooldown",
                restarts=len(slot.restarts),
            )
            raise WorkerUnavailable(
                int((slot.cooldown_until - now) * 1000) + 1
            )
        is_restart = slot.ever_spawned
        if is_restart:
            slot.restarts.append(now)
            delay = self._backoff_delay(slot.consecutive_failures + 1)
            if delay > 0:
                self._sleep(delay)
        else:
            delay = 0.0
        handle = WorkerHandle(slot.index, self.worker_command)
        try:
            handle.spawn(self.config.spawn_timeout)
        except WorkerDied:
            slot.ever_spawned = True
            slot.consecutive_failures += 1
            slot.handle = None
            raise
        slot.ever_spawned = True
        slot.consecutive_failures = 0
        slot.handle = handle
        if is_restart:
            self._count("serve.worker.restart")
            self._event(
                "worker_restart",
                worker=slot.index,
                reason="respawn",
                backoff_ms=int(delay * 1000),
                restarts=len(slot.restarts),
            )
        return handle

    def _ensure_worker(self, slot: _Slot) -> WorkerHandle:
        if slot.handle is not None and slot.handle.alive:
            return slot.handle
        if slot.handle is not None:
            slot.handle.kill()
            slot.handle = None
        return self._spawn_slot(slot)

    def _retire(self, slot: _Slot, reason: str) -> None:
        """Kill a slot's worker (timeout or death); respawn is lazy."""
        if slot.handle is not None:
            slot.handle.kill()
            slot.handle = None
        self._event("worker_restart", worker=slot.index, reason=reason)

    # -- Failure streaks and degradation ---------------------------------------

    def _note_failure(self, program: str) -> int:
        if not program:
            return 0
        with self._streak_lock:
            self._fail_streak[program] = self._fail_streak.get(program, 0) + 1
            return self._fail_streak[program]

    def _note_success(self, program: str) -> None:
        if not program:
            return
        with self._streak_lock:
            self._fail_streak.pop(program, None)

    def failure_streak(self, program: str) -> int:
        with self._streak_lock:
            return self._fail_streak.get(program, 0)

    def _degraded_response(self, request: dict) -> Optional[dict]:
        """The parent-side interpreter fallback; ``None`` if impossible."""
        from repro.programs.registry import get_program

        program_name = str(request.get("program", ""))
        try:
            program = (self._resolver or get_program)(program_name)
        except KeyError:
            return None
        from repro.resilience.budget import Budget
        from repro.resilience.degrade import DegradedFunction, compile_or_degrade

        budget = Budget(
            fuel=200_000, deadline=min(10.0, self.config.request_timeout)
        )
        try:
            result = compile_or_degrade(
                program.build_model(), program.build_spec(), budget=budget
            )
        except Exception as exc:  # noqa: BLE001 - degrade must not throw
            return {
                "ok": False,
                "error": f"degraded fallback failed: {exc!r}",
                "program": program_name,
            }
        if not isinstance(result, DegradedFunction):
            # The parent compile succeeded after all: the streak was
            # environmental (e.g. a crashing worker), not the program.
            self._note_success(program_name)
            return {
                "ok": True,
                "program": program_name,
                "cache": "off",
                "c": result.c_source(),
                "statements": result.statement_count(),
                "degraded": False,
            }
        self._count("serve.degraded")
        self._event(
            "serve_degraded", program=program_name, reason=result.report.reason
        )
        return {
            "ok": True,
            "program": program_name,
            "degraded": True,
            "verified": False,
            "stall": result.report.reason,
            "banner": result.banner(),
        }

    # -- Dispatch --------------------------------------------------------------

    def _retry_after_ms(self) -> int:
        """A polite client backoff hint: one request timeout's worth."""
        return int(self.config.request_timeout * 1000)

    def _request_deadline(self, request: dict) -> float:
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return self.config.request_timeout
        # Grace so the worker's own engine deadline can fire first with a
        # structured ``exhausted`` response; the kill is the hard backstop.
        return min(
            self.config.request_timeout, float(deadline_ms) / 1000.0 + 0.25
        )

    def submit(self, request: dict) -> dict:
        """Serve one request under every policy; never raises."""
        from repro.obs.trace import NULL_SPAN, current_tracer

        op = str(request.get("op", ""))
        tracer = current_tracer()
        gated = tracer.enabled and self._span_gate.acquire(blocking=False)
        span = tracer.span("supervised_request", name=op) if gated else NULL_SPAN
        try:
            with span:
                response = self._submit_inner(request, op)
        finally:
            if gated:
                self._span_gate.release()
        response.setdefault("op", op)
        return response

    def _submit_inner(self, request: dict, op: str) -> dict:
        program = str(request.get("program", ""))
        if op == "shutdown":
            # Lifecycle belongs to the front end; a worker must never be
            # told to exit by a tenant request.
            return {"ok": False, "error": "shutdown is a front-end op"}
        if (
            op in ("compile", "cert")
            and self.failure_streak(program) >= self.config.degrade_after
        ):
            degraded = self._degraded_response(request)
            if degraded is not None:
                return degraded
        # Admission control: bounded waiting room, explicit backpressure.
        with self._adm_lock:
            if self._pending >= self.config.queue_depth:
                self._count("serve.overloaded")
                return {
                    "ok": False,
                    "error": "overloaded",
                    "retry_after_ms": self._retry_after_ms(),
                }
            self._pending += 1
        try:
            try:
                index = self._idle.get(timeout=self.config.request_timeout)
            except queue.Empty:
                self._count("serve.overloaded")
                return {
                    "ok": False,
                    "error": "overloaded",
                    "retry_after_ms": self._retry_after_ms(),
                }
        finally:
            with self._adm_lock:
                self._pending -= 1
        slot = self._slots[index]
        try:
            return self._dispatch(slot, request, op, program)
        finally:
            self._idle.put(index)

    def _dispatch(self, slot: _Slot, request: dict, op: str, program: str) -> dict:
        deadline = self._request_deadline(request)
        attempts = 0
        while True:
            attempts += 1
            try:
                worker = self._ensure_worker(slot)
            except WorkerUnavailable as exc:
                self._count("serve.unavailable")
                return {
                    "ok": False,
                    "error": "unavailable",
                    "retry_after_ms": exc.retry_after_ms,
                }
            except WorkerDied as exc:
                if attempts <= self.config.max_retries:
                    self._count("serve.retry.spawn")
                    continue
                self._count("serve.unavailable")
                return {
                    "ok": False,
                    "error": "unavailable",
                    "detail": str(exc),
                    "retry_after_ms": self._retry_after_ms(),
                }
            try:
                response = worker.request(request, deadline)
            except WorkerTimeout:
                # Deterministic: the same request would wedge again.
                # Kill the worker so the *next* request gets a fresh one;
                # fail this one fast instead of retrying the wedge.
                self._count("serve.timeout.requests")
                self._count("serve.timeout.killed")
                self._retire(slot, reason="timeout")
                self._note_failure(program)
                return {
                    "ok": False,
                    "error": "timeout",
                    "timeout_s": deadline,
                    "attempts": attempts,
                }
            except WorkerDied as exc:
                self._count("serve.retry.worker_death")
                self._retire(slot, reason="worker-death")
                if attempts <= self.config.max_retries:
                    self._count("serve.retry.attempts")
                    self._event(
                        "serve_retry",
                        op=op,
                        attempt=attempts,
                        program=program,
                        reason="worker-death",
                    )
                    continue
                self._note_failure(program)
                return {
                    "ok": False,
                    "error": "worker-lost",
                    "detail": str(exc),
                    "attempts": attempts,
                }
            if not isinstance(response, dict):
                response = {"ok": False, "error": f"bad response: {response!r}"}
            if response.get("ok"):
                self._note_success(program)
            elif "stall" in response or "exhausted" in response:
                # Deterministic compile failure: count toward degradation.
                self._note_failure(program)
            if attempts > 1:
                response.setdefault("attempts", attempts)
            return response


class SupervisedService(CompileService):
    """The JSON-lines front end backed by a :class:`Supervisor`.

    Reuses the plain service's transports (stdio, Unix socket, graceful
    drain) but dispatches every tenant op through the pool.  ``stats``
    and ``shutdown`` are front-end ops: stats reports the supervisor's
    counters and worker states, shutdown stops the accept loop (the
    pool itself is stopped by whoever owns the supervisor).  Each
    socket connection is served on its own thread, so every worker can
    be busy; the supervisor's admission queue bounds the load.
    """

    concurrent_connections = True

    def __init__(self, supervisor: Supervisor):
        super().__init__(cache_dir=None)
        self.supervisor = supervisor

    def handle(self, request: dict) -> dict:
        from repro.obs.trace import current_tracer

        self.requests += 1
        op = request.get("op")
        if op == "shutdown":
            self.running = False
            return {"ok": True, "op": "shutdown"}
        if op == "stats":
            return {
                "ok": True,
                "op": "stats",
                "requests": self.requests,
                "supervisor": self.supervisor.stats(),
            }
        response = self.supervisor.submit(request)
        self._trace_request(current_tracer(), request, response)
        return response

    def drain_summary(self) -> str:
        counters = self.supervisor.stats()["counters"]
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        return (
            f"drained: {self.requests} requests served"
            + (f"; {summary}" if summary else "")
        )
