"""The long-lived compilation service: ``python -m repro serve``.

A tiny JSON-lines front end over the content-addressed cache, for
driving the compiler from editors, build systems, or test harnesses
without paying Python startup per derivation.  One request per line in,
one response object per line out, over stdio (default) or a Unix domain
socket (``--socket PATH``).

Requests and responses::

    {"op": "ping"}
        -> {"ok": true, "op": "ping"}
    {"op": "list"}
        -> {"ok": true, "op": "list", "programs": ["crc32", ...]}
    {"op": "compile", "program": "crc32", "opt_level": 1}
        -> {"ok": true, "op": "compile", "program": "crc32",
            "cache": "hit"|"miss"|"invalidated"|"off",
            "c": "<C source>", "statements": N, "elapsed_ms": ...}
    {"op": "cert", "program": "crc32"}
        -> {"ok": true, "op": "cert", "certificate": {...}}
    {"op": "stats"}
        -> {"ok": true, "op": "stats", "requests": N, "cache": {...}}
    {"op": "shutdown"}
        -> {"ok": true, "op": "shutdown"}  (and the service exits)

``compile`` and ``cert`` accept optional ``"fuel"`` and
``"deadline_ms"`` fields: the derivation then runs under a
:class:`repro.resilience.budget.Budget` and exhaustion comes back as
``{"ok": false, "error": ..., "exhausted": "fuel"|"deadline"}``.

Errors never kill the service: a stall, an unknown program, or a
malformed request produces ``{"ok": false, "error": ...}`` (stalls keep
their taxonomy slug in ``"stall"``) and the loop continues.  Every
request runs under a ``serve_request`` span and emits a
``serve_request`` event, so ``--trace`` captures the full session.

SIGTERM/SIGINT trigger a **graceful drain** once
:meth:`CompileService.install_signal_handlers` has run: an in-flight
request is finished and answered, stats are flushed, and the process
exits 0 instead of dumping a traceback from the read loop.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import threading
from typing import Optional

from repro.core.goals import CompileError, ResourceExhausted
from repro.serve.cache import CompilationCache


class _DrainRequested(Exception):
    """Raised out of a blocking read/accept by the signal handler."""


class CompileService:
    """Request dispatch for the JSON-lines protocol (transport-agnostic).

    ``allow_test_ops=True`` (used by the supervised worker pool's fault
    campaign, never the default CLI) enables the ``test_*`` ops that
    simulate worker misbehaviour: ``test_sleep`` (a stuck derivation),
    ``test_exit`` (a hard crash, optionally once per marker file), and
    ``test_fail`` (a canned deterministic failure).
    """

    concurrent_connections = False  # see serve_socket

    def __init__(self, cache_dir: Optional[str] = None, allow_test_ops: bool = False):
        self.cache = CompilationCache(cache_dir) if cache_dir is not None else None
        self.requests = 0
        self.running = True
        self.allow_test_ops = allow_test_ops
        self.draining = False
        self._in_flight = False

    # -- Graceful drain --------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only).

        If the service is idle (blocked reading the next request or
        accepting a connection), the handler raises straight out of the
        blocking call; if a request is in flight, it only sets the drain
        flag and the loop exits after the response has been written.
        """

        def handler(signum, frame):
            self.draining = True
            self.running = False
            if not self._in_flight:
                raise _DrainRequested()

        try:
            signal.signal(signal.SIGTERM, handler)
            signal.signal(signal.SIGINT, handler)
        except ValueError:  # not the main thread (embedded use): no-op
            pass

    def drain_summary(self) -> str:
        parts = [f"drained: {self.requests} requests served"]
        if self.cache is not None:
            stats = self.cache.stats
            parts.append(
                f"cache: {stats.hits} hits, {stats.misses} misses, "
                f"{stats.invalidated} invalidated, {stats.stores} stores"
            )
        return "; ".join(parts)

    # -- Request handling ------------------------------------------------------

    def handle_line(self, line: str) -> dict:
        line = line.strip()
        if not line:
            return {"ok": False, "error": "empty request"}
        try:
            request = json.loads(line)
        except ValueError as exc:
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        return self.handle(request)

    def handle(self, request: dict) -> dict:
        from repro.obs.trace import NULL_SPAN, current_tracer

        self.requests += 1
        op = request.get("op")
        tracer = current_tracer()
        span = (
            tracer.span("serve_request", name=str(op)) if tracer.enabled else NULL_SPAN
        )
        self._in_flight = True
        try:
            with span:
                handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
                if handler is None or (
                    op.startswith("test_") and not self.allow_test_ops
                ):
                    response = {"ok": False, "error": f"unknown op {op!r}"}
                else:
                    try:
                        response = handler(request)
                    except ResourceExhausted as exc:
                        response = {
                            "ok": False,
                            "error": str(exc).splitlines()[0],
                            "exhausted": exc.resource,
                        }
                    except CompileError as exc:
                        response = {
                            "ok": False,
                            "error": str(exc).splitlines()[0],
                            "stall": exc.report.reason,
                        }
                    except Exception as exc:  # noqa: BLE001 - never kill the loop
                        response = {"ok": False, "error": repr(exc)}
                response.setdefault("op", op)
        finally:
            self._in_flight = False
        self._trace_request(tracer, request, response)
        return response

    @staticmethod
    def _trace_request(tracer, request: dict, response: dict) -> None:
        """The ``serve_request`` event and the request counters."""
        if not tracer.enabled:
            return
        ok = bool(response.get("ok"))
        tracer.event(
            "serve_request",
            op=str(request.get("op")),
            ok=ok,
            program=str(request.get("program", "")),
            detail=str(response.get("error", "")),
        )
        tracer.inc("serve.requests")
        tracer.inc(f"serve.{'ok' if ok else 'error'}")

    # -- Ops -------------------------------------------------------------------

    def _op_ping(self, _request: dict) -> dict:
        return {"ok": True}

    def _op_list(self, _request: dict) -> dict:
        from repro.programs.registry import all_programs

        return {"ok": True, "programs": [p.name for p in all_programs()]}

    @staticmethod
    def _request_budget(request: dict):
        """An engine budget when the request carries fuel/deadline bounds."""
        fuel = request.get("fuel")
        deadline_ms = request.get("deadline_ms")
        if fuel is None and deadline_ms is None:
            return None
        from repro.resilience.budget import Budget

        return Budget(
            fuel=int(fuel) if fuel is not None else None,
            deadline=float(deadline_ms) / 1000.0 if deadline_ms is not None else None,
        )

    def _compile(self, request: dict):
        from repro.programs.registry import get_program
        from repro.serve.cache import compile_program_cached

        program = get_program(request.get("program"))
        opt_level = int(request.get("opt_level", 0))
        budget = self._request_budget(request)
        engine = None
        if budget is not None:
            from repro.stdlib import default_engine

            engine = default_engine()
            engine.budget = budget
        if self.cache is not None:
            return compile_program_cached(
                self.cache, program, opt_level=opt_level, engine=engine
            )
        if engine is None:
            return program.compile(opt_level=opt_level), "off"
        compiled = engine.compile_function(program.build_model(), program.build_spec())
        return compiled.optimize(opt_level, input_gen=program.validation_input_gen()), "off"

    def _op_compile(self, request: dict) -> dict:
        import time

        start = time.perf_counter()
        compiled, outcome = self._compile(request)
        return {
            "ok": True,
            "program": compiled.name,
            "cache": outcome,
            "c": compiled.c_source(),
            "statements": compiled.statement_count(),
            "elapsed_ms": (time.perf_counter() - start) * 1000.0,
        }

    def _op_cert(self, request: dict) -> dict:
        compiled, outcome = self._compile(request)
        return {
            "ok": True,
            "program": compiled.name,
            "cache": outcome,
            "certificate": compiled.certificate.to_dict(),
        }

    def _op_stats(self, _request: dict) -> dict:
        return {
            "ok": True,
            "requests": self.requests,
            "cache": self.cache.stats.to_dict() if self.cache is not None else None,
        }

    def _op_shutdown(self, _request: dict) -> dict:
        self.running = False
        return {"ok": True}

    # -- Test ops (fault-campaign hooks; require allow_test_ops) ---------------

    def _op_test_sleep(self, request: dict) -> dict:
        """Simulate a wedged derivation: block for ``seconds``."""
        import time

        time.sleep(float(request.get("seconds", 1.0)))
        return {"ok": True, "slept": float(request.get("seconds", 1.0))}

    def _op_test_exit(self, request: dict) -> dict:
        """Simulate a hard worker crash (``os._exit``: no cleanup, no reply).

        With ``"marker": PATH`` the crash happens only while the marker
        file does not exist (it is created first), modelling a
        *transient* mid-compile death: the retried request, served by a
        restarted worker, finds the marker and succeeds.
        """
        import os

        marker = request.get("marker")
        if marker is not None:
            if os.path.exists(marker):
                return {"ok": True, "skipped": True}
            with open(marker, "w") as fh:
                fh.write("crashed once\n")
        os._exit(int(request.get("code", 9)))

    def _op_test_fail(self, request: dict) -> dict:
        """Simulate a deterministic compile failure with a taxonomy slug."""
        return {
            "ok": False,
            "error": "injected deterministic failure",
            "stall": str(request.get("stall", "no-binding-lemma")),
            "program": str(request.get("program", "")),
        }

    # -- Transports ------------------------------------------------------------

    def serve_stream(self, reader, writer) -> None:
        """Pump one line-oriented connection until EOF, drain, or shutdown."""
        try:
            for line in reader:
                response = self.handle_line(line)
                writer.write(json.dumps(response, sort_keys=True) + "\n")
                writer.flush()
                if not self.running:
                    break
        except _DrainRequested:
            pass

    def serve_stdio(self) -> None:
        self.serve_stream(sys.stdin, sys.stdout)

    def serve_socket(self, path: str) -> None:
        """Listen on a Unix domain socket.

        The plain service serves one connection at a time: each request
        opens a span on the process tracer's single span stack, which
        concurrent handlers would interleave.  The supervised front end
        (:class:`repro.serve.supervisor.SupervisedService`) sets
        :attr:`concurrent_connections` and serves each connection on its
        own thread; its dispatch is thread-safe and its admission queue
        is the concurrency limiter.
        """
        import os
        import socket

        with contextlib.suppress(OSError):
            os.unlink(path)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        threads = []
        try:
            server.bind(path)
            server.listen()
            # Shutdown may arrive on a *connection* thread while this loop
            # blocks in accept(); wake periodically to notice.
            server.settimeout(0.2)
            while self.running:
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except _DrainRequested:
                    break
                except OSError:
                    break
                conn.settimeout(None)
                if not self.concurrent_connections:
                    self._serve_connection(conn)
                    continue
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
                threads = [t for t in threads if t.is_alive()] + [thread]
        except _DrainRequested:
            pass
        finally:
            server.close()
            for thread in threads:
                thread.join(timeout=5.0)
            with contextlib.suppress(OSError):
                os.unlink(path)

    def _serve_connection(self, conn) -> None:
        with conn:
            reader = conn.makefile("r", encoding="utf-8")
            writer = conn.makefile("w", encoding="utf-8")
            with contextlib.suppress(BrokenPipeError, OSError):
                self.serve_stream(reader, writer)
