"""The JSON-lines service front end (transport-agnostic dispatch)."""

import io
import json
import os
import signal
import subprocess
import sys
import time

from repro.serve.service import CompileService


def test_ping_and_list():
    service = CompileService()
    assert service.handle({"op": "ping"}) == {"ok": True, "op": "ping"}
    programs = service.handle({"op": "list"})
    assert programs["ok"] and "crc32" in programs["programs"]


def test_compile_without_cache():
    service = CompileService()
    response = service.handle({"op": "compile", "program": "fnv1a"})
    assert response["ok"] and response["cache"] == "off"
    assert "uintptr_t fnv1a" in response["c"]
    assert response["statements"] > 0


def test_compile_hits_cache_on_second_request(tmp_path):
    service = CompileService(cache_dir=str(tmp_path))
    first = service.handle({"op": "compile", "program": "crc32", "opt_level": 1})
    second = service.handle({"op": "compile", "program": "crc32", "opt_level": 1})
    assert first["cache"] == "miss" and second["cache"] == "hit"
    assert first["c"] == second["c"], "warm response must be byte-identical"
    stats = service.handle({"op": "stats"})
    assert stats["requests"] == 3
    assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1


def test_cert_op_round_trips():
    from repro.core.certificate import Certificate

    service = CompileService()
    response = service.handle({"op": "cert", "program": "upstr"})
    assert response["ok"]
    cert = Certificate.from_dict(response["certificate"])
    assert cert.function_name == "upstr"


def test_errors_do_not_kill_the_service():
    service = CompileService()
    assert not service.handle({"op": "no_such_op"})["ok"]
    unknown = service.handle({"op": "compile", "program": "nope"})
    assert not unknown["ok"] and "nope" in unknown["error"]
    assert not service.handle_line("this is not json")["ok"]
    assert not service.handle_line("")["ok"]
    assert not service.handle_line('"just a string"')["ok"]
    # Still alive and serving after all of that:
    assert service.handle({"op": "ping"})["ok"]


def test_stream_loop_and_shutdown():
    service = CompileService()
    requests = "\n".join(
        json.dumps(r)
        for r in (
            {"op": "ping"},
            {"op": "compile", "program": "m3s"},
            {"op": "shutdown"},
            {"op": "ping"},  # must never be read: shutdown stops the loop
        )
    )
    out = io.StringIO()
    service.serve_stream(io.StringIO(requests + "\n"), out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["op"] for r in responses] == ["ping", "compile", "shutdown"]
    assert all(r["ok"] for r in responses)
    assert not service.running


def test_request_budgets_produce_structured_exhaustion():
    """A request carrying fuel/deadline bounds that cannot be met gets a
    typed ``exhausted`` response, not a hang or a crash."""
    service = CompileService()
    starved = service.handle({"op": "compile", "program": "crc32", "fuel": 3})
    assert not starved["ok"] and starved["exhausted"] == "fuel"
    # The same compile with a sane budget succeeds: exhaustion is the
    # budget's verdict, not a broken service.
    sane = service.handle(
        {"op": "compile", "program": "crc32", "fuel": 200_000, "deadline_ms": 20_000}
    )
    assert sane["ok"]
    assert service.handle({"op": "ping"})["ok"]


def test_test_ops_are_gated_behind_allow_test_ops():
    """The fault-campaign hooks must be unreachable on a normal service:
    without ``allow_test_ops`` they answer like any unknown op."""
    locked = CompileService()
    for op in ("test_sleep", "test_exit", "test_fail"):
        response = locked.handle({"op": op})
        assert not response["ok"] and "unknown op" in response["error"]
    unlocked = CompileService(allow_test_ops=True)
    failed = unlocked.handle({"op": "test_fail", "stall": "no-binding-lemma"})
    assert not failed["ok"] and failed["stall"] == "no-binding-lemma"


def test_sigterm_drains_gracefully_and_exits_zero(tmp_path):
    """The operational contract: SIGTERM mid-session finishes nothing
    abruptly -- the service stops reading, prints a drain summary, and
    exits 0 (so process supervisors see a clean stop, not a unit
    failure).  SIGINT follows the same path via the same handler."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--cache", str(tmp_path / "cache")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        proc.stdin.write(json.dumps({"op": "ping"}) + "\n")
        proc.stdin.flush()
        response = json.loads(proc.stdout.readline())
        assert response["ok"]
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, f"SIGTERM must exit 0, got {proc.returncode}: {err}"
    assert "drained: 1 requests served" in out + err


def test_sigint_while_idle_drains_too(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        time.sleep(1.0)  # let the handler install before signalling
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, f"SIGINT must exit 0, got {proc.returncode}: {err}"
    assert "drained" in out + err


def _serving(service, path):
    """Start ``service.serve_socket(path)`` on a thread; wait for the socket."""
    import threading

    server = threading.Thread(
        target=service.serve_socket, args=(path,), daemon=True
    )
    server.start()
    deadline = time.monotonic() + 10.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return server


def _connect(path, timeout=10.0):
    import socket

    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    client.connect(path)
    return client


def _ask(client, request: dict) -> dict:
    client.sendall((json.dumps(request) + "\n").encode())
    return json.loads(client.makefile("r", encoding="utf-8").readline())


def test_socket_transport_serves_concurrent_connections(tmp_path):
    """The supervised front end serves each socket connection on its own
    thread: while one client holds a connection open, two more are
    served at once by the two workers, and shutdown stops the listener."""
    import threading

    from repro.serve.supervisor import (
        SupervisedService,
        Supervisor,
        SupervisorConfig,
    )

    path = str(tmp_path / "serve.sock")
    config = SupervisorConfig(workers=2, request_timeout=60.0)
    with Supervisor(config, allow_test_ops=True) as supervisor:
        server = _serving(SupervisedService(supervisor), path)
        idle = _connect(path)  # never sends: must not block the others
        try:
            results = []
            lock = threading.Lock()

            def client_thread():
                with _connect(path) as client:
                    response = _ask(client, {"op": "test_sleep", "seconds": 0.2})
                with lock:
                    results.append(response)

            threads = [threading.Thread(target=client_thread) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(results) == 2 and all(r["ok"] for r in results)
            assert _ask(idle, {"op": "ping"})["ok"]
            assert _ask(idle, {"op": "shutdown"})["ok"]
        finally:
            idle.close()
            server.join(timeout=10.0)
    assert not server.is_alive()
    assert not os.path.exists(path), "the socket file must be cleaned up"


def test_plain_socket_transport_serves_one_connection_at_a_time(tmp_path):
    """The plain service's requests share the process tracer's span
    stack, so its socket transport serves connections one at a time."""
    import socket

    import pytest

    path = str(tmp_path / "serve.sock")
    server = _serving(CompileService(), path)
    try:
        with _connect(path) as first, _connect(path, timeout=0.3) as second:
            assert _ask(first, {"op": "ping"})["ok"]
            with pytest.raises(socket.timeout):
                _ask(second, {"op": "ping"})  # queued behind `first`
            first.close()
            second.settimeout(10.0)
            reader = second.makefile("r", encoding="utf-8")
            assert json.loads(reader.readline())["ok"]
            assert _ask(second, {"op": "shutdown"})["ok"]
    finally:
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert not os.path.exists(path), "the socket file must be cleaned up"


def test_requests_are_traced():
    from repro.obs.trace import Tracer, use_tracer

    service = CompileService()
    tracer = Tracer(name="serve-test")
    with use_tracer(tracer):
        service.handle({"op": "ping"})
        service.handle({"op": "compile", "program": "bogus"})
    events = tracer.events_by_type("serve_request")
    assert len(events) == 2
    counters = tracer.metrics.to_dict()["counters"]
    assert counters["serve.requests"] == 2
    assert counters["serve.ok"] == 1 and counters["serve.error"] == 1


def test_warm_requests_rebuild_no_per_process_constant(tmp_path, monkeypatch):
    """A warm hit builds neither the databases nor a model, spec or key.

    One round over the 18 served keys (Table 2 at -O0/-O1) fills the
    cache and a second warms the process; a third must be all hits with
    no database build and no ``build_model``/``build_spec`` call, serve
    the in-process compile's C, and address the keys ``compile_key``
    gives from scratch.
    """
    import repro.stdlib as stdlib
    from repro.core.engine import Engine
    from repro.programs import all_programs
    from repro.serve.cache import CompilationCache
    from repro.serve.fingerprint import compile_key

    builds = []
    build = stdlib._build_databases

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(stdlib, "_build_databases", counting_build)
    monkeypatch.setattr(stdlib, "_BUILT", None)

    programs = all_programs()
    calls = []
    for program in programs:
        for attr in ("build_model", "build_spec"):
            original = getattr(program, attr)

            def counted(original=original, name=f"{program.name}.{attr}"):
                calls.append(name)
                return original()

            monkeypatch.setattr(program, attr, counted)

    keys = []
    lookup = CompilationCache.lookup

    def recording_lookup(self, key, model, spec):
        keys.append(key)
        return lookup(self, key, model, spec)

    monkeypatch.setattr(CompilationCache, "lookup", recording_lookup)

    service = CompileService(cache_dir=str(tmp_path))
    served = [(program, level) for program in programs for level in (0, 1)]
    assert len(served) == 18

    def round_():
        return [
            service.handle(
                {"op": "compile", "program": program.name, "opt_level": level}
            )
            for program, level in served
        ]

    round_()
    assert {r["cache"] for r in round_()} == {"hit"}
    assert len(builds) == 1
    builds.clear()
    calls.clear()
    keys.clear()
    warm = round_()
    assert builds == [] and calls == []
    assert [r["cache"] for r in warm] == ["hit"] * 18

    engine = Engine(*build(), width=64)
    for (program, level), response, key in zip(served, warm, keys):
        fresh = program.compile(fresh=True, opt_level=level)
        assert response["c"] == fresh.c_source()
        assert key == compile_key(
            program.build_model(), program.build_spec(), engine, level
        )
