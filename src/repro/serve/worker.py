"""The supervised pool's worker process: ``python -m repro.serve.worker``.

One worker is one long-lived subprocess speaking the same JSON-lines
protocol as :mod:`repro.serve.service` over its stdin/stdout, plus a
one-line ``{"ready": true, "pid": ...}`` handshake emitted after the
warm-up so the supervisor can tell a slow import from a dead spawn.

Warm state is the whole point of the pool: the worker builds the
standard lemma databases and each registry program's model, spec and
compile key at startup, so a cache hit after the handshake rebuilds
none of them.  The worker itself stays deliberately dumb --
timeouts, retries, backpressure, and degradation all live in the parent
:class:`~repro.serve.supervisor.Supervisor`, which owns the process and
is free to SIGKILL it at any moment.  Nothing the worker does between
requests needs cleanup: cache publishes are atomic and lock files go
stale-and-stolen, so a kill can cost a cold compile, never corruption.

``--allow-test-ops`` enables the ``test_*`` fault hooks (simulated
hangs, hard exits, canned failures); the supervisor only passes it for
fault campaigns and tests, never in the default CLI path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def warm_up(service) -> None:
    """Build the warm per-process state one request should not pay for.

    That is the process constants
    (:func:`~repro.stdlib.warm_process_constants`) and, when the service
    has a cache, each registry program's model, spec and compile key at
    ``-O0`` and ``-O1``.
    """
    from repro.programs.registry import all_programs
    from repro.stdlib import warm_process_constants

    warm_process_constants()
    programs = all_programs()
    if service.cache is not None:
        for program in programs:
            for level in (0, 1):
                service.cache.program_inputs(program, opt_level=level)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve.worker")
    parser.add_argument("--cache", metavar="DIR", default=None)
    parser.add_argument("--allow-test-ops", action="store_true")
    args = parser.parse_args(argv)

    from repro.serve.service import CompileService

    service = CompileService(
        cache_dir=args.cache, allow_test_ops=args.allow_test_ops
    )
    warm_up(service)
    sys.stdout.write(json.dumps({"ready": True, "pid": os.getpid()}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        if not line.strip():
            continue
        response = service.handle_line(line)
        sys.stdout.write(json.dumps(response, sort_keys=True) + "\n")
        sys.stdout.flush()
        if not service.running:
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
