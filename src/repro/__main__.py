"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``                      -- the benchmark suite (Table 2);
- ``compile <program>``         -- derive a suite program; print its C;
- ``cert <program>``            -- print the derivation certificate;
- ``validate <program>``        -- certificate + differential validation;
- ``riscv <program>``           -- compile through the RISC-V backend and
  print instruction stats;
- ``bench``                     -- print the reproduced Figure 2;
- ``fuzz``                      -- seeded pipeline fuzzing campaign
  (random models through compile/certify/validate/optimize/RISC-V);
- ``faults``                    -- cross-layer fault-injection campaign
  (corrupt untrusted components; assert the trusted checkers notice);
  ``--serve`` runs the serve-layer availability campaign instead
  (worker crashes, timeouts, cache corruption, queue saturation);
- ``profile <program>``         -- compile under the flight recorder and
  print the per-phase / per-lemma time breakdown;
- ``batch <manifest>``          -- compile a manifest of programs and/or
  a fuzz corpus through the worker pool (``--jobs``) and the
  content-addressed cache (``--cache``);
- ``serve``                     -- long-lived JSON-lines compilation
  service over stdio or a Unix socket; ``--workers N`` dispatches
  through the supervised worker pool (timeouts, retry/backoff,
  backpressure, degraded mode -- see ``docs/serving.md``);
- ``cache <verify|gc|repair>``  -- offline cache maintenance sweeps
  (re-check entries, sweep writer debris, recompile quarantined keys);
- ``query <action>``            -- the relational-algebra frontend
  (``repro.query``): list/explain/compile/validate/run the registered
  query programs (see ``docs/query.md``);
- ``lift <action> <program>``   -- the round-trip lifter (``repro.lift``):
  ``lift`` synthesizes and prints the functional model recovered from a
  compiled program's Bedrock2 code (``--file`` lifts a serialized legacy
  bundle instead); ``explain`` prints the backward-search step trace;
  ``validate`` certifies the lift (recompile or extensional -- see
  ``docs/lifting.md``);
- ``lint``                      -- static analysis (``repro.analysis``):
  audit the standard hint databases for determinism/coverage defects and
  run the Bedrock2 dataflow lint over compiled suite programs; exits
  nonzero on any error- or warning-severity diagnostic (see
  ``docs/analysis.md``).

``compile``, ``validate``, ``riscv``, and ``bench`` accept ``-O0`` (the
default) or ``-O1`` to run the translation-validated optimizer
(``repro.opt``) on the derived code first.  ``compile``, ``validate``,
``bench``, ``fuzz``, and ``faults`` accept ``--trace FILE`` to record
the run's flight-recorder events as JSON Lines (see
``docs/observability.md``).  ``compile``, ``bench``, ``batch``, and
``serve`` accept ``--cache DIR`` to reuse (re-validated) derivations
across runs; ``fuzz``, ``faults``, and ``batch`` accept ``--jobs N``
for a worker pool.  All commands accept ``--seed`` and seed Python's
``random`` module themselves, so runs are reproducible rather than
depending on ambient RNG state.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager


@contextmanager
def _maybe_trace(args, name: str, force: bool = False, detail: str = "standard"):
    """Install a flight recorder when ``--trace`` (or ``force``) asks for one.

    Yields the :class:`~repro.obs.trace.Tracer` (or ``None`` when tracing
    is off -- the instrumented code then sees the zero-cost null tracer).
    Single-compile commands pass ``detail="debug"`` for per-miss events
    and per-goal spans; campaigns stay at "standard" so tracing is cheap
    at scale.  The JSONL file is written when the block exits, so a trace
    survives even if the command itself fails partway.
    """
    path = getattr(args, "trace", None)
    if not path and not force:
        yield None
        return
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer(name=name, detail=detail)
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        if path:
            tracer.write_jsonl(path)
            print(
                f"// trace: {len(tracer.events)} events -> {path}",
                file=sys.stderr,
            )


def cmd_list(_args) -> int:
    from repro.programs import all_programs

    for program in all_programs():
        features = ", ".join(program.features)
        print(f"{program.name:<8} {program.description}  [{features}]")
    return 0


def _program(name: str):
    from repro.programs import get_program

    try:
        return get_program(name)
    except KeyError:
        print(f"unknown program {name!r}; try `python -m repro list`", file=sys.stderr)
        raise SystemExit(2) from None


def _compiled(args):
    """Compile the named program at the requested optimization level.

    With ``--cache DIR`` the derivation is served from (and stored to)
    the content-addressed cache; warm entries are re-validated by the
    trusted checkers before use and the outcome is reported on stderr.
    """
    program = _program(args.program)
    opt_level = getattr(args, "opt_level", 0)
    cache_dir = getattr(args, "cache", None)
    if cache_dir:
        from repro.serve.cache import CompilationCache, compile_program_cached

        cache = CompilationCache(cache_dir)
        compiled, outcome = compile_program_cached(cache, program, opt_level=opt_level)
        print(f"// cache: {outcome} ({cache_dir})", file=sys.stderr)
        return program, compiled
    return program, program.compile(opt_level=opt_level)


def _print_opt_summary(compiled) -> None:
    report = compiled.opt_report
    if report is not None:
        applied = ", ".join(report.applied) or "none"
        print(f"// optimizer: {report.stmts_before} -> {report.stmts_after} "
              f"statements; passes applied: {applied}", file=sys.stderr)
        for cert in report.rejected:
            print(f"// optimizer: rejected {cert.pass_name}: {cert.detail}",
                  file=sys.stderr)


def cmd_compile(args) -> int:
    with _maybe_trace(args, f"compile:{args.program}", detail="debug"):
        _, compiled = _compiled(args)
    print(compiled.c_source())
    _print_opt_summary(compiled)
    return 0


def cmd_cert(args) -> int:
    program = _program(args.program)
    compiled = program.compile()
    print(compiled.certificate.render())
    return 0


def cmd_validate(args) -> int:
    from repro.validation.checker import validate

    if getattr(args, "degrade", False):
        from repro.resilience.degrade import DegradedFunction, compile_or_degrade

        program = _program(args.program)
        result = compile_or_degrade(program.build_model(), program.build_spec())
        if isinstance(result, DegradedFunction):
            print(result.banner(), file=sys.stderr)
            rng = random.Random(args.seed)
            from repro.validation.runners import make_inputs

            for _ in range(min(3, args.trials)):
                result.run(make_inputs(result.model, rng))
            print(
                f"{result.name}: DEGRADED (unverified model interpretation); "
                f"stall reason: {result.report.reason}"
            )
            return 0

    with _maybe_trace(args, f"validate:{args.program}", detail="debug"):
        if getattr(args, "lift_validate", False):
            # Re-optimize explicitly so the lift cross-check runs on the
            # pipeline output (the cached registry bundle would skip it).
            program = _program(args.program)
            compiled = program.compile(fresh=True).optimize(
                level=max(args.opt_level, 1),
                input_gen=program.validation_input_gen(),
                lift_validate=True,
            )
        else:
            program, compiled = _compiled(args)
        kwargs = {}
        input_gen = program.validation_input_gen()
        if input_gen is not None:
            kwargs["input_gen"] = input_gen
        report = validate(
            compiled, trials=args.trials, rng=random.Random(args.seed), **kwargs
        )
    suffix = ""
    if compiled.opt_report is not None:
        applied = ", ".join(compiled.opt_report.applied) or "none"
        suffix = f"; optimizer passes validated: {applied}"
        for cert in compiled.opt_report.certificates:
            if cert.pass_name == "lift-validate":
                suffix += f"; lift-validate: {cert.status}"
    print(
        f"{compiled.name}: certificate ok; {report.trials} differential "
        f"trials, 0 failures{suffix}"
    )
    return 0


def cmd_riscv(args) -> int:
    from repro.riscv import compile_function

    _, compiled = _compiled(args)
    rv_program = compile_function(compiled.bedrock_fn)
    print(
        f"{compiled.name}: {len(rv_program.instrs)} instructions "
        f"({rv_program.size_bytes} bytes of code, "
        f"{len(rv_program.data)} bytes of table data)"
    )
    _print_opt_summary(compiled)
    if args.disasm:
        from repro.riscv.isa import encode

        for instr in rv_program.instrs:
            print(f"  {encode(instr):08x}  {instr}")
    return 0


def cmd_fuzz(args) -> int:
    from repro.resilience.fuzzer import run_fuzz

    def progress(message: str) -> None:
        print(f"// {message}", file=sys.stderr)

    with _maybe_trace(args, f"fuzz:{args.seed}"):
        report = run_fuzz(
            seed=args.seed,
            budget=args.budget,
            trials=args.trials,
            fuel=args.fuel,
            deadline=args.deadline,
            progress=progress if args.verbose else None,
            jobs=args.jobs,
        )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_faults(args) -> int:
    def progress(message: str) -> None:
        print(f"// {message}", file=sys.stderr)

    if getattr(args, "serve", False):
        from repro.resilience.serve_faults import run_serve_faults as run
    elif getattr(args, "lift", False):
        from repro.resilience.lift_faults import run_lift_faults as run
    else:
        from repro.resilience.faults import run_faults as run
    with _maybe_trace(args, f"faults:{args.seed}"):
        report = run(
            seed=args.seed,
            budget=args.budget,
            progress=progress if args.verbose else None,
            jobs=args.jobs,
        )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    from benchmarks.figure2 import figure2_rows, render_figure2  # type: ignore

    cache = None
    if getattr(args, "cache", None):
        from repro.serve.cache import CompilationCache

        cache = CompilationCache(args.cache)
    # --json always meters the run: the suite compilations happen under a
    # tracer so the payload can carry the metrics registry.
    with _maybe_trace(args, "bench", force=args.json) as tracer:
        rows = figure2_rows(size=args.size, cache=cache)
        opt_rows = None
        if args.opt_level > 0:
            from benchmarks.figure2 import optimizer_rows, render_optimizer_table

            opt_rows = optimizer_rows(size=args.size, cache=cache)
    if cache is not None:
        stats = cache.stats
        print(
            f"// cache [{args.cache}]: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.invalidated} invalidated, {stats.stores} stores",
            file=sys.stderr,
        )
    if args.json:
        import dataclasses
        import json

        payload = {
            "size": args.size,
            "rows": [dataclasses.asdict(row) for row in rows],
            "metrics": tracer.metrics.to_dict(),
        }
        if opt_rows is not None:
            payload["optimizer"] = [dataclasses.asdict(row) for row in opt_rows]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_figure2(rows))
    if opt_rows is not None:
        from benchmarks.figure2 import render_optimizer_table

        print()
        print(render_optimizer_table(opt_rows))
    return 0


def cmd_batch(args) -> int:
    from repro.serve.batch import load_manifest, run_batch

    def progress(message: str) -> None:
        print(f"// {message}", file=sys.stderr)

    if args.manifest == "registry":
        from repro.serve.batch import registry_manifest

        jobs = registry_manifest(opt_level=args.opt_level)
    else:
        jobs = load_manifest(args.manifest)
    with _maybe_trace(args, f"batch:{args.manifest}"):
        report = run_batch(
            jobs,
            jobs_n=args.jobs,
            cache_dir=args.cache,
            fuel=args.fuel,
            deadline=args.deadline,
            progress=progress if args.verbose else None,
        )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if not report.crashes else 1


def cmd_serve(args) -> int:
    supervisor = None
    if args.workers > 0:
        from repro.serve.supervisor import (
            SupervisedService,
            Supervisor,
            SupervisorConfig,
        )

        config = SupervisorConfig(
            workers=args.workers,
            request_timeout=args.timeout,
            max_retries=args.retries,
            queue_depth=args.queue_depth,
            degrade_after=args.degrade_after,
        )
        supervisor = Supervisor(config, cache_dir=args.cache)
        service = SupervisedService(supervisor)
    else:
        from repro.serve.service import CompileService

        service = CompileService(cache_dir=args.cache)
    service.install_signal_handlers()
    with _maybe_trace(args, "serve"):
        try:
            if supervisor is not None:
                supervisor.start()
            if args.socket:
                print(f"// serving on {args.socket}", file=sys.stderr)
                service.serve_socket(args.socket, concurrency=args.concurrency)
            else:
                service.serve_stdio()
        finally:
            if supervisor is not None:
                supervisor.stop()
    print(f"// {service.drain_summary()}", file=sys.stderr)
    return 0


def cmd_cache(args) -> int:
    from repro.serve.admin import gc_cache, repair_cache, verify_cache

    if not os.path.isdir(args.dir):
        # A typo'd path must not look like a healthy cache to cron.
        print(f"cache {args.action}: no such cache directory: {args.dir}", file=sys.stderr)
        return 2
    if args.action == "verify":
        report = verify_cache(args.dir, quarantine=args.quarantine)
    elif args.action == "gc":
        report = gc_cache(args.dir)
    else:
        report = repair_cache(args.dir)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.clean else 1


def _query_program(name: str):
    from repro.query.programs import QUERY_PROGRAMS, get_query_program

    try:
        return get_query_program(name)
    except KeyError:
        known = ", ".join(sorted(QUERY_PROGRAMS))
        print(
            f"unknown query program {name!r}; have: {known}", file=sys.stderr
        )
        raise SystemExit(2) from None


def cmd_query(args) -> int:
    from repro.query.programs import all_query_programs

    if args.action == "list":
        for program in all_query_programs():
            via = program.reified().via
            print(f"{program.name:<16} {program.description}  [{via}]")
        return 0

    if not args.program:
        print(f"query {args.action} needs a program name", file=sys.stderr)
        return 2
    program = _query_program(args.program)
    if args.action == "explain":
        print(program.explain())
        return 0

    with _maybe_trace(args, f"query:{args.action}:{args.program}", detail="debug"):
        if args.action == "compile":
            compiled = program.compile(opt_level=args.opt_level)
            print(compiled.c_source())
            _print_opt_summary(compiled)
            return 0
        if args.action == "validate":
            from repro.validation.checker import validate

            compiled = program.compile(opt_level=args.opt_level)
            report = validate(
                compiled,
                trials=args.trials,
                rng=random.Random(args.seed),
                input_gen=program.validation_input_gen(),
            )
            print(
                f"{compiled.name}: certificate ok; {report.trials} "
                f"differential trials, 0 failures"
            )
            return 0
        # run: one seeded random database through the reference evaluator
        # and the compiled code; print both answers.
        from repro.validation.runners import run_function

        compiled = program.compile(opt_level=args.opt_level)
        rng = random.Random(args.seed)
        tables, out_len = program.gen_tables(rng)
        params = program.inputs_from_tables(tables, out_len)
        expected = program.reference(tables, out_len)
        result = run_function(compiled.bedrock_fn, compiled.spec, params)
        reified = program.reified()
        got = (
            result.rets[0]
            if reified.kind == "scalar"
            else result.out_memory[reified.out_param]
        )
        for table, cols in reified.table_cols:
            shown = {col.name: tables[table][col.name] for col in cols}
            print(f"// {table}: {shown}")
        print(f"reference: {expected}")
        print(f"compiled:  {got}")
        if got != expected:
            print("MISMATCH", file=sys.stderr)
            return 1
        return 0


def _lift_target(args):
    """Resolve a lift target to ``(fn, spec, validation_input_gen)``.

    Three sources, in the order a user reaches for them: a serialized
    legacy bundle (``--file``), a suite program, a query program.  The
    compiled sources honour ``-O`` so one can lift optimizer output.
    """
    if getattr(args, "file", None):
        from repro.lift.legacy import load_bundle

        fn, spec = load_bundle(args.file)
        return fn, spec, None
    if not args.program:
        print("lift needs a program name or --file BUNDLE", file=sys.stderr)
        raise SystemExit(2)
    from repro.programs import all_programs, get_program
    from repro.query.programs import QUERY_PROGRAMS, get_query_program

    try:
        program = get_program(args.program)
    except KeyError:
        try:
            program = get_query_program(args.program)
        except KeyError:
            known = ", ".join(
                [p.name for p in all_programs()] + sorted(QUERY_PROGRAMS)
            )
            print(
                f"unknown program {args.program!r}; have: {known}",
                file=sys.stderr,
            )
            raise SystemExit(2) from None
    compiled = program.compile(opt_level=args.opt_level)
    return compiled.bedrock_fn, compiled.spec, program.validation_input_gen()


def cmd_lift(args) -> int:
    from repro.lift import certify, lift_function

    with _maybe_trace(args, f"lift:{args.action}:{args.program or args.file}",
                      detail="debug"):
        fn, spec, input_gen = _lift_target(args)
        result = lift_function(fn, spec, use_cache=False)
        if not result.ok:
            print(f"{fn.name}: lift stalled", file=sys.stderr)
            print(result.stall.to_json(), file=sys.stderr)
            return 1
        if args.action == "explain":
            print(f"// {fn.name}: {len(result.steps)} backward steps "
                  f"(key {result.key})")
            for index, step in enumerate(result.steps):
                extra = {k: v for k, v in step.items() if k not in ("head", "via")}
                suffix = f"  {extra}" if extra else ""
                print(f"  {index:>3}  {step['head']:<14} ~> {step['via']}{suffix}")
            return 0
        if args.action == "validate":
            cert = certify(
                result,
                trials=args.trials,
                rng=random.Random(args.seed),
                input_gen=input_gen,
            )
            print(f"{fn.name}: lift certified [{cert.kind}] {cert.detail}")
            return 0
    # lift: print the synthesized functional model.
    from repro.source.terms import pretty

    model = result.model
    params = ", ".join(f"{name}: {ty}" for name, ty in model.params)
    print(f"// lifted from {fn.name} in {len(result.steps)} steps "
          f"(key {result.key})")
    print(f"def {model.name}({params}) -> {model.result_ty}:")
    for line in pretty(model.term).splitlines():
        print(f"    {line}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.runner import run_lint

    # Narrowing to one half narrows the run: `--db` alone skips the
    # program lints and `--program` alone skips the DB audits; with
    # neither, everything runs (the CI gate).
    db_names = args.db or (None if not args.program else [])
    program_names = args.program or (None if not args.db else [])
    with _maybe_trace(args, "lint"):
        try:
            report = run_lint(
                db_names=db_names,
                program_names=program_names,
                opt_levels=tuple(args.opt_levels) if args.opt_levels else (0, 1),
                ranges=args.ranges,
            )
        except KeyError as exc:
            print(f"lint: {exc.args[0]}", file=sys.stderr)
            raise SystemExit(2) from None
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_profile(args) -> int:
    from repro.obs.profile import profile_program

    _program(args.program)  # friendly error for unknown names
    report = profile_program(args.program, opt_level=args.opt_level)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render(top=args.top))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Rupicola reproduction: relational compilation toolkit",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for Python's random module (reproducible runs)",
    )
    # Proof-search fast-path kill switches (before the subcommand, e.g.
    # ``python -m repro --no-index compile crc32``).  Each disables one
    # layer; outputs, certificates, and cache keys are identical either
    # way (see docs/dispatch.md), only the speed changes.
    parser.add_argument(
        "--no-index", action="store_true",
        help="disable head-indexed lemma dispatch (linear hint-DB scans)",
    )
    parser.add_argument(
        "--no-intern", action="store_true",
        help="disable hash-consing of source terms",
    )
    parser.add_argument(
        "--no-memo", action="store_true",
        help="disable per-derivation memoization of repeated pure subterms",
    )
    parser.add_argument(
        "--no-absint", action="store_true",
        help="disable per-state caching of abstract-interpretation range maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the benchmark suite")
    trace_help = "record flight-recorder events to FILE (JSON Lines)"
    for name in ("compile", "cert", "riscv"):
        p = sub.add_parser(name)
        p.add_argument("program")
        if name != "cert":
            p.add_argument(
                "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
                help="optimization level (-O0 none, -O1 validated passes)",
            )
        if name == "compile":
            p.add_argument("--trace", metavar="FILE", help=trace_help)
            p.add_argument(
                "--cache", metavar="DIR",
                help="content-addressed derivation cache (entries are "
                "re-validated by the trusted checkers on load)",
            )
        if name == "riscv":
            p.add_argument("--disasm", action="store_true")
    p = sub.add_parser("validate")
    p.add_argument("program")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="validate the optimized code instead of the raw derivation",
    )
    p.add_argument(
        "--degrade", action="store_true",
        help="on compilation failure, fall back to interpreting the "
        "functional model (clearly marked unverified) instead of aborting",
    )
    p.add_argument(
        "--lift-validate", action="store_true", dest="lift_validate",
        help="with -O1: lift the optimizer output back to a functional "
        "model and cross-check it against the source model (repro.lift)",
    )
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p = sub.add_parser("fuzz", help="seeded pipeline fuzzing campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100, help="number of cases")
    p.add_argument("--trials", type=int, default=6,
                   help="differential trials per case")
    p.add_argument("--fuel", type=int, default=200_000,
                   help="proof-search fuel per case")
    p.add_argument("--deadline", type=float, default=20.0,
                   help="wall-clock seconds per case")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1: single-process, full tracing)",
    )
    p = sub.add_parser("faults", help="cross-layer fault-injection campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="cap the number of injections")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1: single-process, full tracing)",
    )
    p.add_argument(
        "--serve", action="store_true",
        help="run the serve-layer availability campaign (supervised pool) "
        "instead of the checker-soundness campaign",
    )
    p.add_argument(
        "--lift", action="store_true",
        help="run the lift fault campaign: seed a model-drifting optimizer "
        "pass that per-pass certificates and `repro lint` both accept, and "
        "assert the repro.lift cross-check rejects it",
    )
    p = sub.add_parser("bench")
    p.add_argument("--size", type=int, default=1024)
    p.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="also print the optimized-vs-unoptimized comparison",
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable rows plus the metrics registry")
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p.add_argument("--cache", metavar="DIR",
                   help="serve suite derivations from this cache directory")
    p = sub.add_parser(
        "batch", help="compile a manifest of jobs through the worker pool"
    )
    p.add_argument(
        "manifest",
        help="JSON manifest path, or the literal 'registry' for the full suite",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--cache", metavar="DIR",
                   help="shared content-addressed derivation cache")
    p.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="optimization level for the 'registry' shorthand manifest",
    )
    p.add_argument("--fuel", type=int, default=200_000,
                   help="proof-search fuel per job")
    p.add_argument("--deadline", type=float, default=20.0,
                   help="wall-clock seconds per job")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p.add_argument("-v", "--verbose", action="store_true")
    p = sub.add_parser(
        "serve", help="long-lived JSON-lines compilation service"
    )
    p.add_argument("--cache", metavar="DIR",
                   help="content-addressed derivation cache")
    p.add_argument("--socket", metavar="PATH",
                   help="listen on a Unix domain socket instead of stdio")
    p.add_argument(
        "--workers", type=int, default=0,
        help="dispatch through a supervised pool of N worker subprocesses "
        "(0: compile in-process, the original single-tenant mode)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=8,
        help="max requests waiting for a worker before backpressure",
    )
    p.add_argument(
        "--timeout", type=float, default=30.0,
        help="hard wall-clock seconds per request (supervised mode)",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="retries for transient failures such as worker deaths",
    )
    p.add_argument(
        "--degrade-after", type=int, default=3,
        help="consecutive compile failures before the unverified "
        "interpreter fallback",
    )
    p.add_argument(
        "--concurrency", type=int, default=1,
        help="socket connections served concurrently (supervised mode)",
    )
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p = sub.add_parser(
        "cache", help="offline cache maintenance (verify / gc / repair)"
    )
    p.add_argument("action", choices=("verify", "gc", "repair"))
    p.add_argument("dir", help="cache directory to sweep")
    p.add_argument(
        "--quarantine", action="store_true",
        help="verify: move corrupt entries to the quarantine directory",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p = sub.add_parser(
        "query", help="relational-algebra frontend (repro.query)"
    )
    p.add_argument(
        "action", choices=("list", "explain", "compile", "validate", "run")
    )
    p.add_argument("program", nargs="?", help="query program name")
    p.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="optimization level (-O0 none, -O1 validated passes)",
    )
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p = sub.add_parser(
        "lift",
        help="lift Bedrock2 back to a functional model (repro.lift)",
    )
    p.add_argument(
        "action", choices=("lift", "explain", "validate"),
        help="lift: print the synthesized model; explain: print the "
        "backward-search step trace; validate: lift and certify",
    )
    p.add_argument("program", nargs="?",
                   help="suite or query program name (see `list`/`query list`)")
    p.add_argument(
        "--file", metavar="BUNDLE",
        help="lift a serialized legacy bundle (JSON: function + spec) "
        "instead of a registered program",
    )
    p.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="lift the optimizer's output instead of the raw derivation",
    )
    p.add_argument("--trials", type=int, default=24,
                   help="validate: trials for the extensional certificate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p = sub.add_parser(
        "lint",
        help="static analysis: hint-DB audit + Bedrock2 dataflow lint",
    )
    p.add_argument(
        "--db", action="append", metavar="NAME", default=[],
        help="audit only this hint database (bindings, exprs); repeatable",
    )
    p.add_argument(
        "--program", action="append", metavar="NAME", default=[],
        help="lint only this suite program's compiled code; repeatable",
    )
    p.add_argument(
        "-O", dest="opt_levels", action="append", type=int, choices=(0, 1),
        default=[],
        help="optimization level(s) to lint programs at (default: both)",
    )
    p.add_argument(
        "--ranges", action="store_true",
        help="also show the inferred per-variable value ranges (absint)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--trace", metavar="FILE", help=trace_help)
    p = sub.add_parser(
        "profile", help="per-phase / per-lemma time breakdown of one compile"
    )
    p.add_argument("program")
    p.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="profile the optimizer pipeline too",
    )
    p.add_argument("--top", type=int, default=10, help="hottest lemmas to show")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    args = parser.parse_args(argv)
    random.seed(args.seed)
    if args.no_index:
        from repro.core.lemma import set_index_enabled

        set_index_enabled(False)
    if args.no_intern:
        from repro.source.terms import set_interning

        set_interning(False)
    if args.no_memo:
        from repro.core.engine import set_memo_enabled

        set_memo_enabled(False)
    if args.no_absint:
        from repro.analysis.absint import set_absint_enabled

        set_absint_enabled(False)
    handlers = {
        "list": cmd_list,
        "compile": cmd_compile,
        "cert": cmd_cert,
        "validate": cmd_validate,
        "riscv": cmd_riscv,
        "bench": cmd_bench,
        "fuzz": cmd_fuzz,
        "faults": cmd_faults,
        "profile": cmd_profile,
        "batch": cmd_batch,
        "serve": cmd_serve,
        "cache": cmd_cache,
        "query": cmd_query,
        "lift": cmd_lift,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
