#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run:  python benchmarks/generate_report.py [--size N] [--out PATH]

The sections this script measures are rewritten; every other ``## E…``
section already in ``PATH`` is kept as it is, placed after the last
section numbered below it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_table1 import render_table1
from benchmarks.bench_table2 import render_table2
from benchmarks.figure2 import (
    figure2_rows,
    optimizer_rows,
    render_figure2,
    render_optimizer_table,
)
from repro.programs import all_programs, get_program
from repro.programs.extraction_baseline import EXTRACTED
from repro.stdlib import default_engine


def section_figure2(size: int) -> str:
    rows = figure2_rows(size=size)
    by_program = {}
    for row in rows:
        by_program.setdefault(row.program, {})[row.implementation] = row
    lines = [
        "## E3 — Figure 2: Rupicola vs handwritten (cost per byte)",
        "",
        "**Paper:** cycles/byte on an i5-1135G7 for GCC 10.3/11.1 and Clang 13.0;",
        "Rupicola within compiler-to-compiler fluctuation of handwritten C on all",
        "seven programs, with upstr the one outlier (missed GCC vectorization).",
        "",
        "**Measured** (Bedrock2 interpreter op counts under three weightings +",
        "RV64IM retired instructions; see DESIGN.md for the substitution):",
        "",
        "```",
        render_figure2(rows),
        "```",
        "",
        "**Shape check:** Rupicola == handwritten exactly on "
        + ", ".join(
            name
            for name, pair in sorted(by_program.items())
            if abs(
                pair["rupicola"].weighted_per_byte["uniform"]
                - pair["handwritten"].weighted_per_byte["uniform"]
            )
            < 0.05
        )
        + "; the outlier is upstr (ours: temp + unconditional store vs the",
        "handwritten conditional store; the paper's: vectorization).  Ablation C",
        "(`benchmarks/bench_ablations.py`) closes the upstr gap to parity with a",
        "~60-line user lemma, demonstrating the extension workflow the paper",
        "leans on.",
        "",
    ]
    return "\n".join(lines)


def section_optimizer(size: int) -> str:
    rows = optimizer_rows(size=size)
    improved = sum(row.strictly_improved for row in rows)
    rejected = sorted({name for row in rows for name in row.passes_rejected})
    lines = [
        "## E9 — `repro.opt`: translation-validated optimization",
        "",
        "**Paper:** §5 classifies Rupicola as translation validation -- untrusted",
        "search plus per-run witnesses.  The optimizer extends that architecture",
        "past derivation: every pass (constant folding, copy propagation, load",
        "CSE, forward substitution, pointer strength reduction, branch",
        "simplification, dead-code elimination, normalization) is untrusted; each",
        "application is certified by an AST hash chain, re-checked for",
        "well-formedness, and differentially re-validated against the functional",
        "model under the program's `FnSpec`.  A failing pass is rejected and the",
        "pipeline falls back to the pre-pass AST.",
        "",
        f"**Measured** (`python -m repro bench -O1`, {size}-byte inputs):",
        "",
        "```",
        render_optimizer_table(rows),
        "```",
        "",
        f"**Acceptance check:** {improved}/{len(rows)} programs strictly reduce",
        "both total Bedrock2 op counts and RV64IM instructions/byte"
        + (
            "; no pass was rejected on any program."
            if not rejected
            else f"; rejected passes: {', '.join(rejected)}."
        ),
        "The deliberate-bug direction (a pass that drops stores, miscompiles",
        "constants, emits ill-formed ASTs, or crashes) is pinned by",
        "`tests/opt/test_fault_injection.py`: each yields a `rejected`",
        "certificate and an unchanged function.",
        "",
    ]
    return "\n".join(lines)


def section_resilience() -> str:
    from repro.resilience import run_faults, run_fuzz

    fuzz = run_fuzz(seed=0, budget=60, trials=4, riscv_trials=1)
    faults = run_faults(seed=0)
    stall_parts = ", ".join(f"{k}={v}" for k, v in sorted(fuzz.stalls.items())) or "none"
    family_parts = ", ".join(f"{k}={v}" for k, v in sorted(fuzz.by_family.items()))
    lines = [
        "## E10 — `repro.resilience`: fuzzing and fault injection",
        "",
        "**Paper:** the TCB argument (§5) -- lemmas, solvers, and optimizer",
        "passes are untrusted; correctness rests on small trusted checkers.",
        "The resilience harness tests that argument adversarially: random",
        "well-typed models through the full pipeline (compile → certificate →",
        "differential → `-O1` → RISC-V), and targeted corruption of every",
        "untrusted component (see `docs/resilience.md`).",
        "",
        "**Measured** (`python -m repro fuzz --seed 0 --budget 60`,",
        "`python -m repro faults --seed 0`):",
        "",
        "```",
        f"fuzz:   {fuzz.cases_run} cases, {fuzz.compiled} compiled, "
        f"{len(fuzz.violations)} soundness violations, {len(fuzz.crashes)} crashes",
        f"        families: {family_parts}",
        f"        stalls: {stall_parts}",
        f"faults: {faults.injected} injections, {faults.count('detected')} detected, "
        f"{faults.count('rejected')} cleanly rejected, "
        f"{faults.count('harmless')} harmless, {faults.count('crash')} crashes, "
        f"{faults.count('silent')} silent-wrong",
        f"        detection rate (faults reaching an artifact): "
        f"{faults.rate:.0%}",
        "```",
        "",
        "**Acceptance check:** zero soundness violations and zero crashes under",
        "fuzzing; 100% of artifact-reaching faults detected by a trusted checker",
        "(determinism replay catches lemma/solver/certificate tampering; per-pass",
        "translation validation catches optimizer miscompilation), zero silent",
        "wrong binaries.  Both campaigns are deterministic per seed.",
        "",
    ]
    return "\n".join(lines)


def section_native(size: int) -> str:
    from benchmarks.native import have_cc, native_figure2, render_native

    if not have_cc():
        return (
            "## E3 (native) — skipped\n\n"
            "No host C compiler was found; the simulator-based measurement "
            "above is the authoritative one on this machine.\n"
        )
    rows = native_figure2(size=max(size, 1 << 20), runs=5)
    lines = [
        "## E3 (native) — Figure 2 with a real C compiler",
        "",
        "**Paper methodology, literally:** the derived Bedrock2 is",
        "pretty-printed to C and fed to the host C compiler at three",
        "optimization levels (standing in for the paper's GCC 10.3 / GCC",
        "11.1 / Clang 13.0); both implementations run on 1 MiB inputs and",
        "wall-clock ns/byte is reported (multiply by your clock in GHz for",
        "cycles/byte).",
        "",
        "```",
        render_native(rows),
        "```",
        "",
        "As in the paper, 'the differences both in favor and against",
        "Rupicola are within the expected fluctuations across optimizing",
        "compilers' -- note e.g. upstr, where relative order flips with the",
        "optimization level (the paper's own outlier is upstr's missed",
        "vectorization under one compiler).",
        "",
    ]
    return "\n".join(lines)


def section_table1() -> str:
    lines = [
        "## E1/E7 — Table 1: incremental extension effort",
        "",
        "**Paper:** per extension, ~22-57 lines of lemma + ~3-17 lines of proof,",
        "minutes of work (nondet alloc/peek, cells get/put, iadd, io read/write).",
        "",
        "**Measured** (lines of Python lemma code per extension; the 'proof'",
        "column's analogue is the per-extension validation in `tests/stdlib`):",
        "",
        "```",
        render_table1(),
        "```",
        "",
        "Every extension is tens of lines and independently pluggable; the",
        "derivation benchmarks in `bench_table1.py` derive a sample program per",
        "extension in milliseconds (paper: ~3 s in Coq for the writer example).",
        "",
    ]
    return "\n".join(lines)


def section_table2() -> str:
    lines = [
        "## E2 — Table 2: the benchmark suite",
        "",
        "**Paper:** 7 programs, sources of 11-56 lines, 0-16 lines of user",
        "lemmas, 0-7 hint lines, feature checkmarks per program.",
        "",
        "**Measured** (model-builder source lines; incidental facts as the",
        "Lemmas column; distinct compiler lemmas in the derivation as Hints;",
        "features verified against the certificates):",
        "",
        "```",
        render_table2(),
        "```",
        "",
    ]
    return "\n".join(lines)


def section_extraction() -> str:
    from benchmarks.bench_extraction import (
        SIZE,
        compiled_cost_per_byte,
        extracted_cost_per_byte,
    )
    import random

    rng = random.Random(0)
    lines = [
        "## E4 — §4.2: the OCaml-extraction baseline",
        "",
        "**Paper:** extracted OCaml is 'multiple orders of magnitude slower',",
        "with asymptotic changes (linear `nth` vs constant-time dereference).",
        "",
        "**Measured** (memory-heavy weighting, per byte; extraction world charges",
        "cons cells, pointer chases, closure calls, and Z-arithmetic):",
        "",
        "```",
        f"{'program':<8} {'extracted':>12} {'rupicola':>12} {'ratio':>8}",
    ]
    for name in sorted(EXTRACTED):
        data = get_program(name).gen_input(rng, SIZE)
        extracted = extracted_cost_per_byte(name, data)
        compiled = compiled_cost_per_byte(name, data)
        lines.append(
            f"{name:<8} {extracted:>12.1f} {compiled:>12.1f} {extracted / compiled:>8.1f}"
        )
    lines += [
        "```",
        "",
        "crc32's ratio is dominated by the linear table `nth` (footnote 13's",
        "asymptotic change); upstr's by the 26-case character match.  Absolute",
        "ratios are smaller than the paper's because our cost model omits GC,",
        "cache, and allocator effects entirely — it is a lower bound.",
        "",
    ]
    return "\n".join(lines)


def section_compile_speed() -> str:
    lines = [
        "## E5 — §4.3: compiler throughput",
        "",
        "**Paper:** 2-15 statements/second (Coq's proof engine), intrinsic",
        "complexity essentially linear in program size.",
        "",
        "**Measured:**",
        "",
        "```",
        f"{'program':<8} {'stmts':>6} {'time (ms)':>10} {'stmts/s':>10}",
    ]
    for program in all_programs():
        model, spec = program.build_model(), program.build_spec()
        engine = default_engine()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            compiled = engine.compile_function(model, spec)
            best = min(best, time.perf_counter() - start)
        statements = compiled.statement_count()
        lines.append(
            f"{program.name:<8} {statements:>6} {best * 1e3:>10.1f} "
            f"{statements / best:>10.0f}"
        )
    lines += [
        "```",
        "",
        "Our proof search runs orders of magnitude above the Coq baseline",
        "(smaller terms, no kernel).  Like the paper's autorewrite hotspots, we",
        "document a superlinear case: bindings that chain on the previous value",
        "grow the symbolic state (see `bench_compile_speed.py`).",
        "",
    ]
    return "\n".join(lines)


def section_expr_ablation() -> str:
    import inspect

    import repro.stdlib.expr_reflective as reflective_mod
    import repro.stdlib.exprs as relational_mod

    reflective_loc = len(
        inspect.getsource(reflective_mod.compile_expr_reflective).splitlines()
    )
    lemma_classes = [
        relational_mod.ExprLit,
        relational_mod.ExprLocalLookup,
        relational_mod.ExprKnownLength,
        relational_mod.ExprCellLoad,
        relational_mod.ExprArrayGet,
        relational_mod.ExprPrim,
    ]
    relational_loc = sum(len(inspect.getsource(c).splitlines()) for c in lemma_classes)
    lines = [
        "## E6 — §4.1.3: expression-compiler case study",
        "",
        "**Paper:** the reflective compiler was 450 lines and hard to extend;",
        "the relational rewrite was ~250 lines (growing to ~400 with many more",
        "features) and cost < 30% compile time overall.",
        "",
        "**Measured:** reflective monolith "
        f"{reflective_loc} lines (one function, closed); relational lemmas "
        f"{relational_loc} lines across {len(lemma_classes)} independently",
        "replaceable units.  Outputs are bit-identical on the shared corpus",
        "(`tests/stdlib/test_expr_reflective.py`), the per-expression overhead is",
        "bounded (`bench_expr_ablation.py`), and only the relational version",
        "admits user overrides without edits (demonstrated by the mul-to-shift",
        "lemma in the same test file and `examples/extending_the_compiler.py`).",
        "",
    ]
    return "\n".join(lines)


def section_ablations(size: int) -> str:
    import random

    from benchmarks.bench_ablations import CompileMapCondStore, _iadd_model
    from benchmarks.figure2 import measure
    from repro.bedrock2 import ast as b2
    from repro.bedrock2.memory import Memory
    from repro.bedrock2.semantics import Interpreter
    from repro.bedrock2.word import Word
    from repro.core.engine import Engine
    from repro.programs import get_program
    from repro.stdlib import default_databases, default_engine

    lines = ["## Design-choice ablations (DESIGN.md §5)", ""]

    # A: iadd.
    model, spec = _iadd_model()
    with_i = default_engine().compile_function(model, spec)
    binding_db, expr_db = default_databases()
    binding_db.remove("compile_cell_iadd")
    without_i = Engine(binding_db, expr_db).compile_function(model, spec)
    lines += [
        "**A. iadd intrinsic** — `put c (get c + 7)` derives to "
        f"{with_i.statement_count()} statement(s) with the intrinsic "
        f"(lemma `compile_cell_iadd`) and {without_i.statement_count()} "
        "without (generic `compile_cell_put`, whose expression subgoal "
        "re-derives the load).  In this reproduction the generated code "
        "coincides -- the relational expression compiler already inlines "
        "the cell read -- so the ablation demonstrates the *override "
        "mechanics*: the certificate names the user lemma, and removing "
        "it falls back cleanly.",
        "",
    ]

    # C: upstr conditional store.
    program = get_program("upstr")
    baseline = measure(program, "rupicola", size=size, with_riscv=False)
    handwritten = measure(program, "handwritten", size=size, with_riscv=False)
    binding_db, expr_db = default_databases()
    engine = Engine(binding_db.extended(CompileMapCondStore()), expr_db)
    compiled = engine.compile_function(program.build_model(), program.build_spec())
    data = program.gen_input(random.Random(0), size)
    memory = Memory()
    base = memory.place_bytes(data)
    interp = Interpreter(b2.Program((compiled.bedrock_fn,)))
    interp.run("upstr", [Word(64, base), Word(64, len(data))], memory=memory)
    uniform = {"arith": 1, "load": 1, "store": 1, "assign": 1, "branch": 1}
    extended_cost = interp.counts.weighted(uniform) / len(data)
    lines += [
        "**C. Closing the upstr gap** — uniform cost/byte: generic map "
        f"lemma {baseline.weighted_per_byte['uniform']:.2f}, with the "
        f"~60-line conditional-store user lemma {extended_cost:.2f}, "
        f"handwritten {handwritten.weighted_per_byte['uniform']:.2f}.  The "
        "user lemma reaches (slightly better than) handwritten parity -- "
        "the paper's extensibility thesis, quantified.",
        "",
        "**B. Inline vs in-memory crc32 table** — identical results and "
        "op totals (modulo table-read accounting); the choice is about "
        "keeping the table out of the spec, not speed "
        "(`benchmarks/bench_ablations.py::test_ablation_inline_vs_memory_table`).",
        "",
    ]
    return "\n".join(lines)


def section_case_studies() -> str:
    import inspect

    from repro.stdlib import copying, errors
    from repro.stdlib.loops import CompileArrayFoldBreak, _AccumulatorLoop, _LoopLemma
    from repro.stdlib.stack_alloc import CompileNdAlloc, CompileStackAlloc

    def loc(cls):
        return len(inspect.getsource(cls).splitlines())

    lines = [
        "## §4.1.1/§4.1.2 — extension case studies beyond Table 1",
        "",
        "**Paper:** adding the writer monad from a blank file took ~90 minutes",
        "(~125 lines of code + ~30 of proofs); stack allocation cost 20-30",
        "lines of lemmas + typeclass plumbing; inline tables likewise.  §4.3",
        "adds that error monads and loop early exits are 'relatively easy'.",
        "",
        "**Measured** (each implemented as an ordinary pluggable lemma, with",
        "its validation in the test suite):",
        "",
        "```",
        f"{'extension':<28} {'lemma LoC':>10}",
        f"{'stack allocation (init)':<28} {loc(CompileStackAlloc):>10}",
        f"{'stack allocation (nondet)':<28} {loc(CompileNdAlloc):>10}",
        f"{'error-monad guard':<28} {loc(errors.CompileErrGuard):>10}",
        f"{'fold with early exit':<28} {loc(CompileArrayFoldBreak):>10}",
        f"{'  shared accumulator loop':<28} {loc(_LoopLemma) + loc(_AccumulatorLoop):>10}",
        f"{'copy / out-of-place map':<28} {loc(copying.CompileCopyInto):>10}",
        "```",
        "",
        "The early-exit fold declares only what differs from the plain fold",
        "(its head, its partial term and the exit predicate).  The counted",
        "accumulator skeleton it runs on, shared with fold, ranged for and",
        "`Nat.iter` (`_LoopLemma` plus `_AccumulatorLoop`), is the indented",
        "row below it.",
        "",
        "The multi-target conditional join (the paper's full CAS pair,",
        "§3.4.2) and the derivation-replay check are exercised in",
        "`tests/stdlib/test_multi_target.py` and",
        "`tests/integration/test_pipeline.py`.",
        "",
    ]
    return "\n".join(lines)


def section_e8() -> str:
    from repro.stackmachine import SAdd, SInt, RelationalCompiler, STOT_RULES

    derivation = RelationalCompiler(STOT_RULES).compile(SAdd(SInt(3), SInt(4)))
    lines = [
        "## E8 — §2: the stack-machine walkthrough",
        "",
        "**Paper:** `StoT (SAdd (SInt 3) (SInt 4))` and the relational/shallow",
        "derivations all produce `[TPush 3; TPush 4; TPopAdd]`.",
        "",
        "**Measured:**",
        "",
        "```",
        derivation.render(),
        "```",
        "",
        "Functional, relational, and shallow compilation agree on random",
        "expression trees (property-tested in `tests/stackmachine`).",
        "",
    ]
    return "\n".join(lines)


def section_observability() -> str:
    from repro.obs.trace import Tracer, use_tracer
    from repro.stdlib import default_engine

    lines = [
        "## E11 — `repro.obs`: the proof-search flight recorder",
        "",
        "**Claim (§3.1-§3.3):** relational proof search is deterministic and",
        "non-backtracking — each binding/expression goal is resolved by one",
        "ordered scan of the hint database, so total lemma attempts grow",
        "linearly with goal count and the per-goal constant is bounded by the",
        "database length.",
        "",
        "**Measured** (deterministic flight-recorder metrics; the same numbers",
        "are pinned byte-for-byte by `tests/obs/goldens/`):",
        "",
        "```",
        f"{'program':<8} {'goals':>6} {'attempts':>9} {'att/goal':>9} "
        f"{'hits':>6} {'solver':>7} {'rewrites':>9}",
    ]
    ratios = []
    for program in all_programs():
        model, spec = program.build_model(), program.build_spec()
        tracer = Tracer()
        with use_tracer(tracer):
            default_engine().compile_function(model, spec)
        c = tracer.metrics
        goals = c.get("goals.binding") + c.get("goals.expr")
        attempts = c.get("lemma.attempts")
        ratio = attempts / goals if goals else 0.0
        ratios.append(ratio)
        lines.append(
            f"{program.name:<8} {goals:>6} {attempts:>9} {ratio:>9.1f} "
            f"{c.get('lemma.hits'):>6} {c.get('solver.calls'):>7} "
            f"{c.get('resolve.rewrites'):>9}"
        )
    lines += [
        "```",
        "",
        f"Attempts per goal stay in a narrow band ({min(ratios):.1f}-"
        f"{max(ratios):.1f}) across programs whose goal counts span an order",
        "of magnitude: proof search is linear in the number of bindings, with",
        "the hint-database scan as the constant — no backtracking ever",
        "revisits a goal (every goal also produces exactly one hit or a",
        "stall).",
        "",
    ]

    # Tracing overhead.  Workload: the full pipeline (compile + validate,
    # 10 differential trials) over the whole suite -- what `--trace`
    # actually wraps.  Off vs standard-detail runs are interleaved and we
    # take best-of-N, so the comparison is warm-cache vs warm-cache.
    # Compile-only numbers (the densest instrumentation) are reported
    # separately for both detail tiers, so the pipeline figure cannot
    # hide a hot-path regression.
    import random as _random

    from repro.validation.checker import validate

    programs = list(all_programs())

    # Each timed sample runs the workload twice: longer samples average
    # scheduler hiccups into both arms instead of landing in one.
    def run_pipeline() -> None:
        for _ in range(2):
            for program in programs:
                compiled = program.compile(fresh=True)
                validate(
                    compiled,
                    trials=10,
                    rng=_random.Random(0),
                    input_gen=program.validation_input_gen(),
                )

    def run_compile_only() -> None:
        for _ in range(2):
            for program in programs:
                model, spec = program.build_model(), program.build_spec()
                default_engine().compile_function(model, spec)

    import gc

    def timed(body, detail=None) -> float:
        # GC pauses are ms-scale on a ~50 ms workload; collect up front
        # and disable during the timed region.
        gc.collect()
        gc.disable()
        try:
            if detail is None:
                start = time.perf_counter()
                body()
                return time.perf_counter() - start
            with use_tracer(Tracer(detail=detail)):
                start = time.perf_counter()
                body()
                return time.perf_counter() - start
        finally:
            gc.enable()

    def compare(body, detail, n=25):
        """Best-of-N per arm, runs alternating between off and on.

        Container CPU throttling adds tens of percent of one-sided noise
        mid-measurement, so any single paired comparison is unstable;
        with enough alternating samples each arm hits an unthrottled
        window, and the minima compare like-for-like.  Returns
        (on/off ratio of minima, off-minimum seconds).
        """
        timed(body)
        timed(body, detail)  # warm-up: caches, interned strings
        offs, ons = [], []
        for i in range(n):
            if i % 2 == 0:
                offs.append(timed(body))
                ons.append(timed(body, detail))
            else:
                ons.append(timed(body, detail))
                offs.append(timed(body))
        return min(ons) / min(offs), min(offs)

    pipe_ratio, pipe_off = compare(run_pipeline, "standard")
    comp_std_ratio, comp_off = compare(run_compile_only, "standard")
    comp_dbg_ratio, _ = compare(run_compile_only, "debug")

    def pct(ratio: float) -> float:
        return (ratio - 1.0) * 100

    lines += [
        "Tracing overhead (best-of-25 per configuration, runs alternating",
        "between recorder-off and recorder-on to ride out CPU-throttling",
        "noise).  The pipeline row is the",
        "workload `--trace` wraps: compile + certificate check + 10",
        "differential trials per program.  The compile-only rows isolate",
        "proof search, where instrumentation is densest; `debug` detail adds",
        "per-miss events, per-goal spans, and pretty-printed obligations on",
        "top of the default `standard` tier:",
        "",
        "```",
        f"pipeline      off {pipe_off / 2 * 1e3:6.1f} ms   standard "
        f"{pct(pipe_ratio):+5.1f}%",
        f"compile-only  off {comp_off / 2 * 1e3:6.1f} ms   standard "
        f"{pct(comp_std_ratio):+5.1f}%   debug {pct(comp_dbg_ratio):+5.1f}%",
        "```",
        "",
        "With the recorder enabled at the default `standard` detail the",
        f"end-to-end overhead is {pct(pipe_ratio):+.1f}% "
        f"({'within' if pct(pipe_ratio) < 5 else 'against'} the <5% "
        "budget); when disabled (the",
        "default for every command) the entire hot-path cost is one",
        "`tracer.enabled` predicate per instrumentation point on the shared",
        "null tracer — indistinguishable from noise.  `standard` drops no",
        "aggregate information: hint databases are ordered and every",
        "`lemma_hit` records how many entries were scanned, so the per-miss",
        "events that `debug` emits are derivable (and",
        "`tests/obs/test_trace_properties.py` asserts metrics and hit",
        "sequences are identical across tiers).  Single-compile commands",
        "(`compile --trace`, `validate --trace`, `profile`) opt into `debug`;",
        "campaigns stay at `standard`.  See `docs/observability.md` for the",
        "schema and `tests/obs/` for the golden-trace harness.",
        "",
    ]
    return "\n".join(lines)


def section_serving() -> str:
    from benchmarks.bench_serve import batch_throughputs, cold_warm_latencies

    rows = cold_warm_latencies(opt_level=1)
    cold_total = sum(r[1] for r in rows)
    warm_total = sum(r[2] for r in rows)
    speedup = cold_total / warm_total if warm_total else float("inf")

    lines = [
        "## E12 — `repro.serve`: content-addressed caching and batch throughput",
        "",
        "**Claim (§3.2, operationalized):** proof search is deterministic and",
        "non-backtracking, so a derivation is a pure function of (model, spec,",
        "ordered lemma databases, solver bank, word width, opt level) — which",
        "makes compilation *memoizable by content address*.  `repro.serve`",
        "fingerprints all of those inputs into a cache key; a warm request",
        "decodes the stored Bedrock2 AST + certificate, digest-checks the",
        "entry, and **re-runs the trusted checkers** (well-formedness +",
        "structural certificate check) before serving it, so the cache adds",
        "zero trust: a poisoned entry costs one cold compile, never",
        "correctness.",
        "",
        "**Measured** (warm is the first hit: decode + digest check +",
        "re-validation; repeat is the second hit on the same bytes, served from",
        "the handle's checked-entry table after a read and a sha256; `-O1`, so",
        "cold also runs the translation-validated optimizer):",
        "",
        "```",
        f"{'program':<8} {'cold ms':>9} {'warm ms':>9} {'speedup':>9} {'repeat ms':>10}",
    ]
    for name, cold_ms, warm_ms, repeat_ms in rows:
        ratio = cold_ms / warm_ms if warm_ms else float("inf")
        lines.append(
            f"{name:<8} {cold_ms:>9.2f} {warm_ms:>9.2f} {ratio:>8.1f}x {repeat_ms:>10.3f}"
        )
    repeat_total = sum(r[3] for r in rows)
    lines += [
        f"{'total':<8} {cold_total:>9.2f} {warm_total:>9.2f} {speedup:>8.1f}x"
        f" {repeat_total:>10.3f}",
        "```",
        "",
        f"Suite-level warm speedup: **{speedup:.1f}x** (acceptance bar: >=5x",
        "with re-validation on; `python -m benchmarks.bench_serve --check` gates",
        "the geometric mean of the per-program ratios at >=10x in CI, E23).",
        "Warm results are byte-identical to cold compiles",
        "(`tests/serve/test_cache.py`), which is the determinism claim made",
        "checkable: same inputs, same derivation, down to the serialized",
        "certificate.",
        "",
    ]

    import os

    from benchmarks.bench_serve import SCALING_JOBS, SCALING_RUNS

    cpus = os.cpu_count() or 1
    throughputs = batch_throughputs()
    base = throughputs[1]["total"]
    lines += [
        f"Batch compilation of a {SCALING_JOBS}-job fuzz corpus at `-O0` through",
        "`run_batch` (`repro batch --jobs N`), cold into a fresh cache and then",
        f"warm, each run in a fresh process, median of {SCALING_RUNS} alternating",
        f"runs, on a {cpus}-CPU host (`bench_serve.batch_throughputs`):",
        "",
        "```",
        f"{'jobs':>4} {'cold jobs/s':>12} {'warm jobs/s':>12} {'cold+warm':>10} {'scaling':>8}",
    ]
    for jobs_n, rate in sorted(throughputs.items()):
        lines.append(
            f"{jobs_n:>4} {rate['cold']:>12.0f} {rate['warm']:>12.0f}"
            f" {rate['total']:>10.0f} {rate['total'] / base:>7.2f}x"
        )
    lines += [
        "```",
        "",
        "The pool gets the corpus in chunks of `ceil(n / (8 · jobs))` jobs and",
        "forks from a parent that has built the lemma databases, so workers pay",
        "neither a round trip per job nor a database build (`docs/serving.md`).",
        "CI's `batch-smoke` job fails if `--jobs 2` is slower than `--jobs 1`",
        "(`bench_serve.check_scaling`).  Parallel runs are *equivalent* to",
        "serial ones: the batch, fuzz and fault campaigns produce bit-identical",
        "reports at any `--jobs` (`tests/serve/test_batch.py`,",
        "`tests/resilience`), because every per-job seed is pre-drawn from the",
        "master stream and workers regenerate their cases deterministically.",
        "",
    ]
    lines += [
        "Per-job fuel/deadline budgets from `repro.resilience` are enforced",
        "inside the workers, and cache counters from all workers are merged",
        "into the batch report.  See `docs/serving.md` for the key design and",
        "trust model.",
        "",
    ]
    return "\n".join(lines)


def section_supervised() -> str:
    import json
    import os

    from benchmarks.bench_serve import BASELINE_PATH, supervised_latencies

    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            rows = json.load(handle)["supervised"]
        source = f"baseline `{BASELINE_PATH}`, regenerate with `python -m benchmarks.bench_serve`"
    else:
        rows = supervised_latencies()
        source = "measured live (no baseline file found)"

    lines = [
        "## E14 — `repro.serve.supervisor`: fault-tolerant serving under concurrent clients",
        "",
        "**Claim (operational):** the robustness stack — subprocess worker",
        "pool, JSON-lines IPC, per-request deadlines, admission control,",
        "retry/backoff bookkeeping — prices in at low single-digit",
        "milliseconds per warm request, so fault tolerance is not in tension",
        "with the E12 memoization win.  Workers build the lemma databases once",
        "per process and each registry program's model, spec and compile key at",
        "start-up (E23), and serve re-validated cache hits; a hit still pays the",
        "entry read, digest, decode, well-formedness, certificate check, lint",
        "and C printing.  Every number below includes the full",
        "parent→worker→parent round-trip.",
        "",
        f"**Measured** ({source}; warm compiles through a",
        f"{rows[0]['workers']}-worker pool):",
        "",
        "```",
        f"{'clients':>7} {'p50 ms':>8} {'p99 ms':>8} {'req/s':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['clients']:>7} {row['p50_ms']:>8.1f} {row['p99_ms']:>8.1f} "
            f"{row['throughput_rps']:>8.1f}"
        )
    lines += [
        "```",
        "",
        "At 8 clients on a small host the p99 grows with queue wait (requests",
        "admitted but waiting for a free worker), while aggregate throughput",
        "rises — the admission queue is doing its job.  The availability",
        "properties themselves are pinned by the serve-layer fault campaign",
        "(`repro faults --serve`: worker crash mid-compile, slow-worker",
        "timeout, cache corruption under load, queue saturation, crash loop —",
        "100% detection-or-recovery) and by `benchmarks/soak_serve.py`, which",
        "holds the pool under sustained concurrent traffic and fails on any",
        "unstructured response.  See `docs/serving.md` (Operations) for the",
        "tuning knobs.",
        "",
    ]
    return "\n".join(lines)


def section_query() -> str:
    from benchmarks.bench_query import SIZES, query_throughputs

    rows = query_throughputs(sizes=SIZES, opt_level=1)
    lines = [
        "## E13 — `repro.query`: end-to-end query throughput",
        "",
        "**Claim (Table 1, scaled up):** a whole source domain — a",
        "relational-algebra query frontend — rides on three registered",
        "lemmas (two pure reductions to `RangedFor`, one new store-loop",
        "invariant) with the engine and checkers untouched; see",
        "`docs/query.md`.  This benchmark times the reference plan",
        "evaluator (plain Python over row dicts) against the derived",
        "Bedrock2 function under the trusted simulator, on identical",
        "databases; every timed configuration is first checked against the",
        "reference answer.",
        "",
        "**Measured** (`python -m benchmarks.bench_query`; `-O1`, table",
        f"sizes {'/'.join(str(s) for s in SIZES)}; compiled rates are the",
        "*fuel-based interpreter*, so shapes, not absolutes, are the claim):",
        "",
        "```",
        f"{'program':<16} {'via':<12} {'rows':>5} {'ref rows/s':>12} {'compiled rows/s':>16}",
    ]
    for r in rows:
        lines.append(
            f"{r['program']:<16} {r['via']:<12} {r['rows']:>5} "
            f"{r['reference_rows_per_sec']:>12.0f} {r['compiled_rows_per_sec']:>16.0f}"
        )
    lines += [
        "```",
        "",
        "Linear lowerings (fold, fold_break, aggregate, project) hold",
        "roughly flat rows/sec as tables grow; the equi-join's nested-loop",
        "lowering is quadratic by construction, so its per-row rate falls",
        "~4x per 4x size step, and the grouped count pays one inner",
        "aggregation pass per histogram slot.  The reference evaluator is",
        "faster in absolute terms (it is a few-line Python loop), which is",
        "exactly why it serves as the differential oracle —",
        "`tests/query/test_differential.py` holds every program to it on",
        "100 seeded databases per opt level.",
        "",
    ]
    return "\n".join(lines)


def section_lift() -> str:
    from benchmarks.bench_lift import lift_rows, overhead_rows

    rows = lift_rows()
    lifted = sum(1 for r in rows if r["lifted"])
    recompile = sum(1 for r in rows if r.get("certificate") == "recompile")
    overhead = overhead_rows()
    worst = max(r["overhead_ratio"] for r in overhead)
    lines = [
        "## E16 — `repro.lift`: round-trip lifting and lift-based validation",
        "",
        "**Claim (§CoCompiler, inverted):** the same deterministic,",
        "priority-ordered lemma roster that drives forward derivation can be",
        "walked *backwards* — each stdlib lemma registers an inverse pattern,",
        "and a single non-backtracking pass over the Bedrock2 AST",
        "re-synthesizes a functional model `s` with `t ~ s`.  Every lift is",
        "certified: *recompile* when re-deriving the lifted model reproduces",
        "the input byte for byte, *extensional* otherwise (boundary-first",
        "seeded comparison).  See `docs/lifting.md`.",
        "",
        "**Measured** (`python -m benchmarks.bench_lift`; suite + query",
        "corpus at -O0 and -O1):",
        "",
        "```",
        f"{'program':<16} {'-O':>3} {'steps':>6} {'lift ms':>8}  certificate",
    ]
    for r in rows:
        cert = r.get("certificate", f"STALL ({r.get('stall')})")
        lines.append(
            f"{r['program']:<16} {r['opt_level']:>3} {r.get('steps', 0):>6} "
            f"{r['lift_ms']:>8.1f}  {cert}"
        )
    lines += [
        "```",
        "",
        f"Lift rate: {lifted}/{len(rows)} configurations",
        f"({recompile} byte-identical recompile certificates; optimizer",
        "output usually lifts to an extensionally-equal but syntactically",
        "different model, e.g. pointer-strength-reduced loops come back as",
        "`RangedFor`).",
        "",
        "**Lift-validate overhead** (`-O1` wall-clock with vs without the",
        "end-to-end model cross-check):",
        "",
        "```",
        f"{'program':<8} {'plain ms':>9} {'+lift ms':>9} {'ratio':>6}",
    ]
    for r in overhead:
        lines.append(
            f"{r['program']:<8} {r['optimize_ms']:>9.1f} "
            f"{r['optimize_lift_validate_ms']:>9.1f} "
            f"{r['overhead_ratio']:>6.2f}"
        )
    lines += [
        "```",
        "",
        f"Worst-case overhead is {worst:.1f}x the plain `-O1` pipeline —",
        "the price of a check that catches whole-pipeline semantic drift",
        "the per-pass differential certificates and `repro lint` both miss",
        "(demonstrated by `python -m repro faults --lift`, which seeds a",
        "first-iteration loop-peel pass: per-pass validation under a",
        "non-boundary sampler accepts it, the dataflow lint accepts it, and",
        "the lifted model's boundary-first comparison rejects it on the",
        "empty input).",
        "",
    ]
    return "\n".join(lines)


def _sections(text: str) -> List[str]:
    """The ``## `` sections of a markdown text, each from its heading on."""
    starts = [m.start() for m in re.finditer(r"^## ", text, re.M)]
    return [text[a:b] for a, b in zip(starts, starts[1:] + [len(text)])]


def _key(section: str) -> str:
    """What a section reports: its heading up to the dash (``E3 (native)``)."""
    return section.split("\n", 1)[0][3:].split(" — ")[0]


def _number(section: str) -> Optional[int]:
    match = re.match(r"## E(\d+)", section)
    return int(match.group(1)) if match else None


def keep_unmeasured(sections: List[str], existing: str) -> List[str]:
    """``sections`` plus every ``## E…`` section of ``existing`` that none
    of them replaces, in number order: each goes after the last section
    numbered below it."""
    keys = {_key(section) for section in sections}
    kept = [s for s in _sections(existing) if _number(s) is not None and _key(s) not in keys]
    merged = list(sections)
    for section in sorted(kept, key=_number):
        below = [i for i, s in enumerate(merged)
                 if _number(s) is not None and _number(s) < _number(section)]
        merged.insert(below[-1] + 1 if below else 0, section.rstrip("\n") + "\n")
    return merged


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=2048)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)

    header = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerate this file with `python benchmarks/generate_report.py`;",
        "individual experiments run under pytest-benchmark via",
        "`pytest benchmarks/ --benchmark-only`.  The substitutions that make",
        "these measurements meaningful (simulator cost models instead of an i5,",
        "translation validation instead of Coq proofs) are tabulated in",
        "DESIGN.md §2; the per-experiment index is DESIGN.md §4.",
        "",
        f"Input size for Figure 2-style measurements: {args.size} bytes",
        "(per-byte costs for these streaming kernels are size-independent past",
        "a few hundred bytes; the paper used 1 MiB).",
        "",
    ]
    sections = [
        section_figure2(args.size),
        section_optimizer(args.size),
        section_resilience(),
        section_native(args.size),
        section_table1(),
        section_table2(),
        section_extraction(),
        section_compile_speed(),
        section_expr_ablation(),
        section_ablations(args.size),
        section_case_studies(),
        section_e8(),
        section_observability(),
        section_serving(),
        section_query(),
        section_supervised(),
        section_lift(),
    ]
    if os.path.exists(args.out):
        with open(args.out) as handle:
            sections = keep_unmeasured(sections, handle.read())
    with open(args.out, "w") as handle:
        handle.write("\n".join(header) + "\n" + "\n".join(sections))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
