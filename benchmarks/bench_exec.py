"""E18/E19 -- generated executor and generated model evaluator vs their tree-walkers.

E18: ``Interpreter.call_function`` runs Bedrock2 function bodies on the
generated executor (:mod:`repro.bedrock2.closures`, one generated Python
function per Bedrock2 function); the tree-walker oracle
(``tests/bedrock2/tree_walker.py``) walks the AST.  This benchmark runs
the ``-O1`` code of the 9 Table 2 programs on a seeded 16 KiB input
under both, driven per calling style as ``benchmarks/figure2.py`` does,
and reports the min-of-3 wall time of each.  Since both sides call
``Memory``, a slower ``Memory.load``/``store`` raises the ratio without
making the executor faster, so each row also reports the executor's own
time at the reference host speed: its ms divided by a
``benchmarks.pipeline.harness.HostSpeed`` reading taken around the row
(``ref ms``; reported, not gated).  Each row also reports what a fresh
executor costs: the µs to emit its source, the µs ``compile()`` takes on
it and its size in bytes, best of the repeats (reported, not gated).
``--fresh`` reports the same three over the 150 seeded fuzz functions
(``generate_case(Random(7000 + i), i)``) instead of the tables.  For the
programs called once per 4-byte window (the scalar and window calling
styles, m3s and utf8), E18 also reports the µs per ``Interpreter.run``
call and the share of it spent inside the generated ``run``, timed on
its own on the same arguments (reported, not gated).

E19: ``Evaluator.eval`` runs functional models compiled into generated
Python functions (:mod:`repro.source.closures`, one per model and width;
E27); the tree-walker oracle
(``tests/source/tree_walker.py``) walks the term.  This benchmark
evaluates the models of the 9 Table 2 and 8 query programs on seeded
validation inputs under both and reports the min-of-3 wall time of each.

The gate (``--check``) is a ratio, not raw milliseconds, as
``dispatch_baseline.json`` is: both sides run on the same host, so only
their relative speed is compared.  It fails when the geometric mean of
tree-walker ÷ fast-path time is below ``EXECUTOR_FLOOR`` (15×) in E18 or
``EVALUATOR_FLOOR`` (15×) in E19, or when the two sides disagree on any
result (for E18 also on any op count; for E19 also on any step count).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.bench_exec --check
    PYTHONPATH=src python -m benchmarks.bench_exec --json --size 4096
    PYTHONPATH=src python -m benchmarks.bench_exec --fresh
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.bedrock2 import ast as b2
from repro.bedrock2 import closures
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import Interpreter, MachineState
from repro.bedrock2.word import Word
from repro.core.goals import CompileError
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.resilience.generator import generate_case
from repro.source.evaluator import EvalError, Evaluator
from repro.stdlib import default_engine
from benchmarks.pipeline.harness import HostSpeed
from repro.validation.runners import make_inputs, run_function
from tests.bedrock2.tree_walker import TreeWalker
from tests.source.tree_walker import TreeWalker as TreeWalkerEvaluator

EXECUTOR_FLOOR = 15.0
EVALUATOR_FLOOR = 15.0
DEFAULT_SIZE = 16 * 1024
REPEATS = 3
MODEL_INPUTS = 40  # seeded validation inputs per model


def _driver(program, fn: b2.Function, spec, data: bytes) -> Callable[[type], Tuple]:
    """``run(cls) -> (result, op counts)`` for one program and input."""
    style = program.calling_style
    if style in ("hash", "inplace"):

        def run_buffer(cls):
            result = run_function(fn, spec, {"s": list(data)}, interpreter_cls=cls)
            value = result.out_memory["s"] if style == "inplace" else result.rets
            return value, result.counts.as_dict()

        return run_buffer

    def run_windows(cls):
        interp = cls(b2.Program((fn,)))
        memory = None
        if style == "window":
            memory = Memory()
            base = memory.place_bytes(data)
        acc = 0
        for offset in range(0, len(data) - 3, 4):
            if style == "scalar":
                args = [Word(64, int.from_bytes(data[offset : offset + 4], "little"))]
            else:
                args = [Word(64, base), Word(64, len(data)), Word(64, offset)]
            rets, _ = interp.run(fn.name, args, memory=memory)
            acc ^= rets[0].unsigned
        return acc, interp.counts.as_dict()

    return run_windows


def _windows(style: str, data: bytes, base: int) -> List[Tuple[int, ...]]:
    """The argument ints of each per-window call, as ``_driver`` makes them."""
    if style == "scalar":
        return [(int.from_bytes(data[offset : offset + 4], "little"),)
                for offset in range(0, len(data) - 3, 4)]
    return [(base, len(data), offset) for offset in range(0, len(data) - 3, 4)]


def call_cost(program, fn: b2.Function, data: bytes, repeats: int = REPEATS) -> Dict:
    """µs per ``Interpreter.run`` call of a per-window program, and the
    share of it the generated ``run`` takes on the same arguments (best
    of ``repeats`` each, alternated)."""
    style = program.calling_style
    run = _driver(program, fn, None, data)
    memory = Memory()
    calls = _windows(style, data, memory.place_bytes(data) if style == "window" else 0)
    interp = Interpreter(b2.Program((fn,)))
    state = MachineState(memory)
    generated = closures.compiled(fn, 64).run
    fuel = Interpreter.DEFAULT_FUEL
    call_us = run_us = math.inf
    for _ in range(repeats):
        call_us = min(call_us, _timed(run, Interpreter)[0] * 1000 / len(calls))
        start = time.perf_counter()
        for args in calls:
            generated(interp, state, fuel, *args)
        run_us = min(run_us, (time.perf_counter() - start) * 1e6 / len(calls))
    return {"program": program.name, "style": style, "calls": len(calls),
            "call_us": round(call_us, 2), "run_us": round(run_us, 2),
            "run_share": round(run_us / call_us, 3)}


def _timed(run: Callable[[type], Tuple], cls: type) -> Tuple[float, Tuple]:
    start = time.perf_counter()
    outcome = run(cls)
    return (time.perf_counter() - start) * 1000.0, outcome


def code_cost(fn: b2.Function, repeats: int = REPEATS, width: int = 64) -> Dict:
    """Emit µs, ``compile()`` µs and source bytes of ``fn``'s executor,
    best of ``repeats``; neither cache is consulted."""
    emit_us = compile_us = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        source = closures._Generator(fn, width).generate()[0]
        middle = time.perf_counter()
        compile(source, "<bedrock2>", "exec")
        end = time.perf_counter()
        emit_us = min(emit_us, (middle - start) * 1e6)
        compile_us = min(compile_us, (end - middle) * 1e6)
    return {"emit_us": round(emit_us, 1), "compile_us": round(compile_us, 1),
            "source_bytes": len(source.encode())}


def measure_fresh(count: int = 150, repeats: int = REPEATS) -> Dict:
    """:func:`code_cost` summed over the first ``count`` seeded fuzz functions."""
    engine = default_engine()
    totals = {"functions": 0, "emit_us": 0.0, "compile_us": 0.0, "source_bytes": 0}
    for index in range(count):
        case = generate_case(random.Random(7000 + index), index)
        try:
            fn = engine.compile_function(case.model, case.spec).bedrock_fn
        except CompileError:
            continue
        totals["functions"] += 1
        for key, value in code_cost(fn, repeats).items():
            totals[key] += value
    return {key: round(value, 1) for key, value in totals.items()}


def measure(size: int = DEFAULT_SIZE, repeats: int = REPEATS, seed: int = 0) -> Dict:
    rows: List[Dict] = []
    calls: List[Dict] = []
    host = HostSpeed()
    for program in all_programs():
        compiled = program.compile(opt_level=1)
        data = program.gen_input(random.Random(f"{seed}-{program.name}"), size)
        run = _driver(program, compiled.bedrock_fn, compiled.spec, data)
        # Alternate the executors so a slow spell of the host hits both.
        tree_ms = fast_ms = math.inf
        for _ in range(repeats):
            ms, tree_out = _timed(run, TreeWalker)
            tree_ms = min(tree_ms, ms)
            ms, fast_out = _timed(run, Interpreter)
            fast_ms = min(fast_ms, ms)
        slowness = host.interval()
        rows.append({
            "program": program.name,
            "style": program.calling_style,
            "ops": sum(fast_out[1].values()),
            "tree_ms": round(tree_ms, 2),
            "executor_ms": round(fast_ms, 2),
            "executor_ref_ms": round(fast_ms / slowness, 2),
            "speedup": round(tree_ms / fast_ms, 2),
            "identical": tree_out == fast_out,
            **code_cost(compiled.bedrock_fn, repeats),
        })
        if program.calling_style in ("scalar", "window"):
            calls.append(call_cost(program, compiled.bedrock_fn, data, repeats))
    geomean = math.exp(sum(math.log(r["tree_ms"] / r["executor_ms"]) for r in rows) / len(rows))
    return {
        "experiment": "E18",
        "floor": EXECUTOR_FLOOR,
        "size": size,
        "repeats": repeats,
        "rows": rows,
        "calls": calls,
        "geomean_speedup": round(geomean, 2),
        "executor_ref_ms": round(sum(r["executor_ref_ms"] for r in rows), 2),
        "identical": all(r["identical"] for r in rows),
    }


def _evaluate_all(term, inputs: List[Dict], cls: type) -> List[Tuple]:
    """``(value or error, steps)`` of ``term`` on every input."""
    outcomes = []
    for params in inputs:
        evaluator = cls()
        try:
            value = evaluator.eval(term, params)
        except EvalError as error:
            value = ("error", str(error))
        outcomes.append((value, evaluator._steps))
    return outcomes


def measure_models(repeats: int = REPEATS, seed: int = 0) -> Dict:
    rows: List[Dict] = []
    for program in all_programs() + all_query_programs():
        model = program.build_model()
        gen = program.validation_input_gen() or (
            lambda rng, model=model: make_inputs(model, rng, array_len=rng.randrange(48))
        )
        rng = random.Random(f"{seed}-{program.name}")
        inputs = [gen(rng) for _ in range(MODEL_INPUTS)]

        def run(cls, term=model.term, inputs=inputs):
            return _evaluate_all(term, inputs, cls)

        tree_ms = fast_ms = math.inf
        for _ in range(repeats):
            ms, tree_out = _timed(run, TreeWalkerEvaluator)
            tree_ms = min(tree_ms, ms)
            ms, fast_out = _timed(run, Evaluator)
            fast_ms = min(fast_ms, ms)
        rows.append({
            "program": program.name,
            "steps": sum(steps for _, steps in fast_out),
            "tree_ms": round(tree_ms, 3),
            "evaluator_ms": round(fast_ms, 3),
            "speedup": round(tree_ms / fast_ms, 2),
            "identical": tree_out == fast_out,
        })
    geomean = math.exp(sum(math.log(r["tree_ms"] / r["evaluator_ms"]) for r in rows) / len(rows))
    return {
        "experiment": "E19",
        "floor": EVALUATOR_FLOOR,
        "inputs": MODEL_INPUTS,
        "repeats": repeats,
        "rows": rows,
        "geomean_speedup": round(geomean, 2),
        "identical": all(r["identical"] for r in rows),
    }


def render(report: Dict) -> str:
    lines = [
        f"E18: generated executor vs tree-walker, -O1, {report['size']} B inputs, "
        f"min of {report['repeats']}",
        f"{'program':<8} {'style':<8} {'ops':>9} {'tree ms':>9} {'executor ms':>12} "
        f"{'ref ms':>8} {'speedup':>8}  same {'emit us':>8} {'compile us':>11} {'bytes':>6}",
    ]
    for r in report["rows"]:
        lines.append(
            f"{r['program']:<8} {r['style']:<8} {r['ops']:>9} {r['tree_ms']:>9.1f} "
            f"{r['executor_ms']:>12.1f} {r['executor_ref_ms']:>8.1f} "
            f"{r['speedup']:>7.2f}x  {'yes' if r['identical'] else 'NO':<4} "
            f"{r['emit_us']:>8.0f} {r['compile_us']:>11.0f} {r['source_bytes']:>6}"
        )
    lines.append(
        f"geomean speedup {report['geomean_speedup']:.2f}x (floor {report['floor']:.1f}x); "
        f"executor at the reference host speed {report['executor_ref_ms']:.1f} ms in all"
    )
    lines.append(f"per-window calls: {'program':<8} {'style':<8} {'calls':>6} "
                 f"{'us/call':>8} {'run us':>7} {'in run':>7}")
    for r in report["calls"]:
        lines.append(
            f"{'':<18}{r['program']:<8} {r['style']:<8} {r['calls']:>6} {r['call_us']:>8.2f} "
            f"{r['run_us']:>7.2f} {r['run_share']:>6.0%}"
        )
    return "\n".join(lines)


def render_models(report: Dict) -> str:
    lines = [
        f"E19: generated model evaluator vs tree-walker, functional models, "
        f"{report['inputs']} seeded inputs each, min of {report['repeats']}",
        f"{'program':<15} {'steps':>8} {'tree ms':>9} {'evaluator ms':>13} {'speedup':>8}  same",
    ]
    for r in report["rows"]:
        lines.append(
            f"{r['program']:<15} {r['steps']:>8} {r['tree_ms']:>9.2f} "
            f"{r['evaluator_ms']:>13.2f} {r['speedup']:>7.2f}x  {'yes' if r['identical'] else 'NO'}"
        )
    lines.append(
        f"geomean speedup {report['geomean_speedup']:.2f}x (floor {report['floor']:.1f}x)"
    )
    return "\n".join(lines)


def gate_failures(report: Dict, what: str) -> List[str]:
    failures = []
    if not report["identical"]:
        bad = [r["program"] for r in report["rows"] if not r["identical"]]
        failures.append(f"{report['experiment']}: {what} disagree on {', '.join(bad)}")
    if report["geomean_speedup"] < report["floor"]:
        failures.append(
            f"{report['experiment']}: geomean speedup {report['geomean_speedup']:.2f}x "
            f"below {report['floor']:.1f}x"
        )
    return failures


def test_executors_agree_on_small_inputs():
    report = measure(size=256, repeats=1)
    assert report["identical"], report["rows"]


def test_evaluators_agree():
    report = measure_models(repeats=1)
    assert report["identical"], report["rows"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=DEFAULT_SIZE, help="input bytes")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--fresh", action="store_true",
        help="only the executor's emit, compile() and source size over 150 fuzz functions",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"fail below a {EXECUTOR_FLOOR:.0f}x (E18) or {EVALUATOR_FLOOR:.0f}x (E19) "
        "geomean speedup or on any mismatch",
    )
    args = parser.parse_args(argv)
    if args.fresh:
        fresh = measure_fresh(repeats=args.repeats)
        print(json.dumps(fresh) if args.json else
              f"fresh executors of {fresh['functions']} fuzz functions, best of "
              f"{args.repeats}: emit {fresh['emit_us'] / 1000:.1f} ms, compile() "
              f"{fresh['compile_us'] / 1000:.1f} ms, source {fresh['source_bytes']} bytes")
        return 0
    executor = measure(size=args.size, repeats=args.repeats)
    evaluator = measure_models(repeats=args.repeats)
    if args.json:
        print(json.dumps({"E18": executor, "E19": evaluator}, indent=2))
    else:
        print(render(executor))
        print()
        print(render_models(evaluator))
    if not args.check:
        return 0
    failures = gate_failures(executor, "executors") + gate_failures(evaluator, "evaluators")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print("E18/E19 gates: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
