"""E17 -- what the abstract-interpretation range engine buys the solver bank;
E21 -- what the errors-only lint saves the trust path.

Three claims, all gated:

1. **Fewer Fourier-Motzkin invocations.**  ``range_solver`` sits in the
   bank just before ``linear_arithmetic_solver`` and discharges
   range-shaped obligations (``nat.ltb``, ``word.ltu``, ...) from the
   fact-seeded interval map alone.  Compiling the whole registry with and
   without it in the roster, the FM call count must drop by at least
   ``FM_REDUCTION_FLOOR`` (30%).  The counts are deterministic -- no
   committed baseline file is needed; the ratio *is* the gate.

2. **The range cache changes nothing.**
   ``engine_config(range_cache=False)`` (:mod:`repro.config`) disables
   only the per-state caching of range maps; every verdict is recomputed
   identically, so compiled artifacts (AST fingerprint, certificate
   serialization, C output) must be byte-identical with the cache on or
   off, on the full corpus.

3. **The errors-only lint is a faster same verdict.**  On the 18
   functions the serve benchmark serves (9 Table 2 programs at ``-O0``
   and ``-O1``), ``lint_function(..., errors_only=True)`` must render
   exactly the error list of ``errors(lint_function(...))``.  On the
   ones that read no inline table -- where it skips the range fixpoint
   -- it must be at least ``LINT_SPEEDUP_FLOOR`` (2x) faster in the
   geometric mean; the table functions still run the fixpoint and are
   reported but not gated.  Both sides run alternately on the same host
   and each keeps its best of ``LINT_REPEATS`` timings, as ``bench_exec``
   does; the ratio is the gate.

Run as a module for the table / CI gate::

    python -m benchmarks.bench_absint --check
    python -m benchmarks.bench_absint --json

E17's two claims are also pinned as plain pytest tests, so tier-1 keeps
them; E21's identity is held by ``tests/analysis/test_lint_errors_only.py``.
"""

import json
import math
import sys
import time

from repro.obs.trace import Tracer, use_tracer

# The E17 gate: range_solver must absorb at least this fraction of the
# corpus's Fourier-Motzkin invocations.
FM_REDUCTION_FLOOR = 0.30

# The E21 gate: errors-only over full lint, geomean over the table-free
# served functions.
LINT_SPEEDUP_FLOOR = 2.0
LINT_REPEATS = 7

FM_KEY = "solver.calls.linear_arithmetic_solver"
RANGE_CALLS_KEY = "solver.calls.range_solver"
RANGE_WINS_KEY = "solver.hits.range_solver"


def _registry_cases():
    from repro.programs.registry import all_programs

    return [(p.name, p.build_model(), p.build_spec()) for p in all_programs()]


def _compile_corpus(bank_solvers=None):
    """Fresh-compile every registry program; return summed solver counters."""
    from repro.core.solver import SolverBank
    from repro.stdlib import default_engine

    totals = {}
    for name, model, spec in _registry_cases():
        engine = default_engine()
        if bank_solvers is not None:
            engine.solvers = SolverBank(list(bank_solvers))
        tracer = Tracer(name=f"absint-bench:{name}")
        with use_tracer(tracer):
            engine.compile_function(model, spec)
        for key, value in tracer.metrics.to_dict()["counters"].items():
            if key.startswith(("solver.", "absint.")):
                totals[key] = totals.get(key, 0) + value
    return totals


def measure_fm_reduction() -> dict:
    """E17 payload: FM call counts with and without range_solver."""
    from repro.core.solver import DEFAULT_SOLVERS, range_solver

    with_range = _compile_corpus()
    ablated_roster = [s for s in DEFAULT_SOLVERS if s is not range_solver]
    without_range = _compile_corpus(ablated_roster)
    fm_with = with_range.get(FM_KEY, 0)
    fm_without = without_range.get(FM_KEY, 0)
    reduction = 1.0 - fm_with / fm_without if fm_without else 0.0
    return {
        "experiment": "E17",
        "programs": len(_registry_cases()),
        "fm_calls_without_range_solver": fm_without,
        "fm_calls_with_range_solver": fm_with,
        "fm_reduction": round(reduction, 3),
        "fm_reduction_floor": FM_REDUCTION_FLOOR,
        "range_solver_calls": with_range.get(RANGE_CALLS_KEY, 0),
        "range_solver_wins": with_range.get(RANGE_WINS_KEY, 0),
        "absint_cache_hits": with_range.get("absint.map.hit", 0),
        "absint_cache_misses": with_range.get("absint.map.miss", 0),
    }


def _corpus_fingerprints() -> dict:
    """name -> (AST fingerprint, serialized certificate, C text) per program."""
    from repro.bedrock2 import ast as b2
    from repro.bedrock2.c_printer import print_c_function
    from repro.stdlib import default_engine

    out = {}
    for name, model, spec in _registry_cases():
        compiled = default_engine().compile_function(model, spec)
        out[name] = (
            b2.fingerprint(compiled.bedrock_fn),
            json.dumps(compiled.certificate.to_dict(), sort_keys=True),
            print_c_function(compiled.bedrock_fn),
        )
    return out


def measure_range_cache_identity() -> dict:
    """Recompile the corpus with the absint cache off; diff every artifact."""
    from repro.config import engine_config

    with engine_config(range_cache=True):
        cached = _corpus_fingerprints()
    with engine_config(range_cache=False):
        uncached = _corpus_fingerprints()
    mismatches = sorted(
        name for name in cached if cached[name] != uncached.get(name)
    )
    return {
        "programs": len(cached),
        "byte_identical": not mismatches,
        "mismatches": mismatches,
    }


def measure_lint_speedup(repeats: int = LINT_REPEATS) -> dict:
    """E21 payload: full vs errors-only lint on the 18 served functions."""
    from repro.analysis.dataflow import lint_function
    from repro.analysis.diagnostics import errors
    from repro.bedrock2 import ast as b2
    from repro.programs import all_programs

    def timed(fn, spec, errors_only):
        start = time.perf_counter()
        found = lint_function(fn, spec, errors_only=errors_only)
        if not errors_only:
            found = errors(found)
        return (time.perf_counter() - start) * 1000.0, [d.render() for d in found]

    rows = []
    for program in all_programs():
        for level in (0, 1):
            compiled = program.compile(opt_level=level)
            fn, spec = compiled.bedrock_fn, compiled.spec
            full_ms = fast_ms = math.inf
            for _ in range(repeats):
                ms, full = timed(fn, spec, errors_only=False)
                full_ms = min(full_ms, ms)
                ms, fast = timed(fn, spec, errors_only=True)
                fast_ms = min(fast_ms, ms)
            rows.append({
                "function": f"{program.name} -O{level}",
                "full_ms": round(full_ms, 3),
                "errors_only_ms": round(fast_ms, 3),
                "speedup": round(full_ms / fast_ms, 2),
                "tables": bool(b2.inline_tables(fn.body)),
                "identical": full == fast,
            })

    def geomean(subset):
        return round(
            math.exp(
                sum(math.log(r["full_ms"] / r["errors_only_ms"]) for r in subset)
                / len(subset)
            ),
            2,
        )

    return {
        "experiment": "E21",
        "repeats": repeats,
        "rows": rows,
        "geomean_speedup": geomean([r for r in rows if not r["tables"]]),
        "geomean_speedup_all": geomean(rows),
        "speedup_floor": LINT_SPEEDUP_FLOOR,
        "identical": all(r["identical"] for r in rows),
    }


def render_lint_speedup(report: dict) -> str:
    lines = [
        f"E21: errors-only vs full lint, {len(report['rows'])} served functions, "
        f"min of {report['repeats']}",
        f"{'function':<12} {'full ms':>8} {'errors-only ms':>15} {'speedup':>8}  "
        "tables  same",
    ]
    for r in report["rows"]:
        lines.append(
            f"{r['function']:<12} {r['full_ms']:>8.3f} {r['errors_only_ms']:>15.3f} "
            f"{r['speedup']:>7.2f}x  {'yes' if r['tables'] else 'no':>6}  "
            f"{'yes' if r['identical'] else 'NO'}"
        )
    lines.append(
        f"geomean speedup, table-free {report['geomean_speedup']:.2f}x "
        f"(floor {LINT_SPEEDUP_FLOOR:.1f}x), all {report['geomean_speedup_all']:.2f}x"
    )
    return "\n".join(lines)


# -- pytest pins (tier-1 keeps the E17 claims) -------------------------------


def test_range_solver_reduces_fm_invocations():
    measured = measure_fm_reduction()
    assert measured["fm_calls_without_range_solver"] > 0
    assert measured["fm_reduction"] >= FM_REDUCTION_FLOOR, measured


def test_range_cache_is_byte_identical():
    report = measure_range_cache_identity()
    assert report["byte_identical"], report["mismatches"]


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="E17: absint range solver vs Fourier-Motzkin, range-cache "
        "identity; E21: errors-only vs full lint"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate: fail below the 30%% FM-reduction floor, on any "
        "range-cache artifact mismatch, below the 2x errors-only lint "
        "speedup on table-free functions or on any lint verdict mismatch",
    )
    args = parser.parse_args()
    measured = measure_fm_reduction()
    identity = measure_range_cache_identity()
    lint = measure_lint_speedup()
    if args.json:
        print(
            json.dumps({"e17": measured, "range_cache": identity, "e21": lint}, indent=2)
        )
    else:
        print(
            f"E17: {measured['programs']} programs  "
            f"FM calls {measured['fm_calls_without_range_solver']} -> "
            f"{measured['fm_calls_with_range_solver']}  "
            f"(reduction {measured['fm_reduction']:.0%}, floor "
            f"{FM_REDUCTION_FLOOR:.0%})"
        )
        print(
            f"     range_solver: {measured['range_solver_wins']}/"
            f"{measured['range_solver_calls']} obligations won  "
            f"cache {measured['absint_cache_hits']} hit(s) / "
            f"{measured['absint_cache_misses']} miss(es)"
        )
        print(
            "     range cache: artifacts byte-identical"
            if identity["byte_identical"]
            else f"     range cache: MISMATCH on {identity['mismatches']}"
        )
        print()
        print(render_lint_speedup(lint))
    if args.check:
        failures = []
        if measured["fm_reduction"] < FM_REDUCTION_FLOOR:
            failures.append(
                f"FM reduction {measured['fm_reduction']:.0%} below floor "
                f"{FM_REDUCTION_FLOOR:.0%}"
            )
        if not identity["byte_identical"]:
            failures.append(
                "range cache changed artifacts: " + ", ".join(identity["mismatches"])
            )
        if not lint["identical"]:
            bad = [r["function"] for r in lint["rows"] if not r["identical"]]
            failures.append("errors-only lint disagrees on " + ", ".join(bad))
        if lint["geomean_speedup"] < LINT_SPEEDUP_FLOOR:
            failures.append(
                f"errors-only lint geomean speedup on table-free functions "
                f"{lint['geomean_speedup']:.2f}x below {LINT_SPEEDUP_FLOOR:.1f}x"
            )
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
        print("E17/E21 gates: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
