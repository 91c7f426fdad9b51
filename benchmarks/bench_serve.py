"""E12/E14 -- `repro.serve`: warm-cache latency, batch throughput, and
supervised-pool serving under concurrent clients.

The paper's determinism argument (§3.2) makes derivations memoizable;
this benchmark quantifies what that buys.  Two measurements:

- **cold vs warm latency** per registry program: a cold compile runs the
  full proof search (and, at ``-O1``, the translation-validated
  optimizer); a first warm request decodes the stored entry,
  digest-checks it, and re-runs the trusted checkers; a repeat request
  on the same bytes reads and hashes the file and is served from the
  handle's checked-entry table.  The acceptance bar from
  the issue is a >=5x suite-level speedup *with re-validation on* --
  memoization must not come at the price of trusting the disk.
- **batch throughput** of a 200-job fuzz corpus, cold into a fresh
  cache and then warm, at ``--jobs`` 1 and 2, each run in a fresh
  process.  The jobs are embarrassingly parallel, so on a multi-core
  host this scales with cores; :func:`check_scaling` fails when
  ``--jobs 2`` is slower than ``--jobs 1`` (CI's ``batch-smoke`` job).
- **supervised serving under concurrent clients** (E14): warm compile
  requests through the fault-tolerant worker pool
  (``repro.serve.supervisor``) at 1 and 8 concurrent clients --
  p50/p99 latency and aggregate throughput, which prices the whole
  robustness stack (IPC round-trip, admission control, deadline
  plumbing) relative to an in-process warm load.

``python -m benchmarks.bench_serve`` writes the measurements as a JSON
baseline (consumed by ``generate_report.py`` when present, so the
expensive supervised runs are not repeated per report build).
"""

import json
import math
import shutil
import statistics
import tempfile
import threading
import time
from typing import Dict, List, Tuple

import pytest

from repro.programs import all_programs
from repro.serve.cache import CompilationCache, compile_program_cached
from repro.stdlib import default_engine


def cold_warm_latencies(opt_level: int = 1) -> List[Tuple[str, float, float, float]]:
    """Per program: (name, cold_ms, warm_ms, repeat_ms) through one fresh cache.

    ``warm_ms`` is the first hit, which runs the whole load check;
    ``repeat_ms`` is the second hit on the same bytes, which the handle
    serves from its checked-entry table.  The per-process constants
    (lemma databases, each program's model, spec and key) are built
    untimed first, as a serve worker's ``warm_up`` builds them before its
    first request, so the first program's cold time is its compile alone.
    """
    root = tempfile.mkdtemp(prefix="serve_bench_")
    try:
        cache = CompilationCache(root)
        engine = default_engine()
        programs = all_programs()
        for program in programs:
            cache.program_inputs(program, engine, opt_level)
        rows = []
        for program in programs:
            start = time.perf_counter()
            _, outcome = compile_program_cached(cache, program, opt_level=opt_level)
            cold_ms = (time.perf_counter() - start) * 1000
            assert outcome == "miss"
            start = time.perf_counter()
            _, outcome = compile_program_cached(cache, program, opt_level=opt_level)
            warm_ms = (time.perf_counter() - start) * 1000
            assert outcome == "hit"
            start = time.perf_counter()
            _, outcome = compile_program_cached(cache, program, opt_level=opt_level)
            repeat_ms = (time.perf_counter() - start) * 1000
            assert outcome == "hit"
            rows.append((program.name, cold_ms, warm_ms, repeat_ms))
        return rows
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _percentile(samples: List[float], q: float) -> float:
    """The q-th percentile by linear interpolation (q in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] * (1 - frac) + ordered[high] * frac


def supervised_latencies(
    client_counts=(1, 8),
    requests_per_client: int = 25,
    workers: int = 2,
    queue_depth: int = 32,
) -> List[dict]:
    """Warm compile latency/throughput through the supervised pool.

    Each configuration hammers one pool (pre-warmed cache, so workers
    serve re-validated cache hits) with ``client_counts`` concurrent
    client threads issuing ``requests_per_client`` compile requests
    each.  Reported per row: client count, p50/p99 latency (ms), and
    aggregate throughput (requests/s).  ``queue_depth`` is sized above
    the client count so admission control never sheds during the
    measurement -- backpressure behaviour has its own tests; this
    measures the happy path's price.
    """
    from repro.programs import all_programs
    from repro.serve.supervisor import Supervisor, SupervisorConfig

    names = [p.name for p in all_programs()]
    rows: List[dict] = []
    root = tempfile.mkdtemp(prefix="serve_bench_sup_")
    try:
        config = SupervisorConfig(
            workers=workers, request_timeout=60.0, queue_depth=queue_depth
        )
        with Supervisor(config, cache_dir=root, allow_test_ops=False) as sup:
            for name in names:  # pre-warm the cache through the pool
                response = sup.submit({"op": "compile", "program": name})
                assert response["ok"], response
            for clients in client_counts:
                latencies: List[float] = []
                failures: List[dict] = []
                lock = threading.Lock()

                def client(client_index: int) -> None:
                    for i in range(requests_per_client):
                        program = names[(client_index + i) % len(names)]
                        start = time.perf_counter()
                        response = sup.submit({"op": "compile", "program": program})
                        elapsed_ms = (time.perf_counter() - start) * 1000
                        with lock:
                            if response.get("ok"):
                                latencies.append(elapsed_ms)
                            else:
                                failures.append(response)

                threads = [
                    threading.Thread(target=client, args=(c,)) for c in range(clients)
                ]
                wall_start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall_s = time.perf_counter() - wall_start
                assert not failures, failures[:3]
                rows.append(
                    {
                        "clients": clients,
                        "requests": len(latencies),
                        "p50_ms": round(_percentile(latencies, 50), 3),
                        "p99_ms": round(_percentile(latencies, 99), 3),
                        "mean_ms": round(statistics.fmean(latencies), 3),
                        "throughput_rps": round(len(latencies) / wall_s, 1),
                        "workers": workers,
                    }
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return rows


BASELINE_PATH = "benchmarks/serve_baseline.json"


def write_baseline(path: str = BASELINE_PATH) -> dict:
    """Measure everything and persist the JSON baseline for reports."""
    cold_warm = cold_warm_latencies(opt_level=1)
    payload = {
        "schema": 1,
        "cold_warm": [
            {
                "program": name,
                "cold_ms": round(c, 3),
                "warm_ms": round(w, 3),
                "repeat_ms": round(r, 3),
            }
            for name, c, w, r in cold_warm
        ],
        "batch_throughput": {
            str(jobs): {kind: round(value, 2) for kind, value in rate.items()}
            for jobs, rate in batch_throughputs().items()
        },
        "supervised": supervised_latencies(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def test_warm_cache_speedup_meets_the_bar():
    """Suite-level warm speedup >=5x, re-validation included (issue AC)."""
    rows = cold_warm_latencies(opt_level=1)
    cold = sum(r[1] for r in rows)
    warm = sum(r[2] for r in rows)
    assert warm > 0
    assert cold / warm >= 5.0, f"warm speedup only {cold / warm:.1f}x (cold {cold:.1f}ms, warm {warm:.1f}ms)"


@pytest.mark.benchmark(group="serve-cold")
def test_cold_compile_suite(benchmark):
    def cold():
        root = tempfile.mkdtemp(prefix="serve_cold_")
        try:
            cache = CompilationCache(root)
            for program in all_programs():
                compile_program_cached(cache, program, opt_level=1)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    benchmark(cold)


@pytest.mark.benchmark(group="serve-warm")
def test_warm_cache_suite(benchmark):
    root = tempfile.mkdtemp(prefix="serve_warm_")
    try:
        cache = CompilationCache(root)
        for program in all_programs():
            compile_program_cached(cache, program, opt_level=1)

        def warm():
            for program in all_programs():
                _, outcome = compile_program_cached(cache, program, opt_level=1)
                assert outcome == "hit"

        benchmark(warm)
    finally:
        shutil.rmtree(root, ignore_errors=True)


#: The ``--check`` gate: geometric mean over the Table 2 programs of each
#: one's cold/first-warm-hit latency ratio at ``-O1``, re-validation on.
#: The first hit runs the whole load check; the repeat hit is reported only.
WARM_SPEEDUP_FLOOR = 10.0


def geomean_speedup(rows: List[Tuple[str, float, float, float]]) -> float:
    return math.exp(
        statistics.fmean(math.log(cold / warm) for _, cold, warm, _repeat in rows)
    )


def check() -> int:
    """Print the per-program cold/warm table; 1 if below the floor."""
    rows = cold_warm_latencies(opt_level=1)
    for name, cold, warm, repeat in rows:
        print(
            f"{name:8s} cold {cold:8.1f} ms  warm {warm:6.2f} ms  {cold / warm:6.1f}x"
            f"  repeat {repeat:6.3f} ms"
        )
    ratio = geomean_speedup(rows)
    ok = ratio >= WARM_SPEEDUP_FLOOR
    print(
        f"E12 gate: geomean cold/warm {ratio:.1f}x "
        f"(floor {WARM_SPEEDUP_FLOOR:.0f}x): {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


#: The batch rows of E12 and the scaling gate: a cold-then-warm pass over
#: a fuzz corpus of this many jobs, at each ``--jobs`` count, each run in
#: a fresh process so it pays its own per-process constants.  Worker
#: counts alternate, ``SCALING_RUNS`` runs each.
SCALING_JOBS = 200
SCALING_RUNS = 3

_SCALING_CHILD = """
import json, shutil, sys, tempfile
from repro.serve.batch import fuzz_manifest, run_batch
jobs_n, count, seed = map(int, sys.argv[1:])
jobs = fuzz_manifest(seed=seed, count=count)
root = tempfile.mkdtemp(prefix="serve_scaling_")
try:
    cold = run_batch(jobs, jobs_n=jobs_n, cache_dir=root)
    warm = run_batch(jobs, jobs_n=jobs_n, cache_dir=root)
    walls = [cold.wall_s, warm.wall_s]
finally:
    shutil.rmtree(root, ignore_errors=True)
print(json.dumps(walls))
"""


def scaling_run(jobs_n: int, seed: int) -> Tuple[float, float]:
    """Cold and warm wall seconds of one batch pass pair, in a fresh process."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", _SCALING_CHILD, str(jobs_n), str(SCALING_JOBS), str(seed)],
        check=True, capture_output=True, text=True,
    ).stdout
    cold_s, warm_s = json.loads(out)
    return cold_s, warm_s


def batch_throughputs() -> Dict[int, Dict[str, float]]:
    """Median jobs/s at ``--jobs`` 1 and 2: ``cold``, ``warm`` and ``total``
    (both passes over their summed wall time)."""
    walls: Dict[int, List[Tuple[float, float]]] = {1: [], 2: []}
    for seed in range(SCALING_RUNS):
        for jobs_n, samples in walls.items():
            samples.append(scaling_run(jobs_n, seed))
    n = SCALING_JOBS
    return {
        jobs_n: {
            "cold": statistics.median(n / c for c, _ in samples),
            "warm": statistics.median(n / w for _, w in samples),
            "total": statistics.median(2 * n / (c + w) for c, w in samples),
        }
        for jobs_n, samples in walls.items()
    }


def check_scaling() -> int:
    """Print the batch rows and the ``--jobs 2`` / ``--jobs 1`` ratio of
    cold-plus-warm throughput; 1 if ``--jobs 2`` is slower."""
    rates = batch_throughputs()
    for jobs_n, rate in rates.items():
        print(f"--jobs {jobs_n}: cold {rate['cold']:6.0f}  warm {rate['warm']:6.0f}  "
              f"cold+warm {rate['total']:6.0f} jobs/s ({SCALING_JOBS} fuzz jobs, "
              f"median of {SCALING_RUNS} fresh processes)")
    ratio = rates[2]["total"] / rates[1]["total"]
    ok = ratio >= 1.0
    print(f"batch scaling gate: --jobs 2 / --jobs 1 = {ratio:.2f} (floor 1.00): "
          f"{'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=BASELINE_PATH)
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate: fail below the 10x geomean cold/warm speedup at -O1 "
        "(cold/warm rows only; writes no baseline)",
    )
    args = parser.parse_args()
    if args.check:
        return check()
    payload = write_baseline(args.out)
    for row in payload["supervised"]:
        print(
            f"{row['clients']} client(s): p50 {row['p50_ms']:.1f}ms "
            f"p99 {row['p99_ms']:.1f}ms {row['throughput_rps']:.1f} req/s"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
