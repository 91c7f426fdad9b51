"""The parallel batch compiler.

A batch is a manifest of :class:`BatchJob` descriptions -- registry
programs and/or seeded fuzz-corpus cases -- each compiled (and, for
``opt_level > 0``, run through the translation-validated optimizer)
under its own fuel/deadline :class:`~repro.resilience.budget.Budget`.
With ``jobs_n > 1`` the batch fans out over a process pool in chunks
(:func:`~repro.resilience.campaign.ordered_map`); every worker gets only
picklable inputs (a frozen :class:`BatchJob` plus a
:class:`~repro.resilience.budget.BudgetSpec`) and rebuilds models,
specs, and input generators deterministically on its side of the
process boundary -- fuzz cases are regenerated from ``(seed, index)``
exactly as ``repro fuzz`` would draw them.

All workers may share one :class:`~repro.serve.cache.CompilationCache`
directory, each pool worker through one handle it keeps across its
jobs: stores are atomic (``os.replace``), so concurrent writers never
publish a torn entry, and a batch re-run over a warm cache is pure
re-validation.  Stalls keep their structured taxonomy slugs from
:class:`~repro.core.goals.StallReport`, so the aggregate report shows
*why* the rejected fraction of a corpus was rejected.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.goals import CompileError, ResourceExhausted
from repro.resilience.budget import BudgetSpec
from repro.resilience.campaign import Lost, ordered_map
from repro.serve.cache import CacheStats, CompilationCache

DEFAULT_FUEL = 200_000
DEFAULT_DEADLINE = 20.0  # seconds per job, measured from job start


@dataclass(frozen=True)
class BatchJob:
    """One unit of batch work; frozen and picklable by construction.

    ``kind`` is ``"program"`` (``name`` is a suite or query program) or
    ``"fuzz"`` (the worker regenerates the case from ``seed`` and
    ``index``, which also picks the generator family rotation).
    """

    kind: str
    name: str
    opt_level: int = 0
    seed: int = 0
    index: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "opt_level": self.opt_level,
            "seed": self.seed,
            "index": self.index,
        }

    @staticmethod
    def from_dict(data: dict) -> "BatchJob":
        return BatchJob(
            kind=data["kind"],
            name=data["name"],
            opt_level=int(data.get("opt_level", 0)),
            seed=int(data.get("seed", 0)),
            index=int(data.get("index", 0)),
        )


@dataclass
class BatchReport:
    """The aggregate outcome of one batch run."""

    jobs_n: int
    wall_s: float = 0.0
    results: List[dict] = field(default_factory=list)
    cache_stats: Optional[dict] = None
    cache_dir: Optional[str] = None

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.results if r["outcome"] == "ok")

    @property
    def stalls(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for r in self.results:
            if r["outcome"].startswith(("stall:", "exhausted:")):
                slug = r["outcome"].split(":", 1)[1]
                tally[slug] = tally.get(slug, 0) + 1
        return tally

    @property
    def crashes(self) -> List[dict]:
        return [r for r in self.results if r["outcome"] in ("crash", "worker-lost")]

    @property
    def throughput(self) -> float:
        """Completed jobs per second of wall time."""
        return len(self.results) / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "jobs_n": self.jobs_n,
            "wall_s": self.wall_s,
            "throughput": self.throughput,
            "total": len(self.results),
            "ok": self.ok_count,
            "stalls": self.stalls,
            "crashes": len(self.crashes),
            "cache_dir": self.cache_dir,
            "cache": self.cache_stats,
            "results": list(self.results),
        }

    def render(self) -> str:
        lines = [
            f"batch: {len(self.results)} jobs, {self.ok_count} ok, "
            f"{sum(self.stalls.values())} stalled, {len(self.crashes)} crashed "
            f"({self.wall_s:.2f}s wall, {self.throughput:.1f} jobs/s, "
            f"workers={self.jobs_n})"
        ]
        if self.stalls:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.stalls.items()))
            lines.append(f"  stalls: {parts}")
        if self.cache_stats is not None:
            cs = self.cache_stats
            lines.append(
                f"  cache [{self.cache_dir}]: {cs['hits']} hits, "
                f"{cs['misses']} misses, {cs['invalidated']} invalidated, "
                f"{cs['stores']} stores"
            )
        for r in self.results:
            if r["outcome"] != "ok":
                detail = f": {r['detail']}" if r.get("detail") else ""
                lines.append(f"  {r['job']} -> {r['outcome']}{detail}")
        return "\n".join(lines)


# -- Manifests ---------------------------------------------------------------------


def registry_manifest(opt_level: int = 0) -> List[BatchJob]:
    """One job per registry program (the 7 rows of Table 2)."""
    from repro.programs.registry import all_programs

    return [
        BatchJob(kind="program", name=p.name, opt_level=opt_level)
        for p in all_programs()
    ]


def fuzz_manifest(seed: int, count: int, opt_level: int = 0) -> List[BatchJob]:
    """A corpus of ``count`` fuzz cases, seeded exactly like ``repro fuzz``.

    The per-case seeds are pre-drawn from the master stream here so the
    corpus is identical whether it is later compiled with one worker or
    many -- workers never touch the shared stream.
    """
    master = random.Random(seed)
    jobs = []
    for index in range(count):
        case_seed = master.getrandbits(64)
        jobs.append(
            BatchJob(
                kind="fuzz",
                name=f"fuzz[{seed}:{index}]",
                opt_level=opt_level,
                seed=case_seed,
                index=index,
            )
        )
    return jobs


def expand_manifest(data) -> List[BatchJob]:
    """Decode a manifest document into jobs.

    Accepted shapes:

    - ``"registry"`` -- all registry programs at ``-O0``;
    - ``["crc32", "q_filter_sum", ...]`` -- named suite or query programs;
    - ``{"programs": [...], "opt_level": N}`` -- ditto with a level;
    - ``{"fuzz": {"seed": S, "count": N}, "opt_level": N}`` -- a corpus;
    - ``{"jobs": [{"kind": ..., "name": ...}, ...]}`` -- explicit jobs.

    ``programs`` and ``fuzz`` compose in one document.
    """
    if data == "registry":
        return registry_manifest()
    if isinstance(data, list):
        data = {"programs": data}
    if not isinstance(data, dict):
        raise ValueError(f"manifest must be a list or object, got {type(data).__name__}")
    level = int(data.get("opt_level", 0))
    jobs: List[BatchJob] = []
    programs = data.get("programs")
    if programs == "registry" or programs == "all":
        jobs.extend(registry_manifest(opt_level=level))
    elif programs:
        jobs.extend(
            BatchJob(kind="program", name=name, opt_level=level) for name in programs
        )
    fuzz = data.get("fuzz")
    if fuzz:
        jobs.extend(
            fuzz_manifest(
                seed=int(fuzz.get("seed", 0)),
                count=int(fuzz.get("count", 0)),
                opt_level=level,
            )
        )
    for raw in data.get("jobs", ()):
        jobs.append(BatchJob.from_dict(raw))
    if not jobs:
        raise ValueError("manifest describes no jobs")
    return jobs


def load_manifest(path: str) -> List[BatchJob]:
    """Read a JSON manifest file (see :func:`expand_manifest` for shapes)."""
    with open(path) as fh:
        return expand_manifest(json.load(fh))


# -- One job, anywhere -------------------------------------------------------------


def _job_inputs(job: BatchJob):
    """Rebuild (model, spec, input_gen) for ``job`` -- worker-side safe."""
    if job.kind == "program":
        from repro.programs.registry import get_program

        program = get_program(job.name)
        return (
            program.build_model(),
            program.build_spec(),
            program.validation_input_gen(),
        )
    if job.kind == "fuzz":
        from repro.resilience.generator import generate_case

        case = generate_case(random.Random(job.seed), job.index)
        return case.model, case.spec, case.input_gen
    raise ValueError(f"unknown job kind {job.kind!r}")


def _row(job: BatchJob, outcome: str = "ok", detail: str = "") -> dict:
    return {
        "job": job.name,
        "kind": job.kind,
        "opt_level": job.opt_level,
        "outcome": outcome,
        "detail": detail,
        "cache": "off",
        "elapsed_ms": 0.0,
        "statements": 0,
        "cache_stats": None,
    }


def _execute_job(
    job: BatchJob,
    cache_dir: Optional[str],
    budget: BudgetSpec,
    cache: Optional[CompilationCache] = None,
) -> dict:
    """Run one job to a plain-dict result (crosses the process boundary).

    Outcome slugs: ``ok``, ``stall:<taxonomy-reason>``,
    ``exhausted:<fuel|deadline>``, ``crash`` (the job raised), or --
    filled in by the *parent*, since the worker is not around to say so
    -- ``worker-lost`` (the worker process died mid-job, twice).
    ``cache`` is ``"hit"`` / ``"miss"`` / ``"invalidated"`` / ``"off"``.
    """
    from repro.obs.trace import NULL_SPAN, current_tracer

    tracer = current_tracer()
    span = tracer.span("batch_job", name=job.name) if tracer.enabled else NULL_SPAN
    with span:
        return _run_job(job, cache_dir, budget, cache)


def _run_job(
    job: BatchJob,
    cache_dir: Optional[str],
    budget: BudgetSpec,
    cache: Optional[CompilationCache],
) -> dict:
    from repro.core.engine import Engine
    from repro.stdlib import default_databases

    result = _row(job)
    if job.kind == "worker-exit":
        # Fault-campaign hook (env-gated so no manifest can reach it by
        # accident): hard-kill this worker once, succeed on the retry.
        # ``job.name`` is a marker-file path recording the first death;
        # the literal name ``"-"`` dies every time (the deterministic
        # killer the worker-lost reporting path is tested against).
        if not os.environ.get("REPRO_BATCH_TEST_OPS"):
            result["outcome"] = "crash"
            result["detail"] = "worker-exit job without REPRO_BATCH_TEST_OPS"
            return result
        if job.name == "-":
            os._exit(3)
        if not os.path.exists(job.name):
            with open(job.name, "w") as fh:
                fh.write("died once\n")
            os._exit(3)
        result["detail"] = "survived retry"
        return result
    start = time.perf_counter()
    before = None
    try:
        model, spec, input_gen = _job_inputs(job)
        binding_db, expr_db = default_databases()
        engine = Engine(binding_db, expr_db, width=64, budget=budget.make())
        if cache is None and cache_dir is not None:
            cache = _worker_cache(cache_dir)
            before = cache.stats.to_dict()
        if cache is not None:
            compiled, cache_outcome = cache.compile(
                model, spec, engine=engine,
                opt_level=job.opt_level, input_gen=input_gen,
            )
            result["cache"] = cache_outcome
        else:
            compiled = engine.compile_function(model, spec).optimize(
                job.opt_level, input_gen=input_gen
            )
        result["statements"] = compiled.statement_count()
    except ResourceExhausted as exc:
        result["outcome"] = f"exhausted:{exc.resource}"
        result["detail"] = str(exc).splitlines()[0]
    except CompileError as exc:
        result["outcome"] = f"stall:{exc.report.reason}"
        result["detail"] = exc.report.goal.splitlines()[0] if exc.report.goal else ""
    except Exception as exc:  # noqa: BLE001 - a crash is a finding, not an abort
        result["outcome"] = "crash"
        result["detail"] = repr(exc)
    result["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
    if before is not None:
        # Worker-local handle: ship this job's counts home for the merge.
        result["cache_stats"] = _stats_delta(before, cache.stats.to_dict())
    return result


#: A pool worker's cache handles, one per cache directory, keyed by the
#: process id too: a process forked from one that holds handles must
#: open its own.
_WORKER_CACHES: Dict[Tuple[int, str], CompilationCache] = {}


def _worker_cache(cache_dir: str) -> CompilationCache:
    """This process's handle on ``cache_dir``, opened on its first job, so
    its checked-entry table and program inputs outlive a job."""
    key = (os.getpid(), cache_dir)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        cache = _WORKER_CACHES[key] = CompilationCache(cache_dir)
    return cache


def _stats_delta(before: dict, after: dict) -> dict:
    """What a handle's ``CacheStats.to_dict()`` counted from ``before``
    to ``after``."""
    delta = {name: after[name] - before[name] for name in after
             if name != "invalidation_reasons"}
    old = before["invalidation_reasons"]
    delta["invalidation_reasons"] = {
        reason: count - old.get(reason, 0)
        for reason, count in after["invalidation_reasons"].items()
        if count != old.get(reason, 0)
    }
    return delta


# -- The batch driver --------------------------------------------------------------


def _trace_job(tracer, result: dict) -> None:
    if not tracer.enabled:
        return
    tracer.event(
        "batch_job",
        job=result["job"],
        outcome=result["outcome"],
        kind=result["kind"],
        cache=result["cache"],
        level=result["opt_level"],
        detail=result["detail"],
    )
    tracer.inc("batch.jobs")
    tracer.inc(f"batch.outcome.{result['outcome'].split(':', 1)[0]}")


def run_batch(
    jobs: List[BatchJob],
    jobs_n: int = 1,
    cache_dir: Optional[str] = None,
    fuel: Optional[int] = DEFAULT_FUEL,
    deadline: Optional[float] = DEFAULT_DEADLINE,
    progress=None,
) -> BatchReport:
    """Compile every job; returns the aggregate :class:`BatchReport`.

    ``jobs_n <= 1`` runs in-process (one shared cache handle, jobs
    nested under the ambient tracer's ``batch_job`` spans).
    ``jobs_n > 1`` fans out over a process pool in chunks of contiguous
    jobs (:func:`~repro.resilience.campaign.ordered_map`) and merges the
    workers' cache counters.  Either way the parent emits one
    ``batch_job`` event per result, in manifest order.

    A worker that *dies* (SIGKILL, ``os._exit``, OOM) loses its chunk
    and every chunk still unfinished; each of their jobs is retried
    exactly once in its own single-worker pool (and marked ``retried``).
    A job that kills its worker *deterministically* fails the retry too
    and is reported as a structured ``worker-lost`` row, never silently
    dropped.
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    budget = BudgetSpec(fuel=fuel, deadline=deadline)
    report = BatchReport(jobs_n=max(1, jobs_n), cache_dir=cache_dir)
    start = time.perf_counter()
    cache = (
        CompilationCache(cache_dir) if cache_dir is not None and jobs_n <= 1 else None
    )
    stats = cache.stats if cache is not None else CacheStats()
    retried = set()

    def on_retry(i: int) -> None:
        retried.add(i)
        if progress is not None:
            progress(f"retrying {jobs[i].name}: its worker died")

    items = [(job, cache_dir, budget, cache) for job in jobs]
    results = ordered_map(_execute_job, items, jobs_n, on_retry=on_retry)
    for i, (job, result) in enumerate(zip(jobs, results)):
        if isinstance(result, Lost):
            result = _row(job, "worker-lost", result.detail)
        worker_stats = result["cache_stats"]
        if worker_stats:
            stats.merge(worker_stats)
        result["cache_stats"] = None
        if i in retried:
            result["retried"] = 1
        _trace_job(tracer, result)
        report.results.append(result)
        if progress is not None:
            progress(f"[{i + 1}/{len(jobs)}] {job.name}: {result['outcome']}")
    if cache_dir is not None:
        report.cache_stats = stats.to_dict()
    report.wall_s = time.perf_counter() - start
    return report
