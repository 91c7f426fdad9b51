"""The batch compiler: manifests, worker-pool equivalence, budgets."""

import json
import multiprocessing
import os

import pytest

from repro.serve.batch import (
    BatchJob,
    expand_manifest,
    fuzz_manifest,
    registry_manifest,
    run_batch,
)


def test_registry_manifest_covers_the_suite():
    jobs = registry_manifest(opt_level=1)
    assert len(jobs) == 9
    assert all(job.kind == "program" and job.opt_level == 1 for job in jobs)
    assert sorted(j.name for j in jobs) == [
        "crc32", "fasta", "fnv1a", "ip", "m3s", "sbox", "upstr", "utf8", "xorsum",
    ]


def test_fuzz_manifest_is_deterministic():
    a = fuzz_manifest(seed=9, count=5)
    b = fuzz_manifest(seed=9, count=5)
    assert a == b
    assert len({j.seed for j in a}) == 5, "per-case seeds must be distinct"
    assert fuzz_manifest(seed=10, count=5) != a


def test_expand_manifest_shapes(tmp_path):
    assert len(expand_manifest("registry")) == 9
    assert [j.name for j in expand_manifest(["crc32", "utf8"])] == ["crc32", "utf8"]
    combined = expand_manifest(
        {"programs": ["crc32"], "fuzz": {"seed": 1, "count": 3}, "opt_level": 1}
    )
    assert len(combined) == 4
    assert all(j.opt_level == 1 for j in combined)
    explicit = expand_manifest(
        {"jobs": [{"kind": "program", "name": "ip", "opt_level": 1}]}
    )
    assert explicit == [BatchJob(kind="program", name="ip", opt_level=1)]
    with pytest.raises(ValueError):
        expand_manifest({})
    with pytest.raises(ValueError):
        expand_manifest(42)


def test_load_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"programs": ["fnv1a"], "fuzz": {"seed": 2, "count": 2}}))
    from repro.serve.batch import load_manifest

    jobs = load_manifest(str(path))
    assert len(jobs) == 3 and jobs[0].name == "fnv1a"


def test_serial_and_parallel_batches_agree(tmp_path):
    jobs = expand_manifest({"programs": ["crc32", "fnv1a"], "fuzz": {"seed": 3, "count": 4}})
    serial = run_batch(jobs, jobs_n=1, cache_dir=str(tmp_path / "a"))
    parallel = run_batch(jobs, jobs_n=2, cache_dir=str(tmp_path / "b"))
    key = lambda r: (r["job"], r["outcome"], r["cache"], r["statements"])  # noqa: E731
    assert sorted(map(key, serial.results)) == sorted(map(key, parallel.results))
    assert serial.ok_count == parallel.ok_count
    assert serial.cache_stats["stores"] == parallel.cache_stats["stores"]


def test_chunked_fuzz_batches_agree_job_by_job(tmp_path):
    """48 jobs at ``jobs_n=2`` run as 16 chunks of 3, cold then warm."""
    jobs = fuzz_manifest(seed=11, count=48)
    key = lambda r: (r["job"], r["outcome"], r["statements"], r["cache"])  # noqa: E731
    passes = {}
    for jobs_n in (1, 2):
        cache_dir = str(tmp_path / f"j{jobs_n}")
        passes[jobs_n] = [
            [key(r) for r in run_batch(jobs, jobs_n=jobs_n, cache_dir=cache_dir).results]
            for _pass in ("cold", "warm")
        ]
    assert passes[1] == passes[2]
    cold, warm = passes[2]
    assert [row[0] for row in cold] == [job.name for job in jobs]
    assert {row[3] for row in warm if row[1] == "ok"} == {"hit"}


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="pool workers inherit the parent's constants only when forked",
)
def test_pool_workers_inherit_the_databases(tmp_path, monkeypatch):
    """A parent that has not built the databases builds them once before
    its pool forks; no worker builds them again."""
    import repro.stdlib as stdlib
    import repro.validation.checker as checker

    log = tmp_path / "builds"
    build = stdlib._build_databases

    def logged_build():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build()

    monkeypatch.setattr(stdlib, "_BUILT", None)
    monkeypatch.setattr(stdlib, "_build_databases", logged_build)
    checker._standard_lemma_names.cache_clear()
    stdlib.standard_fingerprint.cache_clear()
    report = run_batch(
        fuzz_manifest(seed=5, count=24), jobs_n=2, cache_dir=str(tmp_path / "cache")
    )
    assert len(report.results) == 24 and not report.crashes
    assert log.read_text().split() == [str(os.getpid())]


def test_jobs_1_and_2_merge_the_same_cache_stats(tmp_path):
    """Pool workers keep one cache handle across jobs and ship each job's
    counts, so the merged stats are those of the in-process batch."""
    jobs = expand_manifest({"programs": ["crc32", "m3s"], "fuzz": {"seed": 4, "count": 10}})
    stats = {}
    for jobs_n in (1, 2):
        cache_dir = str(tmp_path / f"j{jobs_n}")
        stats[jobs_n] = [run_batch(jobs, jobs_n=jobs_n, cache_dir=cache_dir).cache_stats
                         for _pass in ("cold", "warm")]
    assert stats[1] == stats[2]
    cold, warm = stats[2]
    assert cold["stores"] == warm["hits"] > 0


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the logging patch reaches pool workers only when forked",
)
def test_pool_workers_open_one_cache_handle_each(tmp_path, monkeypatch):
    from repro.serve import cache as cache_module

    log = tmp_path / "opens"
    init = cache_module.CompilationCache.__init__

    def logged_init(self, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        init(self, *args, **kwargs)

    monkeypatch.setattr(cache_module.CompilationCache, "__init__", logged_init)
    report = run_batch(fuzz_manifest(seed=6, count=24), jobs_n=2,
                       cache_dir=str(tmp_path / "cache"))
    assert len(report.results) == 24 and not report.crashes
    opens = log.read_text().split()
    assert os.getpid() not in map(int, opens)
    assert len(opens) == len(set(opens)) <= 2


def test_warm_batch_is_all_hits(tmp_path):
    jobs = registry_manifest()
    cold = run_batch(jobs, jobs_n=1, cache_dir=str(tmp_path))
    assert cold.cache_stats["misses"] == 9 and cold.cache_stats["stores"] == 9
    warm = run_batch(jobs, jobs_n=2, cache_dir=str(tmp_path))
    assert warm.cache_stats["hits"] == 9
    assert warm.cache_stats["misses"] == 0 and warm.cache_stats["stores"] == 0
    assert all(r["cache"] == "hit" for r in warm.results)


def test_budget_is_enforced_per_job():
    jobs = [BatchJob(kind="program", name="crc32")]
    report = run_batch(jobs, jobs_n=1, fuel=3)
    assert report.results[0]["outcome"] == "exhausted:fuel"
    assert report.stalls == {"fuel": 1}
    # The same job with a sane budget succeeds -- exhaustion is the
    # budget's verdict, not a broken program.
    assert run_batch(jobs, jobs_n=1).results[0]["outcome"] == "ok"


def test_budget_is_enforced_in_workers():
    jobs = [BatchJob(kind="program", name="crc32"), BatchJob(kind="program", name="utf8")]
    report = run_batch(jobs, jobs_n=2, fuel=3)
    assert [r["outcome"] for r in report.results] == ["exhausted:fuel"] * 2


def test_unknown_job_is_a_crash_not_an_abort():
    jobs = [
        BatchJob(kind="program", name="no_such_program"),
        BatchJob(kind="program", name="crc32"),
    ]
    report = run_batch(jobs, jobs_n=1)
    outcomes = {r["job"]: r["outcome"] for r in report.results}
    assert outcomes["no_such_program"] == "crash"
    assert outcomes["crc32"] == "ok"


def test_worker_death_is_retried_and_the_batch_completes(tmp_path, monkeypatch):
    """A job whose worker dies mid-run (``os._exit``, the moral
    equivalent of an OOM kill) is retried once in a fresh pool; the
    innocent jobs sharing the broken pool complete too."""
    monkeypatch.setenv("REPRO_BATCH_TEST_OPS", "1")
    marker = str(tmp_path / "died-once")
    jobs = [
        BatchJob(kind="worker-exit", name=marker),
        BatchJob(kind="program", name="fnv1a"),
    ]
    report = run_batch(jobs, jobs_n=2, cache_dir=str(tmp_path / "cache"))
    rows = {r["job"]: r for r in report.results}
    assert rows[marker]["outcome"] == "ok"
    assert rows[marker]["detail"] == "survived retry"
    assert rows[marker].get("retried") == 1
    assert rows["fnv1a"]["outcome"] == "ok"
    assert report.ok_count == 2


def test_deterministic_worker_killer_becomes_a_structured_row(tmp_path, monkeypatch):
    """A job that kills its worker on *every* attempt fails the retry
    too and is reported as a ``worker-lost`` row -- never dropped, and
    never able to take retried bystanders down with it (each retry runs
    in its own single-worker pool)."""
    monkeypatch.setenv("REPRO_BATCH_TEST_OPS", "1")
    jobs = [
        BatchJob(kind="worker-exit", name="-"),  # "-" dies every time
        BatchJob(kind="program", name="fnv1a"),
    ]
    report = run_batch(jobs, jobs_n=2, cache_dir=str(tmp_path / "cache"))
    rows = {r["job"]: r for r in report.results}
    assert rows["-"]["outcome"] == "worker-lost"
    assert rows["-"]["retried"] == 1
    assert rows["-"]["detail"], "the row must say what broke"
    assert rows["fnv1a"]["outcome"] == "ok"
    assert len(report.results) == len(jobs), "no job may be silently dropped"
    assert report.crashes == [rows["-"]]


def test_worker_exit_jobs_are_rejected_without_the_env_gate(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_TEST_OPS", raising=False)
    report = run_batch([BatchJob(kind="worker-exit", name="-")], jobs_n=1)
    assert report.results[0]["outcome"] == "crash"
    assert "REPRO_BATCH_TEST_OPS" in report.results[0]["detail"]


def test_batch_jobs_are_traced(tmp_path):
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer(name="batch-test")
    with use_tracer(tracer):
        run_batch(registry_manifest()[:2], jobs_n=1, cache_dir=str(tmp_path))
    events = tracer.events_by_type("batch_job")
    assert len(events) == 2
    counters = tracer.metrics.to_dict()["counters"]
    assert counters["batch.jobs"] == 2
    assert counters["batch.outcome.ok"] == 2
    assert counters["cache.misses"] == 2
