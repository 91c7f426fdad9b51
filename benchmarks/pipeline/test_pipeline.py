"""Self-tests of the pipeline benchmark, on its ``--smoke`` size.

    PYTHONPATH=src python -m pytest benchmarks/pipeline
"""

from __future__ import annotations

import importlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from benchmarks.pipeline import catalog, harness, spans, workloads
from benchmarks.pipeline.compare import classify

SECONDS = 0.5  # smoke runs: about one round per phase

COUNTS = ("bedrock2.interp_ops", "core.stmts", "opt.passes_validated", "validation.trials")


def _traced(name: str, seed: int):
    """A smoke workload's traced phases and per-layer metrics."""
    workdir = harness.WORK_DIR / f"test-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload, _ = harness.timed_setup(name, seed, True, workdir)
    try:
        phases = harness.traced_phases(workload, SECONDS, 1)
        return phases, harness.layer_metrics(workload, phases, 0.0)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def traced_validate():
    return [_traced("validate-o1", 7) for _ in range(2)]


def test_metric_names_match_the_pattern():
    names = [*catalog.end_to_end(), *catalog.WORKLOAD_METRICS, *catalog.per_layer()]
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME_RE.match(name), name
    assert catalog.workloads() == tuple(workloads.WORKLOAD_CLASSES)


def test_quartiles_are_the_ones_statistics_quantiles_gives():
    rng = random.Random(5)
    for n in range(3, 40):
        values = [rng.random() for _ in range(n)]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert harness.quantile(values, 0.25) == pytest.approx(q1)
        assert harness.quantile(values, 0.75) == pytest.approx(q3)


def test_counts_repeat_across_same_seed_runs(traced_validate):
    (_, first), (_, second) = traced_validate
    for name in COUNTS:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name
    ops = [harness.run("exec-large", 3, SECONDS, smoke=True) for _ in range(2)]
    assert len({r["metrics"]["b2_ops_per_byte"]["value"] for r in ops}) == 1


def test_a_different_seed_changes_the_corpus_and_the_inputs(tmp_path):
    def drawn(seed):
        batch = workloads.make("batch-fuzz", seed, True, tmp_path)
        batch.setup()
        exec_large = workloads.make("exec-large", seed, True, Path(tempfile.mkdtemp(dir=tmp_path)))
        exec_large.setup()
        return [job.seed for job in batch.manifest(0)], [item[2] for item in exec_large.native_items]

    assert drawn(1) == drawn(1)
    corpus, inputs = drawn(2)
    assert corpus != drawn(1)[0]
    assert inputs != drawn(1)[1]


def test_traced_self_times_sum_to_op_wall(traced_validate):
    for phases, metrics in traced_validate:
        traced = phases["traced"]
        own, root_wall = spans.fold(traced.recorder.spans)
        op_wall_ns = sum(ms for samples in traced.samples.values() for ms in samples) * 1e6
        assert sum(own.values()) == pytest.approx(op_wall_ns, rel=0.05)
        assert sum(own.values()) == pytest.approx(root_wall, rel=1e-9)
        assert metrics["bench.unattributed_share"]["value"] <= 0.05


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    seen = []
    original_round = workloads.ValidateO1.round

    def probing_round(self, ledger, index):
        seen.append(spans.wrapped_targets())
        return original_round(self, ledger, index)

    monkeypatch.setattr(spans.Recorder, "install", refuse)
    monkeypatch.setattr(workloads.ValidateO1, "round", probing_round)
    report = harness.run("validate-o1", 1, SECONDS, smoke=True)
    assert report["correct"]
    assert seen and all(found == [] for found in seen)


def test_a_corrupted_result_is_counted_as_failed(monkeypatch):
    runners = importlib.import_module("repro.validation.runners")
    original = runners.run_function
    calls = []

    def corrupting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            result.rets[0] ^= 1
        return result

    monkeypatch.setattr(runners, "run_function", corrupting)
    report = harness.run("exec-large", 1, SECONDS, smoke=True)
    assert report["failed"] == 1
    assert report["metrics"]["failed_share"]["value"] == 1 / report["attempted"]
    assert not harness.contract_line(report)["correct"]


def test_contract_line_carries_exactly_the_declared_metrics():
    report = harness.run("serve-warm", 1, SECONDS, smoke=True)
    line = harness.contract_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(catalog.end_to_end())
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert report["metrics"]["request_ms_p99"]["value"] >= report["metrics"]["request_ms_p50"]["value"]


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(harness.ROOT_DIR / "benchmarks" / "pipeline", tmp_path / "benchmarks" / "pipeline")
    shutil.copy(harness.ROOT_DIR / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.pipeline", "run", "--workload", "validate-o1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert classify("ops_per_s", parent, [100.0 + (i + 1) % 3 for i in range(10)])[0] == "unchanged"
    assert classify("ops_per_s", parent, [v * 1.3 for v in parent])[0] == "improved"
    assert classify("ops_per_s", parent, [v * 0.7 for v in parent])[0] == "regressed"
    assert classify("op_ms_p50", parent, [v * 0.8 for v in parent])[0] == "improved"
    wide = [60.0, 150.0] * 5
    assert classify("ops_per_s", wide, list(reversed(wide)))[0] == "unresolved"
    assert classify("ops_per_s", parent[:9], parent[:9])[0] == "unresolved"
    rose = [0.0] * 9 + [0.01]
    assert classify("failed_share", [0.0] * 10, rose)[0] == "regressed"
    assert classify("b2_ops_per_byte", parent, parent)[0] == "unchanged"
