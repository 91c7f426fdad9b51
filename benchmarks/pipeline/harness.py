"""Rounds, the op ledger, statistics and the run loop.

A run sets a workload up, then repeats fixed rounds of work until
``seconds`` of round time have passed.  Rates are medians over rounds
and latencies medians over ops, so a short host burst moves one round,
not the run; each round and each set-up is also put at the reference
host speed (:class:`HostSpeed`), so a neighbour that slows the host for
a whole run moves it much less.  Everything here is stdlib-only:
``repro`` is imported by the workload module inside the timed set-up.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

from benchmarks.pipeline import catalog
from benchmarks.pipeline.catalog import ROOT_DIR
from benchmarks.pipeline.spans import ROOT, Recorder, fold

# Inside the checkout (a run writes nothing outside it), under a
# directory the repository already ignores.
WORK_DIR = ROOT_DIR / "build" / "pipeline"

# The result of an op that raised (already counted as failed).
FAILED = object()

# Fresh-process set-ups per untraced run, spread evenly over its rounds;
# the run's own set-up is one more sample.
SETUP_PROBES = 8
NOISY_CALIB_SHIFT = 0.10


def _kernel_ms(loops: int) -> float:
    """Milliseconds of a fixed pure-Python loop: one host-speed reading."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - start) * 1000.0


class HostSpeed:
    """How much slower than the reference the host runs, read around every
    timed interval (a set-up, a round) of an untraced run.

    On a shared host a neighbour can slow a CPU by half for seconds to
    minutes at a time, often longer than a run, so the same code reads
    up to 1.5x slower from one run to the next.  :meth:`read` times a
    fixed pure-Python kernel on each of the next two CPUs this process
    may use (the workloads keep at most two busy), while the benchmark's
    own processes are idle, and returns the mean over ``REF_MS``: the
    host's slowness at that moment.  An interval's slowness is the mean
    of the reading before it and the one after it.  Its times are
    divided by it and its rates multiplied by it, which puts the gated
    metrics at the reference host speed.
    """

    LOOPS = 30_000
    REF_MS = 3.0  # the kernel's time on an idle CPU of the 2-vCPU Xeon host

    def __init__(self):
        getaffinity = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(getaffinity(0)) if getaffinity else []
        self.readings: List[float] = []
        self.edge = self.read()

    def read(self) -> float:
        start = len(self.readings)
        cpus = [self.cpus[(start + i) % len(self.cpus)] for i in range(min(2, len(self.cpus)))]
        taken = [self._reading(cpu) for cpu in cpus] or [_kernel_ms(self.LOOPS)]
        self.readings.extend(taken)
        return statistics.fmean(taken) / self.REF_MS

    def _reading(self, cpu: int) -> float:
        # Pins only the calling thread, and only for the reading.
        os.sched_setaffinity(0, {cpu})
        try:
            return _kernel_ms(self.LOOPS)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def interval(self) -> float:
        """The slowness of the interval since the last reading; the reading
        taken now also starts the next interval."""
        after = self.read()
        slowness = (self.edge + after) / 2
        self.edge = after
        return slowness

    def slowness(self) -> float:
        """The run's median reading over ``REF_MS``: a summary, not used
        to scale anything."""
        return statistics.median(self.readings) / self.REF_MS


class Ledger:
    """Ops attempted and failed, op latencies, and round walls of one phase.

    ``samples`` holds op times as measured.  With a ``host``, every round
    also records its slowness, and ``scaled`` holds each op time divided
    by the slowness of its round.
    """

    def __init__(self, recorder: Optional[Recorder] = None, host: Optional[HostSpeed] = None):
        self.recorder = recorder
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.scaled: Dict[str, List[float]] = defaultdict(list)
        self.rounds: List[dict] = []
        self.notes: Dict[str, float] = defaultdict(float)
        self.traced_ops = 0
        self._lock = threading.Lock()
        self._op_ids = itertools.count(1)

    def op(self, key: str, call: Callable, n: int = 1, in_process: bool = True):
        """Run ``call`` as ``n`` ops and time it under ``key``.

        Returns the call's result, or :data:`FAILED` when it raised (the
        ``n`` ops are then counted as failed).  In a traced phase an
        in-process call runs under a root span; remote work (a process
        pool, the supervisor) is timed from here only.
        """
        traced = self.recorder is not None and in_process
        with self._lock:
            self.attempted += n
            if traced:
                self.traced_ops += n
                op_id = next(self._op_ids)
        root = self.recorder.span(ROOT, op=op_id) if traced else nullcontext()
        start = time.perf_counter()
        try:
            with root:
                result = call()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.fail(f"{key}: {exc!r}", n)
            return FAILED
        self.samples[key].append((time.perf_counter() - start) * 1000.0)
        return result

    def span(self, name: str):
        """A span around benchmark-side work inside an op (no-op untraced)."""
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def fail(self, detail: str, n: int = 1) -> None:
        with self._lock:
            self.failed += n
            if len(self.errors) < 10:
                self.errors.append(detail[:500])

    def check(self, ok: bool, detail: str) -> None:
        if not ok:
            self.fail(detail)

    def note(self, name: str, value: float) -> None:
        with self._lock:
            self.notes[name] += value

    def timed(self, key: str) -> List[float]:
        """Op times of ``key`` at the reference host speed (as measured
        without a ``host``)."""
        return self.scaled[key] if self.host is not None else self.samples[key]


def run_round(round_fn: Callable, ledger: Ledger, index: int) -> None:
    """One round of ``round_fn(ledger, index)``, with its wall time and op
    count, and with a ``ledger.host`` its slowness and scaled op times."""
    marks = {key: len(values) for key, values in ledger.samples.items()}
    before = ledger.attempted
    start = time.perf_counter()
    round_fn(ledger, index)
    record = {"wall_s": time.perf_counter() - start, "ops": ledger.attempted - before}
    if ledger.host is not None:
        record["slowness"] = slowness = ledger.host.interval()
        for key, values in ledger.samples.items():
            ledger.scaled[key].extend(v / slowness for v in values[marks.get(key, 0):])
    ledger.rounds.append(record)


def run_rounds(
    round_fn: Callable,
    ledger: Ledger,
    seconds: float,
    min_rounds: int,
    probe: Optional[Callable[[], None]] = None,
    probes: int = 0,
) -> None:
    """Repeat rounds for ``seconds`` of round time (at least ``min_rounds``).

    ``probe()`` runs ``probes`` times: before the first round, then each
    time another ``seconds / probes`` of round time has passed.  Probe
    time is not round time.
    """
    busy = 0.0
    index = done = 0
    while index < min_rounds or busy < seconds:
        if done < probes and busy >= done * seconds / probes:
            probe()
            done += 1
            continue
        run_round(round_fn, ledger, index)
        busy += ledger.rounds[-1]["wall_s"]
        index += 1
    for _ in range(done, probes):
        probe()


# -- Statistics -----------------------------------------------------------------


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values: List[float], p: float) -> float:
    """The ``p`` quantile of ``values``: the value at rank ``p * (n + 1)``,
    interpolated between neighbours and held within the samples.

    This is the default ('exclusive') method of ``statistics.quantiles``,
    so the quartiles here are the ones ``statistics.quantiles(values, n=4)``
    gives; the whole package uses this one definition.
    """
    ordered = sorted(values)
    rank = min(max(p * (len(ordered) + 1), 1), len(ordered)) - 1
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(samples: List[float]):
    """The highest of p99.9/p99/p90/p75 with at least 10 samples beyond it."""
    for p in (0.999, 0.99, 0.90, 0.75):
        if len(samples) * (1 - p) >= 10:
            return p * 100, quantile(samples, p)
    return None


def latency(ledger: Ledger, keys: List[str], p: float, unit: str = "ms") -> dict:
    """The geometric mean over ``keys`` (programs, say) of each key's ``p``
    quantile op time, with the pooled sample count and tail percentile.

    ``value`` and the tail are at the reference host speed (see
    :class:`HostSpeed`); ``raw`` is as measured.
    """
    scaled = [ledger.timed(key) for key in keys]
    pooled = [v for group in scaled for v in group]
    out = {
        "value": geomean([quantile(g, p) for g in scaled]), "unit": unit, "n": len(pooled),
        "raw": geomean([quantile(ledger.samples[key], p) for key in keys]),
    }
    found = tail(pooled)
    if found is not None:
        out["tail"] = {"p": found[0], "value": found[1]}
    return out


def rate(values: List[float], raw: List[float], unit: str) -> dict:
    """The median of per-round (or per-pass) rates at the reference host
    speed, with their quartiles, and ``raw``: the median as measured."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values),
           "raw": statistics.median(raw)}
    if len(values) >= 2:
        out["q1"], out["q3"] = quantile(values, 0.25), quantile(values, 0.75)
    return out


def round_rate(ledger: Ledger, unit: str) -> dict:
    """:func:`rate` of ops per second of round wall time."""
    rounds = ledger.rounds
    return rate(
        [r["ops"] / r["wall_s"] * r.get("slowness", 1.0) for r in rounds],
        [r["ops"] / r["wall_s"] for r in rounds],
        unit,
    )


# -- Host and process measurements ----------------------------------------------


def calib_ms() -> float:
    """Best of 5 longer kernel runs: the host-speed diagnostic at the
    start and the end of a run."""
    return min(_kernel_ms(100_000) for _ in range(5))


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak RSS of the largest child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def vmhwm_mb(pid: int) -> float:
    """Peak RSS of a live process, from ``/proc`` (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- Set-up timing ----------------------------------------------------------------


def timed_setup(name: str, seed: int, smoke: bool, workdir: Path):
    """Import the workload module, build the workload and set it up.

    Returns ``(workload, seconds)``.  The clock starts before ``repro``
    is imported, so a fresh process pays its cold imports here.
    """
    start = time.perf_counter()
    from benchmarks.pipeline import workloads

    workload = workloads.make(name, seed, smoke, workdir)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    return workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of ``name`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.pipeline", "setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT_DIR, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_probe(name: str, seed: int) -> float:
    """The body of ``setup-probe``: set up once, tear down, return seconds."""
    workdir = _fresh_workdir(name)
    try:
        workload, seconds = timed_setup(name, seed, False, workdir)
        workload.close()
        return seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fresh_workdir(name: str) -> Path:
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


# -- The run ------------------------------------------------------------------------


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """One benchmark run; returns the full report (see :func:`contract_line`)."""
    if name not in catalog.workloads():
        raise ValueError(f"unknown workload {name!r}")
    min_rounds = 1 if smoke else 3
    calib_start = calib_ms()
    host = None if trace else HostSpeed()
    setups = []  # (seconds as measured, slowness around them)

    def probe() -> None:
        seconds = probe_setup(name, seed)
        setups.append((seconds, host.interval()))

    workdir = _fresh_workdir(name)
    workload = None
    try:
        workload, setup_s = timed_setup(name, seed, smoke, workdir)
        if host is not None:
            setups.append((setup_s, host.interval()))
        if trace:
            phases = traced_phases(workload, seconds, min_rounds)
            ledgers = list(phases.values())
        else:
            ledger = Ledger(host=host)
            run_rounds(workload.round, ledger, seconds, min_rounds,
                       probe=probe, probes=0 if smoke else SETUP_PROBES)
            ledgers = [ledger]
        calib_end = calib_ms()
        if trace:
            metrics = layer_metrics(workload, phases, calib_start)
            if trace_out:
                phases["traced"].recorder.write_jsonl(trace_out)
        else:
            metrics = workload.metrics(ledger)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss = self_rss_mb() + workload.extra_rss_mb()

    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    if not trace:
        metrics["setup_s"] = {
            "value": statistics.median(s / slowness for s, slowness in setups), "unit": "s",
            "n": len(setups), "raw": statistics.median(s for s, _ in setups),
            "samples": [s for s, _ in setups],
        }
        metrics["peak_rss_mb"] = {"value": peak_rss, "unit": "MB"}
        metrics["failed_share"] = {"value": failed / max(attempted, 1), "unit": "fraction"}
        metrics["host.calib_ms"] = {"value": calib_start, "unit": "ms"}
        metrics["host.slowness"] = {
            "value": host.slowness(), "unit": "ratio", "n": len(host.readings),
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for ledger in ledgers for e in ledger.errors][:10],
        "rounds": sum(len(ledger.rounds) for ledger in ledgers),
        "calib_ms": [calib_start, calib_end],
        "noisy": abs(calib_end - calib_start) > NOISY_CALIB_SHIFT * calib_start,
        "metrics": metrics,
    }


def traced_phases(workload, seconds: float, min_rounds: int) -> Dict[str, Ledger]:
    """The traced run: remote work, then alternating untraced and traced
    in-process rounds.

    Remote work (pool and supervisor rounds) runs first, before any
    in-process replay has warmed this process's lemma databases, so the
    pool forks from the same state as in an untraced run.  One untimed
    in-process round then fills lazy state; after it, untraced and traced
    rounds alternate, and their ratio is ``bench.trace_overhead``.
    """
    phases: Dict[str, Ledger] = {}
    start = time.perf_counter()
    if workload.remote:
        phases["remote"] = Ledger()
        run_rounds(workload.round, phases["remote"], seconds / 3, min_rounds)
    phases["warm-up"] = Ledger()
    workload.local_round(phases["warm-up"], 0)
    untraced = phases["untraced"] = Ledger()
    traced = phases["traced"] = Ledger(Recorder())
    index = 0
    while index < min_rounds or time.perf_counter() - start < seconds:
        run_round(workload.local_round, untraced, index)
        traced.recorder.install()
        try:
            run_round(workload.local_round, traced, index)
        finally:
            traced.recorder.uninstall()
        index += 1
    return phases


def layer_metrics(workload, phases: Dict[str, Ledger], calib_start: float) -> dict:
    traced = phases["traced"]
    recorder = traced.recorder
    own, root_wall = fold(recorder.spans)
    counts = recorder.counts
    ops = max(traced.traced_ops, 1)
    values: Dict[str, float] = {}
    per_layer = catalog.per_layer()
    for metric in per_layer:
        span = metric[: -len("_ms")]
        if metric.endswith("_ms") and span in own:
            values[metric] = own[span] / 1e6 / ops
    for metric, counter in (
        ("source.model_eval_calls", "source.model_eval.calls"),
        ("bedrock2.interp_calls", "bedrock2.interp.calls"),
        ("analysis.lint_calls", "analysis.lint.calls"),
        ("core.stmts", "core.stmts"),
        ("core.cert_nodes", "core.cert_nodes"),
        ("validation.trials", "validation.trials"),
        ("validation.failed_trials", "validation.failed_trials"),
        ("bedrock2.interp_ops", "bedrock2.interp_ops"),
        ("opt.passes_validated", "opt.passes_validated"),
        ("opt.passes_rejected", "opt.passes_rejected"),
        ("opt.stmts_removed", "opt.stmts_removed"),
    ):
        values[metric] = counts.get(counter, 0) / ops
    searches = counts.get("core.search.calls", 0)
    values["core.stall_share"] = counts.get("core.stalls", 0) / searches if searches else 0.0
    interp_s = own.get("bedrock2.interp", 0) / 1e9
    values["bedrock2.interp_ops_per_s"] = (
        counts.get("bedrock2.interp_ops", 0) / interp_s if interp_s else 0.0
    )
    lookups = counts.get("serve.cache.lookup.calls", 0)
    values["serve.cache.hit_ratio"] = (
        counts.get("serve.cache.hits", 0) / lookups if lookups else 0.0
    )
    values["bench.unattributed_share"] = own.get(ROOT, 0) / root_wall if root_wall else 0.0
    untraced = statistics.median(r["wall_s"] for r in phases["untraced"].rounds)
    values["bench.trace_overhead"] = (
        statistics.median(r["wall_s"] for r in traced.rounds) / untraced - 1.0
    )
    values["host.calib_ms"] = calib_start
    values.update(workload.layer_metrics(phases))
    metrics = {}
    for metric, (unit, _better) in per_layer.items():
        metrics[metric] = {"value": float(values.get(metric, 0.0)), "unit": unit}
    metrics["bench.traced_ops"] = {"value": traced.traced_ops, "unit": "count"}
    return metrics


def contract_line(report: dict) -> dict:
    """The last stdout line: the names ``BENCHMARK.json`` lists, nothing else."""
    names = catalog.per_layer() if report["trace"] else catalog.end_to_end()
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name]["value"],
                   "unit": report["metrics"][name]["unit"]}
            for name in names
        },
    }


def render(report: dict) -> str:
    """Human-readable lines: every metric with its unit, count and tail."""
    lines = [
        f"# {report['workload']} seed={report['seed']} rounds={report['rounds']} "
        f"attempted={report['attempted']} failed={report['failed']}"
        + (" NOISY-HOST" if report["noisy"] else "")
    ]
    for error in report["errors"]:
        lines.append(f"# failure: {error}")
    for name, m in sorted(report["metrics"].items()):
        line = f"{name:<34} {m['value']:>14.6g} {m['unit']:<8}"
        if "n" in m:
            line += f" n={m['n']}"
        if "tail" in m:
            line += f" p{m['tail']['p']:g}={m['tail']['value']:.6g}"
        if "q1" in m:
            line += f" q1={m['q1']:.6g} q3={m['q3']:.6g}"
        if "raw" in m:
            line += f" raw={m['raw']:.6g}"
        lines.append(line)
    return "\n".join(lines)
