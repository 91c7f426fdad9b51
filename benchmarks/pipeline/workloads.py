"""The four workloads: what one op is, what a round holds, what is checked.

Every input is drawn from the workload seed (``random.Random`` seeded
with strings derived from it); the program under test sees only the
generated inputs.  Every round does identical work, so per-op counts do
not depend on how many rounds fit in a run.  Every op's output is
checked, and a failed check counts the op as failed.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import random
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from benchmarks.pipeline.harness import (
    FAILED,
    Ledger,
    children_rss_mb,
    geomean,
    latency,
    rate,
    round_rate,
    vmhwm_mb,
)


def _mod(name: str):
    # import_module, not ``import a.b as m``: ``repro.query.reify`` is
    # also the name of a function the package re-exports.
    return importlib.import_module(name)


TRIALS = 30  # differential trials per validation
JOBS_N = 2  # batch pool workers
CLIENTS = 2  # serve client threads (the host has 2 CPUs)
NATIVE_RUNS = 5  # native timings per op, min taken


@dataclass(frozen=True)
class Size:
    programs: int  # Table 2 programs (of 9)
    queries: int  # query programs (of 8)
    batch_count: int  # fuzz jobs per batch pass
    requests: int  # requests per client per round
    exec_bytes: int  # interpreter input per Table 2 program
    exec_rows: int  # rows per query table
    join_rows: int  # rows per q_equi_join table (quadratic lowering)
    native_repeat: int  # the native input is the exec input repeated


FULL = Size(9, 8, 200, 150, 16384, 4096, 96, 64)
SMOKE = Size(2, 2, 20, 10, 256, 64, 8, 4)


class Workload:
    """One workload.  ``round`` is the measured unit of fixed work.

    ``local_round`` is what the traced run times in-process: the round
    itself, or for workloads whose ops run in other processes
    (``remote``) an in-process replay of the same work.
    """

    name = ""
    remote = False

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.seed, self.name) + parts))

    def setup(self) -> None:
        pass

    def round(self, ledger: Ledger, index: int) -> None:
        raise NotImplementedError

    def local_round(self, ledger: Ledger, index: int) -> None:
        self.round(ledger, index)

    def metrics(self, ledger: Ledger) -> Dict[str, dict]:
        raise NotImplementedError

    def layer_metrics(self, phases: Dict[str, Ledger]) -> Dict[str, float]:
        return {}

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


def _programs(size: Size):
    from repro.programs import all_programs
    from repro.query.programs import all_query_programs

    return all_programs()[: size.programs], all_query_programs()[: size.queries]


# -- validate-o1 ---------------------------------------------------------------


class ValidateO1(Workload):
    """``repro validate -O1``, composed from public calls, per program."""

    name = "validate-o1"

    def setup(self) -> None:
        self.stdlib = _mod("repro.stdlib")
        self.reify = _mod("repro.query.reify")
        self.wellformed = _mod("repro.bedrock2.wellformed")
        self.checker = _mod("repro.validation.checker")
        self.passcheck = _mod("repro.validation.passcheck")
        self.differential = _mod("repro.validation.differential")
        table2, queries = _programs(self.size)
        self.items = [(p, False) for p in table2] + [(q, True) for q in queries]
        self.stdlib.default_engine()  # builds the lemma databases once
        self.first_c: Dict[str, str] = {}

    def _validate(self, program, query: bool):
        if query:
            reified = self.reify.reify(program.plan, program.name)
            model, spec = reified.model, reified.spec
        else:
            model, spec = program.build_model(), program.build_spec()
        compiled = self.stdlib.default_engine().compile_function(model, spec)
        self.wellformed.check_function(compiled.bedrock_fn)
        self.checker.check_certificate(
            compiled.certificate, statement_count=compiled.statement_count()
        )
        self.checker.replay_derivation(compiled)
        input_gen = program.validation_input_gen()
        optimized, report = self.passcheck.optimize_compiled(
            compiled, level=1, rng=self.rng(program.name, "passes"), input_gen=input_gen
        )
        self.wellformed.check_function(optimized.bedrock_fn)
        kwargs = {"input_gen": input_gen} if input_gen is not None else {}
        self.differential.differential_check(
            optimized, trials=TRIALS, rng=self.rng(program.name, "trials"),
            **kwargs,
        ).raise_on_failure()
        return optimized.c_source(), report

    def round(self, ledger: Ledger, index: int) -> None:
        order = list(self.items)
        self.rng("order", index).shuffle(order)
        for program, query in order:
            result = ledger.op(program.name, functools.partial(self._validate, program, query))
            if result is FAILED:
                continue
            c_source, report = result
            first = self.first_c.setdefault(program.name, c_source)
            ledger.check(not report.rejected, f"{program.name}: a pass was rejected")
            ledger.check(c_source == first, f"{program.name}: C differs from round 1")

    def metrics(self, ledger: Ledger) -> Dict[str, dict]:
        per_s = round_rate(ledger, "op/s")
        p50 = latency(ledger, [p.name for p, _ in self.items], 0.5)
        return {"validations_per_s": per_s, "validate_ms_p50": p50,
                "ops_per_s": per_s, "op_ms_p50": p50}


# -- batch-fuzz ------------------------------------------------------------------


class BatchFuzz(Workload):
    """A fuzz corpus through ``run_batch``: cold into a fresh cache, then warm.

    Each round draws a new corpus, so a run's median spans many corpora
    and does not hang on the cost mix of one; the in-process replay of a
    traced run repeats corpus 0, so its per-op counts repeat exactly.
    """

    name = "batch-fuzz"
    remote = True

    def setup(self) -> None:
        self.batch = _mod("repro.serve.batch")
        self.statements: Dict[str, int] = {}

    def manifest(self, index: int):
        seed = self.rng("manifest", index).getrandbits(32)
        return self.batch.fuzz_manifest(seed=seed, count=self.size.batch_count, opt_level=0)

    def _passes(self, ledger: Ledger, jobs, index: int, jobs_n: int, prefix: str) -> None:
        cache_dir = self.workdir / f"{prefix}cache-{index}"
        n = len(jobs)

        def run():
            return self.batch.run_batch(jobs, jobs_n=jobs_n, cache_dir=str(cache_dir))

        remote = jobs_n > 1
        try:
            cold = ledger.op(prefix + "cold", run, n=n, in_process=not remote)
            warm = ledger.op(prefix + "warm", run, n=n, in_process=not remote)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for kind, report in (("cold", cold), ("warm", warm)):
            if report is not FAILED and remote:
                job_ms = [row["elapsed_ms"] for row in report.results]
                ledger.samples[f"{prefix}{kind}.job"].extend(job_ms)
                ledger.note("job_ms", sum(job_ms))
                ledger.note("pool_ms", report.wall_s * 1000.0 * jobs_n)
                ledger.note("jobs", len(job_ms))
        if cold is FAILED or warm is FAILED:
            return
        for c, w in zip(cold.results, warm.results):
            expected = self.statements.setdefault(c["job"], c["statements"])
            ok = (
                c["outcome"] not in ("crash", "worker-lost")
                and w["outcome"] == c["outcome"]
                and w["statements"] == c["statements"] == expected
                and (c["outcome"] != "ok" or w["cache"] == "hit")
            )
            ledger.check(ok, f"{c['job']}: cold {c['outcome']}/{c['statements']} "
                             f"warm {w['outcome']}/{w['statements']}/{w['cache']}")

    def round(self, ledger: Ledger, index: int) -> None:
        self._passes(ledger, self.manifest(index), index, JOBS_N, "")

    def local_round(self, ledger: Ledger, index: int) -> None:
        self._passes(ledger, self.manifest(0), index, 1, "replay.")

    def metrics(self, ledger: Ledger) -> Dict[str, dict]:
        def jobs_per_s(key: str) -> dict:
            n = self.size.batch_count
            return rate([n / (ms / 1000.0) for ms in ledger.timed(key)],
                        [n / (ms / 1000.0) for ms in ledger.samples[key]], "job/s")

        return {
            "batch_cold_jobs_per_s": jobs_per_s("cold"),
            "batch_warm_jobs_per_s": jobs_per_s("warm"),
            "ops_per_s": round_rate(ledger, "op/s"),
            "op_ms_p50": latency(ledger, ["cold.job", "warm.job"], 0.5),
        }

    def layer_metrics(self, phases: Dict[str, Ledger]) -> Dict[str, float]:
        notes = phases["remote"].notes
        jobs = max(notes["jobs"], 1)
        return {
            "serve.batch.job_ms": notes["job_ms"] / jobs,
            "serve.batch.pool_overhead_ms": (notes["pool_ms"] - notes["job_ms"]) / jobs,
            "serve.batch.parallel_efficiency": notes["job_ms"] / max(notes["pool_ms"], 1e-9),
        }

    def extra_rss_mb(self) -> float:
        return JOBS_N * children_rss_mb()


# -- serve-warm --------------------------------------------------------------------


class ServeWarm(Workload):
    """Closed-loop compile requests to a supervised pool over a warm cache."""

    name = "serve-warm"
    remote = True

    def setup(self) -> None:
        from repro.programs import all_programs
        from repro.serve.cache import CompilationCache, compile_program_cached
        from repro.serve.service import CompileService
        from repro.serve.supervisor import Supervisor, SupervisorConfig

        self.supervisor = None
        self.worker_rss: List[float] = []
        cache_dir = str(self.workdir / "cache")
        cache = CompilationCache(cache_dir)
        self.expected = {}
        for program in all_programs():
            for level in (0, 1):
                compiled, _ = compile_program_cached(cache, program, opt_level=level)
                self.expected[(program.name, level)] = compiled.c_source()
        self.keys = sorted(self.expected)
        self.service = CompileService(cache_dir=cache_dir)
        self.supervisor = Supervisor(
            SupervisorConfig(workers=2, queue_depth=32, seed=self.seed), cache_dir=cache_dir
        ).start()
        for key in self.keys + self.keys:  # every worker sees every key once
            response = self.supervisor.submit(self._request(key))
            if not response.get("ok"):
                raise RuntimeError(f"warm-up request {key} failed: {response}")

    @staticmethod
    def _request(key) -> dict:
        return {"op": "compile", "program": key[0], "opt_level": key[1]}

    def _ok(self, response, key) -> bool:
        return (
            isinstance(response, dict)
            and response.get("ok") is True
            and response.get("cache") == "hit"
            and response.get("c") == self.expected[key]
        )

    def _client(self, ledger: Ledger, rng: random.Random) -> None:
        for _ in range(self.size.requests):
            key = self.keys[rng.randrange(len(self.keys))]
            request = self._request(key)
            start = time.perf_counter()
            response = ledger.op("request", functools.partial(self.supervisor.submit, request),
                                 in_process=False)
            latency = (time.perf_counter() - start) * 1000.0
            if response is FAILED:
                continue
            ledger.check(self._ok(response, key),
                         f"{key}: {response.get('error') or 'wrong response'}")
            worker_ms = float(response.get("elapsed_ms", 0.0))
            ledger.note("worker_ms", worker_ms)
            ledger.note("overhead_ms", latency - worker_ms)

    def round(self, ledger: Ledger, index: int) -> None:
        threads = [
            threading.Thread(target=self._client, args=(ledger, self.rng(index, t)))
            for t in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise RuntimeError("a serve client did not finish")

    def local_round(self, ledger: Ledger, index: int) -> None:
        for key in self.keys:
            response = ledger.op("replay", functools.partial(self.service.handle, self._request(key)))
            if response is not FAILED:
                ledger.check(self._ok(response, key), f"replay {key}: {response}")

    def metrics(self, ledger: Ledger) -> Dict[str, dict]:
        p50 = latency(ledger, ["request"], 0.5)
        return {
            "requests_per_s": round_rate(ledger, "req/s"),
            "request_ms_p50": p50,
            "request_ms_p99": latency(ledger, ["request"], 0.99),
            "ops_per_s": round_rate(ledger, "op/s"),
            "op_ms_p50": p50,
        }

    def _worker_pids(self) -> List[int]:
        return [w["pid"] for w in self.supervisor.stats()["workers"] if w["pid"]]

    def layer_metrics(self, phases: Dict[str, Ledger]) -> Dict[str, float]:
        remote = phases["remote"]
        requests = max(remote.attempted, 1)
        counters = self.supervisor.stats()["counters"]
        retries = sum(v for k, v in counters.items() if k.startswith("serve.retry."))
        return {
            "serve.supervisor.worker_ms": remote.notes["worker_ms"] / requests,
            "serve.supervisor.overhead_ms": remote.notes["overhead_ms"] / requests,
            "serve.supervisor.worker_rss_mb": sum(vmhwm_mb(p) for p in self._worker_pids()),
            "serve.supervisor.retries": retries / requests,
            "serve.supervisor.overloaded": counters.get("serve.overloaded", 0) / requests,
        }

    def extra_rss_mb(self) -> float:
        return sum(self.worker_rss)

    def close(self) -> None:
        if getattr(self, "supervisor", None) is not None:
            self.worker_rss = [vmhwm_mb(p) for p in self._worker_pids()]
            self.supervisor.stop()
            self.supervisor = None


# -- exec-large ---------------------------------------------------------------------


class ExecLarge(Workload):
    """The ``-O1`` output on large inputs: interpreted, then native."""

    name = "exec-large"

    def setup(self) -> None:
        from benchmarks import native
        from benchmarks.bench_query import sized_tables
        from repro.bedrock2 import ast as b2
        from repro.bedrock2.memory import Memory
        from repro.bedrock2.semantics import Interpreter
        from repro.bedrock2.word import Word

        self.runners = _mod("repro.validation.runners")
        self.b2, self.Memory, self.Interpreter, self.Word = b2, Memory, Interpreter, Word
        table2, queries = _programs(self.size)
        self.interp_items = []  # (name, call, expected, input bytes or 0)
        self.native_items = []  # (name, lib, check input, style, expected, big buffer)
        self.build_ms = 0.0
        for program in table2:
            compiled = program.compile(opt_level=1)
            data = program.gen_input(self.rng(program.name), self.size.exec_bytes)
            expected = self._expected(program, data)
            self.interp_items.append(
                (program.name, self._interp_call(program, compiled, data), expected, len(data))
            )
            start = time.perf_counter()
            lib = native.build_shared_object(
                compiled.bedrock_fn, program.calling_style, "O2", workdir=self.workdir
            )
            self.build_ms += (time.perf_counter() - start) * 1000.0
            big = data * self.size.native_repeat
            self.native_items.append(
                (program.name, lib, data, program.calling_style, expected,
                 ctypes.create_string_buffer(big, len(big)))
            )
        for query in queries:
            compiled = query.compile(opt_level=1)
            rows = self.size.join_rows if query.name == "q_equi_join" else self.size.exec_rows
            tables, out_len = sized_tables(query, self.rng(query.name), rows)
            params = query.inputs_from_tables(tables, out_len)
            out_param = query.reified().out_param
            self.interp_items.append(
                (query.name, self._run_call(compiled, params, out_param),
                 query.reference(tables, out_len), 0)
            )
        self.ops_per_byte: Dict[str, float] = {}

    @staticmethod
    def _expected(program, data: bytes):
        if program.calling_style == "hash":
            return program.reference(data)
        if program.calling_style == "inplace":
            return list(program.reference(data))
        # scalar/window programs are driven over 4-byte windows, xor-folded
        return importlib.import_module(program.reference.__module__).reference_bytes(data)

    def _run_call(self, compiled, params, out_param):
        def call():
            result = self.runners.run_function(compiled.bedrock_fn, compiled.spec, params)
            value = result.rets[0] if out_param is None else result.out_memory[out_param]
            return value, result.counts.total()

        return call

    def _interp_call(self, program, compiled, data: bytes):
        """Drive one program per calling style, as ``benchmarks/figure2.py`` does."""
        fn, Word = compiled.bedrock_fn, self.Word
        style = program.calling_style
        if style in ("hash", "inplace"):
            return self._run_call(compiled, {"s": list(data)}, "s" if style == "inplace" else None)

        def call():
            interp = self.Interpreter(self.b2.Program((fn,)))
            memory = None
            if style == "window":
                memory = self.Memory()
                base = memory.place_bytes(data)
            acc = 0
            for offset in range(0, len(data) - 3, 4):
                if style == "scalar":
                    args = [Word(64, int.from_bytes(data[offset:offset + 4], "little"))]
                else:
                    args = [Word(64, base), Word(64, len(data)), Word(64, offset)]
                rets, _ = interp.run(fn.name, args, memory=memory)
                acc ^= rets[0].unsigned
            return acc, interp.counts.total()

        return call

    def _native_check(self, lib, data: bytes, style: str, expected) -> bool:
        buffer = ctypes.create_string_buffer(data, len(data))
        got = lib._driver(ctypes.cast(buffer, ctypes.c_void_p), len(data))
        if style == "inplace":
            return list(buffer.raw[: len(data)]) == expected
        return got == expected

    def _native_time(self, ledger: Ledger, lib, big) -> float:
        pointer = ctypes.cast(big, ctypes.c_void_p)
        n = len(big)
        best = float("inf")
        with ledger.span("native.run"):
            for _ in range(NATIVE_RUNS):
                start = time.perf_counter()
                lib._driver(pointer, n)
                best = min(best, time.perf_counter() - start)
        return best * 1e9 / n

    def round(self, ledger: Ledger, index: int) -> None:
        for name, call, expected, nbytes in self.interp_items:
            result = ledger.op(name, call)
            if result is FAILED:
                continue
            value, ops = result
            ledger.check(value == expected, f"{name}: interpreter result differs "
                                             "from the reference")
            if nbytes:
                first = self.ops_per_byte.setdefault(name, ops / nbytes)
                ledger.check(ops / nbytes == first, f"{name}: op count changed")
        for name, lib, data, style, expected, big in self.native_items:
            ns = ledger.op("native." + name, functools.partial(self._native_time, ledger, lib, big))
            if ns is FAILED:
                continue
            ledger.samples["native_ns." + name].append(ns)
            ledger.check(self._native_check(lib, data, style, expected),
                         f"{name}: native result differs from the reference")

    def _native_ns_per_byte(self, ledger: Ledger) -> dict:
        return latency(ledger, ["native_ns." + name for name, *_ in self.native_items],
                       0.5, "ns/B")

    def _b2_ops_per_byte(self) -> float:
        return geomean(list(self.ops_per_byte.values()))

    def metrics(self, ledger: Ledger) -> Dict[str, dict]:
        p50 = latency(ledger, [name for name, *_ in self.interp_items], 0.5)
        return {
            "exec_ms_p50": p50,
            "native_ns_per_byte": self._native_ns_per_byte(ledger),
            "b2_ops_per_byte": {"value": self._b2_ops_per_byte(), "unit": "op/B"},
            "ops_per_s": round_rate(ledger, "op/s"),
            "op_ms_p50": p50,
        }

    def layer_metrics(self, phases: Dict[str, Ledger]) -> Dict[str, float]:
        return {
            "native.build_ms": self.build_ms,
            "native.ns_per_byte": self._native_ns_per_byte(phases["traced"])["value"],
            "bedrock2.ops_per_byte": self._b2_ops_per_byte(),
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (ValidateO1, BatchFuzz, ServeWarm, ExecLarge)}


def make(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    return WORKLOAD_CLASSES[name](seed, SMOKE if smoke else FULL, workdir)
