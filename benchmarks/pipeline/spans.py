"""Outside-in spans for the traced run.

The traced run wraps the public functions through which the benchmark's
ops enter each layer, at the attribute their callers resolve at call
time (``repro.validation.passcheck.differential_check`` is the name the
pass validator calls, ``repro.validation.differential.run_function`` the
one ``differential_check`` calls, and so on).  Each wrapper records a
span -- op id, span id, parent id, name, start and end in ns -- in
memory; ``fold`` turns the spans into self time per span name, which is
the per-layer ledger.  The program's own ``repro.obs`` tracer stays off.

Work in other processes is not wrapped: a forked batch worker inherits
the wrappers, and they pass straight through outside the recording
process.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "bench.op"
HOOK = "bench.hook"

# (op, span, parent, name, start_ns, end_ns)
Span = Tuple[int, int, int, str, int, int]


class Recorder:
    """Spans and counters of one traced run, plus the wrappers that make them."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- Recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op: Optional[int] = None, key: object = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent[2] if parent else 0
        sid = next(self._ids)
        key = name if key is None else key
        stack.append((sid, key, op))
        nested = parent is not None and parent[1] is key
        return (sid, parent[0] if parent else 0, name, op, nested, time.perf_counter_ns())

    def _close(self, token) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        sid, parent, name, op, _nested, start = token
        self.spans.append((op, sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        """A span around code the benchmark runs itself (a root when ``op``)."""
        token = self._open(name, op)
        try:
            yield
        finally:
            self._close(token)

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``before(args)`` and ``after(recorder, args, result, exc, mark)``
        run only for the outermost of directly recursive calls of ``fn``,
        so a recursive call counts once.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            span = recorder._open(name, key=fn)
            nested = span[4]
            if not nested:
                recorder.add(name + ".calls")
            mark = before(args) if before is not None and not nested else None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                recorder._close(span)
                if after is not None and not nested:
                    recorder._hook(after, args, None, exc, mark)
                raise
            recorder._close(span)
            if after is not None and not nested:
                recorder._hook(after, args, result, None, mark)
            return result

        traced.__pipeline_span__ = name
        return traced

    def _hook(self, after, args, result, exc, mark) -> None:
        # Counting (an AST walk, say) is tracing cost: give it its own
        # span so it is neither the caller's self time nor the callee's.
        token = self._open(HOOK)
        try:
            after(self, args, result, exc, mark)
        finally:
            self._close(token)

    # -- Installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :func:`layer_targets`."""
        for owner, attr, name, before, after in layer_targets():
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "span": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")


def fold(spans: List[Span]) -> Tuple[Dict[str, int], int]:
    """Self time in ns per span name over the spans inside ops, and the
    summed wall time of the op roots.  Self time is a span's duration
    minus the part its child spans cover, so the self times of one op
    add up to its root's wall time."""
    covered: Dict[int, int] = defaultdict(int)
    for op, sid, parent, name, start, end in spans:
        if op and parent:
            covered[parent] += end - start
    own: Dict[str, int] = defaultdict(int)
    root_wall = 0
    for op, sid, parent, name, start, end in spans:
        if not op:
            continue
        own[name] += end - start - covered[sid]
        if name == ROOT:
            root_wall += end - start
    return dict(own), root_wall


# -- What gets wrapped ---------------------------------------------------------


def _interp_before(args):
    return args[0].counts.total()


def _interp_after(recorder, args, result, exc, ops_before):
    recorder.add("bedrock2.interp_ops", args[0].counts.total() - ops_before)


def _search_after(recorder, args, result, exc, _mark):
    from repro.core.goals import CompileError

    if isinstance(exc, CompileError):
        recorder.add("core.stalls")
    elif result is not None:
        recorder.add("core.stmts", result.statement_count())
        recorder.add("core.cert_nodes", result.certificate.size())


def _trials_after(recorder, args, result, exc, _mark):
    if result is not None:
        recorder.add("validation.trials", result.trials)
        recorder.add("validation.failed_trials", len(result.failures))


def _passes_after(recorder, args, result, exc, _mark):
    from repro.bedrock2 import ast

    if result is None:
        return
    fn, certificates = result
    for cert in certificates:
        if cert.status in ("validated", "rejected"):
            recorder.add(f"opt.passes_{cert.status}")
    recorder.add(
        "opt.stmts_removed",
        ast.statement_count(args[1].body) - ast.statement_count(fn.body),
    )


def _lookup_after(recorder, args, result, exc, _mark):
    if result is not None and result[1] == "hit":
        recorder.add("serve.cache.hits")


def layer_targets():
    """``(owner, attribute, span name, before, after)`` for every wrapped call.

    The owner is the module or class whose attribute the caller looks up
    when it calls; registry programs keep their model builders as
    instance fields, so each program instance is an owner of its own.
    """

    def mod(name):
        return importlib.import_module(name)

    from repro.programs import all_programs

    targets = [
        (mod("repro.query.reify"), "reify", "source.reify", None, None),
        (mod("repro.query.programs").QueryProgram, "build_model", "source.reify", None, None),
        (mod("repro.query.programs").QueryProgram, "build_spec", "source.reify", None, None),
        (mod("repro.validation.differential"), "eval_model", "source.model_eval", None, None),
        (mod("repro.stdlib"), "default_databases", "core.lemma_db", None, None),
        (mod("repro.core.engine").Engine, "compile_function", "core.search", None,
         _search_after),
        (mod("repro.validation.checker"), "check_certificate", "validation.cert_check",
         None, None),
        (mod("repro.validation.checker"), "replay_derivation", "validation.replay",
         None, None),
        (mod("repro.validation.passcheck"), "differential_check", "validation.passcheck",
         None, _trials_after),
        (mod("repro.validation.differential"), "differential_check",
         "validation.differential", None, _trials_after),
        (mod("repro.validation.differential"), "run_function", "validation.runner",
         None, None),
        (mod("repro.validation.runners"), "run_function", "validation.runner", None, None),
        (mod("repro.bedrock2.semantics").Interpreter, "call_function", "bedrock2.interp",
         _interp_before, _interp_after),
        (mod("repro.bedrock2.wellformed"), "check_function", "bedrock2.wellformed",
         None, None),
        (mod("repro.opt.manager"), "check_function", "bedrock2.wellformed", None, None),
        (mod("repro.core.spec").CompiledFunction, "c_source", "bedrock2.c_print",
         None, None),
        (mod("repro.validation.passcheck"), "optimize_compiled", "opt.pass", None, None),
        (mod("repro.opt.manager").PassManager, "run", "opt.pass", None, _passes_after),
        (mod("repro.analysis.dataflow"), "lint_function", "analysis.lint", None, None),
        (mod("repro.serve.cache"), "compile_key", "serve.cache.key", None, None),
        (mod("repro.serve.cache").CompilationCache, "lookup", "serve.cache.lookup",
         None, _lookup_after),
        (mod("repro.serve.cache").CompilationCache, "store", "serve.cache.store",
         None, None),
        (mod("repro.resilience.generator"), "generate_case", "resilience.generate",
         None, None),
    ]
    for program in all_programs():
        targets.append((program, "build_model", "source.reify", None, None))
        targets.append((program, "build_spec", "source.reify", None, None))
    return targets


def wrapped_targets() -> List[str]:
    """Names of the targets that currently hold a wrapper (none when untraced)."""
    return [
        f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        for owner, attr, _name, _before, _after in layer_targets()
        if hasattr(vars(owner)[attr], "__pipeline_span__")
    ]
