"""What every campaign shares: one outcome row, one report, one fan-out.

The fault campaigns (:mod:`~repro.resilience.faults`,
:mod:`~repro.resilience.serve_faults`,
:mod:`~repro.resilience.lift_faults`) each build a list of
``(point, target, fn, args)`` rows, where ``fn(*args)`` injects one
fault and returns an ``(outcome, detail)`` pair named in the campaign's
:class:`Vocabulary`; :func:`run_campaign` runs the rows and aggregates
them into one :class:`CampaignReport`.  The campaigns, the fuzzer and
the batch compiler all fan their plans out through :func:`ordered_map`,
which yields results in plan order whether the plan runs in-process or
over a process pool.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

# Outcome names; campaigns share a name wherever the meaning is the same.
DETECTED = "detected"  # a trusted checker (or the service) flagged the fault
REJECTED = "rejected"  # a clean, typed error before any artifact existed
RECOVERED = "recovered"  # the service absorbed the fault and answered correctly
HARMLESS = "harmless"  # the fault changed nothing observable
CRASH = "crash"  # an unhandled exception escaped (or the worker died twice)
SILENT = "silent"  # a changed artifact or answer passed every check


@dataclass(frozen=True)
class Vocabulary:
    """A campaign's ordered outcome names and what each one means.

    ``ok`` requires no ``bad`` outcome and at least one of each
    ``required`` outcome; the rate is ``caught / (caught + bad)``.
    """

    outcomes: Tuple[str, ...]
    caught: FrozenSet[str]
    bad: FrozenSet[str]
    required: FrozenSet[str] = frozenset()


@dataclass
class Outcome:
    """What one injected fault did to one target."""

    point: str
    target: str
    outcome: str
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.outcome}] {self.point} on {self.target}: {self.detail}"


@dataclass
class CampaignReport:
    """The aggregated rows of one fault campaign."""

    title: str
    seed: int
    outcomes: List[Outcome]
    vocabulary: Vocabulary

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o.outcome == outcome)

    @property
    def injected(self) -> int:
        return len(self.outcomes)

    @property
    def rate(self) -> float:
        """Caught over caught-plus-bad; 1.0 when neither occurred."""
        caught = sum(self.count(name) for name in self.vocabulary.caught)
        bad = sum(self.count(name) for name in self.vocabulary.bad)
        return caught / (caught + bad) if caught + bad else 1.0

    @property
    def ok(self) -> bool:
        return not any(self.count(name) for name in self.vocabulary.bad) and all(
            self.count(name) for name in self.vocabulary.required
        )

    def add(self, outcome: Outcome) -> None:
        """Append one row, emitting its ``fault_outcome`` event and counters."""
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "fault_outcome",
                point=outcome.point,
                target=outcome.target,
                outcome=outcome.outcome,
            )
            tracer.inc("faults.injected")
            tracer.inc(f"faults.outcome.{outcome.outcome}")
        self.outcomes.append(outcome)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "injected": self.injected,
            "counts": {name: self.count(name) for name in self.vocabulary.outcomes},
            "rate": self.rate,
            "outcomes": [asdict(o) for o in self.outcomes],
            "ok": self.ok,
        }

    def render(self) -> str:
        counts = " ".join(
            f"{name}={self.count(name)}" for name in self.vocabulary.outcomes
        )
        lines = [f"{self.title}: seed={self.seed} injected={self.injected} {counts}"]
        lines.append(f"  rate: {self.rate:.0%}")
        lines.extend(f"  {o}" for o in self.outcomes)
        lines.append("  result: OK" if self.ok else "  result: FAILED")
        return "\n".join(lines)


# -- The executor --------------------------------------------------------------------


@dataclass(frozen=True)
class Lost:
    """A plan item whose worker died twice: in the shared pool and alone."""

    detail: str


def ordered_map(
    fn: Callable,
    items: Iterable[tuple],
    jobs: int,
    on_retry: Optional[Callable[[int], None]] = None,
) -> Iterator:
    """Yield ``fn(*item)`` for every item, in plan order.

    ``jobs <= 1`` calls ``fn`` lazily in this process, so whatever the
    caller does between items (trace events, progress lines) interleaves
    with ``fn``'s own spans exactly as in a plain loop.  ``jobs > 1``
    first builds the process constants here
    (:func:`~repro.stdlib.warm_process_constants`), then submits the
    plan to one process pool as contiguous chunks of
    ``ceil(n / (8 * jobs))`` items, one future per chunk, each running
    its items in order.  Workers run with the null tracer; ``fn`` and
    the items must pickle.  Under the ``fork`` start method the workers
    inherit the warm constants; under ``spawn`` or ``forkserver`` each
    builds its own on first use, which is slower but gives the same
    results.

    A worker that dies (``os._exit``, SIGKILL, OOM) breaks the pool: its
    chunk and every chunk still unfinished fail, including the items
    those chunks had already run.  Every item of a failed chunk is
    retried once in its own single-worker pool (``on_retry`` hears each
    index), so a deterministic killer cannot take bystanders down with
    it; an item whose retry dies too comes back as a :class:`Lost` value.
    """
    if jobs <= 1:
        for item in items:
            yield fn(*item)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.obs.trace import reset_tracer
    from repro.stdlib import warm_process_constants

    items = list(items)
    size = max(1, -(-len(items) // (8 * jobs)))
    starts = range(0, len(items), size)
    warm_process_constants()
    with ProcessPoolExecutor(max_workers=jobs, initializer=reset_tracer) as pool:
        futures = [pool.submit(_run_chunk, fn, items[i:i + size]) for i in starts]
        for start, future in zip(starts, futures):
            try:
                results = future.result()
            except BrokenProcessPool:
                chunk = range(start, min(start + size, len(items)))
                results = _retry_each(fn, items, chunk, on_retry)
            yield from results


def _run_chunk(fn: Callable, chunk: List[tuple]) -> list:
    return [fn(*item) for item in chunk]


def _retry_each(
    fn: Callable,
    items: List[tuple],
    indices: range,
    on_retry: Optional[Callable[[int], None]],
) -> Iterator:
    for index in indices:
        if on_retry is not None:
            on_retry(index)
        yield _retry_alone(fn, items[index])


def _retry_alone(fn: Callable, item: tuple):
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.obs.trace import reset_tracer

    try:
        with ProcessPoolExecutor(max_workers=1, initializer=reset_tracer) as pool:
            return pool.submit(fn, *item).result()
    except BrokenProcessPool as exc:
        return Lost(repr(exc))


# -- The campaign driver -------------------------------------------------------------


def run_campaign(
    title: str,
    seed: int,
    vocabulary: Vocabulary,
    rows: Sequence[tuple],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run every ``(point, target, fn, args)`` row into one report, in row order.

    Each ``fn(*args)`` runs under one ``fault_injection`` span; an
    exception that escapes it is a ``crash`` row whose detail is the
    exception's ``repr``, and so is a row whose worker died twice
    (:class:`Lost`).  ``jobs > 1`` fans the rows over
    :func:`ordered_map`'s process pool, so ``fn`` and ``args`` must
    pickle; the report is the same either way.
    """
    report = CampaignReport(title, seed, [], vocabulary)
    results = ordered_map(_run_row, rows, jobs)
    for index, ((point, target, _fn, _args), result) in enumerate(zip(rows, results)):
        outcome, detail = (CRASH, result.detail) if isinstance(result, Lost) else result
        if progress is not None:
            progress(f"injected {point} into {target} ({index + 1}/{len(rows)})")
        report.add(Outcome(point, target, outcome, detail))
    return report


def _run_row(point: str, target: str, fn: Callable, args: tuple) -> Tuple[str, str]:
    from repro.obs.trace import NULL_SPAN, current_tracer

    tracer = current_tracer()
    span = (
        tracer.span("fault_injection", name=point, program=target)
        if tracer.enabled
        else NULL_SPAN
    )
    with span:
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a leaky harness is a crash finding
            return CRASH, repr(exc)
