"""What every campaign shares: one outcome row, one report, one fan-out.

The fault campaigns (:mod:`~repro.resilience.faults`,
:mod:`~repro.resilience.serve_faults`,
:mod:`~repro.resilience.lift_faults`) each classify injections into an
outcome :class:`Vocabulary` and aggregate the rows into one
:class:`CampaignReport`.  Those three campaigns, the fuzzer and the
batch compiler run their plans through :func:`ordered_map`, which yields
results in plan order whether the plan runs in-process or over a
process pool.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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
    submits the whole plan up front to one process pool whose workers
    run with the null tracer; ``fn`` and the items must then pickle.

    A worker that dies (``os._exit``, SIGKILL, OOM) breaks the pool: its
    item and every item still unfinished fail.  Each of those is retried
    once in its own single-worker pool (``on_retry`` hears the index),
    so a deterministic killer cannot take bystanders down with it; an
    item whose retry dies too comes back as a :class:`Lost` value.
    """
    if jobs <= 1:
        for item in items:
            yield fn(*item)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.obs.trace import reset_tracer

    items = list(items)
    with ProcessPoolExecutor(max_workers=jobs, initializer=reset_tracer) as pool:
        futures = [pool.submit(fn, *item) for item in items]
        for index, (item, future) in enumerate(zip(items, futures)):
            try:
                result = future.result()
            except BrokenProcessPool:
                if on_retry is not None:
                    on_retry(index)
                result = _retry_alone(fn, item)
            yield result


def _retry_alone(fn: Callable, item: tuple):
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.obs.trace import reset_tracer

    try:
        with ProcessPoolExecutor(max_workers=1, initializer=reset_tracer) as pool:
            return pool.submit(fn, *item).result()
    except BrokenProcessPool as exc:
        return Lost(repr(exc))
