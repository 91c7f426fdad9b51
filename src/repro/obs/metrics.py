"""Counters and histograms for the compilation engine.

A :class:`MetricsRegistry` is the aggregate half of the flight recorder
(:mod:`repro.obs.trace` is the event half): named counters (lemma
attempts per family, solver-bank calls, resolve rewrites, stall/degrade
tallies, per-pass op deltas) and histograms over *deterministic* values
(lemma-scan lengths, certificate sizes).  Everything in a registry is a
pure function of the compiled input, never of the clock -- wall-clock
timings live out-of-band in ``Tracer.span_times`` -- so a registry's
JSON export is seed-reproducible and safe to commit in golden files.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Histogram:
    """Summary statistics of a stream of (deterministic) observations."""

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


@dataclass
class MetricsRegistry:
    """Named counters and histograms, exported as JSON.

    Counter names are dotted paths (``lemma.hits.compile_arraymap``,
    ``solver.calls``); the export sorts keys so two runs over the same
    input serialize identically.
    """

    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, Histogram()).observe(value)

    def merge(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.inc(name, value)
        for name, hist in other.histograms.items():
            mine = self.histograms.setdefault(name, Histogram())
            mine.count += hist.count
            mine.total += hist.total
            for bound in ("min", "max"):
                theirs = getattr(hist, bound)
                ours = getattr(mine, bound)
                if theirs is not None:
                    pick = min if bound == "min" else max
                    setattr(mine, bound, theirs if ours is None else pick(ours, theirs))

    def to_dict(self) -> dict:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
