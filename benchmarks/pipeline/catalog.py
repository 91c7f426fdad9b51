"""Every metric the pipeline benchmark reports: name, unit, direction, bound.

The workloads, the gated end-to-end metrics and the per-layer metrics
are declared once, in ``BENCHMARK.json`` at the repository root; this
module reads them from there.  Three tables:

- :func:`end_to_end` -- the metrics every workload reports on an
  untraced run, each defined per workload (see ``README.md``).  These
  are the gated ones.
- ``WORKLOAD_METRICS`` -- the named end-to-end metrics of single
  workloads (``validations_per_s``, ``request_ms_p99``, ...).  They are
  printed and written by ``run --out``, and ``compare`` judges them too.
- :func:`per_layer` -- the traced run's per-layer metrics, all reported
  on every workload (0 where the workload does not enter the layer).

A bound is the share of the parent's median by which a metric may get
worse before a change counts as a regression; 0 marks an exact count.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Dict, NamedTuple, Tuple

ROOT_DIR = Path(__file__).resolve().parents[2]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    bound: float


# Times and rates are at the reference host speed, as the gated ones are.
WORKLOAD_METRICS: Dict[str, Metric] = {
    "failed_share": Metric("fraction", "lower", 0.0),
    "validations_per_s": Metric("op/s", "higher", 0.25),
    "validate_ms_p50": Metric("ms", "lower", 0.25),
    "batch_cold_jobs_per_s": Metric("job/s", "higher", 0.25),
    "batch_warm_jobs_per_s": Metric("job/s", "higher", 0.25),
    "requests_per_s": Metric("req/s", "higher", 0.25),
    "request_ms_p50": Metric("ms", "lower", 0.25),
    "request_ms_p99": Metric("ms", "lower", 0.25),
    "exec_ms_p50": Metric("ms", "lower", 0.25),
    "native_ns_per_byte": Metric("ns/B", "lower", 0.25),
    "b2_ops_per_byte": Metric("op/B", "lower", 0.0),
}


@functools.lru_cache(maxsize=1)
def declared() -> dict:
    """``BENCHMARK.json``, read on first use."""
    return json.loads((ROOT_DIR / "BENCHMARK.json").read_text())


def workloads() -> Tuple[str, ...]:
    return tuple(w["name"] for w in declared()["workloads"])


def end_to_end() -> Dict[str, Metric]:
    return {m["name"]: Metric(m["unit"], m["better"], m["bound"])
            for m in declared()["end_to_end"]}


def per_layer() -> Dict[str, Tuple[str, str]]:
    """name -> (unit, better).  Reported per in-process op of the traced
    run; ``_ms`` names are a layer's self time, fed by the spans
    ``spans.layer_targets`` names.  They carry no bound."""
    return {m["name"]: (m["unit"], m["better"]) for m in declared()["per_layer"]}


def metric(name: str) -> Metric:
    """The gated or named end-to-end metric ``name``."""
    return end_to_end().get(name) or WORKLOAD_METRICS[name]
