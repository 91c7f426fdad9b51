"""Judge a change against its parent from repeated runs of each.

Each report is the JSON that ``run --out`` writes.  Reports pair up per
workload in seed order (run the sides alternately, the same seeds on
both).  For every (metric, workload) pair the verdict is:

- ``improved`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
- ``unresolved`` -- fewer than 10 pairs, or a run-to-run spread (IQR over
  median, on either side) wider than the metric's bound;
- ``regressed`` -- the change's median is worse than the parent's by more
  than the bound;
- ``unchanged`` -- otherwise.

Exact counts (bound 0) compare pair by pair instead: any pair where the
change reads worse is a regression, so any rise in ``failed_share`` is
flagged.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from benchmarks.pipeline import catalog
from benchmarks.pipeline.harness import quantile

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _iqr(values: List[float]) -> float:
    return quantile(values, 0.75) - quantile(values, 0.25)


def _spread(values: List[float]) -> float:
    median = statistics.median(values)
    return _iqr(values) / abs(median) if median else 0.0


def classify(name: str, parent: List[float], change: List[float]) -> Tuple[str, str]:
    """The verdict for one (metric, workload) pair, and a one-line reason."""
    metric = catalog.metric(name)
    sign = 1.0 if metric.better == "higher" else -1.0
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved", f"{len(pairs)} pairs, need {MIN_PAIRS}"
    gains = [sign * (c - p) for p, c in pairs]
    if metric.bound == 0:
        if any(g < 0 for g in gains):
            return "regressed", f"worse in {sum(g < 0 for g in gains)} of {len(pairs)} pairs"
        if any(g > 0 for g in gains):
            return "improved", f"better in {sum(g > 0 for g in gains)} of {len(pairs)} pairs"
        return "unchanged", "identical in every pair"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(g > 0 for g in gains)
    gain = sign * (c_med - p_med)
    spread = max(_spread(parent), _spread(change))
    reason = f"wins {wins}/{len(pairs)}, spread {spread:.1%}, bound {metric.bound:.0%}"
    if wins >= WIN_SHARE * len(pairs) and gain > _iqr(parent):
        return "improved", reason
    if spread > metric.bound:
        return "unresolved", reason
    if -gain > metric.bound * abs(p_med):
        return "regressed", reason
    return "unchanged", reason


def _collect(paths: List[str]) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    values: Dict[Tuple[str, str], List[Tuple[int, float]]] = defaultdict(list)
    gated = catalog.end_to_end()
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        if report.get("trace"):
            continue
        for name, entry in report["metrics"].items():
            if name in gated or name in catalog.WORKLOAD_METRICS:
                values[(report["workload"], name)].append((report["seed"], entry["value"]))
    return values


def compare_files(parent_paths: List[str], change_paths: List[str]) -> Tuple[str, bool]:
    """The comparison table, and whether any pair regressed."""
    parent, change = _collect(parent_paths), _collect(change_paths)
    lines = [f"{'workload':<12} {'metric':<22} {'verdict':<10} "
             f"{'parent p50':>12} {'change p50':>12}  reason"]
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        p_seeds, p_vals = zip(*sorted(parent[key]))
        c_seeds, c_vals = zip(*sorted(change[key]))
        verdict, reason = classify(name, list(p_vals), list(c_vals))
        if p_seeds != c_seeds:
            reason += "; seeds differ between pairs"
        if name == "failed_share" and verdict == "regressed":
            reason += "; FAILED OPS ROSE"
        regressed = regressed or verdict == "regressed"
        lines.append(
            f"{workload:<12} {name:<22} {verdict:<10} {statistics.median(p_vals):>12.6g} "
            f"{statistics.median(c_vals):>12.6g}  {reason}"
        )
    return "\n".join(lines), regressed
