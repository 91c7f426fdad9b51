"""Resilience subsystem: fuzzing, fault injection, budgets, degradation.

Four pillars, all built on the same premise as the rest of the repo --
the pipeline's cleverness is untrusted, its checkers are trusted:

- :mod:`repro.resilience.generator` / :mod:`repro.resilience.fuzzer` --
  seeded property-based generation of well-typed annotated models driven
  through compile → certificate → differential → ``-O1`` → RISC-V,
  asserting agreement at every stage (``repro fuzz``);
- :mod:`repro.resilience.faults` -- a cross-layer fault-injection
  campaign corrupting lemmas, solvers, optimizer passes, and
  certificates, asserting the trusted checkers catch every lie
  (``repro faults``); every campaign shares the report and the
  process fan-out of :mod:`repro.resilience.campaign`;
- :mod:`repro.resilience.budget` -- fuel and wall-clock deadlines for
  proof search, surfaced as typed
  :class:`~repro.core.goals.ResourceExhausted`;
- :mod:`repro.resilience.degrade` -- graceful degradation: a failed
  compilation falls back to interpreting the functional model, clearly
  marked unverified.
"""

from repro.resilience.budget import Budget, unlimited
from repro.resilience.degrade import (
    DegradedFunction,
    DegradedResult,
    compile_or_degrade,
)
from repro.resilience.campaign import CampaignReport, Outcome, ordered_map
from repro.resilience.faults import run_faults
from repro.resilience.fuzzer import FuzzFinding, FuzzReport, run_fuzz
from repro.resilience.generator import FuzzCase, generate_case

__all__ = [
    "Budget",
    "unlimited",
    "DegradedFunction",
    "DegradedResult",
    "compile_or_degrade",
    "CampaignReport",
    "Outcome",
    "ordered_map",
    "run_faults",
    "FuzzFinding",
    "FuzzReport",
    "run_fuzz",
    "FuzzCase",
    "generate_case",
]
