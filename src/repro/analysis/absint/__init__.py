"""Abstract interpretation over an interval x congruence domain.

The package analyzes value ranges at three layers and feeds three
consumers:

- :mod:`repro.analysis.absint.domain` -- the ``Range`` lattice (interval
  with optional open upper bound, times a congruence class) and sound
  transfer functions for the source and Bedrock2 operator sets;
- :mod:`repro.analysis.absint.terms` -- source-side analyses: the
  fact-derived range map behind ``range_solver`` (see
  :mod:`repro.core.solver`) and the whole-model binding ranges behind
  the soundness property suite;
- :mod:`repro.analysis.absint.bedrock` -- a CFG fixpoint with widening
  at loop heads over compiled Bedrock2 functions, behind the ``RB3xx``
  range lints and the ``RangeGuardElimination`` optimizer pass.

Everything here is *untrusted* analysis in the paper's sense: a wrong
range can only ever make the proof search or the optimizer attempt
something the trusted checkers (certificate validation, differential
testing) then reject.

The per-state cache of fact-range maps is a pure speed layer:
``EngineConfig.range_cache`` off (:mod:`repro.config`) recomputes every
verdict from the same facts for every obligation, so all compiled
outputs are byte-identical either way.  The dispatch-equivalence
harness proves it on every registry, query and fuzz program, so like
the other proof-search speed layers it has no user-facing switch
(DESIGN §7); tests and benchmarks reach the uncached path through
:func:`repro.config.engine_config`.
"""

from repro.analysis.absint import bedrock, domain, terms
from repro.analysis.absint.bedrock import (
    AbsintResult,
    analyze_function,
    expr_range,
    function_ranges,
    range_lint,
    refine_env,
)
from repro.analysis.absint.domain import Range
from repro.analysis.absint.terms import (
    ModelRanges,
    analyze_model,
    discharge_bounds,
    fact_ranges,
    state_ranges,
)

__all__ = [
    "AbsintResult",
    "ModelRanges",
    "Range",
    "analyze_function",
    "analyze_model",
    "bedrock",
    "discharge_bounds",
    "domain",
    "expr_range",
    "fact_ranges",
    "function_ranges",
    "range_lint",
    "refine_env",
    "state_ranges",
    "terms",
]
