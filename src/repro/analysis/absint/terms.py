"""Abstract interpretation on the source side.

:func:`fact_ranges` is the one source-side analysis over the
:mod:`repro.analysis.absint.domain` lattice, and it is solver-facing.
The symbolic state's facts (``nat.ltb``/``nat.leb``/equalities, seeded
by ``FnSpec``/``initial_state`` with per-argument word bounds and
per-table length facts) are linearized with the Fourier--Motzkin front
end from :mod:`repro.core.solver` and propagated to a bounded interval
fixpoint over the linear atoms.  ``range_solver`` discharges a bounds
obligation when every linearized inequality of the obligation either is
subsumed by a fact inequality or evaluates nonpositive at the interval
bounds -- both checks are cheap and run *before* a full
Fourier--Motzkin elimination would.

The analysis is untrusted, like every solver: a wrong range can at most
make proof search accept an obligation the trusted validation layers
then reject.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.absint.domain import Range
from repro.config import current_config
from repro.core import solver as core_solver
from repro.source import terms as t

__all__ = [
    "LinearForm",
    "discharge_bounds",
    "fact_ranges",
    "state_ranges",
]

# Interval-propagation rounds over the fact system.  Each round only
# tightens bounds, so a small cap keeps the fixpoint deterministic and
# cheap; anything it misses still falls through to Fourier-Motzkin.
FACT_FIXPOINT_ROUNDS = 8

LinearForm = Tuple[Dict[t.Term, int], int]


# -- Fact-derived ranges (the range_solver's map) ---------------------------


def fact_ranges(
    facts, width: int, state=None
) -> Tuple[Dict[t.Term, Range], List[LinearForm]]:
    """Interval map over the facts' linear atoms, plus the fact forms.

    Every atom is nat-valued (the linearizer works over naturals), so
    intervals start at ``[0, +inf)`` and only shrink.
    """
    forms: List[LinearForm] = []
    for fact in facts:
        forms.extend(core_solver._fact_to_inequalities(core_solver.canonicalize(fact)))
    los: Dict[t.Term, int] = {}
    his: Dict[t.Term, Optional[int]] = {}
    for coeffs, _k in forms:
        for atom in coeffs:
            if atom not in los:
                los[atom] = 0
                his[atom] = None
    changed, rounds = True, 0
    while changed and rounds < FACT_FIXPOINT_ROUNDS:
        changed = False
        rounds += 1
        for coeffs, k in forms:
            for atom, coeff in coeffs.items():
                if coeff > 0:
                    # coeff*atom <= -k - sum(other terms), maximized.
                    bound, ok = -k, True
                    for other, c in coeffs.items():
                        if other is atom:
                            continue
                        if c > 0:
                            bound -= c * los[other]
                        elif his[other] is None:
                            ok = False
                            break
                        else:
                            bound += (-c) * his[other]
                    if ok:
                        new_hi = bound // coeff
                        if his[atom] is None or new_hi < his[atom]:
                            his[atom] = new_hi
                            changed = True
                else:
                    # |coeff|*atom >= k + sum(other terms), minimized.
                    bound, ok = k, True
                    for other, c in coeffs.items():
                        if other is atom:
                            continue
                        if c > 0:
                            bound += c * los[other]
                        elif his[other] is None:
                            ok = False
                            break
                        else:
                            bound += c * his[other]
                    if ok:
                        new_lo = -((-bound) // (-coeff))  # ceil division
                        if new_lo > los[atom]:
                            los[atom] = new_lo
                            changed = True
    intervals = {
        atom: Range(los[atom], his[atom], 1, 0) for atom in los
    }
    from repro.obs.trace import current_tracer

    current_tracer().inc("absint.fixpoint.iterations", rounds)
    return intervals, forms


def state_ranges(state, width: int) -> Tuple[Dict[t.Term, Range], List[LinearForm]]:
    """The fact-range map for one symbolic state, cached per version.

    The cache is ``EngineConfig.range_cache`` (:mod:`repro.config`):
    with it off every obligation recomputes the map from the same facts,
    so verdicts (and therefore compiled outputs) are bit-identical either
    way.
    """
    from repro.obs.trace import current_tracer

    caching = current_config().range_cache
    if caching:
        cached = getattr(state, "_absint_ranges", None)
        if cached is not None and cached[0] == state.version:
            current_tracer().inc("absint.map.hit")
            return cached[1]
    current_tracer().inc("absint.map.miss")
    result = fact_ranges(state.facts, width, state)
    if caching:
        state._absint_ranges = (state.version, result)
    return result


def entails_form(
    coeffs: Dict[t.Term, int],
    const: int,
    intervals: Dict[t.Term, Range],
    forms: List[LinearForm],
    width: int,
    state=None,
) -> bool:
    """Does the range map entail ``sum(coeffs) + const <= 0``?"""
    # Route 1: a fact inequality with the same shape and a constant at
    # least as strong subsumes the obligation directly.
    for fact_coeffs, fact_const in forms:
        if fact_const >= const and fact_coeffs == coeffs:
            return True
    # Route 2: evaluate the form at the interval bounds.
    total = const
    for atom, coeff in coeffs.items():
        r = intervals.get(atom)
        if coeff > 0:
            hi = r.hi if r is not None else None
            structural = core_solver.upper_bound(atom, width, state)
            hi = structural if hi is None else min(hi, structural)
            total += coeff * hi
        else:
            total += coeff * (r.lo if r is not None else 0)
    return total <= 0


def discharge_bounds(obligation: t.Term, state, width: int) -> bool:
    """The ``range_solver`` core: prove a bounds obligation from ranges."""
    ob_forms = core_solver._fact_to_inequalities(core_solver.canonicalize(obligation))
    if not ob_forms:
        return False
    intervals, forms = state_ranges(state, width)
    return all(
        entails_form(coeffs, const, intervals, forms, width, state)
        for coeffs, const in ob_forms
    )
