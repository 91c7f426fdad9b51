"""Predicate inference for conditionals (§3.4.2).

The paper's heuristic, reproduced literally:

1. *Identify targets* of the control-flow construct from the names in the
   corresponding bindings.
2. For each target, *classify* it as scalar or pointer by inspecting the
   current locals and memory predicate: no binding / scalar binding means
   scalar; a binding to a pointer that appears in a separation-logic
   clause means pointer.
3. *Abstract* over the corresponding binding (scalars) or heap clause
   value (pointers).
4. *Close over* the results, producing a predicate template parameterized
   on the values of the variables being created or mutated.

For forward edges (conditionals) the template is instantiated with the
source conditional itself -- the merged symbolic value of a target is
literally ``if c then v_then else v_else``, which keeps later syntactic
matching working (the compiler looks for ``cell ?p (if t then ... else
...)``, "not a disjunction").

Loops do not come through here: each loop lemma in
:mod:`repro.stdlib.loops` builds its own invariant at a *symbolic
iteration*, a fresh ghost counter ``i`` with a closed-form
partial-execution term such as ``map f (firstn i l) ++ skipn i l``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.sepstate import PointerBinding, PtrSym, ScalarBinding, SymState
from repro.source import terms as t
from repro.source.types import SourceType


@dataclass(frozen=True)
class Target:
    """One variable created or mutated by a control-flow construct."""

    name: str
    kind: str  # "scalar" | "pointer"
    ptr: Optional[PtrSym] = None
    ty: Optional[SourceType] = None


def classify_target(state: SymState, name: str) -> Target:
    """Step 2 of the heuristic: scalar or pointer?

    "'r' because we do not find a binding for it in the map of locals,
    and 'c' because the binding we find for it is to a pointer (p appears
    in the separation-logic predicate cell p c)."
    """
    binding = state.binding(name)
    if binding is None:
        return Target(name, "scalar")
    if isinstance(binding, PointerBinding) and binding.ptr in state.heap:
        return Target(name, "pointer", ptr=binding.ptr, ty=binding.ty)
    if isinstance(binding, ScalarBinding):
        return Target(name, "scalar", ty=binding.ty)
    return Target(name, "scalar")


@dataclass
class PredicateTemplate:
    """The closed-over template of step 4: instantiate with concrete values.

    ``scalar_targets`` and ``pointer_targets`` list, in order, the holes;
    ``instantiate`` plugs source terms into them, yielding the updated
    symbolic state (locals and heap with the holes filled).
    """

    base: SymState
    targets: List[Target]

    def instantiate(
        self,
        values: Dict[str, t.Term],
        scalar_types: Optional[Dict[str, SourceType]] = None,
    ) -> SymState:
        state = self.base.copy()
        scalar_types = scalar_types or {}
        for target in self.targets:
            value = values[target.name]
            if target.kind == "pointer":
                assert target.ptr is not None
                state.set_heap_value(target.ptr, value)
            else:
                ty = scalar_types.get(target.name) or target.ty
                if ty is None:
                    raise ValueError(
                        f"no type known for scalar target {target.name!r}"
                    )
                state.bind_scalar(target.name, value, ty)
        return state


def infer_template(state: SymState, target_names: List[str]) -> PredicateTemplate:
    """Steps 1-4 for a given set of target names."""
    targets = [classify_target(state, name) for name in target_names]
    return PredicateTemplate(base=state, targets=targets)


def merge_conditional(
    state: SymState,
    target_names: List[str],
    cond: t.Term,
    then_values: Dict[str, t.Term],
    else_values: Dict[str, t.Term],
    scalar_types: Optional[Dict[str, SourceType]] = None,
) -> SymState:
    """Join a conditional: each target's merged value is the source ``if``.

    This is precisely the paper's CAS example: the merged state maps
    ``c``'s clause to ``cell p (if t then put c x else c)`` rather than a
    disjunction of postconditions.
    """
    template = infer_template(state, target_names)
    merged: Dict[str, t.Term] = {}
    for name in target_names:
        then_v, else_v = then_values[name], else_values[name]
        merged[name] = then_v if then_v == else_v else t.If(cond, then_v, else_v)
    return template.instantiate(merged, scalar_types)
