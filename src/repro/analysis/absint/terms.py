"""Abstract interpretation on the source side.

Two analyses share the :mod:`repro.analysis.absint.domain` lattice:

1. :func:`fact_ranges` -- the solver-facing half.  The symbolic state's
   facts (``nat.ltb``/``nat.leb``/equalities, seeded by
   ``FnSpec``/``initial_state`` with per-argument word bounds and
   per-table length facts) are linearized with the Fourier--Motzkin
   front end from :mod:`repro.core.solver` and propagated to a bounded
   interval fixpoint over the linear atoms.  ``range_solver`` discharges
   a bounds obligation when every linearized inequality of the
   obligation either is subsumed by a fact inequality or evaluates
   nonpositive at the interval bounds -- both checks are cheap and run
   *before* a full Fourier--Motzkin elimination would.

2. :func:`analyze_model` -- per-binding ranges of a functional model,
   by a structural walk with widened loop accumulators.  This is the
   whole-program view the soundness property suite checks against the
   reference evaluator, and what seeds documentation examples.

Both halves are untrusted, like every solver: a wrong range can at most
make proof search accept an obligation the trusted validation layers
then reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.absint import domain
from repro.analysis.absint.domain import Range
from repro.config import current_config
from repro.core import solver as core_solver
from repro.source import terms as t
from repro.source.types import BOOL, BYTE, NAT, WORD, SourceType, TypeKind

__all__ = [
    "LinearForm",
    "ModelRanges",
    "analyze_model",
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


# -- Model-level ranges ------------------------------------------------------

# Loop accumulators join this many times before widening.
WIDEN_AFTER = 3
LOOP_ITER_CAP = 50


@dataclass
class ModelRanges:
    """Per-binding value ranges of one functional model.

    By convention a binder of array (or cell) type records the range of
    its *elements* -- the property suite checks every element of an
    array-valued binding against that range, and every scalar binding's
    value directly.
    """

    bindings: Dict[str, Range] = field(default_factory=dict)
    result: Optional[Range] = None
    widenings: int = 0


def _type_range(ty: Optional[SourceType], width: int) -> Optional[Range]:
    if ty is None:
        return None
    if ty.kind in (TypeKind.ARRAY, TypeKind.CELL):
        return _type_range(ty.elem, width)
    if ty.kind is TypeKind.BYTE:
        return domain.top(8)
    if ty.kind is TypeKind.BOOL:
        return domain.boolean()
    if ty.kind is TypeKind.WORD:
        return domain.top(width)
    if ty.kind is TypeKind.NAT:
        return domain.make(0, (1 << width) - 1)  # initial_state's word-bound fact
    return None


class _ModelWalker:
    """Structural range evaluation of a Term.

    ``None`` means "no numeric range known".  Array-typed terms evaluate
    to the range of their elements, which makes map/put/firstn chains
    compositional without a type environment.
    """

    def __init__(self, width: int):
        self.width = width
        self.bindings: Dict[str, Range] = {}
        self.widenings = 0

    def record(self, name: str, r: Optional[Range]) -> None:
        if r is None:
            return
        if name in self.bindings:
            self.bindings[name] = domain.join(self.bindings[name], r)
        else:
            self.bindings[name] = r

    def _loop_acc(self, init: Optional[Range], step) -> Optional[Range]:
        """Widened fixpoint of ``acc = join(acc, step(acc))``."""
        acc = init if init is not None else domain.make(0, None)
        for iteration in range(LOOP_ITER_CAP):
            nxt = step(acc)
            if nxt is None:
                nxt = domain.make(0, None)
            joined = domain.join(acc, nxt)
            if joined == acc:
                return acc
            if iteration >= WIDEN_AFTER:
                joined = domain.widen(acc, joined)
                self.widenings += 1
            acc = joined
        return domain.make(0, None)

    def eval(self, term: t.Term, env: Dict[str, Optional[Range]]) -> Optional[Range]:
        w = self.width
        if isinstance(term, t.Lit):
            if isinstance(term.value, bool):
                return domain.const(1 if term.value else 0)
            if isinstance(term.value, int):
                return domain.const(term.value)
            return None
        if isinstance(term, t.Var):
            return env.get(term.name)
        if isinstance(term, t.Prim):
            return self._prim(term, env)
        if isinstance(term, t.Let):
            value = self.eval(term.value, env)
            self.record(term.name, value)
            inner = dict(env)
            inner[term.name] = value
            return self.eval(term.body, inner)
        if isinstance(term, t.LetTuple):
            self.eval(term.value, env)
            inner = dict(env)
            for name in term.names:
                inner[name] = None
            return self.eval(term.body, inner)
        if isinstance(term, t.If):
            self.eval(term.cond, env)
            then_r = self.eval(term.then_, env)
            else_r = self.eval(term.else_, env)
            if then_r is None or else_r is None:
                return None
            return domain.join(then_r, else_r)
        if isinstance(term, t.ArrayLen):
            return domain.make(0, None)
        if isinstance(term, t.ArrayGet):
            self.eval(term.index, env)
            return self.eval(term.arr, env)
        if isinstance(term, t.FirstN):
            self.eval(term.count, env)
            return self.eval(term.arr, env)
        if isinstance(term, t.ArrayPut):
            arr = self.eval(term.arr, env)
            self.eval(term.index, env)
            value = self.eval(term.value, env)
            if arr is None or value is None:
                return None
            return domain.join(arr, value)
        if isinstance(term, t.TableGet):
            self.eval(term.index, env)
            if term.data:
                return domain.make(min(term.data), max(term.data))
            return None
        if isinstance(term, t.ArrayMap):
            elem = self.eval(term.arr, env)
            self.record(term.elem_name, elem)
            inner = dict(env)
            inner[term.elem_name] = elem
            return self.eval(term.body, inner)  # elem range of the result
        if isinstance(term, (t.ArrayFold, t.ArrayFoldBreak)):
            elem = self.eval(term.arr, env)
            init = self.eval(term.init, env)

            def step(acc, term=term, env=env, elem=elem):
                inner = dict(env)
                inner[term.acc_name] = acc
                inner[term.elem_name] = elem
                return self.eval(term.body, inner)

            result = self._loop_acc(init, step)
            self.record(term.acc_name, result)
            self.record(term.elem_name, elem)
            if isinstance(term, t.ArrayFoldBreak):
                inner = dict(env)
                inner[term.acc_name] = result
                self.eval(term.break_pred, inner)
            return result
        if isinstance(term, t.RangedFor):
            lo = self.eval(term.lo, env)
            hi = self.eval(term.hi, env)
            if lo is not None and hi is not None and hi.hi is not None:
                idx: Optional[Range] = domain.make(lo.lo, max(hi.hi - 1, lo.lo))
            else:
                idx = domain.make(lo.lo if lo is not None else 0, None)
            init = self.eval(term.init, env)

            def step(acc, term=term, env=env, idx=idx):
                inner = dict(env)
                inner[term.acc_name] = acc
                inner[term.idx_name] = idx
                return self.eval(term.body, inner)

            result = self._loop_acc(init, step)
            self.record(term.idx_name, idx)
            self.record(term.acc_name, result)
            return result
        if isinstance(term, t.NatIter):
            self.eval(term.count, env)
            init = self.eval(term.init, env)

            def step(acc, term=term, env=env):
                inner = dict(env)
                inner[term.acc_name] = acc
                return self.eval(term.body, inner)

            result = self._loop_acc(init, step)
            self.record(term.acc_name, result)
            return result
        # Unknown heads (tuples, cells, effects, query combinators):
        # walk the children for their bindings, claim nothing.
        for child in term.children():
            self.eval(child, env)
        return None

    def _prim(self, term: t.Prim, env) -> Optional[Range]:
        args = [self.eval(arg, env) for arg in term.args]
        ns, _, op = term.op.partition(".")
        if ns == "cast":
            arg = args[0] if args else None
            if op in ("b2n", "b2w", "to_nat"):
                return arg if arg is not None else None
            if op == "of_nat":
                return domain.wrap(arg, self.width) if arg is not None else None
            if op == "w2b":
                return domain.wrap(arg, 8) if arg is not None else domain.top(8)
            if op == "bool2w":
                return domain.boolean()
            return None
        if ns == "bool":
            return domain.boolean()
        width = {"nat": None, "word": self.width, "byte": 8}.get(ns)
        if width is None and ns != "nat":
            return None
        a = args[0] if args and args[0] is not None else domain.make(0, None)
        if width is not None:
            a = domain.meet_interval(a, hi=(1 << width) - 1)
        b = args[1] if len(args) > 1 and args[1] is not None else domain.make(0, None)
        if width is not None and len(args) > 1:
            b = domain.meet_interval(b, hi=(1 << width) - 1)
        if op in ("ltb", "leb", "ltu", "lts", "eqb", "eq"):
            return domain.boolean()
        if op == "add":
            return domain.add(a, b, width)
        if op == "sub":
            return domain.sub(a, b, width)
        if op == "mul":
            return domain.mul(a, b, width)
        if op == "mulhuu":
            return domain.top(self.width)
        if op in ("div", "divu"):
            return domain.divu(a, b, width)
        if op in ("mod", "remu"):
            return domain.remu(a, b, width)
        if op == "and":
            return domain.and_(a, b, width)
        if op == "or":
            return domain.or_(a, b, width)
        if op == "xor":
            return domain.xor(a, b, width)
        if op == "shl":
            return domain.shl(a, b, width)
        if op == "shr":
            return domain.shr(a, b, width)
        if op == "sar":
            return domain.sar(a, b, width)
        return _type_range(
            {"nat": NAT, "word": WORD, "byte": BYTE, "bool": BOOL}.get(ns), self.width
        )


def analyze_model(model, spec=None, width: int = 64) -> ModelRanges:
    """Per-binding and result ranges of a functional model.

    Parameters are seeded from their declared types (``initial_state``
    asserts every nat argument below ``2**width``, so nat parameters get
    that bound; arrays carry no numeric range).
    """
    walker = _ModelWalker(width)
    env: Dict[str, Optional[Range]] = {}
    for name, ty in model.params:
        seeded = _type_range(ty, width)
        env[name] = seeded
        walker.record(name, seeded)
    result = walker.eval(model.term, env)
    return ModelRanges(
        bindings=walker.bindings, result=result, widenings=walker.widenings
    )
