"""Side-condition solvers.

Compilation lemmas come with logical side conditions -- array-bounds
checks, no-overflow obligations for nat arithmetic, length-preservation
facts.  The paper distinguishes (§3.4.2):

- **structural** properties, inherent to a representation choice (a
  mutated array keeps its length): here these are *normalization rules*
  on length terms, applied before linear reasoning;
- **incidental** properties, specific to one program: users prove them at
  the source level and plug them in as facts (``FnSpec.facts`` or lemma
  hints); the solvers then combine them with linear arithmetic, playing
  the role of the paper's "Coq linear-arithmetic solver" (lia).

The main solver is a small, sound (not complete) Fourier-Motzkin
entailment checker over the naturals: facts and the negated obligation are
linearized over atoms (variables, array lengths, opaque subterms); if the
combined system is infeasible over the rationals, the obligation follows.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import current_config
from repro.source import terms as t
from repro.source.types import NAT

# A linear form: mapping from atom (a canonical Term) to coefficient, plus
# a constant; represents  sum(coeff * atom) + const.  Coefficients are
# plain ints: linearization introduces only integers and Fourier-Motzkin
# eliminates by cross-multiplying with coefficient magnitudes (never
# dividing), so the system stays integral -- exact, and much cheaper
# than rational arithmetic on the discharge hot path.
LinearForm = Tuple[Dict[t.Term, int], int]

# -- Node memos over hash-consed terms ------------------------------------------------
#
# ``canonicalize``/``_linearize``/``_fact_to_inequalities`` are pure term
# walks, and the solver re-runs them for every fact on every discharge.
# Hash-consing makes them memoizable by node *identity*: a canonical node
# (``_hc_canonical``) is pinned forever by the intern table, so its
# ``id()`` is a stable key, and each entry stores ``(node, result)`` so a
# hit is re-validated by identity.  The memos are registered with
# :func:`repro.source.terms.register_node_memo` (cleared with the table)
# and gated on ``EngineConfig.fast_search`` (:mod:`repro.config`) so that
# turning interning off disables the whole layer, not just the table.
# Results are shared, never mutated: every consumer builds fresh
# dicts/lists (``_add``, ``_scale``, ``_fourier_motzkin_infeasible``).

_CANON_MEMO: Dict[int, tuple] = t.register_node_memo({})
_LINEARIZE_MEMO: Dict[int, tuple] = t.register_node_memo({})
_FACT_INEQ_MEMO: Dict[int, tuple] = t.register_node_memo({})


def _node_memo(memo: Dict[int, tuple]):
    """Memoize a unary pure term walk over canonical (interned) nodes."""

    def wrap(walk):
        def wrapped(term):
            if not current_config().fast_search:
                return walk(term)
            entry = memo.get(id(term))
            if entry is not None and entry[0] is term:
                return entry[1]
            result = walk(term)
            if term.__dict__.get("_hc_canonical"):
                memo[id(term)] = (term, result)
            return result

        wrapped.__name__ = walk.__name__
        wrapped.__doc__ = walk.__doc__
        return wrapped

    return wrap


# -- Structural normalization of length terms ----------------------------------------


def normalize_len(arr: t.Term) -> t.Term:
    """A canonical nat term for ``length arr``.

    Encodes the structural facts of §3.4.2: mutation preserves length,
    maps preserve length, the inferred loop-invariant shape
    ``map f (firstn i l) ++ skipn i l`` has the length of ``l``, etc.
    """
    if isinstance(arr, t.ArrayPut):
        return normalize_len(arr.arr)
    if isinstance(arr, t.ArrayMap):
        return normalize_len(arr.arr)
    if isinstance(arr, (t.Copy, t.Stack)):
        return normalize_len(arr.value)
    if isinstance(arr, t.NdAllocBytes):
        return t.Lit(arr.nbytes, NAT)
    if isinstance(arr, t.Append):
        first = normalize_len(arr.first)
        second = normalize_len(arr.second)
        # The invariant shape: firstn i l ++ skipn i l == l.
        if isinstance(first, t.FirstN) or isinstance(second, t.SkipN):
            pass  # fall through to the arithmetic below
        return t.Prim("nat.add", (first, second))
    if isinstance(arr, t.FirstN):
        # length (firstn n l) = min n (length l); exact when n <= length l,
        # which the loop invariants that produce this shape always know.
        return _MinLen(arr)
    if isinstance(arr, t.SkipN):
        # length (skipn n l) = length l - n (truncated).
        return t.Prim("nat.sub", (normalize_len(arr.arr), _as_nat(arr.count)))
    if isinstance(arr, t.If):
        then_len = normalize_len(arr.then_)
        else_len = normalize_len(arr.else_)
        if then_len == else_len:
            return then_len
        return t.ArrayLen(arr)
    if isinstance(arr, t.Lit) and isinstance(arr.value, (list, tuple)):
        return t.Lit(len(arr.value), NAT)
    # Open extension point: array-producing Term subclasses from other
    # packages (repro.query) contribute their own structural length rule
    # (e.g. a projection writes one element per element of its target).
    hook = getattr(arr, "normalize_len_node", None)
    if hook is not None:
        return hook(normalize_len)
    return t.ArrayLen(arr)


def _as_nat(term: t.Term) -> t.Term:
    return term


def _MinLen(arr: t.FirstN) -> t.Term:
    """``min n (length l)`` represented for the linearizer.

    We keep it as a FirstN-headed length atom; the linearizer treats it
    opaquely, and the special Append rule above handles the common
    invariant shape exactly.
    """
    return t.ArrayLen(arr)


def normalize_append_len(first: t.Term, second: t.Term) -> Optional[t.Term]:
    """Recognize ``anything-of-length-(firstn i l) ++ skipn i l``."""
    if isinstance(second, t.SkipN):
        inner_first = first
        if isinstance(inner_first, t.ArrayMap):
            inner_first = inner_first.arr
        else:
            # Open extension point: external loop-invariant shapes (e.g.
            # repro.query's projection) expose the prefix array whose
            # length they preserve.
            prefix = getattr(inner_first, "invariant_prefix_node", None)
            if prefix is not None:
                inner_first = prefix()
        if (
            isinstance(inner_first, t.FirstN)
            and inner_first.arr == second.arr
            and inner_first.count == second.count
        ):
            return normalize_len(second.arr)
    return None


@_node_memo(_CANON_MEMO)
def canonicalize(term: t.Term) -> t.Term:
    """Normalize length subterms so syntactic lookups see through mutation.

    ``of_nat (length (map f s))`` and ``of_nat (length s)`` denote the
    same word; canonicalizing both to the latter lets the local-lookup
    lemma find the ``len`` argument even after the array's symbolic value
    has been rewritten by mutation lemmas.
    """
    if isinstance(term, t.ArrayLen):
        special = None
        if isinstance(term.arr, t.Append):
            special = normalize_append_len(term.arr.first, term.arr.second)
        normalized = special if special is not None else normalize_len(term.arr)
        if isinstance(normalized, t.ArrayLen):
            if normalized.arr is term.arr or normalized == term:
                return t.ArrayLen(canonicalize(normalized.arr))
            return canonicalize(normalized)
        return canonicalize(normalized)
    if isinstance(term, t.Prim):
        return t.Prim(term.op, tuple(canonicalize(a) for a in term.args))
    if isinstance(term, t.If):
        return t.If(
            canonicalize(term.cond), canonicalize(term.then_), canonicalize(term.else_)
        )
    if isinstance(term, t.ArrayGet):
        return t.ArrayGet(canonicalize(term.arr), canonicalize(term.index))
    if isinstance(term, t.TableGet):
        return t.TableGet(term.data, term.elem_ty, canonicalize(term.index))
    return term


# -- Linearization --------------------------------------------------------------------


@_node_memo(_LINEARIZE_MEMO)
def _linearize(term: t.Term) -> LinearForm:
    """Linearize a nat term over atoms; unknown structure becomes an atom."""
    if isinstance(term, t.Lit) and isinstance(term.value, int):
        return {}, term.value
    if isinstance(term, t.Prim):
        if term.op == "nat.add":
            return _add(_linearize(term.args[0]), _linearize(term.args[1]), 1)
        if term.op == "nat.mul":
            lhs, rhs = term.args
            if isinstance(lhs, t.Lit) and isinstance(lhs.value, int):
                return _scale(_linearize(rhs), lhs.value)
            if isinstance(rhs, t.Lit) and isinstance(rhs.value, int):
                return _scale(_linearize(lhs), rhs.value)
            return {_canonical(term): 1}, 0
        if term.op == "cast.to_nat" or term.op == "cast.b2n":
            return {_canonical(term): 1}, 0
        # nat.sub is truncated; sound only with relational knowledge, so it
        # stays opaque (see module docstring).
    if isinstance(term, t.ArrayLen):
        normalized = normalize_len(term.arr)
        if isinstance(term.arr, t.Append):
            special = normalize_append_len(term.arr.first, term.arr.second)
            if special is not None:
                normalized = special
        if normalized != term:
            return _linearize(normalized)
        return {_canonical(term): 1}, 0
    if isinstance(term, t.Append):
        return _linearize(t.ArrayLen(term))  # pragma: no cover - defensive
    return {_canonical(term): 1}, 0


def _canonical(term: t.Term) -> t.Term:
    if isinstance(term, t.ArrayLen):
        inner = normalize_len(term.arr)
        if isinstance(inner, t.ArrayLen):
            return inner
        return term
    return term


def _add(a: LinearForm, b: LinearForm, sign: int) -> LinearForm:
    coeffs = dict(a[0])
    for atom, coeff in b[0].items():
        coeffs[atom] = coeffs.get(atom, 0) + sign * coeff
        if coeffs[atom] == 0:
            del coeffs[atom]
    return coeffs, a[1] + sign * b[1]


def _scale(a: LinearForm, factor: int) -> LinearForm:
    return {k: v * factor for k, v in a[0].items() if v * factor != 0}, a[1] * factor


# -- Inequality systems and Fourier-Motzkin --------------------------------------------


@_node_memo(_FACT_INEQ_MEMO)
def _fact_to_inequalities(fact: t.Term) -> List[LinearForm]:
    """Turn a boolean fact into 0 or more ``expr <= 0`` forms."""
    if isinstance(fact, t.Prim):
        if fact.op in ("nat.ltb", "word.ltu", "byte.ltu"):
            lhs, rhs = (_linearize(a) for a in fact.args)
            # a < b  ~>  a - b + 1 <= 0 (integers)
            combined = _add(lhs, rhs, -1)
            return [(combined[0], combined[1] + 1)]
        if fact.op == "nat.leb":
            lhs, rhs = (_linearize(a) for a in fact.args)
            return [_add(lhs, rhs, -1)]
        if fact.op in ("nat.eqb", "word.eq"):
            lhs, rhs = (_linearize(a) for a in fact.args)
            le = _add(lhs, rhs, -1)
            ge = _add(rhs, lhs, -1)
            return [le, ge]
    return []


def _negate_obligation(obligation: t.Term) -> Optional[List[LinearForm]]:
    """Inequalities equivalent to the *negation* of the obligation."""
    if isinstance(obligation, t.Lit) and obligation.value is True:
        return None  # trivially true; nothing to refute
    if isinstance(obligation, t.Prim):
        if obligation.op in ("nat.ltb", "word.ltu", "byte.ltu"):
            lhs, rhs = (_linearize(a) for a in obligation.args)
            # not (a < b)  ~>  b <= a  ~>  b - a <= 0
            return [_add(rhs, lhs, -1)]
        if obligation.op == "nat.leb":
            lhs, rhs = (_linearize(a) for a in obligation.args)
            # not (a <= b)  ~>  b + 1 <= a
            combined = _add(rhs, lhs, -1)
            return [(combined[0], combined[1] + 1)]
        if obligation.op == "nat.eqb":
            # Disequality needs a disjunction; handled by trying both sides.
            return []  # signal: use equality-specific handling
    return []


def _fourier_motzkin_infeasible(system: List[LinearForm]) -> bool:
    """Is the conjunction of ``expr <= 0`` constraints infeasible (rationals)?"""
    constraints = [c for c in system]
    variables: List[t.Term] = []
    for coeffs, _ in constraints:
        for atom in coeffs:
            if atom not in variables:
                variables.append(atom)
    for var in variables:
        positive, negative, others = [], [], []
        for coeffs, const in constraints:
            coeff = coeffs.get(var, 0)
            if coeff > 0:
                positive.append((coeffs, const))
            elif coeff < 0:
                negative.append((coeffs, const))
            else:
                others.append((coeffs, const))
        combined = list(others)
        for pos_coeffs, pos_const in positive:
            for neg_coeffs, neg_const in negative:
                scale_pos = -neg_coeffs[var]
                scale_neg = pos_coeffs[var]
                merged: Dict[t.Term, int] = {}
                for atom, coeff in pos_coeffs.items():
                    merged[atom] = merged.get(atom, 0) + scale_pos * coeff
                for atom, coeff in neg_coeffs.items():
                    merged[atom] = merged.get(atom, 0) + scale_neg * coeff
                merged = {k: v for k, v in merged.items() if v != 0}
                merged.pop(var, None)
                combined.append((merged, scale_pos * pos_const + scale_neg * neg_const))
        constraints = combined
        if len(constraints) > 2000:  # defensive blow-up guard
            return False
    return any(not coeffs and const > 0 for coeffs, const in constraints)


# -- Solvers ------------------------------------------------------------------------------


SolverFn = Callable[[t.Term, "object"], bool]  # (obligation, state) -> solved?


def ground_eval_solver(obligation: t.Term, state) -> bool:
    """Discharge closed obligations by evaluation (Coq's ``vm_compute``)."""
    from repro.source.evaluator import EvalError, eval_term

    if t.free_vars(obligation):
        return False
    try:
        return bool(eval_term(obligation, {}, width=getattr(state, "width", 64)))
    except EvalError:
        return False


def _collect_atoms(system: List[LinearForm]) -> set:
    atoms = set()
    for coeffs, _ in system:
        atoms.update(coeffs)
    return atoms


def _saturate_subtractions(system: List[LinearForm], state, depth: int) -> None:
    """Make truncated ``nat.sub`` atoms precise where possible.

    ``nat.sub a b`` always satisfies ``s >= a - b`` and ``s >= 0``; when
    the context proves ``b <= a`` (checked by a depth-limited recursive
    call), it additionally equals ``a - b``.  This is what lets
    ``s[len - 1 - i]`` bounds checks go through from ``i < len``.
    """
    if depth <= 0:
        return
    saturated = set()
    while True:
        fresh = [
            atom
            for atom in _collect_atoms(system)
            if isinstance(atom, t.Prim)
            and atom.op == "nat.sub"
            and atom not in saturated
        ]
        if not fresh:
            return
        for atom in fresh:
            saturated.add(atom)
            lhs, rhs = atom.args
            lhs_form, rhs_form = _linearize(lhs), _linearize(rhs)
            atom_form: LinearForm = ({atom: 1}, 0)
            # s >= a - b  ~>  a - b - s <= 0  (holds unconditionally).
            lower = _add(_add(lhs_form, rhs_form, -1), atom_form, -1)
            system.append(lower)
            # s <= a  ~>  s - a <= 0  (holds unconditionally).
            system.append(_add(atom_form, lhs_form, -1))
            # When b <= a is provable, the subtraction is exact: s <= a - b.
            if _entails(t.Prim("nat.leb", (rhs, lhs)), state, depth - 1):
                upper = _add(atom_form, _add(lhs_form, rhs_form, -1), -1)
                system.append(upper)


def _entails(obligation: t.Term, state, depth: int) -> bool:
    """Depth-limited entailment used by the subtraction saturation."""
    negated = _negate_obligation(obligation)
    if negated is None:
        return True
    if not negated:
        return False
    system: List[LinearForm] = list(negated)
    for fact in getattr(state, "facts", []):
        system.extend(_fact_to_inequalities(fact))
    _saturate_subtractions(system, state, depth)
    for atom in _collect_atoms(system):
        system.append(({atom: -1}, 0))
    return _fourier_motzkin_infeasible(system)


def linear_arithmetic_solver(obligation: t.Term, state) -> bool:
    """The lia-style solver: facts + nat nonnegativity |= obligation?"""
    negated = _negate_obligation(obligation)
    if negated is None:
        return True
    if isinstance(obligation, t.Prim) and obligation.op == "nat.eqb":
        # a = b iff a <= b and b <= a.
        lhs, rhs = obligation.args
        le = t.Prim("nat.leb", (lhs, rhs))
        ge = t.Prim("nat.leb", (rhs, lhs))
        return linear_arithmetic_solver(le, state) and linear_arithmetic_solver(
            ge, state
        )
    if not negated:
        return False
    system: List[LinearForm] = list(negated)
    for fact in getattr(state, "facts", []):
        system.extend(_fact_to_inequalities(fact))
    _saturate_subtractions(system, state, depth=2)
    # Saturate with division semantics: for every atom D = X / k (k a
    # positive literal), add  k*D <= X  and  X <= k*D + (k-1).  This is
    # what lets e.g. ``2*i + 1 < len`` follow from ``i < (len+1)/2``.
    atoms = set()
    for coeffs, _ in system:
        atoms.update(coeffs)
    for atom in list(atoms):
        if (
            isinstance(atom, t.Prim)
            and atom.op in ("nat.div", "word.divu")
            and isinstance(atom.args[1], t.Lit)
            and isinstance(atom.args[1].value, int)
            and atom.args[1].value > 0
        ):
            k = atom.args[1].value
            numerator = _linearize(atom.args[0])
            atoms.update(numerator[0])
            d_form: LinearForm = ({atom: k}, 0)
            # k*D - X <= 0
            system.append(_add(d_form, numerator, -1))
            # X - k*D - (k-1) <= 0
            low = _add(numerator, d_form, -1)
            system.append((low[0], low[1] - (k - 1)))
    # Nat atoms are nonnegative: -atom <= 0.  Atoms with structural upper
    # bounds (masks, remainders, byte-typed values) also get  atom <= ub,
    # which lets linear facts and interval reasoning combine (e.g. a
    # masked index against a table whose length is only known as a fact).
    full = 1 << getattr(state, "width", 64)
    for atom in atoms:
        system.append(({atom: -1}, 0))
        bound = upper_bound(atom, getattr(state, "width", 64), state)
        if bound < full - 1:
            system.append(({atom: 1}, -bound))
    return _fourier_motzkin_infeasible(system)


def upper_bound(term: t.Term, width: int, state=None) -> int:
    """A sound (inclusive) upper bound on a scalar term's value.

    This is the interval reasoning a human applies when indexing a
    256-entry table with ``(crc ^ b) & 0xff``: whatever the operands, the
    mask bounds the result.  Unknown structure falls back to the type's
    maximum.
    """
    full = (1 << width) - 1
    if isinstance(term, t.Lit) and isinstance(term.value, int):
        return term.value
    if state is not None:
        # Type-level bounds: bytes are < 256, booleans < 2.
        with contextlib.suppress(Exception):
            from repro.core.typecheck import infer_type
            from repro.source.types import BOOL as _BOOL, BYTE as _BYTE

            ty = infer_type(state, term)
            if ty is _BYTE:
                full = 0xFF
            elif ty is _BOOL:
                full = 1
    if isinstance(term, t.TableGet):
        return max(term.data) if term.data else 0
    if isinstance(term, t.Prim):
        op = term.op
        if op in ("cast.to_nat", "cast.b2w", "cast.b2n", "cast.of_nat", "cast.w2b"):
            inner = upper_bound(term.args[0], width, state)
            return min(inner, 0xFF) if op in ("cast.w2b",) else inner
        if op.endswith(".and"):
            return min(upper_bound(term.args[0], width, state), upper_bound(term.args[1], width, state))
        if op in ("word.remu", "nat.mod"):
            divisor = upper_bound(term.args[1], width, state)
            return max(0, divisor - 1) if divisor > 0 else full
        if op in ("word.shr", "byte.shr"):
            shift = term.args[1]
            if isinstance(shift, t.Lit) and isinstance(shift.value, int):
                return upper_bound(term.args[0], width, state) >> shift.value
        if op in ("nat.add",):
            return upper_bound(term.args[0], width, state) + upper_bound(term.args[1], width, state)
        if op in ("nat.mul",):
            return upper_bound(term.args[0], width, state) * upper_bound(term.args[1], width, state)
        if op.startswith("byte.") or op in ("cast.w2b",):
            return 0xFF
        if op.startswith("bool."):
            return 1
        if op.endswith(".ltu") or op.endswith(".lts") or op.endswith(".eq"):
            return 1
    if isinstance(term, t.If):
        return max(upper_bound(term.then_, width, state), upper_bound(term.else_, width, state))
    if isinstance(term, t.ArrayGet):
        return full  # element bound handled by element type at use sites
    return full


def lower_bound(term: t.Term, width: int, state=None) -> int:
    """A sound (inclusive) lower bound on a scalar term's value.

    The dual of :func:`upper_bound`, used for the mirrored obligation
    shape ``k < x``.  Only rules that cannot wrap are applied; unknown
    structure falls back to 0 (every value here is a natural).
    """
    if isinstance(term, t.Lit) and isinstance(term.value, int):
        return term.value
    if isinstance(term, t.TableGet):
        return min(term.data) if term.data else 0
    if isinstance(term, t.Prim):
        op = term.op
        if op in ("cast.to_nat", "cast.b2n", "cast.b2w"):
            return lower_bound(term.args[0], width, state)
        if op == "cast.of_nat":
            # of_nat wraps; the inner bound survives only if it provably fits.
            if upper_bound(term.args[0], width, state) < (1 << width):
                return lower_bound(term.args[0], width, state)
            return 0
        if op == "nat.add":
            return lower_bound(term.args[0], width, state) + lower_bound(
                term.args[1], width, state
            )
        if op == "nat.mul":
            return lower_bound(term.args[0], width, state) * lower_bound(
                term.args[1], width, state
            )
        if op.endswith(".or"):
            # OR can only set bits.
            return max(
                lower_bound(term.args[0], width, state),
                lower_bound(term.args[1], width, state),
            )
    if isinstance(term, t.If):
        return min(
            lower_bound(term.then_, width, state),
            lower_bound(term.else_, width, state),
        )
    return 0


def bitmask_bounds_solver(obligation: t.Term, state) -> bool:
    """Discharge ``a < k`` / ``a <= k`` obligations by interval reasoning.

    Both orientations are handled: a literal on the right compares the
    other side's :func:`upper_bound`, a literal on the left (``k < x``)
    its :func:`lower_bound`.
    """
    width = getattr(state, "width", 64)
    if isinstance(obligation, t.Prim) and obligation.op in (
        "nat.ltb",
        "word.ltu",
        "byte.ltu",
        "nat.leb",
    ):
        lhs, rhs = obligation.args
        if isinstance(rhs, t.Lit) and isinstance(rhs.value, int):
            bound = upper_bound(lhs, width, state)
            if obligation.op == "nat.leb":
                return bound <= rhs.value
            return bound < rhs.value
        if isinstance(lhs, t.Lit) and isinstance(lhs.value, int):
            bound = lower_bound(rhs, width, state)
            if obligation.op == "nat.leb":
                return lhs.value <= bound
            return lhs.value < bound
    return False


# The obligation heads range_solver understands: exactly those the
# linearizer can turn into ``expr <= 0`` forms (the coverage-matrix
# crosscheck pins observed hits to this set).
RANGE_SOLVER_OPS = frozenset(
    {"nat.ltb", "nat.leb", "nat.eqb", "word.ltu", "byte.ltu", "word.eq"}
)


def range_solver(obligation: t.Term, state) -> bool:
    """Discharge bounds obligations from the precomputed fact-range map.

    The abstract interpreter (:mod:`repro.analysis.absint`) propagates
    the state's facts to an interval per linear atom once per state
    version; an obligation is accepted when each of its linearized
    inequalities is subsumed by a fact or holds at the interval bounds.
    Runs after the structural solvers and before the Fourier-Motzkin
    eliminator, which it exists to short-circuit.
    """
    if not (isinstance(obligation, t.Prim) and obligation.op in RANGE_SOLVER_OPS):
        return False
    from repro.analysis.absint import discharge_bounds

    return discharge_bounds(obligation, state, getattr(state, "width", 64))


DEFAULT_SOLVERS: List[SolverFn] = [
    ground_eval_solver,
    bitmask_bounds_solver,
    range_solver,
    linear_arithmetic_solver,
]


class SolverBank:
    """The registered side-condition solvers, tried in order.

    Solvers are *untrusted*: a lying solver can only cause the engine to
    accept an obligation that later differential validation refutes (the
    fault-injection campaign in :mod:`repro.resilience.faults` exercises
    exactly this), never to change what code a matched lemma emits.
    """

    def __init__(self, solvers: Optional[List[SolverFn]] = None):
        self.solvers: List[SolverFn] = list(
            DEFAULT_SOLVERS if solvers is None else solvers
        )

    def register(self, solver: SolverFn, front: bool = False) -> None:
        if front:
            self.solvers.insert(0, solver)
        else:
            self.solvers.append(solver)

    def names(self) -> List[str]:
        """The registered solvers' names (for structured stall reports)."""
        return [getattr(s, "__name__", repr(s)) for s in self.solvers]

    def solve_with_name(self, obligation: t.Term, state) -> Optional[str]:
        """Try solvers in order; return the winning solver's name, or None.

        This is what lets ``SideCondition`` records, stall reports, and
        the ``absint.solver.*`` obs counters attribute each discharged
        obligation to the solver that actually proved it.
        """
        for solver in self.solvers:
            if solver(obligation, state):
                return getattr(solver, "__name__", repr(solver))
        return None

    def solve(self, obligation: t.Term, state) -> bool:
        return self.solve_with_name(obligation, state) is not None
