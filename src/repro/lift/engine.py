"""The backward search engine: Bedrock2 code -> functional model.

The forward engine proves ``{t; m; l; sigma} c {pred s}`` by picking the
code ``c`` for a known source ``s``; this module proves the same
judgment with the roles swapped -- ``c`` is given and the source ``s``
is synthesized.  Because forward search is deterministic and
non-backtracking (§3.1/§3.2), the emitted code is a *function* of the
derivation, and each statement shape identifies the lemma that produced
it.  Lifting is therefore a single forward walk over the statement list,
dispatching each node head through the inverse-pattern registry
(:mod:`repro.lift.patterns`) exactly the way the forward engine
dispatches source heads through ``index_heads`` -- and, like the forward
engine, it never guesses: an unrecognized shape is a typed
:class:`~repro.lift.goals.LiftStalled`, not a wrong model.

Mechanics
---------

The lifter runs a symbolic evaluation of the Bedrock2 statements over
*source terms*:

- every local maps to a :class:`LiftedValue` (a source term plus its
  source type) or a :class:`PointerValue` (an array/cell base plus a
  symbolic element offset -- how ``-O1``'s strength-reduced pointer
  loops are re-indexed);
- at the top level ("named mode") each ``SSet`` becomes a pending
  ``let/n`` binding whose binder *is* the Bedrock2 local name, which is
  what makes recompilation byte-identical when the derivation is
  invertible: the forward engine re-derives the same locals from the
  same binders;
- inside loop bodies ("inline mode") values are substituted through, so
  per-iteration temporaries (``_v``, ``_t0``) disappear into the loop
  body term;
- stores go through the heap map (array param -> current array term) as
  same-name ``ArrayPut``/``CellPut`` rebindings, mirroring the §3.4.1
  intensional-mutation discipline the forward lemmas require;
- ``SWhile`` is recognized against the loop family's counted skeleton
  (counter init, ``ltu`` guard, trailing increment) or its
  strength-reduced pointer form, then specialized to ``ArrayMap`` /
  ``ArrayFoldBreak`` where the stricter shape holds and to ``RangedFor``
  otherwise.

A :class:`~repro.resilience.budget.Budget` may be attached; the walk
charges one unit per statement and expression node, and exhaustion
surfaces as a ``resource-exhausted`` lift stall, mirroring the forward
engine's typed degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.ast import flatten
from repro.core.spec import ArgKind, FnSpec, Model, OutKind
from repro.lift import patterns as pat
from repro.lift.goals import LiftStallReport, LiftStalled
from repro.obs.trace import NULL_SPAN, current_tracer
from repro.source import terms as t
from repro.source.types import BOOL, BYTE, NAT, WORD, SourceType, TypeKind

# Bedrock2 EOp name -> word-level source primitive.
_WORD_OPS = {
    "add": "word.add",
    "sub": "word.sub",
    "mul": "word.mul",
    "mulhuu": "word.mulhuu",
    "divu": "word.divu",
    "remu": "word.remu",
    "and": "word.and",
    "or": "word.or",
    "xor": "word.xor",
    "slu": "word.shl",
    "sru": "word.shr",
    "srs": "word.sar",
}

_CMP_OPS = {"ltu": "word.ltu", "lts": "word.lts", "eq": "word.eq"}

_BOOL_OPS = {"and": "bool.andb", "or": "bool.orb", "xor": "bool.xorb"}

# Statement heads with no registered inverse pattern -> the forward
# families a user would have to invert (the stall's nearest misses).
_UNINVERTIBLE_FAMILIES = {
    "SCall": ("calls", "intrinsics"),
    "SInteract": ("monads",),
    "SStackalloc": ("stack_alloc",),
    "SUnset": ("monads",),
}


@dataclass(frozen=True)
class LiftedValue:
    """A source term with its source type -- one symbolic local."""

    term: t.Term
    ty: SourceType


@dataclass(frozen=True)
class PointerValue:
    """A local holding an address: array/cell base plus element offset.

    ``offset`` is a NAT term (``None`` means the base itself).  Pointer
    locals never become model bindings -- they are erased, exactly as the
    forward direction erases them when deriving strength-reduced code.
    """

    param: str
    ty: SourceType
    offset: Optional[t.Term] = None


@dataclass
class _Pending:
    """One pending ``let/n`` binding in named mode."""

    name: str
    value: LiftedValue
    names: Optional[Tuple[str, ...]] = None  # multi-target (LetTuple)


@dataclass
class _Frame:
    """One lexical region of the walk (function top level, branch, body)."""

    named: bool
    env: Dict[str, object] = field(default_factory=dict)
    heap: Dict[str, t.Term] = field(default_factory=dict)
    defs: Dict[str, LiftedValue] = field(default_factory=dict)
    bindings: List[_Pending] = field(default_factory=list)
    heap_written: set = field(default_factory=set)
    assigned: List[str] = field(default_factory=list)

    def branch(self) -> "_Frame":
        return _Frame(
            named=False,
            env=dict(self.env),
            heap=dict(self.heap),
            defs=dict(self.defs),
            heap_written=set(self.heap_written),
        )


@dataclass
class LiftResult:
    """One lift derivation: the synthesized model plus its audit trail."""

    model: Optional[Model]
    spec: FnSpec
    fn: ast.Function
    steps: List[dict] = field(default_factory=list)
    stall: Optional[LiftStallReport] = None
    key: str = ""

    @property
    def ok(self) -> bool:
        return self.model is not None


def _var_names(term: t.Term) -> set:
    """All ``Var`` names in ``term`` (binder-naive, so over-approximate)."""
    return {node.name for node in t.walk_terms(term) if isinstance(node, t.Var)}


def _is_zero(term: Optional[t.Term]) -> bool:
    return term is None or (isinstance(term, t.Lit) and term.value == 0)


class _FunctionLifter:
    def __init__(
        self,
        fn: ast.Function,
        spec: FnSpec,
        *,
        width: int = 64,
        budget=None,
    ):
        self.fn = fn
        self.spec = spec
        self.width = width
        self.budget = budget
        self.tracer = current_tracer()
        self.steps: List[dict] = []
        self._fresh = 0

    # ------------------------------------------------------------------
    # bookkeeping

    def _charge(self, what: str) -> None:
        if self.budget is not None:
            try:
                self.budget.charge(1, goal=f"lift {what}")
            except Exception as exc:
                raise LiftStalled(
                    f"lift budget exhausted at {what}",
                    reason=LiftStallReport.RESOURCE_EXHAUSTED,
                    family="lift.engine",
                    head=what,
                ) from exc

    def _step(self, head: str, via: str, **detail) -> None:
        record = {"head": head, "via": via}
        record.update({k: v for k, v in detail.items() if v is not None})
        self.steps.append(record)
        if self.tracer.enabled:
            self.tracer.inc(f"lift.step.{via}")
            self.tracer.event("lift_step", head=head, via=via, **detail)

    def _stall(
        self,
        description: str,
        *,
        reason: str,
        head: str,
        advice: str = "",
        nearest: Tuple[str, ...] = (),
    ) -> LiftStalled:
        if self.tracer.enabled:
            self.tracer.inc(f"lift.stall.{reason}")
        return LiftStalled(
            description,
            advice,
            reason=reason,
            family="lift.engine",
            databases=("inverse-patterns",),
            nearest_misses=nearest,
            head=head,
        )

    def _no_inverse(self, node: ast.Stmt) -> LiftStalled:
        head = type(node).__name__
        families = _UNINVERTIBLE_FAMILIES.get(head, ())
        return self._stall(
            f"no inverse pattern matches {head}: {node!r}",
            reason=LiftStallReport.NO_INVERSE_PATTERN,
            head=head,
            advice=(
                "this statement was produced by a lemma family with no "
                "registered inverse pattern"
                + (f" (candidates: {', '.join(families)})" if families else "")
            ),
            nearest=tuple(families),
        )

    def _fresh_name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    # ------------------------------------------------------------------
    # value coercions

    def _as_word(self, value: LiftedValue) -> t.Term:
        kind = value.ty.kind if value.ty is not None else TypeKind.WORD
        if kind is TypeKind.WORD:
            return value.term
        if kind is TypeKind.BYTE:
            return t.Prim("cast.b2w", (value.term,))
        if kind is TypeKind.BOOL:
            return t.Prim("cast.bool2w", (value.term,))
        if kind is TypeKind.NAT:
            return t.Prim("cast.of_nat", (value.term,))
        raise self._stall(
            f"value of type {value.ty!r} used in word position",
            reason=LiftStallReport.UNSUPPORTED_SHAPE,
            head="EOp",
        )

    def _as_nat(self, value: LiftedValue) -> t.Term:
        kind = value.ty.kind if value.ty is not None else TypeKind.WORD
        if kind is TypeKind.NAT:
            return value.term
        if kind is TypeKind.BYTE:
            return t.Prim("cast.b2n", (value.term,))
        term = self._as_word(value)
        if isinstance(term, t.Lit):
            return t.Lit(term.value, NAT)
        if isinstance(term, t.Prim) and term.op == "cast.of_nat":
            return term.args[0]
        return t.Prim("cast.to_nat", (term,))

    def _as_bool(self, value: LiftedValue) -> t.Term:
        if value.ty is BOOL:
            return value.term
        return t.Prim("word.ltu", (t.Lit(0, WORD), self._as_word(value)))

    # ------------------------------------------------------------------
    # expressions

    def _lift_expr(self, expr: ast.Expr, frame: _Frame):
        head = type(expr).__name__
        self._charge(head)
        if not pat.patterns_for_head(head):
            raise self._no_inverse(expr)
        if isinstance(expr, ast.ELit):
            self._step("ELit", "lift_lit")
            return LiftedValue(t.Lit(expr.value, WORD), WORD)
        if isinstance(expr, ast.EVar):
            value = frame.env.get(expr.name)
            if value is None:
                raise self._stall(
                    f"read of local {expr.name!r} with no known binding",
                    reason=LiftStallReport.UNBOUND_LOCAL,
                    head="EVar",
                )
            self._step("EVar", "lift_local_lookup", name=expr.name)
            return value
        if isinstance(expr, ast.ELoad):
            return self._lift_load(expr, frame)
        if isinstance(expr, ast.EOp):
            return self._lift_eop(expr, frame)
        if isinstance(expr, ast.EInlineTable):
            return self._lift_table(expr, frame)
        raise self._no_inverse(expr)

    def _lift_eop(self, expr: ast.EOp, frame: _Frame):
        lhs = self._lift_expr(expr.lhs, frame)
        rhs = self._lift_expr(expr.rhs, frame)
        op = expr.op
        if isinstance(lhs, PointerValue) or isinstance(rhs, PointerValue):
            return self._pointer_arith(op, lhs, rhs)
        if op in _CMP_OPS:
            if (
                op == "eq"
                and lhs.ty is BOOL
                and isinstance(rhs.term, t.Lit)
                and rhs.term.value == 0
            ):
                self._step("EOp", "lift_prim", name="bool.negb")
                return LiftedValue(t.Prim("bool.negb", (lhs.term,)), BOOL)
            self._step("EOp", "lift_prim", name=_CMP_OPS[op])
            return LiftedValue(
                t.Prim(_CMP_OPS[op], (self._as_word(lhs), self._as_word(rhs))), BOOL
            )
        if op in _BOOL_OPS and lhs.ty is BOOL and rhs.ty is BOOL:
            self._step("EOp", "lift_prim", name=_BOOL_OPS[op])
            return LiftedValue(t.Prim(_BOOL_OPS[op], (lhs.term, rhs.term)), BOOL)
        name = _WORD_OPS.get(op)
        if name is None:
            raise self._stall(
                f"no inverse pattern for Bedrock2 operator {op!r}",
                reason=LiftStallReport.NO_INVERSE_PATTERN,
                head="EOp",
            )
        self._step("EOp", "lift_prim", name=name)
        return LiftedValue(t.Prim(name, (self._as_word(lhs), self._as_word(rhs))), WORD)

    def _pointer_arith(self, op: str, lhs, rhs) -> PointerValue:
        if isinstance(rhs, PointerValue) and not isinstance(lhs, PointerValue):
            lhs, rhs = rhs, lhs
        if not isinstance(lhs, PointerValue) or isinstance(rhs, PointerValue) or op != "add":
            raise self._stall(
                f"unliftable pointer arithmetic: {op} over {lhs!r} and {rhs!r}",
                reason=LiftStallReport.MEMORY_SHAPE,
                head="EOp",
            )
        delta = self._as_nat(rhs)
        if _is_zero(delta):
            return lhs
        if _is_zero(lhs.offset):
            offset = delta
        else:
            offset = t.Prim("nat.add", (lhs.offset, delta))
        self._step("EOp", "lift_pointer_identity", name=lhs.param)
        return PointerValue(lhs.param, lhs.ty, offset)

    def _elem_ty(self, ty: SourceType) -> SourceType:
        return ty.elem if ty.elem is not None else WORD

    def _decompose_addr(self, addr: ast.Expr, size: int, frame: _Frame):
        """Resolve an address expression to ``(pointer, index_nat | None)``.

        ``None`` index means a cell access.  Mirrors ``scaled_index``:
        word-sized elements arrive as ``mul(i, esz)``, bytes unscaled.
        """
        base = None
        index: Optional[ast.Expr] = None
        if isinstance(addr, ast.EVar):
            value = frame.env.get(addr.name)
            if isinstance(value, PointerValue):
                base = value
        elif isinstance(addr, ast.EOp) and addr.op == "add":
            lhs_val = (
                frame.env.get(addr.lhs.name) if isinstance(addr.lhs, ast.EVar) else None
            )
            if isinstance(lhs_val, PointerValue):
                base, index = lhs_val, addr.rhs
            else:
                lifted = self._lift_expr(addr.lhs, frame)
                if isinstance(lifted, PointerValue):
                    base, index = lifted, addr.rhs
        if base is None:
            raise self._stall(
                f"cannot resolve address {addr!r} to an array or cell clause",
                reason=LiftStallReport.MEMORY_SHAPE,
                head=type(addr).__name__,
            )
        if base.ty.kind is TypeKind.CELL:
            if index is not None or not _is_zero(base.offset):
                raise self._stall(
                    f"offset access into cell {base.param!r}",
                    reason=LiftStallReport.MEMORY_SHAPE,
                    head=type(addr).__name__,
                )
            return base, None
        if index is None:
            idx_term: t.Term = (
                t.Lit(0, NAT) if _is_zero(base.offset) else base.offset
            )
            return base, idx_term
        esz = self._elem_ty(base.ty).scalar_size(self.width // 8)
        if esz != 1:
            if (
                isinstance(index, ast.EOp)
                and index.op == "mul"
                and isinstance(index.rhs, ast.ELit)
                and index.rhs.value == esz
            ):
                index = index.lhs
            elif isinstance(index, ast.ELit) and index.value % esz == 0:
                index = ast.ELit(index.value // esz)
            else:
                raise self._stall(
                    f"index {index!r} is not scaled by element size {esz}",
                    reason=LiftStallReport.MEMORY_SHAPE,
                    head="EOp",
                )
        idx_nat = self._as_nat(self._lift_expr(index, frame))
        if not _is_zero(base.offset):
            idx_nat = t.Prim("nat.add", (base.offset, idx_nat))
        return base, idx_nat

    def _lift_load(self, expr: ast.ELoad, frame: _Frame) -> LiftedValue:
        base, index = self._decompose_addr(expr.addr, expr.size, frame)
        heap_term = frame.heap.get(base.param, t.Var(base.param))
        if index is None:
            self._step("ELoad", "lift_cell_load", name=base.param)
            return LiftedValue(t.CellGet(heap_term), self._elem_ty(base.ty))
        self._step("ELoad", "lift_array_get", name=base.param)
        return LiftedValue(t.ArrayGet(heap_term, index), self._elem_ty(base.ty))

    def _lift_table(self, expr: ast.EInlineTable, frame: _Frame) -> LiftedValue:
        size = expr.size
        index = expr.index
        if size != 1:
            if (
                isinstance(index, ast.EOp)
                and index.op == "mul"
                and isinstance(index.rhs, ast.ELit)
                and index.rhs.value == size
            ):
                index = index.lhs
            else:
                raise self._stall(
                    f"inline-table index {index!r} not scaled by entry size {size}",
                    reason=LiftStallReport.MEMORY_SHAPE,
                    head="EInlineTable",
                )
        data = tuple(
            int.from_bytes(expr.data[i : i + size], "little")
            for i in range(0, len(expr.data), size)
        )
        elem_ty = BYTE if size == 1 else WORD
        idx_nat = self._as_nat(self._lift_expr(index, frame))
        self._step("EInlineTable", "lift_table_get")
        return LiftedValue(t.TableGet(data, elem_ty, idx_nat), elem_ty)

    # ------------------------------------------------------------------
    # statements

    def lift_body(self, stmts: List[ast.Stmt], frame: _Frame) -> None:
        for stmt in stmts:
            head = type(stmt).__name__
            self._charge(head)
            if isinstance(stmt, ast.SSkip):
                continue
            # True registry dispatch: a head only proceeds when some
            # inverse pattern claims it, so unregistering a pattern
            # makes the corresponding code stall (mirroring how removing
            # a forward lemma makes compilation stall).
            if head not in pat.ENGINE_LIFT_HEADS and not pat.patterns_for_head(head):
                raise self._no_inverse(stmt)
            if isinstance(stmt, ast.SSet):
                self._lift_sset(stmt, frame)
            elif isinstance(stmt, ast.SStore):
                self._lift_sstore(stmt, frame)
            elif isinstance(stmt, ast.SCond):
                self._lift_scond(stmt, frame)
            elif isinstance(stmt, ast.SWhile):
                self._lift_swhile(stmt, frame)
            else:
                raise self._no_inverse(stmt)

    def _bind_scalar(self, frame: _Frame, name: str, value: LiftedValue) -> None:
        frame.defs[name] = value
        frame.assigned.append(name)
        if frame.named:
            frame.bindings.append(_Pending(name, value))
            frame.env[name] = LiftedValue(t.Var(name), value.ty)
        else:
            frame.env[name] = value

    def _lift_sset(self, stmt: ast.SSet, frame: _Frame) -> None:
        value = self._lift_expr(stmt.rhs, frame)
        if isinstance(value, PointerValue):
            self._step("SSet", "lift_pointer_identity", name=stmt.lhs)
            frame.env[stmt.lhs] = value
            frame.assigned.append(stmt.lhs)
            return
        self._step("SSet", "lift_set_scalar", name=stmt.lhs)
        self._bind_scalar(frame, stmt.lhs, value)

    def _elem_value(self, value: LiftedValue, elem_ty: SourceType) -> t.Term:
        if elem_ty.kind is not TypeKind.BYTE:
            return self._as_word(value)
        if value.ty.kind is TypeKind.BYTE:
            return value.term
        term = self._as_word(value)
        if self._fits_byte(term):
            return term
        return t.Prim("cast.w2b", (term,))

    def _fits_byte(self, term: t.Term) -> bool:
        """Conservatively: does ``term`` always evaluate below 256?"""
        if isinstance(term, t.Lit):
            return isinstance(term.value, int) and 0 <= term.value < 256
        if isinstance(term, t.Prim):
            if term.op in ("cast.b2w", "cast.w2b"):
                return True
            if term.op == "word.and":
                return any(
                    isinstance(a, t.Lit) and 0 <= a.value <= 255 for a in term.args
                )
        if isinstance(term, (t.ArrayGet, t.TableGet)):
            return True  # callers only ask for byte-array/byte-table reads
        if isinstance(term, t.If):
            return self._fits_byte(term.then_) and self._fits_byte(term.else_)
        return False

    def _write_heap(self, frame: _Frame, param: str, ty: SourceType, term: t.Term) -> None:
        frame.heap_written.add(param)
        if frame.named:
            frame.bindings.append(_Pending(param, LiftedValue(term, ty)))
            frame.heap[param] = t.Var(param)
        else:
            frame.heap[param] = term

    def _lift_sstore(self, stmt: ast.SStore, frame: _Frame) -> None:
        value = self._lift_expr(stmt.value, frame)
        if isinstance(value, PointerValue):
            raise self._stall(
                "storing a pointer value into memory",
                reason=LiftStallReport.MEMORY_SHAPE,
                head="SStore",
            )
        base, index = self._decompose_addr(stmt.addr, stmt.size, frame)
        heap_term = frame.heap.get(base.param, t.Var(base.param))
        if index is None:
            self._step("SStore", "lift_cell_put", name=base.param)
            new_term: t.Term = t.CellPut(heap_term, self._as_word(value))
        else:
            self._step("SStore", "lift_array_put", name=base.param)
            elem = self._elem_value(value, self._elem_ty(base.ty))
            new_term = t.ArrayPut(heap_term, index, elem)
        self._write_heap(frame, base.param, base.ty, new_term)

    # -- conditionals ---------------------------------------------------

    def _lift_scond(self, stmt: ast.SCond, frame: _Frame) -> None:
        cond = self._as_bool(self._lift_expr(stmt.cond, frame))
        then_frame = frame.branch()
        else_frame = frame.branch()
        then_frame.heap_written = set()
        else_frame.heap_written = set()
        self.lift_body(flatten(stmt.then_), then_frame)
        self.lift_body(flatten(stmt.else_), else_frame)
        self._step("SCond", "lift_if")

        changed: List[str] = []
        for name in then_frame.assigned + else_frame.assigned:
            if name in changed:
                continue
            t_val = then_frame.env.get(name)
            e_val = else_frame.env.get(name)
            if isinstance(t_val, PointerValue) or isinstance(e_val, PointerValue):
                raise self._stall(
                    f"pointer local {name!r} assigned under a conditional",
                    reason=LiftStallReport.UNSUPPORTED_SHAPE,
                    head="SCond",
                )
            if t_val is not None and e_val is not None and t_val.term == e_val.term:
                frame.env[name] = t_val
                frame.defs[name] = t_val
                continue
            changed.append(name)

        merged: List[Tuple[str, SourceType, t.Term, t.Term]] = []
        for name in changed:
            t_val = then_frame.env.get(name) or frame.env.get(name)
            e_val = else_frame.env.get(name) or frame.env.get(name)
            if t_val is None or e_val is None:
                # defined on only one path; valid only if never read on
                # the other, which forward-derived code guarantees.
                value = t_val or e_val
                frame.env[name] = value
                frame.defs[name] = value
                continue
            if t_val.ty == e_val.ty:
                ty = t_val.ty
                then_term, else_term = t_val.term, e_val.term
            else:
                ty = WORD
                then_term, else_term = self._as_word(t_val), self._as_word(e_val)
            merged.append((name, ty, then_term, else_term))

        if frame.named and len(merged) > 1:
            names = tuple(name for name, _, _, _ in merged)
            value = LiftedValue(
                t.If(
                    cond,
                    t.TupleTerm(tuple(tt for _, _, tt, _ in merged)),
                    t.TupleTerm(tuple(et for _, _, _, et in merged)),
                ),
                None,
            )
            frame.bindings.append(_Pending(names[0], value, names=names))
            for name, ty, then_term, else_term in merged:
                frame.env[name] = LiftedValue(t.Var(name), ty)
                frame.defs[name] = LiftedValue(
                    t.If(cond, then_term, else_term), ty
                )
                frame.assigned.append(name)
        else:
            for name, ty, then_term, else_term in merged:
                self._bind_scalar(
                    frame, name, LiftedValue(t.If(cond, then_term, else_term), ty)
                )

        # heap effects under the conditional merge the same way
        for param in sorted(then_frame.heap_written | else_frame.heap_written):
            t_heap = then_frame.heap.get(param, t.Var(param))
            e_heap = else_frame.heap.get(param, t.Var(param))
            if t_heap == e_heap:
                merged_heap = t_heap
            else:
                merged_heap = t.If(cond, t_heap, e_heap)
            ty = self._param_ty(param)
            self._write_heap(frame, param, ty, merged_heap)

    def _param_ty(self, param: str) -> SourceType:
        for arg in self.spec.args:
            if arg.kind is ArgKind.POINTER and arg.param == param:
                return arg.ty
        raise self._stall(
            f"store through unknown pointer param {param!r}",
            reason=LiftStallReport.MEMORY_SHAPE,
            head="SStore",
        )

    # -- loops ----------------------------------------------------------

    def _pop_pending(self, frame: _Frame, name: str) -> Optional[LiftedValue]:
        """Remove the last pending binding of ``name`` if nothing after
        it references the bound value; returns it, or ``None``."""
        for i in range(len(frame.bindings) - 1, -1, -1):
            pending = frame.bindings[i]
            if pending.names is None and pending.name == name:
                for later in frame.bindings[i + 1 :]:
                    if name in _var_names(later.value.term):
                        return None
                return frame.bindings.pop(i).value
        return None

    def _is_counter_increment(self, stmt: ast.Stmt, name: str) -> bool:
        return (
            isinstance(stmt, ast.SSet)
            and stmt.lhs == name
            and isinstance(stmt.rhs, ast.EOp)
            and stmt.rhs.op == "add"
            and stmt.rhs == ast.EOp("add", ast.EVar(name), ast.ELit(1))
        )

    def _carried_locals(self, guard_exprs, stmts, frame) -> set:
        """Locals read before being definitely written, across guard+body."""
        carried: set = set()
        written: set = set()

        def read(expr: ast.Expr) -> None:
            for name in ast.expr_vars(expr):
                if name not in written:
                    carried.add(name)

        def walk(items) -> set:
            nonlocal written
            for stmt in items:
                if isinstance(stmt, ast.SSet):
                    read(stmt.rhs)
                    written.add(stmt.lhs)
                elif isinstance(stmt, ast.SStore):
                    read(stmt.addr)
                    read(stmt.value)
                elif isinstance(stmt, ast.SCond):
                    read(stmt.cond)
                    before = set(written)
                    walk(flatten(stmt.then_))
                    then_written = written
                    written = set(before)
                    walk(flatten(stmt.else_))
                    written = then_written & written
                elif isinstance(stmt, ast.SWhile):
                    read(stmt.cond)
                    before = set(written)
                    walk(flatten(stmt.body))
                    # the nested body may run zero times
                    written = before
            return written

        for expr in guard_exprs:
            read(expr)
        walk(stmts)
        return carried

    def _assigned_locals(self, stmts) -> List[str]:
        out: List[str] = []

        def walk(items) -> None:
            for stmt in items:
                if isinstance(stmt, ast.SSet) and stmt.lhs not in out:
                    out.append(stmt.lhs)
                elif isinstance(stmt, ast.SCond):
                    walk(flatten(stmt.then_))
                    walk(flatten(stmt.else_))
                elif isinstance(stmt, ast.SWhile):
                    walk(flatten(stmt.body))

        walk(stmts)
        return out

    def _lift_swhile(self, stmt: ast.SWhile, frame: _Frame) -> None:
        cond = stmt.cond
        break_expr: Optional[ast.Expr] = None
        if (
            isinstance(cond, ast.EOp)
            and cond.op == "and"
            and isinstance(cond.lhs, ast.EOp)
            and cond.lhs.op == "ltu"
            and isinstance(cond.rhs, ast.EOp)
            and cond.rhs.op == "eq"
            and cond.rhs.rhs == ast.ELit(0)
        ):
            break_expr = cond.rhs.lhs
            cond = cond.lhs
        if not (isinstance(cond, ast.EOp) and cond.op == "ltu"):
            raise self._stall(
                f"while guard {stmt.cond!r} is not a counted-loop bound",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
                advice="only ltu-bounded counter and pointer loops are liftable",
            )

        lo_expr, hi_expr = cond.lhs, cond.rhs
        body_stmts = flatten(stmt.body)

        counter: Optional[str] = None
        pointer_mode = False
        if isinstance(lo_expr, ast.EVar):
            lo_val = frame.env.get(lo_expr.name)
            if isinstance(lo_val, PointerValue):
                pointer_mode = True
            elif isinstance(lo_val, LiftedValue):
                counter = lo_expr.name
        if counter is None and not pointer_mode:
            raise self._stall(
                f"loop guard lower bound {lo_expr!r} is not a counter local",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )

        if pointer_mode:
            self._lift_pointer_loop(
                lo_expr.name, hi_expr, body_stmts, break_expr, frame
            )
        else:
            self._lift_counted_loop(counter, hi_expr, body_stmts, break_expr, frame)

    def _loop_bound(self, hi_expr: ast.Expr, frame: _Frame) -> t.Term:
        return self._as_nat(self._lift_expr(hi_expr, frame))

    def _lift_counted_loop(
        self,
        counter: str,
        hi_expr: ast.Expr,
        body_stmts: List[ast.Stmt],
        break_expr: Optional[ast.Expr],
        frame: _Frame,
    ) -> None:
        if not body_stmts or not self._is_counter_increment(body_stmts[-1], counter):
            raise self._stall(
                f"counted loop over {counter!r} has no trailing increment",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        body_stmts = body_stmts[:-1]
        if any(counter in ast.expr_vars(s.rhs) if isinstance(s, ast.SSet) and s.lhs == counter else False for s in body_stmts):
            raise self._stall(
                f"counter {counter!r} reassigned mid-body",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )

        # lower bound: the counter's init value (popping its binding when safe)
        if frame.named:
            popped = self._pop_pending(frame, counter)
            lo_val = popped if popped is not None else frame.defs.get(counter)
        else:
            lo_val = frame.env.get(counter)
        if not isinstance(lo_val, LiftedValue):
            raise self._stall(
                f"loop counter {counter!r} has no known initial value",
                reason=LiftStallReport.UNBOUND_LOCAL,
                head="SWhile",
            )
        lo = self._as_nat(lo_val)
        hi = self._loop_bound(hi_expr, frame)
        for name in ast.expr_vars(hi_expr):
            if any(
                isinstance(s, ast.SSet) and s.lhs == name for s in body_stmts
            ):
                raise self._stall(
                    f"loop bound local {name!r} is assigned inside the body",
                    reason=LiftStallReport.LOOP_SHAPE,
                    head="SWhile",
                )
        self._finish_loop(
            idx_name=counter,
            idx_value=LiftedValue(t.Var(counter), NAT),
            lo=lo,
            hi=hi,
            body_stmts=body_stmts,
            break_expr=break_expr,
            frame=frame,
            loop_pointers={},
        )
        frame.env[counter] = LiftedValue(hi, NAT)

    def _lift_pointer_loop(
        self,
        cond_ptr: str,
        hi_expr: ast.Expr,
        body_stmts: List[ast.Stmt],
        break_expr: Optional[ast.Expr],
        frame: _Frame,
    ) -> None:
        lo_ptr = frame.env[cond_ptr]
        if not (isinstance(hi_expr, ast.EVar)):
            raise self._stall(
                f"pointer-loop bound {hi_expr!r} is not an end pointer",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        end_ptr = frame.env.get(hi_expr.name)
        if not (
            isinstance(end_ptr, PointerValue) and end_ptr.param == lo_ptr.param
        ):
            raise self._stall(
                f"pointer-loop bounds {cond_ptr!r}/{hi_expr.name!r} do not "
                "walk the same array",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        # collect trailing pointer bumps (one per strength-reduced base)
        bumped: List[str] = []
        while body_stmts:
            tail = body_stmts[-1]
            if (
                isinstance(tail, ast.SSet)
                and isinstance(frame.env.get(tail.lhs), PointerValue)
                and self._is_counter_increment(tail, tail.lhs)
            ):
                bumped.append(tail.lhs)
                body_stmts = body_stmts[:-1]
            else:
                break
        if cond_ptr not in bumped:
            raise self._stall(
                f"pointer loop never advances its bound pointer {cond_ptr!r}",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        lo = t.Lit(0, NAT) if _is_zero(lo_ptr.offset) else lo_ptr.offset
        hi = t.Lit(0, NAT) if _is_zero(end_ptr.offset) else end_ptr.offset
        idx_name = self._fresh_name("_idx")
        loop_pointers: Dict[str, PointerValue] = {}
        for name in bumped:
            ptr = frame.env[name]
            ptr_lo = t.Lit(0, NAT) if _is_zero(ptr.offset) else ptr.offset
            if ptr_lo != lo:
                raise self._stall(
                    f"pointer {name!r} starts at {ptr_lo!r}, loop starts at {lo!r}",
                    reason=LiftStallReport.LOOP_SHAPE,
                    head="SWhile",
                )
            loop_pointers[name] = PointerValue(ptr.param, ptr.ty, t.Var(idx_name))
        self._finish_loop(
            idx_name=idx_name,
            idx_value=LiftedValue(t.Var(idx_name), NAT),
            lo=lo,
            hi=hi,
            body_stmts=body_stmts,
            break_expr=break_expr,
            frame=frame,
            loop_pointers=loop_pointers,
        )
        for name in bumped:
            ptr = frame.env[name]
            frame.env[name] = PointerValue(ptr.param, ptr.ty, hi)

    def _finish_loop(
        self,
        *,
        idx_name: str,
        idx_value: LiftedValue,
        lo: t.Term,
        hi: t.Term,
        body_stmts: List[ast.Stmt],
        break_expr: Optional[ast.Expr],
        frame: _Frame,
        loop_pointers: Dict[str, PointerValue],
    ) -> None:
        guard_exprs = [break_expr] if break_expr is not None else []
        carried = self._carried_locals(guard_exprs, body_stmts, frame)
        assigned = self._assigned_locals(body_stmts)
        accs: List[str] = []
        inits: Dict[str, LiftedValue] = {}
        for name in assigned:
            if name in loop_pointers:
                continue
            defined_before = name in frame.env and not isinstance(
                frame.env[name], PointerValue
            )
            if name in carried or defined_before:
                if not defined_before:
                    raise self._stall(
                        f"loop accumulator {name!r} read before any binding",
                        reason=LiftStallReport.UNBOUND_LOCAL,
                        head="SWhile",
                    )
                accs.append(name)
                if frame.named:
                    popped = self._pop_pending(frame, name)
                    inits[name] = (
                        popped
                        if popped is not None
                        else LiftedValue(t.Var(name), frame.env[name].ty)
                    )
                else:
                    inits[name] = frame.env[name]

        body_frame = frame.branch()
        body_frame.env[idx_name] = idx_value
        body_frame.env.update(loop_pointers)
        body_frame.heap_written = set()
        entry_heap = dict(body_frame.heap)
        for name in accs:
            body_frame.env[name] = LiftedValue(t.Var(name), inits[name].ty)
        self.lift_body(body_stmts, body_frame)

        array_accs = sorted(body_frame.heap_written)
        total = len(accs) + len(array_accs)
        if total == 0:
            self._step("SWhile", "lift_ranged_for", name="<dead>")
            return
        if total > 1:
            raise self._stall(
                f"loop updates multiple accumulators {accs + array_accs}; "
                "only single-accumulator loops are liftable",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )

        if accs:
            acc = accs[0]
            step = body_frame.env[acc]
            init = inits[acc]
            if break_expr is not None:
                loop_term = self._make_fold_break(
                    acc, idx_name, step, init, lo, hi, break_expr, frame
                )
            else:
                self._step("SWhile", "lift_ranged_for", name=acc)
                loop_term = t.RangedFor(lo, hi, idx_name, acc, step.term, init.term)
            self._bind_scalar(frame, acc, LiftedValue(loop_term, init.ty))
        else:
            param = array_accs[0]
            ty = self._param_ty(param)
            if entry_heap.get(param, t.Var(param)) != t.Var(param):
                raise self._stall(
                    f"array accumulator {param!r} carries inline heap state "
                    "into the loop",
                    reason=LiftStallReport.LOOP_SHAPE,
                    head="SWhile",
                )
            init_term = frame.heap.get(param, t.Var(param))
            body_term = body_frame.heap[param]
            if break_expr is not None:
                raise self._stall(
                    "early-exit loop over an array accumulator",
                    reason=LiftStallReport.LOOP_SHAPE,
                    head="SWhile",
                )
            map_term = self._try_map_inplace(
                param, ty, idx_name, body_term, init_term, lo, hi
            )
            if map_term is not None:
                self._step("SWhile", "lift_map_inplace", name=param)
                self._write_heap(frame, param, ty, map_term)
            else:
                self._step("SWhile", "lift_ranged_for", name=param)
                loop_term = t.RangedFor(
                    lo, hi, idx_name, param, body_term, init_term
                )
                self._write_heap(frame, param, ty, loop_term)

    def _subst_elem(
        self, term: t.Term, arr_term: t.Term, idx_name: str, elem_name: str
    ) -> Optional[t.Term]:
        """Replace ``ArrayGet(arr, idx)`` with the elem binder; ``None``
        if the index still occurs afterwards (not an element-wise body)."""

        def rule(node: t.Term) -> t.Term:
            if (
                isinstance(node, t.ArrayGet)
                and node.arr == arr_term
                and node.index == t.Var(idx_name)
            ):
                return t.Var(elem_name)
            return node

        rewritten = t.map_term(term, rule)
        if idx_name in _var_names(rewritten):
            return None
        return rewritten

    def _make_fold_break(
        self,
        acc: str,
        idx_name: str,
        step: LiftedValue,
        init: LiftedValue,
        lo: t.Term,
        hi: t.Term,
        break_expr: ast.Expr,
        frame: _Frame,
    ) -> t.Term:
        pred_frame = frame.branch()
        pred_frame.env[acc] = LiftedValue(t.Var(acc), init.ty)
        pred = self._as_bool(self._lift_expr(break_expr, pred_frame))
        # identify the array being folded: the unique array read at idx
        arrays = {
            node.arr
            for node in t.walk_terms(step.term)
            if isinstance(node, t.ArrayGet) and node.index == t.Var(idx_name)
        }
        if len(arrays) != 1 or not _is_zero(lo):
            raise self._stall(
                "early-exit loop does not walk a single array from 0",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        arr_term = arrays.pop()
        if hi != t.ArrayLen(arr_term):
            raise self._stall(
                "early-exit loop bound is not the folded array's length",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        elem_name = self._fresh_name("_e")
        body = self._subst_elem(step.term, arr_term, idx_name, elem_name)
        if body is None:
            raise self._stall(
                "early-exit loop body uses the index beyond element reads",
                reason=LiftStallReport.LOOP_SHAPE,
                head="SWhile",
            )
        self._step("SWhile", "lift_fold_break", name=acc)
        return t.ArrayFoldBreak(acc, elem_name, body, init.term, arr_term, pred)

    def _try_map_inplace(
        self,
        param: str,
        ty: SourceType,
        idx_name: str,
        body_term: t.Term,
        init_term: t.Term,
        lo: t.Term,
        hi: t.Term,
    ) -> Optional[t.Term]:
        if not (
            isinstance(body_term, t.ArrayPut)
            and body_term.arr == t.Var(param)
            and body_term.index == t.Var(idx_name)
            and init_term == t.Var(param)
            and _is_zero(lo)
            and hi == t.ArrayLen(t.Var(param))
        ):
            return None
        elem_name = self._fresh_name("_e")
        elem_body = self._subst_elem(
            body_term.value, t.Var(param), idx_name, elem_name
        )
        if elem_body is None:
            return None
        return t.ArrayMap(elem_name, elem_body, t.Var(param))

    # ------------------------------------------------------------------
    # whole functions

    def lift(self) -> Model:
        spec = self.spec
        if spec.state_param is not None:
            raise self._stall(
                "state-threaded functions are not liftable",
                reason=LiftStallReport.NO_INVERSE_PATTERN,
                head="Function",
                nearest=("monads",),
            )
        frame = _Frame(named=True)
        params: List[Tuple[str, SourceType]] = []
        for arg in spec.args:
            if arg.kind is ArgKind.POINTER:
                frame.env[arg.name] = PointerValue(arg.param, arg.ty)
                frame.heap[arg.param] = t.Var(arg.param)
                params.append((arg.param, arg.ty))
            elif arg.kind is ArgKind.LENGTH:
                frame.env[arg.name] = LiftedValue(
                    t.ArrayLen(t.Var(arg.param)), NAT
                )
            else:
                frame.env[arg.name] = LiftedValue(t.Var(arg.param), arg.ty)
                params.append((arg.param, arg.ty))
        if spec.has_error_flag:
            raise self._stall(
                "error-flag functions are not liftable",
                reason=LiftStallReport.NO_INVERSE_PATTERN,
                head="Function",
                nearest=("errors",),
            )

        self.lift_body(flatten(self.fn.body), frame)

        rets = list(self.fn.rets)
        components: List[t.Term] = []
        tys: List[Optional[SourceType]] = []
        for out in spec.outputs:
            if out.kind is OutKind.SCALAR:
                if not rets:
                    raise self._stall(
                        "function returns fewer values than the spec declares",
                        reason=LiftStallReport.SPEC_MISMATCH,
                        head="Function",
                    )
                local = rets.pop(0)
                value = frame.env.get(local)
                if not isinstance(value, LiftedValue):
                    raise self._stall(
                        f"return local {local!r} has no scalar value",
                        reason=LiftStallReport.UNBOUND_LOCAL,
                        head="Function",
                    )
                components.append(value.term)
                tys.append(value.ty)
            elif out.kind is OutKind.ARRAY:
                components.append(t.Var(out.param))
                tys.append(self._param_ty(out.param))
            else:
                raise self._stall(
                    "error-flag outputs are not liftable",
                    reason=LiftStallReport.NO_INVERSE_PATTERN,
                    head="Function",
                    nearest=("errors",),
                )
        if not components:
            raise self._stall(
                "function has no liftable outputs",
                reason=LiftStallReport.SPEC_MISMATCH,
                head="Function",
            )
        result: t.Term = (
            components[0] if len(components) == 1 else t.TupleTerm(tuple(components))
        )
        body = result
        for pending in reversed(frame.bindings):
            if pending.names is not None:
                body = t.LetTuple(pending.names, pending.value.term, body)
            else:
                body = t.Let(pending.name, pending.value.term, body)
        result_ty = tys[0] if len(components) == 1 else None
        return Model(self.fn.name, params, body, result_ty=result_ty)


# ----------------------------------------------------------------------
# public API

_LIFT_MEMO: Dict[str, LiftResult] = {}


def lift_function(
    fn: ast.Function,
    spec: FnSpec,
    *,
    width: int = 64,
    budget=None,
    use_cache: bool = True,
) -> LiftResult:
    """Lift one Bedrock2 function to a functional model.

    Returns a :class:`LiftResult` whose ``model`` is ``None`` (with a
    populated ``stall``) when the backward search stalls; raises only on
    internal errors.  Results are memoized per process under
    :func:`repro.serve.fingerprint.lift_key` -- the same determinism
    argument that makes forward derivations cacheable applies backwards.
    """
    from repro.serve.fingerprint import lift_key
    from repro.stdlib import load_extensions

    load_extensions()  # registers the inverse patterns

    tracer = current_tracer()
    key = lift_key(fn, spec, width)
    if use_cache and budget is None:
        cached = _LIFT_MEMO.get(key)
        if cached is not None:
            if tracer.enabled:
                tracer.inc("lift.cache.hits")
            return cached
    lifter = _FunctionLifter(fn, spec, width=width, budget=budget)
    if tracer.enabled:
        tracer.inc("lift.functions")
    span = (
        tracer.span("lift_function", name=fn.name) if tracer.enabled else NULL_SPAN
    )
    try:
        with span:
            model = lifter.lift()
        result = LiftResult(
            model=model, spec=spec, fn=fn, steps=lifter.steps, key=key
        )
        if tracer.enabled:
            tracer.event("lift_outcome", function=fn.name, outcome="lifted")
    except LiftStalled as exc:
        result = LiftResult(
            model=None,
            spec=spec,
            fn=fn,
            steps=lifter.steps,
            stall=exc.report,
            key=key,
        )
        if tracer.enabled:
            tracer.event(
                "lift_outcome",
                function=fn.name,
                outcome="stalled",
                reason=exc.report.reason,
            )
    if use_cache and budget is None:
        _LIFT_MEMO[key] = result
    return result


def clear_lift_memo() -> None:
    _LIFT_MEMO.clear()
