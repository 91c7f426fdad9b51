"""The term IR: an inspectable reflection of Rupicola's Gallina subset.

Rupicola expects source programs to be "sequences of let-bindings, one per
desired assignment in the target language" (§3.4.1), where each ``let/n``
carries the *name* of the variable it binds -- the user's choice of names
is what drives mutation-vs-allocation decisions.  The nodes below cover
exactly the constructs the paper lists: arithmetic over several types,
conditionals, iteration patterns (map, fold, ``Nat.iter``, ranged for,
with early exit), flat data structures (arrays, cells, inline tables),
plain and monadic binds, stack allocation, and external calls.

Terms evaluate to ordinary Python values (see ``evaluator``), which is the
sense in which the embedding is shallow; the compiler, like Coq's proof
engine, works by syntactic matching on these same nodes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.config import current_config
from repro.source.types import SourceType

# -- Hash-consing -------------------------------------------------------------------
#
# Structural equality and hashing dominate proof-search cost: the engine's
# ``resolve``, the reverse value lookups (``find_local_by_value``), and the
# postcondition checks all compare whole terms, and the default dataclass
# ``__hash__``/``__eq__`` re-walk the tree on every call.  Hash-consing
# fixes both costs at the constructor: every ``Term`` class is interned
# (structurally equal construction returns the *same* object), each node
# caches its structural hash after the first computation, and equality
# takes an identity fast path.  All of this is semantically invisible --
# ``==``, ``hash``, ``repr``, and pickling behave exactly as before -- so
# derivations, certificates, and cache keys are byte-identical either way.
#
# ``EngineConfig.fast_search`` off (:mod:`repro.config`) bypasses the
# interning table and the node memos; hash caching and the identity fast
# path stay (they are pure memoization of unchanged functions).

_INTERN_TABLE: Dict[tuple, "Term"] = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0


# Scalars tagged with their exact type inside intern keys: ``True == 1``
# and ``hash(True) == hash(1)``, but a bool literal and a word literal
# are different programs and must not collapse to one table entry.
_TAGGED_SCALARS = (bool, int, float)


def _field_key(value: object) -> object:
    """A type-exact stand-in for one constructor field in the intern key.

    ``Term`` children stand in by *identity*: children are constructed
    (hence interned) before their parents, so a canonical child's
    ``id()`` denotes its exact structure -- type-exactly, unlike ``==``,
    which conflates ``Lit(True)`` with ``Lit(1)``.  The id is safe
    because the table holds a strong reference to every canonical node
    (it cannot be recycled while a key mentions it).  A *non*-canonical
    child (built while interning was off, or carrying an unhashable
    payload) has no such guarantee, so the parent skips the table: the
    ``TypeError`` is caught by the constructor, which returns the parent
    un-interned.
    """
    kind = type(value)
    if kind in _TAGGED_SCALARS:
        return (kind, value)
    if kind is tuple:
        return tuple(map(_field_key, value))
    if isinstance(value, Term):
        if value.__dict__.get("_hc_canonical"):
            return id(value)
        raise TypeError("non-canonical Term child")
    return value


def _intern_key(node: "Term") -> tuple:
    parts: list = [type(node)]
    for name, value in node.__dict__.items():
        if name in ("_hc_hash", "_hc_canonical"):
            continue
        parts.append(_field_key(value))
    return tuple(parts)


# Identity-keyed caches over canonical nodes, registered by other modules
# (solver linearization, serve fingerprinting, ...).  They key on
# ``id(node)``, which is only stable while the intern table pins the
# node, so dropping the table must drop them too.
_NODE_MEMOS: list = []


def register_node_memo(memo: dict) -> dict:
    """Register an ``id(node)``-keyed cache tied to the intern table."""
    _NODE_MEMOS.append(memo)
    return memo


def clear_intern_table() -> None:
    """Drop every interned node (memory hygiene for long-lived servers)."""
    _INTERN_TABLE.clear()
    for memo in _NODE_MEMOS:
        memo.clear()


def intern_stats() -> Dict[str, int]:
    """Counters for :mod:`repro.obs`: table size and constructor hit rate."""
    return {
        "size": len(_INTERN_TABLE),
        "hits": _INTERN_HITS,
        "misses": _INTERN_MISSES,
    }


def _cached_hash(orig_hash):
    def __hash__(self):
        try:
            return self._hc_hash
        except AttributeError:
            pass
        value = orig_hash(self)
        object.__setattr__(self, "_hc_hash", value)
        return value

    return __hash__


def _identity_fast_eq(orig_eq):
    def __eq__(self, other):
        if self is other:
            return True
        return orig_eq(self, other)

    return __eq__


class _TermMeta(type):
    """Interning constructor shared by every ``Term`` subclass.

    The dataclass decorator runs *after* class creation, so the generated
    ``__hash__``/``__eq__`` are wrapped lazily at first instantiation
    (``_hc_ready``).  Term dataclasses are frozen with no defaults and no
    ``__post_init__``, so a positional argument list *is* the field list:
    the intern key is built straight from the arguments and a table hit
    returns the canonical node without ever running the dataclass
    constructor -- that short-circuit is what makes interning cheaper
    than plain construction on the proof-search hot path.  Keyword calls
    and misses construct normally and are keyed by field (same key
    shape, so both call styles share one table entry).  Canonical nodes
    carry a ``_hc_canonical`` mark so parents can key children by
    ``id()``; nodes with unhashable payloads (e.g. a ``Lit`` holding a
    list) are returned un-interned -- exactly the nodes that could never
    key a dict anyway.
    """

    def __call__(cls, *args, **kwargs):
        if "_hc_ready" not in cls.__dict__:
            if "__hash__" in cls.__dict__ and cls.__dict__["__hash__"] is not None:
                cls.__hash__ = _cached_hash(cls.__dict__["__hash__"])
            if "__eq__" in cls.__dict__:
                cls.__eq__ = _identity_fast_eq(cls.__dict__["__eq__"])
            cls._hc_ready = True
        if not current_config().fast_search:
            return super().__call__(*args, **kwargs)
        global _INTERN_HITS, _INTERN_MISSES
        if not kwargs:
            try:
                key = (cls,) + tuple(map(_field_key, args))
                cached = _INTERN_TABLE.get(key)
            except TypeError:  # unhashable payload or non-canonical child
                return super().__call__(*args, **kwargs)
            if cached is not None:
                _INTERN_HITS += 1
                return cached
            node = super().__call__(*args)
        else:
            node = super().__call__(*args, **kwargs)
            try:
                key = _intern_key(node)
                cached = _INTERN_TABLE.get(key)
            except TypeError:
                return node
            if cached is not None:
                _INTERN_HITS += 1
                return cached
        _INTERN_MISSES += 1
        _INTERN_TABLE[key] = node
        object.__setattr__(node, "_hc_canonical", True)
        return node


class Term(metaclass=_TermMeta):
    """Base class of source terms.

    A head with ``Term``-valued fields declares where they are, and which
    of its names each one is under, with :func:`subterms`.
    """

    __slots__ = ()

    def children(self) -> Tuple["Term", ...]:
        """The subterms, in declaration order, tuple fields spread."""
        return _gather(self, _shape_of(self).children)

    def binders(self) -> Tuple[str, ...]:
        """Every name this node binds, in field order.

        Each name is bound only in the subterms whose scope lists it:
        ``ArrayFoldBreak`` binds ``acc_name`` in ``body`` and
        ``break_pred`` but ``elem_name`` in ``body`` alone, and neither in
        ``init`` or ``arr``.
        """
        return _gather(self, _shape_of(self).binders)

    def __getstate__(self):
        # The cached structural hash must never be pickled: str hashes
        # are per-process (PYTHONHASHSEED), so a hash computed in one
        # worker is garbage in another.  The canonical mark is dropped
        # too -- an unpickled clone is not in any intern table.
        state = dict(self.__dict__)
        state.pop("_hc_hash", None)
        state.pop("_hc_canonical", None)
        return state


# -- Shape ----------------------------------------------------------------------------
#
# Which fields of which head hold subterms, and which binder fields scope
# over which of them, is stated once per head with ``@subterms``.  Every
# generic traversal -- ``children``/``binders``, ``free_vars``, ``subst``,
# ``walk_terms``, ``map_term`` and the engine's ``resolve`` -- goes
# through :func:`map_children`, which reads only that declaration.  Code
# that gives a head its meaning (the evaluators, the printer, the type
# checker, the lemmas) still spells out the fields it interprets.


class _Slot(NamedTuple):
    field: str  # the field holding the subterm(s)
    position: int  # its index in the constructor's argument list
    many: bool  # a tuple of terms rather than one term
    scope: Tuple[Tuple[str, bool], ...]  # binder fields bound in it (many?)


class _Shape(NamedTuple):
    fields: Tuple[str, ...]  # every field, in constructor order
    slots: Tuple[_Slot, ...]  # the subterm fields, in declaration order
    children: Tuple[Tuple[str, bool], ...]  # the same, as (field, many?)
    binders: Tuple[Tuple[str, bool], ...]  # every binder field, in field order


_LEAF = _Shape((), (), (), ())
_SHAPES: Dict[type, _Shape] = {}


def subterms(*fields: str, **scopes: Tuple[str, ...]) -> Callable[[type], type]:
    """Class decorator declaring a ``Term`` head's shape (apply it above
    ``@dataclass``).

    ``fields`` name the fields that hold subterms, in ``children()``
    order; a leading ``*`` marks a field holding a tuple of terms.  Each
    keyword is one of those fields and lists the binder fields whose
    names are bound in it, ``*`` again marking a tuple of names.  A head
    whose fields hold no terms declares ``@subterms()``; a head with no
    fields at all is a leaf without a declaration.
    """

    def declare(cls: type) -> type:
        names = [f.name for f in dataclasses.fields(cls)]

        def field_of(spec: str) -> Tuple[str, bool]:
            name = spec.lstrip("*")
            if name not in names:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            return name, spec.startswith("*")

        slots = []
        for spec in fields:
            name, many = field_of(spec)
            scope = tuple(field_of(b) for b in scopes.get(name, ()))
            slots.append(_Slot(name, names.index(name), many, scope))
        unknown = set(scopes) - {slot.field for slot in slots}
        if unknown:
            raise TypeError(f"{cls.__name__}: scope of a non-subterm field {sorted(unknown)}")
        binders = sorted(
            {b for slot in slots for b in slot.scope}, key=lambda b: names.index(b[0])
        )
        children = tuple((slot.field, slot.many) for slot in slots)
        _SHAPES[cls] = _Shape(tuple(names), tuple(slots), children, tuple(binders))
        return cls

    return declare


def _shape_of(term: Term) -> _Shape:
    cls = type(term)
    shape = _SHAPES.get(cls)
    if shape is not None:
        return shape
    if not dataclasses.is_dataclass(cls) or not dataclasses.fields(cls):
        _SHAPES[cls] = _LEAF
        return _LEAF
    for f in dataclasses.fields(cls):
        value = getattr(term, f.name)
        if isinstance(value, Term) or (
            isinstance(value, tuple) and any(isinstance(v, Term) for v in value)
        ):
            raise TypeError(
                f"{cls.__name__} has Term-valued fields but declares no shape; "
                f"decorate it with @subterms(...)"
            )
    return _LEAF


def _gather(term: Term, fields: Tuple[Tuple[str, bool], ...]) -> tuple:
    """The values of ``fields``, each tuple-valued one (``many``) spread."""
    out: tuple = ()
    for field, many in fields:
        value = getattr(term, field)
        out += value if many else (value,)
    return out


def map_children(term: Term, visit: Callable[[Term, Tuple[str, ...]], Term]) -> Term:
    """``term`` with every subterm ``c`` replaced by ``visit(c, bound)``,
    where ``bound`` names what ``term`` binds over ``c``.

    Subterms are visited in ``children()`` order.  When every visit
    returns its argument, ``term`` itself comes back; otherwise the head
    is rebuilt by a positional constructor call, the form interning
    answers from its table.
    """
    shape = _shape_of(term)
    args = None
    for slot in shape.slots:
        bound = _gather(term, slot.scope)
        old = getattr(term, slot.field)
        if slot.many:
            new = tuple(visit(child, bound) for child in old)
            changed = any(a is not b for a, b in zip(new, old))
        else:
            new = visit(old, bound)
            changed = new is not old
        if changed:
            if args is None:
                args = [getattr(term, name) for name in shape.fields]
            args[slot.position] = new
    return term if args is None else type(term)(*args)


@subterms()
@dataclass(frozen=True)
class Lit(Term):
    """A literal: int for word/byte/nat, bool for bool."""

    value: object
    ty: SourceType

    def __repr__(self) -> str:
        return f"Lit({self.value!r}:{self.ty!r})"


@subterms()
@dataclass(frozen=True)
class Var(Term):
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@subterms("*args")
@dataclass(frozen=True)
class Prim(Term):
    """Application of a primitive operation from :mod:`repro.source.ops`."""

    op: str
    args: Tuple[Term, ...]


@subterms("value", "body", body=("name",))
@dataclass(frozen=True)
class Let(Term):
    """``let/n name := value in body`` -- the name-carrying binding.

    The binder name doubles as the *target-language variable name*; reusing
    the name of an existing array/cell variable is how sources express
    in-place mutation (an intensional effect).
    """

    name: str
    value: Term
    body: Term


@subterms("value", "body", body=("*names",))
@dataclass(frozen=True)
class LetTuple(Term):
    """``let/n (a, b, ...) := value in body`` -- a multi-target binding.

    The §3.4.2 compare-and-swap binds a pair: ``let r, c := (if t then
    (true, put c x) else (false, c)) in k``.  Each name is a target of
    the predicate-inference heuristic.
    """

    names: Tuple[str, ...]
    value: Term
    body: Term


@subterms("cond", "then_", "else_")
@dataclass(frozen=True)
class If(Term):
    cond: Term
    then_: Term
    else_: Term


@subterms("*items")
@dataclass(frozen=True)
class TupleTerm(Term):
    """A tuple of results (used for multi-target lets and returns)."""

    items: Tuple[Term, ...]


# -- Arrays (the ListArray module) ---------------------------------------------


@subterms("arr")
@dataclass(frozen=True)
class ArrayLen(Term):
    arr: Term


@subterms("arr", "index")
@dataclass(frozen=True)
class ArrayGet(Term):
    """``ListArray.get a i`` -- functionally ``nth i a``."""

    arr: Term
    index: Term


@subterms("arr", "index", "value")
@dataclass(frozen=True)
class ArrayPut(Term):
    """``ListArray.put a i v`` -- functionally ``a[i <- v]`` (a fresh list)."""

    arr: Term
    index: Term
    value: Term


@subterms("body", "arr", body=("elem_name",))
@dataclass(frozen=True)
class ArrayMap(Term):
    """``ListArray.map (fun elem => body) arr``."""

    elem_name: str
    body: Term
    arr: Term


@subterms("body", "init", "arr", body=("acc_name", "elem_name"))
@dataclass(frozen=True)
class ArrayFold(Term):
    """``List.fold_left (fun acc elem => body) arr init``."""

    acc_name: str
    elem_name: str
    body: Term
    init: Term
    arr: Term


@subterms(
    "body", "init", "arr", "break_pred",
    body=("acc_name", "elem_name"), break_pred=("acc_name",),
)
@dataclass(frozen=True)
class ArrayFoldBreak(Term):
    """``fold_left`` with an early exit (§3: "folds, with and without
    early exits").

    Before each element, ``break_pred`` (over the accumulator, bound as
    ``acc_name``) is evaluated; if true, the remaining elements are
    skipped and the current accumulator is the result.
    """

    acc_name: str
    elem_name: str
    body: Term
    init: Term
    arr: Term
    break_pred: Term


@subterms("lo", "hi", "body", "init", body=("idx_name", "acc_name"))
@dataclass(frozen=True)
class RangedFor(Term):
    """``fold over i in [lo, hi) with acc := init`` -- the ranged for loop.

    ``body`` has free variables ``idx_name`` and ``acc_name`` and computes
    the next accumulator.
    """

    lo: Term
    hi: Term
    idx_name: str
    acc_name: str
    body: Term
    init: Term


@subterms("count", "body", "init", body=("acc_name",))
@dataclass(frozen=True)
class NatIter(Term):
    """``Nat.iter count (fun acc => body) init`` (§3.4.2's example)."""

    count: Term
    acc_name: str
    body: Term
    init: Term


@subterms("count", "arr")
@dataclass(frozen=True)
class FirstN(Term):
    """``List.firstn n arr`` -- used in inferred loop invariants (§3.4.2)."""

    count: Term
    arr: Term


@subterms("count", "arr")
@dataclass(frozen=True)
class SkipN(Term):
    """``List.skipn n arr`` -- used in inferred loop invariants (§3.4.2)."""

    count: Term
    arr: Term


@subterms("first", "second")
@dataclass(frozen=True)
class Append(Term):
    """``a ++ b`` -- used in inferred loop invariants (§3.4.2)."""

    first: Term
    second: Term


# -- Inline tables ----------------------------------------------------------------


@subterms("index")
@dataclass(frozen=True)
class TableGet(Term):
    """``InlineTable.get table i`` -- functionally just ``nth`` (§4.1.2).

    The table contents are part of the term (they become a Bedrock2
    ``inlinetable``, a function-local constant).
    """

    data: Tuple[int, ...]
    elem_ty: SourceType
    index: Term


# -- Cells --------------------------------------------------------------------------


@subterms("cell")
@dataclass(frozen=True)
class CellGet(Term):
    cell: Term


@subterms("cell", "value")
@dataclass(frozen=True)
class CellPut(Term):
    cell: Term
    value: Term


# -- Annotations (semantically transparent, §3.4.1) -----------------------------------


@subterms("value")
@dataclass(frozen=True)
class Stack(Term):
    """``stack (term)``: allocate the bound object on the stack."""

    value: Term


@subterms("value")
@dataclass(frozen=True)
class Copy(Term):
    """``copy (term)``: force a fresh allocation instead of mutation."""

    value: Term


# -- External calls ------------------------------------------------------------------


@subterms("*args")
@dataclass(frozen=True)
class Call(Term):
    """A call to a separately compiled (or handwritten) low-level function."""

    func: str
    args: Tuple[Term, ...]


# -- Monadic structure (extensional effects, §3.4.1) -----------------------------------


@subterms("value")
@dataclass(frozen=True)
class MRet(Term):
    """``ret v`` in whatever ambient monad the program lives in."""

    value: Term


@subterms("ma", "body", body=("name",))
@dataclass(frozen=True)
class MBind(Term):
    """``bind ma (fun name => body)`` with a name-carrying binder."""

    name: str
    ma: Term
    body: Term


@dataclass(frozen=True)
class IORead(Term):
    """Read one word from the external world (I/O monad)."""


@subterms("value")
@dataclass(frozen=True)
class IOWrite(Term):
    """Write one word to the external world (I/O monad)."""

    value: Term


@subterms("value")
@dataclass(frozen=True)
class WriterTell(Term):
    """Append one word to the writer monad's output."""

    value: Term


@subterms("cond")
@dataclass(frozen=True)
class ErrGuard(Term):
    """The error monad's ``guard``: fail the whole computation unless
    ``cond`` holds.  Failure short-circuits every later bind (§4.3:
    "patterns like exceptions (using the error monad) ... are relatively
    easy to support in Rupicola")."""

    cond: Term


@subterms()
@dataclass(frozen=True)
class NdAny(Term):
    """An unspecified scalar (nondeterminism monad's ``peek``)."""

    ty: SourceType


@subterms()
@dataclass(frozen=True)
class NdAllocBytes(Term):
    """A fresh buffer of ``nbytes`` unspecified bytes (nondet ``alloc``)."""

    nbytes: int


@dataclass(frozen=True)
class StGet(Term):
    """Read the state-monad state."""


@subterms("value")
@dataclass(frozen=True)
class StPut(Term):
    """Replace the state-monad state."""

    value: Term


# -- Generic helpers ---------------------------------------------------------------


def walk_terms(term: Term) -> List[Term]:
    """Every node under ``term``, itself included, in pre-order: a node
    before its subterms, subterms in ``children()`` order."""
    out: List[Term] = []
    stack = [term]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += node.children()[::-1]
    return out


def map_term(term: Term, transform: Callable[[Term], Term]) -> Term:
    """Rebuild ``term`` bottom-up, applying ``transform`` at every node:
    subterms first, then the node rebuilt over their results.  Binders are
    ignored, so ``transform`` sees bound and free occurrences alike."""
    return transform(map_children(term, lambda child, _: map_term(child, transform)))


def free_vars(term: Term) -> set:
    """Free variable names of ``term``."""
    out: set = set()

    def visit(node: Term, bound: Tuple[str, ...]) -> Term:
        if isinstance(node, Var):
            if node.name not in bound:
                out.add(node.name)
        else:
            map_children(node, lambda child, names: visit(child, bound + names))
        return node

    visit(term, ())
    return out


def subst(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding-enough substitution (binders shadow)."""
    if isinstance(term, Var):
        return replacement if term.name == name else term
    return map_children(
        term, lambda child, bound: child if name in bound else subst(child, name, replacement)
    )


# Certificates record a pretty-printed copy of every discharged side
# condition, so ``pretty`` runs on the proof-search hot path, usually on
# the same interned obligation terms over and over.  Only the
# ``indent == 0`` rendering is cacheable (let-bodies embed the pad).
_PRETTY_MEMO: Dict[int, tuple] = register_node_memo({})


def pretty(term: Term, indent: int = 0) -> str:
    """A compact, Gallina-flavoured rendering used in stall messages."""
    if indent == 0 and current_config().fast_search:
        entry = _PRETTY_MEMO.get(id(term))
        if entry is not None and entry[0] is term:
            return entry[1]
        rendered = _pretty_walk(term, 0)
        if term.__dict__.get("_hc_canonical"):
            _PRETTY_MEMO[id(term)] = (term, rendered)
        return rendered
    return _pretty_walk(term, indent)


def _pretty_walk(term: Term, indent: int) -> str:
    pad = "  " * indent
    if isinstance(term, Lit):
        return f"{term.value}"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Prim):
        args = ", ".join(pretty(a) for a in term.args)
        return f"{term.op}({args})"
    if isinstance(term, Let):
        return (
            f"let/n {term.name} := {pretty(term.value)} in\n"
            f"{pad}{pretty(term.body, indent)}"
        )
    if isinstance(term, LetTuple):
        return (
            f"let/n ({', '.join(term.names)}) := {pretty(term.value)} in\n"
            f"{pad}{pretty(term.body, indent)}"
        )
    if isinstance(term, If):
        return f"if {pretty(term.cond)} then {pretty(term.then_)} else {pretty(term.else_)}"
    if isinstance(term, TupleTerm):
        return "(" + ", ".join(pretty(a) for a in term.items) + ")"
    if isinstance(term, ArrayLen):
        return f"len({pretty(term.arr)})"
    if isinstance(term, ArrayGet):
        return f"{pretty(term.arr)}[{pretty(term.index)}]"
    if isinstance(term, ArrayPut):
        return f"{pretty(term.arr)}[{pretty(term.index)} <- {pretty(term.value)}]"
    if isinstance(term, ArrayMap):
        return f"ListArray.map (fun {term.elem_name} => {pretty(term.body)}) {pretty(term.arr)}"
    if isinstance(term, ArrayFold):
        return (
            f"fold_left (fun {term.acc_name} {term.elem_name} => {pretty(term.body)}) "
            f"{pretty(term.arr)} {pretty(term.init)}"
        )
    if isinstance(term, ArrayFoldBreak):
        return (
            f"fold_left/break (fun {term.acc_name} {term.elem_name} => "
            f"{pretty(term.body)}) {pretty(term.arr)} {pretty(term.init)} "
            f"until {pretty(term.break_pred)}"
        )
    if isinstance(term, RangedFor):
        return (
            f"for {term.idx_name} in [{pretty(term.lo)}, {pretty(term.hi)}) "
            f"(acc {term.acc_name} := {pretty(term.init)}) {{ {pretty(term.body)} }}"
        )
    if isinstance(term, NatIter):
        return (
            f"Nat.iter {pretty(term.count)} (fun {term.acc_name} => {pretty(term.body)}) "
            f"{pretty(term.init)}"
        )
    if isinstance(term, FirstN):
        return f"firstn {pretty(term.count)} {pretty(term.arr)}"
    if isinstance(term, SkipN):
        return f"skipn {pretty(term.count)} {pretty(term.arr)}"
    if isinstance(term, Append):
        return f"({pretty(term.first)} ++ {pretty(term.second)})"
    if isinstance(term, TableGet):
        return f"InlineTable.get <{len(term.data)} entries> {pretty(term.index)}"
    if isinstance(term, CellGet):
        return f"get({pretty(term.cell)})"
    if isinstance(term, CellPut):
        return f"put({pretty(term.cell)}, {pretty(term.value)})"
    if isinstance(term, Stack):
        return f"stack({pretty(term.value)})"
    if isinstance(term, Copy):
        return f"copy({pretty(term.value)})"
    if isinstance(term, Call):
        return f"{term.func}({', '.join(pretty(a) for a in term.args)})"
    if isinstance(term, MRet):
        return f"ret {pretty(term.value)}"
    if isinstance(term, MBind):
        return (
            f"let/n! {term.name} := {pretty(term.ma)} in\n"
            f"{pad}{pretty(term.body, indent)}"
        )
    if isinstance(term, IORead):
        return "io.read()"
    if isinstance(term, IOWrite):
        return f"io.write({pretty(term.value)})"
    if isinstance(term, WriterTell):
        return f"tell({pretty(term.value)})"
    if isinstance(term, ErrGuard):
        return f"guard({pretty(term.cond)})"
    if isinstance(term, NdAny):
        return f"any({term.ty!r})"
    if isinstance(term, NdAllocBytes):
        return f"nd_alloc({term.nbytes})"
    if isinstance(term, StGet):
        return "st.get()"
    if isinstance(term, StPut):
        return f"st.put({pretty(term.value)})"
    # Open extension point (like ``compile_node``): external nodes
    # render themselves (stall reports stay readable for new domains).
    hook = getattr(term, "pretty_node", None)
    if hook is not None:
        return hook(pretty)
    return repr(term)
