"""Symbolic machine state maintained during proof search.

The paper's statement judgment ``{t; m; l; sigma} c {P p}`` (§3.3) carries
the trace, memory, and locals reached after symbolically executing the
already-derived prefix of the output program.  "Rupicola's compilation
frequently matches (syntactically) against a logical context that captures
the state reached after symbolically executing the already-derived prefix"
(§3.4.2) -- this module is that logical context:

- **locals** map Bedrock2 variable names to what they hold: either a
  *scalar binding* (the value of a given source term) or a *pointer
  binding* (a pointer to a heap object);
- **heap clauses** are separation-logic points-to facts
  ``array p (term)`` / ``cell p (term)`` over symbolic pointers, with an
  implicit frame ``r`` for everything else;
- **facts** are boolean source terms (bounds, length equalities) that
  side-condition solvers may use;
- **trace** entries symbolically describe I/O performed so far.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.source import terms as t
from repro.source.types import SourceType


@dataclass(frozen=True)
class PtrSym:
    """A symbolic pointer (the unknown-but-fixed address of a heap object)."""

    name: str

    def __repr__(self) -> str:
        return f"&{self.name}"


@dataclass(frozen=True)
class ScalarBinding:
    """Local variable holds the (word-encoded) value of ``term``."""

    term: t.Term
    ty: SourceType


@dataclass(frozen=True)
class PointerBinding:
    """Local variable holds a pointer to the heap object named ``ptr``."""

    ptr: PtrSym
    ty: SourceType  # the pointed-to type (array/cell)


Binding = Union[ScalarBinding, PointerBinding]


@dataclass(frozen=True)
class Clause:
    """A separation-logic points-to clause: object of type ``ty`` holding
    the functional value ``value`` lives at ``ptr``.

    ``capacity`` (when known) is the object's element capacity -- needed
    for stack-allocated buffers whose functional length must match.
    """

    ptr: PtrSym
    ty: SourceType
    value: t.Term
    capacity: Optional[int] = None


_ghost_counter = itertools.count()


def reset_ghosts() -> None:
    """Restart the fresh-ghost supply.

    Ghost names are scoped to one derivation; the engine resets the
    supply at each ``compile_function`` entry so a derivation's names
    (and hence its trace) do not depend on what was compiled before it
    in the same process.
    """
    global _ghost_counter
    _ghost_counter = itertools.count()


class SymState:
    """The symbolic precondition of the current compilation goal."""

    def __init__(
        self,
        width: int = 64,
        locals_: Optional[Dict[str, Binding]] = None,
        heap: Optional[Dict[PtrSym, Clause]] = None,
        facts: Optional[List[t.Term]] = None,
        trace: Optional[Tuple[Tuple[str, Tuple[t.Term, ...]], ...]] = None,
        io_reads: int = 0,
        ghost_types: Optional[Dict[str, SourceType]] = None,
    ):
        self.width = width
        self.locals: Dict[str, Binding] = dict(locals_ or {})
        self.heap: Dict[PtrSym, Clause] = dict(heap or {})
        self.facts: List[t.Term] = list(facts or [])
        self.trace: Tuple[Tuple[str, Tuple[t.Term, ...]], ...] = tuple(trace or ())
        self.io_reads = io_reads  # how many io.read events happened so far
        # Types of ghost variables: model parameters and loop counters.
        self.ghost_types: Dict[str, SourceType] = dict(ghost_types or {})
        # Source positions: binder name -> rendering of the `let/n` value
        # it was bound to, recorded by the engine so out-of-scope errors
        # can point at the binding site (a "source line" stand-in).
        self.binding_sites: Dict[str, str] = {}
        # Monotone mutation counter.  The engine's per-derivation
        # subterm-compilation memo keys on (state identity, version):
        # any in-place update moves the version, so a memo entry can
        # never be served against content it was not computed from.
        self.version = 0

    # -- Construction -------------------------------------------------------------

    def copy(self) -> "SymState":
        clone = SymState(
            self.width,
            self.locals,
            self.heap,
            self.facts,
            self.trace,
            self.io_reads,
            self.ghost_types,
        )
        clone.binding_sites = dict(self.binding_sites)
        return clone

    @staticmethod
    def fresh_ghost(prefix: str = "g") -> str:
        return f"_{prefix}{next(_ghost_counter)}"

    # -- Updates -----------------------------------------------------------------

    def bind_scalar(self, name: str, term: t.Term, ty: SourceType) -> None:
        self.version += 1
        self.locals[name] = ScalarBinding(term, ty)

    def bind_pointer(self, name: str, ptr: PtrSym, ty: SourceType) -> None:
        self.version += 1
        self.locals[name] = PointerBinding(ptr, ty)

    def add_clause(self, clause: Clause) -> None:
        if clause.ptr in self.heap:
            raise ValueError(f"heap clause for {clause.ptr!r} already present")
        self.version += 1
        self.heap[clause.ptr] = clause

    def set_heap_value(self, ptr: PtrSym, value: t.Term) -> None:
        clause = self.heap[ptr]
        self.version += 1
        self.heap[ptr] = replace(clause, value=value)

    def add_fact(self, fact: t.Term) -> None:
        if fact not in self.facts:
            self.version += 1
            self.facts.append(fact)

    def set_ghost_type(self, name: str, ty: SourceType) -> None:
        """Declare a ghost variable's type (mutates, so versioned)."""
        self.version += 1
        self.ghost_types[name] = ty

    def count_io_read(self) -> None:
        """Record one consumed ``io.read`` event (mutates, so versioned)."""
        self.version += 1
        self.io_reads += 1

    def note_binding_site(self, name: str, rendered_value: str) -> None:
        """Record where ``name`` was last bound (for stall reports)."""
        self.version += 1
        self.binding_sites[name] = rendered_value

    def binding_site(self, name: str) -> Optional[str]:
        return self.binding_sites.get(name)

    def append_trace(self, action: str, args: Tuple[t.Term, ...]) -> None:
        self.version += 1
        self.trace = self.trace + ((action, args),)

    # -- Queries --------------------------------------------------------------------

    def binding(self, name: str) -> Optional[Binding]:
        return self.locals.get(name)

    def pointer_of(self, name: str) -> Optional[PtrSym]:
        binding = self.locals.get(name)
        if isinstance(binding, PointerBinding):
            return binding.ptr
        return None

    def clause_of_local(self, name: str) -> Optional[Clause]:
        ptr = self.pointer_of(name)
        return self.heap.get(ptr) if ptr is not None else None

    def find_local_by_value(self, term: t.Term) -> Optional[str]:
        """Reverse lookup: which local currently holds the value of ``term``?

        This is the engine's analogue of Coq matching a hypothesis like
        ``map.get l v = Some x`` -- purely syntactic, as in the paper.
        """
        for name, binding in self.locals.items():
            if isinstance(binding, ScalarBinding) and binding.term == term:
                return name
        return None

    def find_pointer_local(self, ptr: PtrSym) -> Optional[str]:
        for name, binding in self.locals.items():
            if isinstance(binding, PointerBinding) and binding.ptr == ptr:
                return name
        return None

    def value_of(self, name: str) -> Optional[t.Term]:
        """The functional value currently associated with binder ``name``."""
        binding = self.locals.get(name)
        if isinstance(binding, ScalarBinding):
            return binding.term
        if isinstance(binding, PointerBinding):
            clause = self.heap.get(binding.ptr)
            return clause.value if clause is not None else None
        return None

    def fresh_local(self, prefix: str) -> str:
        if prefix not in self.locals:
            return prefix
        for index in itertools.count():
            candidate = f"{prefix}_{index}"
            if candidate not in self.locals:
                return candidate
        raise AssertionError("unreachable")

    # -- Rendering (for stall messages) ----------------------------------------------

    def describe(self) -> str:
        lines = ["locals:"]
        for name, binding in sorted(self.locals.items()):
            if isinstance(binding, ScalarBinding):
                lines.append(f'  "{name}" := {t.pretty(binding.term)} : {binding.ty!r}')
            else:
                lines.append(f'  "{name}" := {binding.ptr!r} : {binding.ty!r}*')
        lines.append("memory:")
        for ptr, clause in sorted(self.heap.items(), key=lambda kv: kv[0].name):
            lines.append(f"  {clause.ty!r} {ptr!r} ({t.pretty(clause.value)}) * ...")
        if self.facts:
            lines.append("facts:")
            for fact in self.facts:
                lines.append(f"  {t.pretty(fact)}")
        return "\n".join(lines)
