"""Compilation lemmas and hint databases.

"A relational compiler is just a collection of facts connecting target
programs to source programs" (§2.3).  Here each fact is a
:class:`BindingLemma` (relating one source binding shape to a Bedrock2
statement template) or an :class:`ExprLemma` (relating a scalar term shape
to a Bedrock2 expression), and a compiler is an ordered
:class:`HintDb` of them.  Extending a compiler = registering a lemma;
overriding a default = registering at higher priority, exactly the
workflow the paper's Table 1 measures.

Lemmas are *committed* on first match: per §3.1, compilers built with
Rupicola "(almost) never backtrack", so a lemma whose side conditions fail
reports an error rather than silently trying the next lemma.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.core.goals import BindingGoal, CompilationStalled, ExprGoal, StallReport
from repro.core.sepstate import Clause, PointerBinding

if TYPE_CHECKING:  # pragma: no cover
    from repro.bedrock2 import ast
    from repro.core.certificate import CertNode
    from repro.core.engine import Engine
    from repro.core.sepstate import SymState


# -- Head-indexed dispatch ----------------------------------------------------------
#
# Lemma selection is a priority-ordered scan; on the standard library that
# means ~20 ``matches`` calls per binding goal, almost all of which fail
# on the very first ``isinstance`` test.  The index below moves that test
# into the database: a lemma *declares* the goal-head constructors it can
# ever match (``index_heads``), and ``HintDb.candidates(head)`` returns
# only the plausible lemmas -- in exactly the order the linear scan would
# have tried them, so committing to the first match is unchanged.
#
# ``index_heads = None`` (the default) means *head-agnostic*: the lemma
# lands in the wildcard bucket and is consulted for every goal, so an
# undeclared (e.g. third-party) lemma can never be skipped and semantics
# cannot change.  Declaring ``index_heads`` for a lemma whose ``matches``
# accepts some other head is a soundness bug in the declaration -- the
# auditor's RA104 check and the differential equivalence harness
# (``tests/core/test_dispatch_equivalence.py``) exist to catch it.
# Engines consult the index only under ``EngineConfig.fast_search``
# (:mod:`repro.config`), snapshotted when the engine is built.


def lemma_index_heads(lemma: object) -> Optional[Tuple[str, ...]]:
    """The declared head keys of ``lemma``; ``None`` means head-agnostic."""
    heads = getattr(lemma, "index_heads", None)
    if heads is None:
        return None
    return tuple(heads)


def lemma_family(lemma: object) -> str:
    """The lemma's *family*: the module that defines it.

    Families are the aggregation grain of the flight recorder's metrics
    (``lemma.family.<name>`` counters, per-family time in ``repro
    profile``), matching how the paper's evaluation slices the standard
    library (Table 1: loops, mutation, monads, ...).
    """
    module = type(lemma).__module__
    return module.rsplit(".", 1)[-1]


class WrapStmt:
    """A binding whose statement *wraps* the continuation.

    ``SStackalloc`` is lexically scoped: the allocated block is only live
    inside the statement's body, so the stack-allocation lemmas cannot
    return a standalone statement -- they return a ``WrapStmt`` whose
    ``wrap`` receives the compiled continuation and nests it inside the
    allocation.  This mirrors how the paper's lemmas carry continuation
    premises (§3.3).
    """

    def __init__(self, wrap):
        self.wrap = wrap


class BindingLemma:
    """Relates one ``let/n name := <value shape>`` to a statement template.

    Subclasses implement:

    - ``matches(goal)``: cheap syntactic test on the goal's value term
      (the analogue of Coq unifying the lemma's conclusion with the goal);
    - ``apply(goal, engine)``: discharge premises (recursive compilation
      subgoals, side conditions) and return ``(stmt, state, children)``
      where ``stmt`` is the derived Bedrock2 code for the binding,
      ``state`` the updated symbolic state, and ``children`` the
      certificate nodes of the premises.

    ``apply`` must not be called unless ``matches`` returned True.

    ``shapes`` optionally names the source-term head constructors
    (``Term`` subclass names, e.g. ``("ArrayMap",)``) this lemma is
    *about*.  A lemma whose shape matches a stalled goal but whose
    ``matches`` guard refused it is a **nearest miss** -- exactly the
    "shape of the missing lemma" §3.1 says users learn from stall
    reports, so stalls list these lemmas first.

    ``shape_total`` declares that ``matches`` accepts *every* goal whose
    value's head constructor is in ``shapes`` (the guard is the
    ``isinstance`` test and nothing else).  The hint-DB auditor
    (:mod:`repro.analysis.hintdb`) relies on this: a total lemma makes
    its heads stall-proof in any database that contains it, and any
    same-shape lemma registered after it can never fire (priority
    shadowing).  Declaring totality for a guarded lemma is a soundness
    bug in the declaration, not the auditor -- leave it False when in
    doubt.

    ``index_heads`` declares the *complete* set of goal-value head
    constructors ``matches`` can ever accept, enabling head-indexed
    dispatch (:meth:`HintDb.candidates`).  Unlike ``shapes`` (advisory,
    drives stall reporting), ``index_heads`` is load-bearing: a goal
    whose head is not listed will never be offered to this lemma.  Leave
    it ``None`` (head-agnostic, always consulted) when the guard
    inspects anything beyond the value's own constructor -- e.g. reverse
    value lookups in the symbolic state.
    """

    name: str = "<unnamed>"
    shapes: Tuple[str, ...] = ()
    shape_total: bool = False
    index_heads: Optional[Tuple[str, ...]] = None

    def matches(self, goal: BindingGoal) -> bool:
        raise NotImplementedError

    def apply(
        self, goal: BindingGoal, engine: "Engine"
    ) -> Tuple["ast.Stmt", "SymState", List["CertNode"]]:
        raise NotImplementedError


def owned_clause(
    goal: BindingGoal, name: str, family: str
) -> Tuple[PointerBinding, Clause]:
    """The pointer binding of the local ``name`` and the heap clause it owns.

    Every lemma that reads or writes through a pointer local needs both;
    a pointer that no separation-logic clause owns stalls here with
    ``MISSING_CLAUSE``, attributed to the calling lemma's ``family``.
    """
    binding = goal.state.binding(name)
    assert isinstance(binding, PointerBinding)
    clause = goal.state.heap.get(binding.ptr)
    if clause is None:
        raise CompilationStalled(
            goal.describe(),
            advice=f"no clause owns {binding.ptr!r}",
            reason=StallReport.MISSING_CLAUSE,
            family=family,
        )
    return binding, clause


class ExprLemma:
    """Relates a scalar term shape to a Bedrock2 expression template.

    ``shapes``, ``shape_total``, and ``index_heads`` carry the same
    audit/dispatch metadata as on :class:`BindingLemma`.
    """

    name: str = "<unnamed>"
    shapes: Tuple[str, ...] = ()
    shape_total: bool = False
    index_heads: Optional[Tuple[str, ...]] = None

    def matches(self, goal: ExprGoal) -> bool:
        raise NotImplementedError

    def apply(
        self, goal: ExprGoal, engine: "Engine"
    ) -> Tuple["ast.Expr", List["CertNode"]]:
        raise NotImplementedError


class DuplicateLemma(ValueError):
    """Two lemmas with the same registered name in one database.

    Lemma names are the identity the rest of the toolchain keys on --
    ``remove`` targets them, stall reports list them, the auditor's
    overlap/shadow diagnostics cite them, and per-lemma metrics counters
    are named after them -- so a silent duplicate would make every one of
    those reports ambiguous.  Pass ``replace=True`` to ``register`` when
    the duplication is an intentional override.
    """


class HintDb:
    """An ordered, named collection of lemmas (Coq's hint database).

    Priorities order lookup: *lower* numbers are tried first, and within a
    priority later registrations win, so user extensions (registered after
    the standard library, often at priority 0) can override defaults --
    "complete control over the compiler's output".
    """

    def __init__(self, name: str):
        self.name = name
        self._entries: List[Tuple[int, int, object]] = []
        self._counter = 0
        # Head-indexed dispatch: per-head sorted entry lists plus the
        # wildcard bucket of head-agnostic lemmas (index_heads is None).
        # Both are kept in the same (priority, -counter) order as
        # _entries, so merging two buckets reproduces the scan order.
        self._head_buckets: Dict[str, List[Tuple[int, int, object]]] = {}
        self._wildcard: List[Tuple[int, int, object]] = []
        # Memoized candidates() results and fingerprint, dropped on any
        # mutation.
        self._candidate_cache: Dict[str, List[object]] = {}
        self._fingerprint_cache: Optional[str] = None

    def _invalidate(self) -> None:
        self._candidate_cache.clear()
        self._fingerprint_cache = None

    def register(self, lemma: object, priority: int = 10, *, replace: bool = False) -> object:
        """Add a lemma; returns it so this can be used as a decorator helper.

        Registering a second lemma under an already-taken name raises
        :class:`DuplicateLemma` unless ``replace=True``, which removes
        the existing entry first (the explicit override workflow,
        matching ``remove`` + ``register``).  Unnamed entries (no
        ``name`` attribute, or the ``"<unnamed>"`` placeholder) are
        exempt: they have no identity to collide on.
        """
        name = getattr(lemma, "name", None)
        if name is not None and name != "<unnamed>" and any(
            getattr(entry[2], "name", None) == name for entry in self._entries
        ):
            if not replace:
                raise DuplicateLemma(
                    f"database {self.name!r} already has a lemma named {name!r}; "
                    "remove it first or register with replace=True"
                )
            self.remove(name)
        self._counter += 1
        entry = (priority, -self._counter, lemma)
        # (priority, -counter) pairs are unique, so tuple comparison
        # never reaches the lemma object; insort keeps registration
        # O(log n) comparisons instead of the former full re-sort.
        insort(self._entries, entry)
        heads = lemma_index_heads(lemma)
        if heads is None:
            insort(self._wildcard, entry)
        else:
            for head in heads:
                insort(self._head_buckets.setdefault(head, []), entry)
        self._invalidate()
        return lemma

    def remove(self, lemma_name: str) -> bool:
        """Remove a lemma by name; returns whether something was removed."""

        def keep(entry: Tuple[int, int, object]) -> bool:
            return getattr(entry[2], "name", None) != lemma_name

        before = len(self._entries)
        self._entries = [entry for entry in self._entries if keep(entry)]
        if len(self._entries) == before:
            return False
        self._wildcard = [entry for entry in self._wildcard if keep(entry)]
        for head, bucket in list(self._head_buckets.items()):
            filtered = [entry for entry in bucket if keep(entry)]
            if filtered:
                self._head_buckets[head] = filtered
            else:
                del self._head_buckets[head]
        self._invalidate()
        return True

    def candidates(self, head: str) -> List[object]:
        """Lemmas that could match a goal whose value has head ``head``.

        Returns exactly the subsequence of the linear scan consisting of
        the lemmas indexed under ``head`` plus every wildcard lemma, in
        the scan's own (priority, registration-recency) order -- so
        committing to the first match through this list picks the same
        lemma the full scan would have picked, provided every
        ``index_heads`` declaration is sound.  Results are memoized per
        head until the next ``register``/``remove``.
        """
        cached = self._candidate_cache.get(head)
        if cached is not None:
            return cached
        bucket = self._head_buckets.get(head)
        if not bucket:
            merged = [entry[2] for entry in self._wildcard]
        elif not self._wildcard:
            merged = [entry[2] for entry in bucket]
        else:
            merged = []
            i = j = 0
            wildcard = self._wildcard
            while i < len(bucket) and j < len(wildcard):
                if bucket[i][:2] < wildcard[j][:2]:
                    merged.append(bucket[i][2])
                    i += 1
                else:
                    merged.append(wildcard[j][2])
                    j += 1
            merged.extend(entry[2] for entry in bucket[i:])
            merged.extend(entry[2] for entry in wildcard[j:])
        self._candidate_cache[head] = merged
        return merged

    def indexed_heads(self) -> List[str]:
        """Heads with a dedicated bucket (diagnostics/observability)."""
        return sorted(self._head_buckets)

    def wildcard_lemmas(self) -> List[object]:
        """The head-agnostic lemmas, in scan order (diagnostics)."""
        return [entry[2] for entry in self._wildcard]

    def __iter__(self) -> Iterator[object]:
        return (entry[2] for entry in self._entries)

    def entries(self) -> List[Tuple[int, object]]:
        """``(priority, lemma)`` pairs in scan order.

        The auditor (:mod:`repro.analysis.hintdb`) needs priorities, not
        just the scan sequence: two lemmas claiming the same shape at the
        *same* priority are ordered only by registration recency, which
        is the nondeterminism hazard its overlap report flags.
        """
        return [(priority, lemma) for priority, _, lemma in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def lemma_names(self) -> List[str]:
        return [getattr(lemma, "name", "<unnamed>") for lemma in self]

    def fingerprint(self) -> str:
        """A short stable hash of the database's *ordered* contents.

        Proof search is deterministic and non-backtracking, so a
        derivation is a pure function of the ordered lemma sequence (and
        the model/spec/engine flags): two databases with equal
        fingerprints drive identical derivations.  The digest covers, in
        scan order, each lemma's registered name, its defining class
        (module + qualname, so a same-named replacement lemma changes
        the key), and its declared shapes.  Used by the compilation
        cache (:mod:`repro.serve`) as the lemma-DB component of its
        content-addressed keys: registering, removing, reordering, or
        reprioritizing any lemma invalidates exactly the keys derived
        from this database.

        Memoized until the next ``register``/``remove``: the serve layer
        recomputes cache keys per request against long-lived databases,
        so the digest is a hot-path cost worth caching.
        """
        if self._fingerprint_cache is not None:
            return self._fingerprint_cache
        import hashlib

        digest = hashlib.sha256()
        digest.update(self.name.encode("utf-8"))
        for lemma in self:
            cls = type(lemma)
            digest.update(
                "\x1f".join(
                    (
                        getattr(lemma, "name", "<unnamed>"),
                        f"{cls.__module__}.{cls.__qualname__}",
                        ",".join(getattr(lemma, "shapes", ())),
                    )
                ).encode("utf-8")
            )
            digest.update(b"\x1e")
        self._fingerprint_cache = digest.hexdigest()[:16]
        return self._fingerprint_cache

    def nearest_misses(self, term: object) -> List[str]:
        """Lemmas whose declared shape matches ``term``'s head constructor.

        Used by stall reports: these lemmas are *about* the right source
        construct but their guards (name conventions, binding kinds,
        memory-clause requirements) refused the goal -- the closest
        existing lemmas to the one the user would need to write.

        When *no* lemma in this database claims the head at all, the
        auditor's coverage matrix over the standard library is consulted
        instead, so the suggestions name the missing lemma *family*
        (``"loops.compile_arraymap_inplace"``) rather than coming back
        empty -- the user learns which stdlib module to load or imitate.
        """
        head = type(term).__name__
        misses = [
            getattr(lemma, "name", "<unnamed>")
            for lemma in self
            if head in getattr(lemma, "shapes", ())
        ]
        if misses:
            return misses
        try:  # lazy: repro.analysis depends on this module, not vice versa
            from repro.analysis.hintdb import missing_lemma_suggestions
        except ImportError:  # pragma: no cover - partial installs
            return misses
        return missing_lemma_suggestions(head, present=set(self.lemma_names()))

    def copy(self, name: Optional[str] = None) -> "HintDb":
        """An independent database with the same ordered contents.

        The memos carry over: ``candidates()`` lists are copied per head,
        and the fingerprint is kept unless the name changes, since the
        digest covers the name.  Lemma objects are shared, not cloned.
        """
        clone = HintDb(name or self.name)
        clone._entries = list(self._entries)
        clone._counter = self._counter
        clone._wildcard = list(self._wildcard)
        clone._head_buckets = {
            head: list(bucket) for head, bucket in self._head_buckets.items()
        }
        clone._candidate_cache = {
            head: list(found) for head, found in self._candidate_cache.items()
        }
        if clone.name == self.name:
            clone._fingerprint_cache = self._fingerprint_cache
        return clone

    def extended(self, *lemmas: object, priority: int = 0, name: Optional[str] = None) -> "HintDb":
        """A copy of this database with extra (high-priority) lemmas."""
        clone = self.copy(name)
        for lemma in lemmas:
            clone.register(lemma, priority=priority)
        return clone
