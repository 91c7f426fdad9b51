"""Static auditor for hint databases (determinism + coverage).

The paper's proof search is priority-ordered and (almost) never
backtracks (§3.1): the *first* lemma whose guard accepts a goal commits.
That design makes two database-shape defects silently dangerous:

- **overlap** (RA101): two lemmas claim the same goal-head at the *same*
  priority.  Which one fires is then decided only by registration
  recency -- reordering two ``register`` calls changes the compiler's
  output, a nondeterminism hazard no test on either lemma alone catches.
- **shadowing** (RA102): a lemma registered after a *shape-total* lemma
  (one whose guard is exactly the head test) that claims a subset of its
  heads.  The earlier lemma accepts every goal the later one could, so
  the later one is dead weight -- usually a symptom of a priority typo.
- **index mismatch** (RA104): a lemma's advisory ``shapes`` claims a
  head its load-bearing ``index_heads`` declaration excludes, so the
  head-indexed dispatch (``HintDb.candidates``) would skip a lemma the
  linear scan would have tried.

The auditor also builds a **coverage matrix**: every source ``Term``
head x how the database handles it (``engine`` / ``total`` /
``guarded`` / ``none``).  ``none`` rows are statically predicted
``no-binding-lemma`` / ``no-expr-lemma`` stalls; ``total`` and
``engine`` rows are stall-*proof* claims that the test suite
cross-checks against the flight recorder's observed
``stall.<reason>.head.<Head>`` counters on the fuzz corpus.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic

# Binding-goal heads the engine handles structurally, before any lemma is
# consulted: let-chains, tuple destructuring, and monadic sequencing are
# walked by the engine's chain walker itself.
ENGINE_BINDING_HEADS = frozenset({"Let", "LetTuple", "MBind", "TupleTerm"})

# Heads that can appear as an *expression* goal after the engine's
# ``resolve`` step.  Everything else (loops, mutation, effects, ...) is a
# binding-level construct, so its absence from an expression database is
# not a coverage hole.
EXPR_RELEVANT_HEADS = frozenset(
    {"Lit", "Var", "Prim", "ArrayGet", "ArrayLen", "TableGet", "CellGet"}
)

COVER_NONE = "none"
COVER_GUARDED = "guarded"
COVER_TOTAL = "total"
COVER_ENGINE = "engine"

# Liftability levels (the repro.lift column of the coverage matrix):
# can code whose derivation went through this head's lemmas be lifted
# back to a functional model?
LIFT_FULL = "full"  # every claiming lemma has an inverse pattern
LIFT_PARTIAL = "partial"  # some claiming lemmas do, some don't
LIFT_NONE = "none"  # no claiming lemma has an inverse (or no claims)


def _lifted_lemma_names() -> Set[str]:
    """Forward lemma names with a registered inverse pattern.

    The roster is populated by the stdlib modules' own registrations, so
    the standard library must be importable; a broken import degrades to
    "nothing is liftable", which the RA202 diagnostics then surface
    loudly rather than hiding.
    """
    try:
        from repro.lift.patterns import lifted_lemma_names
        from repro.stdlib import load_extensions

        load_extensions()  # registers the inverse roster
        return set(lifted_lemma_names())
    except Exception:
        return set()


def all_term_heads() -> Tuple[str, ...]:
    """Every source ``Term`` head constructor, by introspection.

    Enumerated from :mod:`repro.source.terms` plus the extension-domain
    term modules (:mod:`repro.query.terms`), so newly added constructors
    appear in the matrix automatically (as uncovered rows, until a lemma
    claims them).  A database with the query lemmas stripped therefore
    gets honest RA201 predictions for the query heads instead of the
    auditor silently not knowing them.
    """
    from repro.query import terms as qt
    from repro.source import terms as t

    heads = {
        name
        for module in (t, qt)
        for name, obj in vars(module).items()
        if inspect.isclass(obj)
        and issubclass(obj, t.Term)
        and obj is not t.Term
        # extension modules re-import core heads; count each class once
        and obj.__module__ == module.__name__
    }
    return tuple(sorted(heads))


@dataclass
class CoverageMatrix:
    """Source-term heads x coverage level for one database.

    ``level`` per head is the *best* claim any lemma makes:

    - ``engine``: handled structurally by the engine (binding kind only);
    - ``total``: a ``shape_total`` lemma claims the head -- stall-proof;
    - ``guarded``: some lemma claims the head but its guard can refuse
      (a goal can still stall, with the lemma as a nearest miss);
    - ``none``: nothing claims the head -- a predicted
      ``NO_BINDING_LEMMA``/``NO_EXPR_LEMMA`` stall.
    """

    db_name: str
    kind: str  # "binding" | "expr"
    levels: Dict[str, str] = field(default_factory=dict)
    # head -> lemma names claiming it, in scan order
    claims: Dict[str, List[str]] = field(default_factory=dict)
    # lemma name -> family (defining module), for suggestions
    families: Dict[str, str] = field(default_factory=dict)
    # head -> LIFT_FULL / LIFT_PARTIAL / LIFT_NONE: whether code derived
    # through this head's lemmas can be lifted back (repro.lift)
    liftability: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_db(cls, db, kind: str) -> "CoverageMatrix":
        heads = (
            tuple(h for h in all_term_heads() if h in EXPR_RELEVANT_HEADS)
            if kind == "expr"
            else all_term_heads()
        )
        matrix = cls(db_name=db.name, kind=kind)
        engine_heads = ENGINE_BINDING_HEADS if kind == "binding" else frozenset()
        for head in heads:
            matrix.levels[head] = COVER_ENGINE if head in engine_heads else COVER_NONE
            matrix.claims[head] = []
        from repro.core.lemma import lemma_family

        for _priority, lemma in db.entries():
            total = bool(getattr(lemma, "shape_total", False))
            name = getattr(lemma, "name", "<unnamed>")
            matrix.families[name] = lemma_family(lemma)
            for head in getattr(lemma, "shapes", ()):
                if head not in matrix.levels:
                    continue
                matrix.claims[head].append(name)
                level = matrix.levels[head]
                if level == COVER_ENGINE:
                    continue
                if total:
                    matrix.levels[head] = COVER_TOTAL
                elif level == COVER_NONE:
                    matrix.levels[head] = COVER_GUARDED
        lifted = _lifted_lemma_names()
        for head, names in matrix.claims.items():
            inverted = sum(1 for name in names if name in lifted)
            if names and inverted == len(names):
                matrix.liftability[head] = LIFT_FULL
            elif inverted:
                matrix.liftability[head] = LIFT_PARTIAL
            else:
                matrix.liftability[head] = LIFT_NONE
        return matrix

    def uncovered_heads(self) -> List[str]:
        return sorted(h for h, level in self.levels.items() if level == COVER_NONE)

    def to_dict(self) -> dict:
        return {
            "db": self.db_name,
            "kind": self.kind,
            "levels": dict(sorted(self.levels.items())),
            "claims": {h: list(names) for h, names in sorted(self.claims.items())},
            "liftability": dict(sorted(self.liftability.items())),
        }


def audit_hintdb(db, kind: str = "binding") -> List[Diagnostic]:
    """Audit one database; returns RA1xx/RA2xx diagnostics in stable order.

    ``kind`` selects the coverage-matrix flavour ("binding" or "expr");
    the overlap/shadow/duplicate checks are kind-independent.
    """
    diags: List[Diagnostic] = []
    entries = db.entries()

    # RA103: duplicate lemma names.  HintDb.register now rejects these,
    # but databases assembled by other means (copy surgery, pickling,
    # direct _entries edits) still flow through the auditor.
    seen: Dict[str, int] = {}
    for index, (_priority, lemma) in enumerate(entries):
        name = getattr(lemma, "name", "<unnamed>")
        if name == "<unnamed>":
            continue
        if name in seen:
            diags.append(
                Diagnostic(
                    code="RA103",
                    subject=db.name,
                    where=f"{name}#{index}",
                    message=(
                        f"lemma name {name!r} registered twice "
                        f"(scan positions {seen[name]} and {index}); stall "
                        "reports and metrics keyed on this name are ambiguous"
                    ),
                )
            )
        else:
            seen[name] = index

    # RA101: same-priority shape intersection.  Scan order within one
    # priority is registration recency, so two lemmas claiming a common
    # head at equal priority race on it.
    for i, (pri_a, lem_a) in enumerate(entries):
        shapes_a = set(getattr(lem_a, "shapes", ()))
        if not shapes_a:
            continue
        for pri_b, lem_b in entries[i + 1 :]:
            if pri_b != pri_a:
                continue
            common = shapes_a & set(getattr(lem_b, "shapes", ()))
            if not common:
                continue
            name_a = getattr(lem_a, "name", "<unnamed>")
            name_b = getattr(lem_b, "name", "<unnamed>")
            diags.append(
                Diagnostic(
                    code="RA101",
                    subject=db.name,
                    where=f"{name_a}/{name_b}",
                    message=(
                        f"lemmas {name_a!r} and {name_b!r} both claim "
                        f"head(s) {sorted(common)} at priority {pri_a}; "
                        "which fires depends only on registration order -- "
                        "separate their priorities to make the choice explicit"
                    ),
                )
            )

    # RA102: shadowing by an earlier shape-total lemma.  Once every head
    # a lemma claims is owned by earlier total lemmas, its guard is never
    # even consulted.
    totals_seen: Set[str] = set()
    for _priority, lemma in entries:
        shapes = set(getattr(lemma, "shapes", ()))
        name = getattr(lemma, "name", "<unnamed>")
        if shapes and shapes <= totals_seen:
            diags.append(
                Diagnostic(
                    code="RA102",
                    subject=db.name,
                    where=name,
                    message=(
                        f"lemma {name!r} can never fire: every head it "
                        f"claims ({sorted(shapes)}) is already accepted "
                        "unconditionally by earlier shape-total lemmas"
                    ),
                )
            )
        if getattr(lemma, "shape_total", False):
            totals_seen |= shapes

    # RA104: index/shapes mismatch.  ``index_heads`` is load-bearing --
    # the head-indexed dispatch only consults a lemma for goal heads it
    # declares (wildcard lemmas are consulted for every head) -- while
    # ``shapes`` is advisory and drives the coverage matrix and stall
    # suggestions.  A head claimed in ``shapes`` but excluded by a
    # declared ``index_heads`` means the matrix promises coverage the
    # indexed scan will never deliver: the canonical way the index could
    # silently diverge from the linear scan.
    candidates = getattr(db, "candidates", None)
    for _priority, lemma in entries:
        heads = getattr(lemma, "index_heads", None)
        if heads is None:
            continue
        head_set = set(heads)
        name = getattr(lemma, "name", "<unnamed>")
        missing = sorted(
            h
            for h in getattr(lemma, "shapes", ())
            if h not in head_set
            and (not callable(candidates) or lemma not in candidates(h))
        )
        if missing:
            diags.append(
                Diagnostic(
                    code="RA104",
                    subject=db.name,
                    where=name,
                    message=(
                        f"lemma {name!r} claims head(s) {missing} in its "
                        "advisory `shapes` but its load-bearing "
                        f"`index_heads` ({sorted(head_set)}) excludes them: "
                        "the indexed dispatch will never consult it for "
                        "those goals, diverging from the linear scan"
                    ),
                )
            )

    # RA201 (info): coverage holes predicted by the matrix.
    matrix = CoverageMatrix.from_db(db, kind)
    reason = "no-binding-lemma" if kind == "binding" else "no-expr-lemma"
    for head in matrix.uncovered_heads():
        diags.append(
            Diagnostic(
                code="RA201",
                subject=db.name,
                where=head,
                message=(
                    f"no {kind} lemma claims source head {head!r}; a goal "
                    f"with this head will stall with {reason}"
                ),
            )
        )

    # RA202 (info): liftability holes.  A forward lemma with no inverse
    # pattern is a statically predicted ``no-inverse-pattern`` lift
    # stall: any derivation that used it produces code ``repro lift``
    # cannot walk back.  Round-trip coverage should track forward
    # coverage; this names exactly the lemmas where it doesn't.
    lifted = _lifted_lemma_names()
    for _priority, lemma in entries:
        name = getattr(lemma, "name", "<unnamed>")
        if name == "<unnamed>" or name in lifted:
            continue
        diags.append(
            Diagnostic(
                code="RA202",
                subject=db.name,
                where=name,
                message=(
                    f"forward lemma {name!r} has no registered inverse "
                    "pattern (repro.lift); code derived through it lifts "
                    "only as far as a no-inverse-pattern stall"
                ),
            )
        )
    return diags


_STANDARD_MATRICES: Optional[Dict[str, CoverageMatrix]] = None


def standard_matrices() -> Dict[str, CoverageMatrix]:
    """Coverage matrices of the full standard library (cached)."""
    global _STANDARD_MATRICES
    if _STANDARD_MATRICES is None:
        from repro.stdlib import default_databases

        binding_db, expr_db = default_databases()
        _STANDARD_MATRICES = {
            "binding": CoverageMatrix.from_db(binding_db, "binding"),
            "expr": CoverageMatrix.from_db(expr_db, "expr"),
        }
    return _STANDARD_MATRICES


def missing_lemma_suggestions(head: str, present: Set[str]) -> List[str]:
    """Standard-library lemmas (as ``family.name``) claiming ``head``.

    Backs ``HintDb.nearest_misses`` when a database claims a stalled head
    not at all: instead of an empty list, the stall report names the
    stdlib lemma *family* the user should load or imitate
    (``"loops.compile_arraymap_inplace"``).  ``present`` filters out
    lemmas the database already has -- those are not *missing*, their
    guards refused the goal.
    """
    suggestions: List[str] = []
    for matrix_kind in ("binding", "expr"):
        matrix = standard_matrices()[matrix_kind]
        for name in matrix.claims.get(head, ()):
            if name in present or any(s.endswith("." + name) for s in suggestions):
                continue
            family = matrix.families.get(name, "")
            suggestions.append(f"{family}.{name}" if family else name)
    return suggestions
