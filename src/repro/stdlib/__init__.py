"""Rupicola's standard library of compilation lemmas.

The core engine knows nothing about any particular source construct; all
translation knowledge lives here, as pluggable lemmas grouped by domain
exactly the way the paper's evaluation slices them (Table 1, §4.1.2):

- :mod:`repro.stdlib.exprs` -- the relational expression compiler
  (arithmetic over words/bytes/nats/bools, casts, locals lookup);
- :mod:`repro.stdlib.bindings` -- plain scalar ``let/n`` bindings;
- :mod:`repro.stdlib.mutation` -- in-place array/cell mutation
  (intensional state, §3.4.1);
- :mod:`repro.stdlib.control` -- conditionals with predicate inference;
- :mod:`repro.stdlib.loops` -- map/fold/iter/ranged-for loop lemmas with
  automatic invariant inference (§3.4.2);
- :mod:`repro.stdlib.queries` -- the relational-algebra combinators of
  :mod:`repro.query`, mostly by reduction to the loop lemmas (the
  Table 1 extension story exercised on a whole new domain);
- :mod:`repro.stdlib.inline_tables` -- Bedrock2 inline tables (§4.1.2);
- :mod:`repro.stdlib.stack_alloc` -- stack allocation (§4.1.2);
- :mod:`repro.stdlib.monads` -- extensional effects: I/O, writer,
  nondeterminism, state (§3.4.1);
- :mod:`repro.stdlib.intrinsics` -- peephole-style program-specific
  lemmas (Table 1's ``iadd``);
- :mod:`repro.stdlib.calls` -- external function calls;
- :mod:`repro.stdlib.expr_reflective` -- the §4.1.3 ablation: the
  original monolithic (non-relational) expression compiler.

:func:`default_databases` assembles the standard hint databases;
:func:`default_engine` wires them into an engine.  Users extend a
compiler by registering more lemmas -- see ``examples/extending.py``.
"""

import threading
from functools import lru_cache
from typing import Optional, Tuple

from repro.core.engine import Engine
from repro.core.lemma import HintDb
from repro.core.solver import SolverBank


def load_extensions():
    """Import every stdlib lemma module for its registration side effects.

    Lemma classes live in the submodules; the ``repro.lift`` inverse
    patterns are registered at submodule import time, next to the forward
    lemma each one inverts.  Anything that consults the inverse roster
    without first building an engine (``lift_function`` on a legacy
    bundle, the auditor's liftability column, ``lift_key``) must call
    this rather than a bare ``import repro.stdlib``, which loads none of
    the submodules.
    """
    from repro.stdlib import (  # noqa: F401
        bindings,
        calls,
        control,
        copying,
        errors,
        exprs,
        inline_tables,
        intrinsics,
        loops,
        monads,
        mutation,
        queries,
        stack_alloc,
    )


_BUILD_LOCK = threading.Lock()
_BUILT: Optional[Tuple[HintDb, HintDb]] = None


def _build_databases() -> Tuple[HintDb, HintDb]:
    """Assemble the standard binding/expression hint databases afresh."""
    from repro.stdlib import (
        bindings,
        calls,
        control,
        copying,
        errors,
        exprs,
        inline_tables,
        intrinsics,
        loops,
        monads,
        mutation,
        queries,
        stack_alloc,
    )

    binding_db = HintDb("bindings")
    expr_db = HintDb("exprs")
    exprs.register(expr_db)
    inline_tables.register(expr_db)
    intrinsics.register_exprs(expr_db)
    # Binding lemmas: order matters only within equal priorities; more
    # specific shapes are registered at lower (= earlier) priorities.
    intrinsics.register(binding_db)
    mutation.register(binding_db)
    copying.register(binding_db)
    control.register(binding_db)
    loops.register(binding_db)
    queries.register(binding_db)
    stack_alloc.register(binding_db)
    monads.register(binding_db)
    errors.register(binding_db)
    calls.register(binding_db)
    bindings.register(binding_db)  # the generic scalar-set lemma goes last
    # Warm the memos every copy inherits: the fingerprint and each
    # indexed head's candidate list.
    for db in (binding_db, expr_db):
        db.fingerprint()
        for head in db.indexed_heads():
            db.candidates(head)
    return binding_db, expr_db


def _standard_databases() -> Tuple[HintDb, HintDb]:
    """The process's one build of the standard databases; never hand out."""
    global _BUILT
    if _BUILT is None:
        with _BUILD_LOCK:
            if _BUILT is None:
                _BUILT = _build_databases()
    return _BUILT


def default_databases() -> Tuple[HintDb, HintDb]:
    """The standard binding/expression hint databases (all extensions loaded).

    A derivation is a pure function of the model, the spec and these
    ordered databases (§3.2), so they are built once per process; each
    call returns fresh copies, which callers may ``register`` into,
    ``remove`` from or wrap without affecting any other caller.
    """
    binding_db, expr_db = _standard_databases()
    return binding_db.copy(), expr_db.copy()


def default_engine(width: int = 64, solvers: SolverBank = None) -> Engine:
    """An engine with the full standard library loaded."""
    binding_db, expr_db = default_databases()
    return Engine(binding_db, expr_db, solvers=solvers or SolverBank(), width=width)


@lru_cache(maxsize=None)
def standard_fingerprint() -> str:
    """``default_engine().fingerprint()``, a per-process constant.

    The standard databases and the default solver bank never change in
    a process, so a caller that would build a default engine only to
    address the cache (a warm hit) can read this instead.
    """
    return default_engine().fingerprint()


def warm_process_constants() -> None:
    """Build every per-process constant a derivation or load check reads.

    That is the standard databases, the set of their lemma names the
    certificate checker consults, :func:`standard_fingerprint`, and the
    modules the range solver, the load check's lint and the query
    frontend import on first use.  A process forked after this call
    inherits all of them instead of building them again; a process
    started fresh (``spawn``, ``forkserver``) builds them on first use,
    with the same result.
    """
    import repro.analysis.absint  # noqa: F401
    import repro.analysis.dataflow  # noqa: F401
    import repro.query.reify  # noqa: F401
    from repro.validation.checker import _standard_lemma_names

    _standard_databases()
    _standard_lemma_names()
    standard_fingerprint()
