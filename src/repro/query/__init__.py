"""``repro.query``: a relational-algebra frontend over ListArray tables.

The paper's extensibility claim (Table 1, §4.1) says a new source domain
costs new term heads plus new lemmas -- never engine edits.  This
package is that claim at subsystem scale: a small query IR
(:mod:`repro.query.ir`), its reference evaluator
(:mod:`repro.query.evaluator`), a reifier lowering plans into the
``Term`` language (:mod:`repro.query.reify`), three new term heads
(:mod:`repro.query.terms`) compiled by the ``repro.stdlib.queries``
lemma family, and a registry of end-to-end query programs
(:mod:`repro.query.programs`) exercised by ``python -m repro query``.
"""

import importlib

# Each public name and the submodule that defines it, loaded on first use
# (PEP 562): the stdlib's query lemmas import ``repro.query.terms``, and
# a process that serves no query -- a serve worker -- need not import the
# IR, the reifier and the reference evaluator with it.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.query.evaluator": ("eval_plan", "eval_rows"),
        "repro.query.ir": (
            "Aggregate",
            "BinOp",
            "Cmp",
            "Col",
            "ColRef",
            "EquiJoin",
            "Filter",
            "IntLit",
            "Plan",
            "PlanError",
            "Project",
            "Scan",
            "Schema",
            "check_plan",
            "explain",
            "schema",
        ),
        # Not ``reify``: that name is the submodule, whatever was imported first.
        "repro.query.reify": ("ReifiedQuery",),
        "repro.query.terms": ("QUERY_TERM_HEADS", "QAggregate", "QJoinAgg", "QProjectInto"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
