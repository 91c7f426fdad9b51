"""The functional semantics of source terms.

Evaluating a term yields a plain Python value: ints for words/bytes/nats,
bools, lists for arrays, tuples for tuple results.  This is the "shallow"
half of the embedding -- the functional model *is* a runnable program --
and it is the reference against which both hand proofs (model vs spec) and
the differential validator (model vs compiled Bedrock2) compare.

Annotations are semantically transparent, exactly as in the paper
(§3.4.1): ``let/n`` evaluates like a plain ``let``, ``stack``/``copy``
evaluate to their argument, and the wrapper modules (``ListArray``,
``InlineTable``) evaluate to ordinary list operations.

Extensional effects run against an :class:`EffectContext`: the I/O monad
consumes an input stream and appends to an output trace, the writer monad
appends to an output list, the state monad threads a value, and the
nondeterminism monad consults an *oracle* -- validation picks the oracle
that mirrors the compiled code's actual choices, which is the existential
direction of the nondeterminism lift described in §3.4.1.

:meth:`Evaluator.eval` runs a term compiled into one generated Python
function by :mod:`repro.source.closures`, the one executable meaning of
models (DESIGN.md §7).  The tree-walker it replaced, one ``isinstance``
case per head, is kept as a test oracle in ``tests/source/tree_walker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

from repro.source import terms as t


class EvalError(Exception):
    """The term is stuck (unbound variable, out-of-bounds access, ...)."""


@dataclass
class CellV:
    """Runtime representation of a mutable cell's *functional* value."""

    value: int

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CellV) and self.value == other.value


def default_oracle(tag: str, arg: object) -> object:
    """The deterministic default oracle: zeros everywhere."""
    if tag == "alloc":
        return [0] * int(arg)  # type: ignore[arg-type]
    return 0


@dataclass
class EffectContext:
    """Carries the ambient extensional effects during evaluation."""

    io_input: Iterator[int] = field(default_factory=lambda: iter(()))
    io_output: List[int] = field(default_factory=list)
    writer_output: List[int] = field(default_factory=list)
    state: object = None
    oracle: Callable[[str, object], object] = default_oracle
    # Error monad: set by a failed ErrGuard; short-circuits later binds.
    error: bool = False


class Evaluator:
    """Evaluates terms at a given target word width.

    :meth:`eval` runs the term compiled into one generated Python
    function (:mod:`repro.source.closures`), charging one unit of
    ``fuel`` per node entered; ``_steps`` is what the last run spent.
    """

    def __init__(self, width: int = 64, fuel: int = 10_000_000):
        self.width = width
        self.fuel = fuel

    def eval(
        self,
        term: t.Term,
        env: Optional[dict] = None,
        effects: Optional[EffectContext] = None,
    ) -> object:
        self._steps = 0
        # The generated code reads ``env`` once and never writes it.
        return closures.compiled(term, self.width).run(
            self, env or {}, effects or EffectContext()
        )


def eval_term(
    term: t.Term,
    env: Optional[dict] = None,
    width: int = 64,
    effects: Optional[EffectContext] = None,
) -> object:
    """One-shot evaluation helper."""
    return Evaluator(width=width).eval(term, env, effects)


# Imported last: the model evaluator builds on the names above.
from repro.source import closures  # noqa: E402
