"""Extensional effects: monadic model construction (§3.4.1).

"Extensional effects ... are introduced using explicit monadic encodings:
users start with a pure specification, implement a functional model of it
using monads, and then compile that model with Rupicola."

This module provides the surface syntax for the monads Rupicola supports
out of the box -- nondeterminism, state, writer, and I/O -- plus a small
free monad whose operations dispatch through the same ``MBind`` spine.
The corresponding *lifts* (how a predicate over a monadic computation is
turned into a predicate the compiler can thread through binds) live with
the compilation lemmas in :mod:`repro.stdlib.monads`.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.source import terms as t
from repro.source.builder import SymValue, lift, sym
from repro.source.types import BYTE, WORD, SourceType, array_of


def ret(value) -> SymValue:
    """``ret v``: the monadic unit, polymorphic in the ambient monad."""
    value_v = lift(value, WORD) if isinstance(value, int) else value
    return SymValue(t.MRet(value_v.term), value_v.ty)


def bind(name: str, ma: SymValue, body: Union[SymValue, Callable]) -> SymValue:
    """``let/n! name := ma in body`` -- a name-carrying monadic bind.

    ``body`` may be a SymValue mentioning ``Var(name)`` or a Python
    function receiving the bound SymValue (traced immediately).
    """
    if callable(body) and not isinstance(body, SymValue):
        body = body(sym(name, ma.ty))
    return SymValue(t.MBind(name, ma.term, body.term), body.ty)


# -- I/O monad --------------------------------------------------------------------


def io_read() -> SymValue:
    """Read one word from the environment; appends a ``read`` trace event."""
    return SymValue(t.IORead(), WORD)


def io_write(value) -> SymValue:
    """Write one word to the environment; appends a ``write`` trace event."""
    value_v = lift(value, WORD)
    return SymValue(t.IOWrite(value_v.term), WORD)


# -- Writer monad -------------------------------------------------------------------


def tell(value) -> SymValue:
    """Accumulate one word of output in the writer monad."""
    value_v = lift(value, WORD)
    return SymValue(t.WriterTell(value_v.term), WORD)


# -- Nondeterminism monad ---------------------------------------------------------------


def nd_any(ty: SourceType = WORD) -> SymValue:
    """An unspecified scalar: the ``peek`` primitive of Table 1."""
    return SymValue(t.NdAny(ty), ty)


def nd_alloc(nbytes: int) -> SymValue:
    """A buffer of ``nbytes`` unspecified bytes: the ``alloc`` primitive.

    Functionally this is *any* list of ``nbytes`` bytes (the paper encodes
    it as the predicate ``fun l => length l = n``); compiled code realizes
    it as a stack allocation whose initial contents are unconstrained.
    """
    return SymValue(t.NdAllocBytes(nbytes), array_of(BYTE))


# -- Error monad --------------------------------------------------------------------------


def err_guard(cond) -> SymValue:
    """``guard cond``: fail the computation unless ``cond`` holds.

    A failed guard short-circuits all later binds; the compiled function
    reports success/failure through its error-flag return value (declare
    it with ``repro.core.spec.error_out()`` as the first output).
    """
    from repro.source.types import BOOL

    cond_v = lift(cond, BOOL)
    return SymValue(t.ErrGuard(cond_v.term), WORD)


# -- State monad ------------------------------------------------------------------------


def st_get() -> SymValue:
    return SymValue(t.StGet(), WORD)


def st_put(value) -> SymValue:
    value_v = lift(value, WORD)
    return SymValue(t.StPut(value_v.term), WORD)


# -- Free monad --------------------------------------------------------------------------
#
# The paper mentions "a generic free monad": operations are uninterpreted
# names whose meaning is supplied at compilation time by a handler mapping
# each operation to one of the concrete effects above.  We model a free
# operation as a Call-like node routed through the same bind spine; the
# handler rewrites it into concrete effect terms before compilation.


def free_op(name: str, *args) -> SymValue:
    """An uninterpreted effectful operation of the free monad."""
    arg_terms = tuple(lift(a, WORD).term if isinstance(a, int) else a.term for a in args)
    return SymValue(t.Call(f"free.{name}", arg_terms), WORD)


def interpret_free(term: t.Term, handlers: dict) -> t.Term:
    """Rewrite free-monad operations into concrete effect terms.

    ``handlers`` maps operation names to functions from argument terms to
    a replacement term.  The rewrite is bottom-up over every head, so an
    operation's arguments are handled before it, and an operation inside
    a loop body or any other subterm is handled too.  Unhandled operations
    are left in place (and will stall compilation with an informative
    message, per Rupicola's design).
    """

    def handle(node: t.Term) -> t.Term:
        if isinstance(node, t.Call) and node.func.startswith("free."):
            handler = handlers.get(node.func[len("free.") :])
            if handler is not None:
                return handler(*node.args)
        return node

    return t.map_term(term, handle)
