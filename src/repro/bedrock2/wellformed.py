"""Static well-formedness checking for Bedrock2 functions.

A lightweight definite-assignment and shape analysis, run by the
validation layer before executing anything:

- every variable is assigned before it is read, on every path;
- every declared return variable is assigned on every path;
- ``while`` bodies only rely on variables defined before the loop or
  (re)defined unconditionally inside it on every earlier path;
- access sizes and operator names are legal (the AST constructors check
  these too; re-checked here for certificates whose ASTs were built
  elsewhere).

The analysis is a may/must dataflow over the structured AST: for each
statement we compute the set of variables *definitely* assigned after it,
joining branches by intersection.  This is exactly the class of bug the
error-monad work surfaced (a return variable only set on the success
path), so it runs as part of ``validate``.

:func:`bound_at_entry` runs the same dataflow in a sound variant for the
executor, which skips the unbound-local check on every read it proves
bound.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.bedrock2 import ast

Names = FrozenSet[str]


class IllFormed(Exception):
    """The function reads undefined variables or misses a return."""


def _expr_check(expr: ast.Expr, defined: Names, where: str) -> None:
    for name in ast.expr_vars(expr):
        if name not in defined:
            raise IllFormed(
                f"{where}: variable {name!r} may be read before assignment"
            )


def _check_reads(stmt: ast.Stmt, defined: Names) -> None:
    """Raise on a read of ``stmt``'s own expressions outside ``defined``."""
    kind = type(stmt)
    if kind is ast.SSet:
        _expr_check(stmt.rhs, defined, f"assignment to {stmt.lhs!r}")
    elif kind is ast.SStore:
        _expr_check(stmt.addr, defined, "store address")
        _expr_check(stmt.value, defined, "store value")
    elif kind is ast.SCond:
        _expr_check(stmt.cond, defined, "if condition")
    elif kind is ast.SWhile:
        _expr_check(stmt.cond, defined, "while condition")
    elif kind is ast.SCall:
        for arg in stmt.args:
            _expr_check(arg, defined, f"argument of call to {stmt.func!r}")
    elif kind is ast.SInteract:
        for arg in stmt.args:
            _expr_check(arg, defined, f"argument of action {stmt.action!r}")
    elif kind not in (ast.SSkip, ast.SUnset, ast.SStackalloc):
        raise IllFormed(f"unknown statement node {stmt!r}")


class _Strict:
    """The sound variant's extra rules (see :func:`bound_at_entry`).

    ``survivors(body)`` is the set of names one run of ``body`` cannot
    leave unbound: the body's flow from the universe of all names.  It is
    computed once per loop body, so nested loops cost linear time.
    """

    def __init__(self, universe: Names):
        self.universe = universe
        self._memo: Dict[int, Names] = {}

    def survivors(self, body: ast.Stmt) -> Names:
        key = id(body)
        if key not in self._memo:
            self._memo[key] = _flow(body, self.universe, _ignore, self)
        return self._memo[key]


def _ignore(stmt: ast.Stmt, defined: Names) -> None:
    pass


def _flow(
    stmt: ast.Stmt,
    defined: Names,
    visit: Callable[[ast.Stmt, Names], None],
    strict: Optional[_Strict],
) -> Names:
    """The names definitely bound after ``stmt`` runs from ``defined``.

    ``visit(node, defined)`` sees every statement other than a sequence,
    at its entry; a loop's entry set is the set its condition reads.
    """
    while type(stmt) is ast.SSeq:  # a loop along the spine: chains may be long
        defined = _flow(stmt.first, defined, visit, strict)
        stmt = stmt.second
    kind = type(stmt)
    if kind is ast.SWhile:
        # Without ``strict`` the body is checked from the pre-loop set and
        # its definitions don't survive (it may not run at all).  With it,
        # names the body may unset are not bound at the loop head either.
        if strict is not None:
            defined = defined & strict.survivors(stmt.body)
        visit(stmt, defined)
        _flow(stmt.body, defined, visit, strict)
        return defined
    visit(stmt, defined)
    if kind is ast.SSet:
        return defined | {stmt.lhs}
    if kind is ast.SCond:
        return _flow(stmt.then_, defined, visit, strict) & _flow(
            stmt.else_, defined, visit, strict
        )
    if kind is ast.SStackalloc:
        # Only the *memory* is lexically scoped; the locals map is flat,
        # so assignments made inside the body persist after it (reads
        # through the stale pointer are runtime errors the interpreter
        # catches).
        return _flow(stmt.body, defined | {stmt.lhs}, visit, strict)
    if kind is ast.SUnset:
        return defined - {stmt.name}
    if kind is ast.SCall:
        return defined | set(stmt.lhss)
    if kind is ast.SInteract:
        # The external handler may edit the frame: under ``strict`` only
        # its results are certainly bound afterwards.
        if strict is not None:
            return frozenset(stmt.lhss)
        return defined | set(stmt.lhss)
    # SSkip and SStore bind nothing; ``visit`` has seen any unknown node.
    return defined


def check_function(fn: ast.Function) -> None:
    """Raise :class:`IllFormed` unless ``fn`` is definitely-assigned clean."""
    defined = _flow(fn.body, frozenset(fn.args), _check_reads, None)
    for ret in fn.rets:
        if ret not in defined:
            raise IllFormed(
                f"return variable {ret!r} of {fn.name!r} may be unset on "
                "some path"
            )


def check_program(program: ast.Program) -> None:
    for fn in program.functions:
        check_function(fn)


def bound_at_entry(
    fn: ast.Function, universe: Iterable[str]
) -> Tuple[Dict[int, Names], Names]:
    """The names certainly bound when each statement of ``fn`` starts.

    The executor in :mod:`repro.bedrock2.closures` reads a local without
    an unbound check only where this proves it bound, so the analysis is
    the sound variant of :func:`check_function`'s: a loop's head keeps
    only the names its body cannot unset, and after an ``SInteract`` only
    its results are certain (the external handler may edit the frame).
    ``universe`` must hold every name ``fn`` mentions.

    Returns a map from ``id`` of each statement node (a node shared by
    several places gets the intersection of their sets; a loop's set is
    the one its condition reads) and the set bound when ``fn`` returns.
    """
    entries: Dict[int, Names] = {}

    def record(stmt: ast.Stmt, defined: Names) -> None:
        key = id(stmt)
        entries[key] = defined & entries[key] if key in entries else defined

    strict = _Strict(frozenset(universe))
    exit_ = _flow(fn.body, frozenset(fn.args), record, strict)
    return entries, exit_
