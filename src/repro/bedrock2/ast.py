"""Abstract syntax for Bedrock2 expressions, statements, and functions.

This mirrors the ``expr`` and ``cmd`` inductives of the Bedrock2 Coq
development (Box 2 in the paper): an untyped, C-like language whose
expressions evaluate to machine words and whose statements mutate a
locals map, a flat memory, and an I/O trace.

All nodes are frozen dataclasses: Rupicola's proof search builds target
programs by filling in existential variables, and immutability guarantees
that a certificate's recorded code cannot be altered after derivation.

The last section states, once, which fields of which node hold
sub-statements and sub-expressions, and provides the traversals built on
that (``walk_stmts``/``walk_exprs``, ``map_expr``/``map_stmt``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

# Access sizes, in bytes, for loads and stores.
SIZE1, SIZE2, SIZE4, SIZE8 = 1, 2, 4, 8
ACCESS_SIZES = (SIZE1, SIZE2, SIZE4, SIZE8)


class Expr:
    """Base class of Bedrock2 expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class ELit(Expr):
    """A word literal (stored as a plain int, truncated at evaluation)."""

    value: int

    def __repr__(self) -> str:
        return f"ELit({self.value})"


@dataclass(frozen=True)
class EVar(Expr):
    """A reference to a local variable."""

    name: str

    def __repr__(self) -> str:
        return f"EVar({self.name!r})"


@dataclass(frozen=True)
class ELoad(Expr):
    """A memory load of ``size`` bytes at the address given by ``addr``."""

    size: int
    addr: Expr

    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"invalid access size {self.size}")


@dataclass(frozen=True)
class EOp(Expr):
    """A binary operation on words.

    The operator set matches Bedrock2's ``bopname``: ``add sub mul mulhuu
    divu remu and or xor sru slu srs lts ltu eq``.
    """

    op: str
    lhs: Expr
    rhs: Expr

    OPS = frozenset(
        [
            "add",
            "sub",
            "mul",
            "mulhuu",
            "divu",
            "remu",
            "and",
            "or",
            "xor",
            "sru",
            "slu",
            "srs",
            "lts",
            "ltu",
            "eq",
        ]
    )

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class EInlineTable(Expr):
    """A read from a function-local constant table (Bedrock2 ``inlinetable``).

    ``data`` is the table contents as raw bytes; the expression reads
    ``size`` bytes, little-endian, at byte offset ``index * size``...
    actually, like Bedrock2, at the byte offset given by ``index`` --
    callers scale indices themselves when storing multi-byte entries.
    """

    size: int
    data: bytes
    index: Expr

    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"invalid access size {self.size}")


class Stmt:
    """Base class of Bedrock2 statements (Coq's ``cmd``)."""

    __slots__ = ()


@dataclass(frozen=True)
class SSkip(Stmt):
    """No-op."""


@dataclass(frozen=True)
class SSet(Stmt):
    """``lhs = rhs``: assign an expression's value to a local variable."""

    lhs: str
    rhs: Expr


@dataclass(frozen=True)
class SUnset(Stmt):
    """Remove a variable from the locals map (scoping bookkeeping)."""

    name: str


@dataclass(frozen=True)
class SStore(Stmt):
    """``*(size*)addr = value``: store ``size`` bytes to memory."""

    size: int
    addr: Expr
    value: Expr

    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"invalid access size {self.size}")


@dataclass(frozen=True)
class SStackalloc(Stmt):
    """Lexically scoped stack allocation.

    Binds ``lhs`` to a pointer to ``nbytes`` fresh bytes for the duration
    of ``body``; the memory is reclaimed afterwards.  Bedrock2 models the
    initial contents as nondeterministic; our interpreter takes a policy
    (zeros by default, or a caller-provided byte source) so that programs
    whose behaviour depends on the initial contents can be flagged by the
    differential tester.
    """

    lhs: str
    nbytes: int
    body: Stmt


@dataclass(frozen=True)
class SCond(Stmt):
    """``if (cond) { then_ } else { else_ }`` -- nonzero means true."""

    cond: Expr
    then_: Stmt
    else_: Stmt


@dataclass(frozen=True)
class SSeq(Stmt):
    """Sequencing of two statements."""

    first: Stmt
    second: Stmt


@dataclass(frozen=True)
class SWhile(Stmt):
    """``while (cond) { body }``.

    Bedrock2 semantics only give meaning to terminating loops; the
    interpreter enforces this with fuel, so every successful run is a
    total-correctness witness.
    """

    cond: Expr
    body: Stmt


@dataclass(frozen=True)
class SCall(Stmt):
    """Call a named Bedrock2 function, binding its results to ``lhss``."""

    lhss: Tuple[str, ...]
    func: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class SInteract(Stmt):
    """An external interaction (MMIO / syscall-like event).

    Appends an event to the trace; the environment decides the returned
    words.  This is how Rupicola compiles the I/O monad.
    """

    lhss: Tuple[str, ...]
    action: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Function:
    """A Bedrock2 function: argument names, return variable names, body."""

    name: str
    args: Tuple[str, ...]
    rets: Tuple[str, ...]
    body: Stmt

    def __post_init__(self) -> None:
        if len(set(self.args)) != len(self.args):
            raise ValueError(f"duplicate argument names in {self.name}")


@dataclass(frozen=True)
class Program:
    """A collection of Bedrock2 functions indexed by name."""

    functions: Tuple[Function, ...] = field(default_factory=tuple)

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def with_function(self, fn: Function) -> "Program":
        return Program(self.functions + (fn,))


# -- Construction helpers ----------------------------------------------------


def seq_of(*stmts: Stmt) -> Stmt:
    """Right-nested sequencing of any number of statements."""
    items = [s for s in stmts if not isinstance(s, SSkip)]
    if not items:
        return SSkip()
    result = items[-1]
    for stmt in reversed(items[:-1]):
        result = SSeq(stmt, result)
    return result


def flatten(stmt: Stmt) -> List[Stmt]:
    """The straight-line statement list of one nesting level: the leaves
    of the ``SSeq`` spine with ``SSkip`` dropped (:func:`seq_of` re-nests
    it).  Compound statements keep their blocks."""
    out: List[Stmt] = []
    stack = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, SSeq):
            stack += (node.second, node.first)
        elif not isinstance(node, SSkip):
            out.append(node)
    return out


def lit(value: int) -> ELit:
    return ELit(value)


def var(name: str) -> EVar:
    return EVar(name)


def op(name: str, lhs: Expr, rhs: Expr) -> EOp:
    return EOp(name, lhs, rhs)


def add(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("add", lhs, rhs)


def sub(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("sub", lhs, rhs)


def mul(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("mul", lhs, rhs)


def band(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("and", lhs, rhs)


def shl(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("slu", lhs, rhs)


def shr(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("sru", lhs, rhs)


def ltu(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("ltu", lhs, rhs)


def eq(lhs: Expr, rhs: Expr) -> EOp:
    return EOp("eq", lhs, rhs)


def load(size: int, addr: Expr) -> ELoad:
    return ELoad(size, addr)


def load1(addr: Expr) -> ELoad:
    return ELoad(SIZE1, addr)


def store(size: int, addr: Expr, value: Expr) -> SStore:
    return SStore(size, addr, value)


def fingerprint(node) -> str:
    """A short stable hash of an AST node (used by optimizer certificates).

    Frozen dataclasses have deterministic ``repr``s that recurse over the
    whole tree, so hashing the repr fingerprints the exact syntax.
    """
    import hashlib

    return hashlib.sha256(repr(node).encode("utf-8")).hexdigest()[:16]


# -- Traversal ---------------------------------------------------------------
#
# Which fields of which node hold sub-statements and sub-expressions is
# stated once, in the two tables below; every generic walker goes through
# the primitives that read them.  Code that gives each construct its own
# meaning (the interpreters, the printers, the analyses' transfer
# functions) still spells out the fields it interprets.


class _StmtShape(NamedTuple):
    exprs: Callable  # stmt -> expressions evaluated at the node itself
    blocks: Callable  # stmt -> nested statements
    defines: Callable  # stmt -> locals the node binds
    rebuild: Callable  # (stmt, exprs, blocks) -> stmt


class _ExprShape(NamedTuple):
    operands: Callable  # expr -> sub-expressions
    rebuild: Callable  # (expr, operands) -> expr


def _none(node) -> tuple:
    return ()


def _same(node, *children):
    return node


_STMT_SHAPES = {
    SSkip: _StmtShape(_none, _none, _none, _same),
    SSet: _StmtShape(
        lambda s: (s.rhs,), _none, lambda s: (s.lhs,),
        lambda s, es, bs: SSet(s.lhs, *es),
    ),
    SUnset: _StmtShape(_none, _none, _none, _same),
    SStore: _StmtShape(
        lambda s: (s.addr, s.value), _none, _none,
        lambda s, es, bs: SStore(s.size, *es),
    ),
    SStackalloc: _StmtShape(
        _none, lambda s: (s.body,), lambda s: (s.lhs,),
        lambda s, es, bs: SStackalloc(s.lhs, s.nbytes, *bs),
    ),
    SCond: _StmtShape(
        lambda s: (s.cond,), lambda s: (s.then_, s.else_), _none,
        lambda s, es, bs: SCond(*es, *bs),
    ),
    SSeq: _StmtShape(
        _none, lambda s: (s.first, s.second), _none,
        lambda s, es, bs: SSeq(*bs),
    ),
    SWhile: _StmtShape(
        lambda s: (s.cond,), lambda s: (s.body,), _none,
        lambda s, es, bs: SWhile(*es, *bs),
    ),
    SCall: _StmtShape(
        lambda s: tuple(s.args), _none, lambda s: tuple(s.lhss),
        lambda s, es, bs: SCall(s.lhss, s.func, tuple(es)),
    ),
    SInteract: _StmtShape(
        lambda s: tuple(s.args), _none, lambda s: tuple(s.lhss),
        lambda s, es, bs: SInteract(s.lhss, s.action, tuple(es)),
    ),
}

_EXPR_SHAPES = {
    ELit: _ExprShape(_none, _same),
    EVar: _ExprShape(_none, _same),
    ELoad: _ExprShape(lambda e: (e.addr,), lambda e, ops: ELoad(e.size, *ops)),
    EOp: _ExprShape(lambda e: (e.lhs, e.rhs), lambda e, ops: EOp(e.op, *ops)),
    EInlineTable: _ExprShape(
        lambda e: (e.index,), lambda e, ops: EInlineTable(e.size, e.data, *ops)
    ),
}


# Per-field views of the tables, for the walkers below.
_NODE_EXPRS = {t: shape.exprs for t, shape in _STMT_SHAPES.items()}
_CHILD_BLOCKS = {t: shape.blocks for t, shape in _STMT_SHAPES.items()}
_DEFINES = {t: shape.defines for t, shape in _STMT_SHAPES.items()}
_OPERANDS = {t: shape.operands for t, shape in _EXPR_SHAPES.items()}


def node_exprs(stmt: Stmt) -> Tuple[Expr, ...]:
    """The expressions ``stmt`` evaluates at its own node, in evaluation
    order (nested blocks evaluate theirs)."""
    return _NODE_EXPRS[type(stmt)](stmt)


def child_blocks(stmt: Stmt) -> Tuple[Stmt, ...]:
    """The statements nested directly in ``stmt``, in field order."""
    return _CHILD_BLOCKS[type(stmt)](stmt)


def defined_names(stmt: Stmt) -> Tuple[str, ...]:
    """The locals ``stmt`` binds at its own node: an assignment's target,
    a stack allocation's pointer, call and interaction results.
    ``SUnset`` removes a name; it defines none."""
    return _DEFINES[type(stmt)](stmt)


def operands(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``."""
    return _OPERANDS[type(expr)](expr)


def rebuild(stmt: Stmt, exprs: Sequence[Expr], blocks: Sequence[Stmt]) -> Stmt:
    """``stmt`` with its own expressions and its nested statements
    replaced, each in the order :func:`node_exprs` and
    :func:`child_blocks` give them."""
    return _STMT_SHAPES[type(stmt)].rebuild(stmt, exprs, blocks)


def with_blocks(stmt: Stmt, blocks: Sequence[Stmt]) -> Stmt:
    """``stmt`` with its nested statements replaced, in field order."""
    return rebuild(stmt, node_exprs(stmt), blocks)


def walk_stmts(stmt: Stmt) -> List[Stmt]:
    """Every statement node under ``stmt``, itself included, in pre-order:
    a node before its blocks, blocks in field order."""
    out: List[Stmt] = []
    stack = [stmt]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += _CHILD_BLOCKS[type(node)](node)[::-1]
    return out


def walk_exprs(node: Union[Stmt, Expr]) -> List[Expr]:
    """Every expression node under a statement or expression, in pre-order:
    an operator before its operands, and each statement's own expressions
    before its blocks."""
    out: List[Expr] = []
    _collect_exprs(node, out)
    return out


def _collect_exprs(node: Union[Stmt, Expr], out: List[Expr]) -> None:
    node_operands = _OPERANDS.get(type(node))
    if node_operands is not None:
        out.append(node)
        for operand in node_operands(node):
            _collect_exprs(operand, out)
        return
    for expr in _NODE_EXPRS[type(node)](node):
        _collect_exprs(expr, out)
    for block in _CHILD_BLOCKS[type(node)](node):
        _collect_exprs(block, out)


def map_expr(expr: Expr, transform: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``transform`` at every node:
    operands first, then the operator rebuilt over their results."""
    ops = _OPERANDS[type(expr)](expr)
    if ops:
        rebuild = _EXPR_SHAPES[type(expr)].rebuild
        expr = rebuild(expr, [map_expr(o, transform) for o in ops])
    return transform(expr)


def map_stmt(
    stmt: Stmt,
    on_stmt: Optional[Callable[[Stmt], Stmt]] = None,
    on_expr: Optional[Callable[[Expr], Expr]] = None,
) -> Stmt:
    """Rebuild ``stmt`` bottom-up.

    At every statement node, ``on_expr`` first rewrites the node's own
    expressions (through :func:`map_expr`), then the nested blocks are
    mapped in field order, and then ``on_stmt`` receives the rebuilt
    node.  A transform's output is never re-visited.
    """
    shape = _STMT_SHAPES[type(stmt)]
    exprs = shape.exprs(stmt)
    blocks = shape.blocks(stmt)
    if blocks or (exprs and on_expr is not None):
        if on_expr is not None:
            exprs = [map_expr(e, on_expr) for e in exprs]
        blocks = [map_stmt(b, on_stmt, on_expr) for b in blocks]
        stmt = shape.rebuild(stmt, exprs, blocks)
    return stmt if on_stmt is None else on_stmt(stmt)


def statement_count(stmt: Stmt) -> int:
    """Number of statement nodes, used for compiler-throughput metrics (E5).

    Sequencing and ``SSkip`` are not counted."""
    return sum(1 for node in walk_stmts(stmt) if not isinstance(node, (SSeq, SSkip)))


def expr_vars(expr: Expr) -> set:
    """The set of local-variable names read by ``expr``."""
    if isinstance(expr, EVar):
        return {expr.name}
    out = set()
    for operand in _OPERANDS[type(expr)](expr):
        out |= expr_vars(operand)
    return out


def inline_tables(stmt: Stmt) -> List[bytes]:
    """The distinct inline-table contents under ``stmt``, in pre-order of
    first use.  Tables are told apart by their bytes, not by object
    identity, so a tree and its serialized round trip name the same
    tables."""
    found = (e.data for e in walk_exprs(stmt) if isinstance(e, EInlineTable))
    return list(dict.fromkeys(found))
