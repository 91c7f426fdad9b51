"""CFG-based dataflow lint for Bedrock2 functions.

:mod:`repro.bedrock2.wellformed` is a *gate*: it raises on the first
definite-assignment violation.  This module is a *lint*: it builds a
control-flow graph from the structured AST and runs classical dataflow
analyses over it, reporting every finding as a stable
:class:`~repro.analysis.diagnostics.Diagnostic` (RB2xx codes):

- **RB201 uninit-read** -- forward must-defined analysis (meet =
  intersection over feasible predecessors); also covers declared return
  variables that may be unset at exit;
- **RB202 dead-store** -- backward liveness; an ``SSet`` whose target is
  dead afterwards can never be observed (memory stores and calls are
  never "dead": they have effects);
- **RB203 unreachable** -- reachability with constant-condition edge
  feasibility (``if (0)`` branches, ``while (1)`` fall-throughs);
- **RB204/RB205 stackalloc lifetime** -- a pointer taint analysis:
  every ``SStackalloc`` introduces a *region*; values derived from its
  pointer (address arithmetic, aliases) carry the region's taint.
  Dereferencing a tainted value after the allocation's lexical scope
  ended is RB204; storing a tainted value to memory or returning it is
  RB205 (the region dies with the scope, so any copy that outlives it
  is a dangling pointer).  Loads *through* a tainted pointer yield
  data, not pointers, so taint does not flow out of ``ELoad``;
- **RB206 footprint-violation** -- the same taint machinery seeded with
  the function's pointer arguments: a store whose address derives from
  a pointer argument the :class:`~repro.core.spec.FnSpec` does not
  declare writable (an ``ARRAY`` output's pointer, or the state-monad
  state pointer) writes memory the caller did not hand over.

The analyses are intraprocedural and sound for the structured statement
language (no goto); addresses whose provenance is unknown (loaded from
memory, call results) are never flagged -- the lint prefers silence to
false alarms, because CI gates on it.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, errors
from repro.bedrock2 import ast
from repro.core.spec import ArgKind, FnSpec, OutKind

# ---------------------------------------------------------------------------
# Expression classification helpers


def _pointerish_vars(expr: ast.Expr) -> Set[str]:
    """Variables whose *word value* flows into ``expr``'s result.

    Unlike :func:`ast.expr_vars` this does not descend into ``ELoad`` /
    ``EInlineTable`` subtrees: a load produces data read *through* a
    pointer, not the pointer itself, so pointer taint stops there.
    """
    if isinstance(expr, ast.EVar):
        return {expr.name}
    if isinstance(expr, ast.EOp):
        return _pointerish_vars(expr.lhs) | _pointerish_vars(expr.rhs)
    return set()


def _scan(expr: ast.Expr, uses: Set[str], deref: Set[str]) -> bool:
    """Add the variables ``expr`` reads to ``uses`` and those used
    (pointerishly) inside some dereferenced address to ``deref``; returns
    whether ``expr`` reads an inline table.  One walk of the expression."""
    if isinstance(expr, ast.EVar):
        uses.add(expr.name)
        return False
    if isinstance(expr, ast.ELoad):
        deref |= _pointerish_vars(expr.addr)
        return _scan(expr.addr, uses, deref)
    if isinstance(expr, ast.EOp):
        lhs = _scan(expr.lhs, uses, deref)
        return _scan(expr.rhs, uses, deref) or lhs
    if isinstance(expr, ast.EInlineTable):
        _scan(expr.index, uses, deref)
        return True
    if isinstance(expr, ast.ELit):
        return False
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# Control-flow graph

# A branch outcome: the condition and the truth value an edge is taken on.
Guard = Tuple[ast.Expr, bool]

# Statement type -> CFG node kind, for the statements that get a node.
_KINDS = {
    ast.SSet: "set",
    ast.SUnset: "unset",
    ast.SStore: "store",
    ast.SStackalloc: "stackalloc",
    ast.SCond: "cond",
    ast.SWhile: "while",
    ast.SCall: "call",
    ast.SInteract: "interact",
}


class Edge(NamedTuple):
    """One CFG edge.  ``guard`` is the branch outcome it is taken on
    (``None`` for straight-line flow); ``back`` marks a loop's back edge."""

    src: int
    dst: int
    guard: Optional[Guard] = None
    back: bool = False


@dataclass
class Node:
    """One CFG node: a primitive statement, a condition, or entry/exit."""

    id: int
    kind: str  # entry|exit|set|unset|store|stackalloc|cond|while|call|interact
    path: str  # structural path inside the function body, for diagnostics
    uses: Set[str] = field(default_factory=set)
    defs: Set[str] = field(default_factory=set)
    # Variables dereferenced here (inside a load address or as the
    # address of a store) and variables whose value is written to memory.
    deref: Set[str] = field(default_factory=set)
    stored_values: Set[str] = field(default_factory=set)
    # Stackalloc regions whose lexical scope encloses this node.
    active_regions: FrozenSet[int] = frozenset()
    succs: List[Edge] = field(default_factory=list)  # outgoing edges
    preds: List[Edge] = field(default_factory=list)  # incoming edges
    stmt: Optional[ast.Stmt] = None

    @property
    def kills(self) -> Set[str]:
        """The variables whose old value does not survive this node."""
        return {self.stmt.name} if self.kind == "unset" else self.defs


class CFG:
    """Control-flow graph of one function, with feasibility-aware,
    guard-labelled edges."""

    # The path suffix of each nested block, in ``ast.child_blocks`` order.
    BLOCK_PATHS = {
        ast.SCond: (".then", ".else"),
        ast.SWhile: (".body",),
        ast.SStackalloc: (".body",),
    }

    def __init__(self, fn: ast.Function):
        self.fn = fn
        self.nodes: List[Node] = []
        # Whether any expression of the function reads an inline table.
        self.reads_table = False
        self.entry = self._new("entry", "entry", []).id
        exits = self._build(fn.body, [(self.entry, None)], "body", frozenset())
        self.exit = self._new("exit", "exit", exits, uses=set(fn.rets)).id

    # -- construction ------------------------------------------------------

    def _new(self, kind: str, path: str, preds, stmt=None, **attrs) -> Node:
        """A new node entered along the pending edges ``preds``."""
        node = Node(id=len(self.nodes), kind=kind, path=path, stmt=stmt, **attrs)
        self.nodes.append(node)
        for src, guard in preds:
            self._edge(src, node.id, guard)
        return node

    def _edge(self, src: int, dst: int, guard: Optional[Guard], back=False) -> None:
        edge = Edge(src, dst, guard, back)
        self.nodes[src].succs.append(edge)
        self.nodes[dst].preds.append(edge)

    def _build(
        self,
        stmt: ast.Stmt,
        preds: List[Tuple[int, Optional[Guard]]],
        path: str,
        regions: FrozenSet[int],
    ) -> List[Tuple[int, Optional[Guard]]]:
        """Add ``stmt``'s nodes after the pending edges ``preds`` (source,
        guard); returns the pending edges flowing onward.

        ``preds`` empty means the statement is unreachable by
        construction (a dead branch); its nodes are still built so RB203
        can report them.  An empty block adds no node: its pending edges,
        guards included, flow on to whatever follows.
        """
        if isinstance(stmt, ast.SSkip):
            return preds
        if isinstance(stmt, ast.SSeq):
            for index, item in enumerate(ast.flatten(stmt)):
                preds = self._build(item, preds, f"{path}[{index}]", regions)
            return preds
        kind = _KINDS.get(type(stmt))
        if kind is None:
            raise TypeError(f"unknown statement node {stmt!r}")
        uses: Set[str] = set()
        deref: Set[str] = set()
        for expr in ast.node_exprs(stmt):
            if _scan(expr, uses, deref):
                self.reads_table = True
        node = self._new(
            kind,
            path,
            preds,
            stmt,
            uses=uses,
            defs=set(ast.defined_names(stmt)),
            deref=deref,
            active_regions=regions,
        )
        if kind == "store":
            node.deref |= _pointerish_vars(stmt.addr)
            node.stored_values = _pointerish_vars(stmt.value)
        elif kind == "stackalloc":
            (suffix,) = self.BLOCK_PATHS[ast.SStackalloc]
            inner = regions | {node.id}
            return self._build(stmt.body, [(node.id, None)], path + suffix, inner)
        elif kind == "cond" or kind == "while":
            # A constant condition adds no infeasible edge.
            const = stmt.cond.value if isinstance(stmt.cond, ast.ELit) else None
            taken = [] if const == 0 else [(node.id, (stmt.cond, True))]
            skipped = [] if const else [(node.id, (stmt.cond, False))]
            if kind == "cond":
                then_path, else_path = self.BLOCK_PATHS[ast.SCond]
                then_out = self._build(stmt.then_, taken, path + then_path, regions)
                else_out = self._build(stmt.else_, skipped, path + else_path, regions)
                return then_out + else_out
            (suffix,) = self.BLOCK_PATHS[ast.SWhile]
            for src, guard in self._build(stmt.body, taken, path + suffix, regions):
                self._edge(src, node.id, guard, back=True)
            return skipped
        return [(node.id, None)]

    # -- analyses ----------------------------------------------------------

    def solve(
        self,
        direction: str,
        init: Dict[int, Any],
        transfer: Callable[[Node, Any], Any],
        join: Callable[[Any, Any], Any],
        *,
        edge: Optional[Callable[[Edge, Any], Any]] = None,
        widen: Optional[Callable[[Node, Any, Any, int], Any]] = None,
    ) -> Dict[int, Any]:
        """Run one dataflow analysis to its fixpoint: ``node id -> in-value``.

        ``direction`` is ``"forward"`` (values flow along the edges; a
        node's in-value holds before it) or ``"backward"`` (against them;
        it holds after it).  ``init`` seeds the in-values and, in its
        order, the FIFO worklist; a node absent from the result was never
        reached.  A visit sends ``transfer(node, in_value)`` along each
        edge -- through ``edge(e, value)`` when given -- and joins it into
        the far node's in-value with ``join(old, value)``.  When that
        changes it, ``widen(far_node, old, new, updates)`` may replace the
        new value, ``updates`` counting the far node's earlier changes.
        """
        forward = direction == "forward"
        nodes = self.nodes
        values = dict(init)
        work = deque(values)
        queued = set(values)
        updates: Dict[int, int] = {}
        while work:
            node = nodes[work.popleft()]
            queued.discard(node.id)
            out = transfer(node, values[node.id])
            for e in node.succs if forward else node.preds:
                far = e.dst if forward else e.src
                value = out if edge is None else edge(e, out)
                old = values.get(far)
                if old is not None:
                    value = join(old, value)
                    if value == old:
                        continue
                    if widen is not None:
                        value = widen(nodes[far], old, value, updates.get(far, 0))
                        if value == old:
                            continue
                values[far] = value
                if widen is not None:
                    updates[far] = updates.get(far, 0) + 1
                if far not in queued:
                    work.append(far)
                    queued.add(far)
        return values

    def must_defined(self) -> Dict[int, FrozenSet[str]]:
        """Forward must-defined-in sets (meet: intersection); a node
        absent from the result is unreachable."""

        def transfer(node: Node, defined: FrozenSet[str]) -> FrozenSet[str]:
            return defined - node.kills if node.kind == "unset" else defined | node.defs

        init = {self.entry: frozenset(self.fn.args)}
        return self.solve("forward", init, transfer, operator.and_)

    def live_out(self) -> Dict[int, FrozenSet[str]]:
        """Backward liveness: variables observable after each node."""

        def transfer(node: Node, live: FrozenSet[str]) -> FrozenSet[str]:
            return node.uses | (live - node.kills)

        init = {node.id: frozenset() for node in reversed(self.nodes)}
        return self.solve("backward", init, transfer, operator.or_)

    def taint(self, seeds: Dict[str, str]) -> Dict[int, Dict[str, Set[str]]]:
        """Forward may-taint: var -> region labels, per node (at entry).

        ``seeds`` maps variable names tainted at function entry to region
        labels (used for pointer arguments).  ``SStackalloc`` nodes seed
        their own region ``stack:<path>``.  Joins are unions; ``SSet`` is
        a strong update; call results are fresh (untainted).
        """

        def transfer(node: Node, env: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
            kills = node.kills
            if not kills:
                return env
            out = {var: labels for var, labels in env.items() if var not in kills}
            if node.kind == "set":
                labels = set()
                for var in _pointerish_vars(node.stmt.rhs):
                    labels |= env.get(var, set())
                if labels:
                    out[node.stmt.lhs] = labels
            elif node.kind == "stackalloc":
                out[node.stmt.lhs] = {f"stack:{node.path}"}
            return out

        def join(old, new):
            merged = dict(old)
            for var, labels in new.items():
                have = old.get(var)
                if have is None or not labels <= have:
                    merged[var] = labels if have is None else have | labels
            return merged

        # Every node is visited at least once: region-introducing nodes
        # (stackalloc) generate taint even when nothing flows in.
        init = {node.id: {} for node in self.nodes}
        init[self.entry] = {var: {label} for var, label in seeds.items()}
        return self.solve("forward", init, transfer, join)


# ---------------------------------------------------------------------------
# The lint proper


def _writable_pointer_args(spec: FnSpec) -> Set[str]:
    """Bedrock2 locals through which the spec licenses memory writes."""
    writable: Set[str] = set()
    for out in spec.outputs:
        if out.kind is OutKind.ARRAY and out.param:
            arg = spec.arg_for_param(out.param, ArgKind.POINTER)
            if arg is not None:
                writable.add(arg.name)
    if spec.state_param:
        arg = spec.arg_for_param(spec.state_param, ArgKind.POINTER)
        if arg is not None:
            writable.add(arg.name)
    return writable


def lint_function(
    fn: ast.Function, spec: Optional[FnSpec] = None, *, errors_only: bool = False
) -> List[Diagnostic]:
    """All RB2xx/RB3xx diagnostics for one Bedrock2 function, in node order.

    ``errors_only=True`` returns exactly ``errors(lint_function(fn, spec))``
    -- the trust-path gates keep nothing else -- and skips the work that
    can only warn: RB203 reporting, liveness (RB202), and the range
    fixpoint unless ``fn`` reads an inline table (RB302 is the only range
    finding with error severity).  What it does run is filtered by
    severity, so the two modes agree by construction.
    """
    cfg = CFG(fn)
    diags: List[Diagnostic] = []
    # A forward solve from the entry reaches exactly the reachable nodes.
    must_in = cfg.must_defined()

    if not errors_only:
        # RB203: unreachable statements (report each dead region once, at its
        # first node -- a node none of whose predecessors are also dead).
        for node in cfg.nodes:
            if node.id in must_in or node.kind in ("entry", "exit"):
                continue
            if any(e.src not in must_in for e in node.preds):
                continue
            diags.append(
                Diagnostic(
                    code="RB203",
                    subject=fn.name,
                    where=node.path,
                    message="statement is unreachable (constant branch or loop condition)",
                )
            )

    # RB201: may-uninitialized reads, on reachable nodes only.
    for node in cfg.nodes:
        defined = must_in.get(node.id)
        if defined is None:
            continue
        for var in sorted(node.uses - defined):
            if node.kind == "exit":
                diags.append(
                    Diagnostic(
                        code="RB201",
                        subject=fn.name,
                        where="exit",
                        message=(
                            f"return variable {var!r} may be unset on some path"
                        ),
                    )
                )
            else:
                diags.append(
                    Diagnostic(
                        code="RB201",
                        subject=fn.name,
                        where=node.path,
                        message=f"variable {var!r} may be read before assignment",
                    )
                )

    if not errors_only:
        # RB202: dead stores (SSet only -- stores/calls have effects).
        live = cfg.live_out()
        for node in cfg.nodes:
            if node.kind != "set" or node.id not in must_in:
                continue
            assert isinstance(node.stmt, ast.SSet)
            if node.stmt.lhs not in live[node.id]:
                diags.append(
                    Diagnostic(
                        code="RB202",
                        subject=fn.name,
                        where=node.path,
                        message=(
                            f"value assigned to {node.stmt.lhs!r} is never used "
                            "(dead store)"
                        ),
                    )
                )

    # RB204/RB205/RB206: pointer-taint checks.
    pointer_args = (
        {arg.name for arg in spec.args if arg.kind is ArgKind.POINTER}
        if spec is not None
        else set()
    )
    writable = _writable_pointer_args(spec) if spec is not None else set()
    seeds = {name: f"arg:{name}" for name in pointer_args}
    taint_in = cfg.taint(seeds)

    def regions_of(node: Node, names: Set[str]) -> Set[str]:
        env = taint_in[node.id]
        labels: Set[str] = set()
        for name in names:
            labels |= env.get(name, set())
        return labels

    for node in cfg.nodes:
        if node.id not in must_in:
            continue
        # RB204: dereference of a stack region whose scope has ended.
        active = {f"stack:{cfg.nodes[r].path}" for r in node.active_regions}
        for label in sorted(regions_of(node, node.deref)):
            if label.startswith("stack:") and label not in active:
                diags.append(
                    Diagnostic(
                        code="RB204",
                        subject=fn.name,
                        where=node.path,
                        message=(
                            "read/write through a stack-allocated pointer "
                            f"({label}) after its scope ended"
                        ),
                    )
                )
        # RB205: a stack pointer's value escapes into memory.
        if node.kind == "store":
            for label in sorted(regions_of(node, node.stored_values)):
                if label.startswith("stack:"):
                    diags.append(
                        Diagnostic(
                            code="RB205",
                            subject=fn.name,
                            where=node.path,
                            message=(
                                f"stack-allocated pointer ({label}) stored to "
                                "memory outlives its allocation"
                            ),
                        )
                    )
            # RB206: write through a pointer argument not declared writable.
            addr_labels = regions_of(node, _pointerish_vars(node.stmt.addr))
            for label in sorted(addr_labels):
                if label.startswith("arg:") and label[4:] not in writable:
                    diags.append(
                        Diagnostic(
                            code="RB206",
                            subject=fn.name,
                            where=node.path,
                            message=(
                                f"store through pointer argument {label[4:]!r}, "
                                "which the spec does not declare writable"
                            ),
                        )
                    )
        # RB205 (return form): a stack pointer escapes via a return variable.
        if node.kind == "exit":
            for ret in fn.rets:
                for label in sorted(regions_of(node, {ret})):
                    if label.startswith("stack:"):
                        diags.append(
                            Diagnostic(
                                code="RB205",
                                subject=fn.name,
                                where="exit",
                                message=(
                                    f"return variable {ret!r} carries a "
                                    f"stack-allocated pointer ({label})"
                                ),
                            )
                        )
    # RB301-RB304: word-level range lints from the abstract interpreter
    # (lazy import: repro.analysis.absint pulls in the solver machinery).
    from repro.analysis.absint import range_lint

    if not errors_only or cfg.reads_table:
        diags.extend(range_lint(fn, cfg=cfg))
    return errors(diags) if errors_only else diags


def lint_compiled(compiled) -> List[Diagnostic]:
    """Lint a :class:`~repro.core.spec.CompiledFunction` bundle."""
    return lint_function(compiled.bedrock_fn, spec=compiled.spec)
