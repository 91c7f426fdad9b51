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

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

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


def _deref_vars(expr: ast.Expr) -> Set[str]:
    """Variables used (pointerishly) inside some dereferenced address."""
    if isinstance(expr, ast.ELoad):
        return _pointerish_vars(expr.addr) | _deref_vars(expr.addr)
    if isinstance(expr, ast.EOp):
        return _deref_vars(expr.lhs) | _deref_vars(expr.rhs)
    if isinstance(expr, ast.EInlineTable):
        return _deref_vars(expr.index)
    return set()


# ---------------------------------------------------------------------------
# Control-flow graph


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
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    stmt: Optional[ast.Stmt] = None


class CFG:
    """Control-flow graph of one function, with feasibility-aware edges."""

    def __init__(self, fn: ast.Function):
        self.fn = fn
        self.nodes: List[Node] = []
        self.entry = self._new("entry", "entry").id
        exits = self._build(fn.body, [self.entry], "body", frozenset())
        exit_node = self._new("exit", "exit")
        exit_node.uses = set(fn.rets)
        self.exit = exit_node.id
        for pred in exits:
            self._edge(pred, self.exit)
        for node in self.nodes:
            for succ in node.succs:
                self.nodes[succ].preds.append(node.id)
        self.reachable = self._reachable()

    # -- construction ------------------------------------------------------

    def _new(self, kind: str, path: str, **attrs) -> Node:
        node = Node(id=len(self.nodes), kind=kind, path=path, **attrs)
        self.nodes.append(node)
        return node

    def _edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.append(dst)

    def _build(
        self,
        stmt: ast.Stmt,
        preds: List[int],
        path: str,
        regions: FrozenSet[int],
    ) -> List[int]:
        """Add ``stmt``'s nodes; returns the frontier flowing onward.

        ``preds`` empty means the statement is unreachable by
        construction (a dead branch); its nodes are still built so the
        reachability pass can report them.
        """
        if isinstance(stmt, ast.SSkip):
            return preds
        if isinstance(stmt, ast.SSeq):
            items = ast.flatten(stmt)
            frontier = preds
            for index, item in enumerate(items):
                frontier = self._build(item, frontier, f"{path}[{index}]", regions)
            return frontier
        if isinstance(stmt, ast.SSet):
            node = self._new(
                "set",
                path,
                uses=ast.expr_vars(stmt.rhs),
                defs={stmt.lhs},
                deref=_deref_vars(stmt.rhs),
                active_regions=regions,
            )
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            return [node.id]
        if isinstance(stmt, ast.SUnset):
            node = self._new("unset", path, defs=set(), active_regions=regions)
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            return [node.id]
        if isinstance(stmt, ast.SStore):
            node = self._new(
                "store",
                path,
                uses=ast.expr_vars(stmt.addr) | ast.expr_vars(stmt.value),
                deref=(
                    _pointerish_vars(stmt.addr)
                    | _deref_vars(stmt.addr)
                    | _deref_vars(stmt.value)
                ),
                stored_values=_pointerish_vars(stmt.value),
                active_regions=regions,
            )
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            return [node.id]
        if isinstance(stmt, ast.SStackalloc):
            node = self._new(
                "stackalloc", path, defs={stmt.lhs}, active_regions=regions
            )
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            inner = regions | {node.id}
            return self._build(stmt.body, [node.id], f"{path}.body", inner)
        if isinstance(stmt, ast.SCond):
            node = self._new(
                "cond",
                path,
                uses=ast.expr_vars(stmt.cond),
                deref=_deref_vars(stmt.cond),
                active_regions=regions,
            )
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            const = stmt.cond.value if isinstance(stmt.cond, ast.ELit) else None
            then_preds = [node.id] if const is None or const != 0 else []
            else_preds = [node.id] if const is None or const == 0 else []
            then_out = self._build(stmt.then_, then_preds, f"{path}.then", regions)
            else_out = self._build(stmt.else_, else_preds, f"{path}.else", regions)
            return then_out + else_out
        if isinstance(stmt, ast.SWhile):
            node = self._new(
                "while",
                path,
                uses=ast.expr_vars(stmt.cond),
                deref=_deref_vars(stmt.cond),
                active_regions=regions,
            )
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            const = stmt.cond.value if isinstance(stmt.cond, ast.ELit) else None
            body_preds = [node.id] if const is None or const != 0 else []
            body_out = self._build(stmt.body, body_preds, f"{path}.body", regions)
            for back in body_out:
                self._edge(back, node.id)
            # ``while (1)`` never falls through: the exit edge is infeasible.
            return [node.id] if const is None or const == 0 else []
        if isinstance(stmt, (ast.SCall, ast.SInteract)):
            kind = "call" if isinstance(stmt, ast.SCall) else "interact"
            uses: Set[str] = set()
            deref: Set[str] = set()
            for arg in stmt.args:
                uses |= ast.expr_vars(arg)
                deref |= _deref_vars(arg)
            node = self._new(
                kind,
                path,
                uses=uses,
                defs=set(stmt.lhss),
                deref=deref,
                active_regions=regions,
            )
            node.stmt = stmt
            for pred in preds:
                self._edge(pred, node.id)
            return [node.id]
        raise TypeError(f"unknown statement node {stmt!r}")

    def _reachable(self) -> Set[int]:
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ in self.nodes[stack.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    # -- analyses ----------------------------------------------------------

    def must_defined(self) -> Dict[int, Optional[Set[str]]]:
        """Forward must-defined-in sets (None = not yet reached / top)."""
        inn: Dict[int, Optional[Set[str]]] = {n.id: None for n in self.nodes}
        inn[self.entry] = set(self.fn.args)
        work = deque([self.entry])
        queued = {self.entry}
        while work:
            node = self.nodes[work.popleft()]
            queued.discard(node.id)
            assert inn[node.id] is not None
            out = set(inn[node.id])
            if node.kind == "unset":
                assert isinstance(node.stmt, ast.SUnset)
                out.discard(node.stmt.name)
            else:
                out |= node.defs
            for succ in node.succs:
                old = inn[succ]
                new = out if old is None else (old & out)
                if old is None or new != old:
                    inn[succ] = set(new)
                    if succ not in queued:
                        work.append(succ)
                        queued.add(succ)
        return inn

    def live_out(self) -> Dict[int, Set[str]]:
        """Backward liveness: variables observable after each node."""
        live_in: Dict[int, Set[str]] = {n.id: set() for n in self.nodes}
        changed = True
        while changed:
            changed = False
            for node in reversed(self.nodes):
                out: Set[str] = set()
                for succ in node.succs:
                    out |= live_in[succ]
                kill = set(node.defs)
                if node.kind == "unset":
                    assert isinstance(node.stmt, ast.SUnset)
                    kill = {node.stmt.name}
                new_in = node.uses | (out - kill)
                if new_in != live_in[node.id]:
                    live_in[node.id] = new_in
                    changed = True
        return {
            node.id: set().union(*(live_in[s] for s in node.succs)) if node.succs else set()
            for node in self.nodes
        }

    def taint(self, seeds: Dict[str, str]) -> Dict[int, Dict[str, Set[str]]]:
        """Forward may-taint: var -> region labels, per node (at entry).

        ``seeds`` maps variable names tainted at function entry to region
        labels (used for pointer arguments).  ``SStackalloc`` nodes seed
        their own region ``stack:<path>``.  Joins are unions; ``SSet`` is
        a strong update; call results are fresh (untainted).
        """
        inn: Dict[int, Dict[str, Set[str]]] = {n.id: {} for n in self.nodes}
        inn[self.entry] = {var: {label} for var, label in seeds.items()}
        # Every node is visited at least once: region-introducing nodes
        # (stackalloc) generate taint even when nothing flows in.
        work = deque(n.id for n in self.nodes)
        queued = set(work)
        while work:
            node = self.nodes[work.popleft()]
            queued.discard(node.id)
            env = {var: set(labels) for var, labels in inn[node.id].items()}
            if node.kind == "set":
                assert isinstance(node.stmt, ast.SSet)
                labels: Set[str] = set()
                for var in _pointerish_vars(node.stmt.rhs):
                    labels |= env.get(var, set())
                if labels:
                    env[node.stmt.lhs] = labels
                else:
                    env.pop(node.stmt.lhs, None)
            elif node.kind == "unset":
                assert isinstance(node.stmt, ast.SUnset)
                env.pop(node.stmt.name, None)
            elif node.kind == "stackalloc":
                assert isinstance(node.stmt, ast.SStackalloc)
                env[node.stmt.lhs] = {f"stack:{node.path}"}
            elif node.kind in ("call", "interact"):
                for lhs in node.defs:
                    env.pop(lhs, None)
            for succ in node.succs:
                merged = {v: set(ls) for v, ls in inn[succ].items()}
                grew = False
                for var, labels in env.items():
                    have = merged.setdefault(var, set())
                    if not labels <= have:
                        have |= labels
                        grew = True
                if grew or not inn[succ] and env:
                    inn[succ] = merged
                    if succ not in queued:
                        work.append(succ)
                        queued.add(succ)
        return inn


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

    if not errors_only:
        # RB203: unreachable statements (report each dead region once, at its
        # first node -- a node none of whose predecessors are also dead).
        for node in cfg.nodes:
            if node.id in cfg.reachable or node.kind in ("entry", "exit"):
                continue
            if any(p not in cfg.reachable for p in node.preds) and node.preds:
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
    must_in = cfg.must_defined()
    for node in cfg.nodes:
        if node.id not in cfg.reachable:
            continue
        defined = must_in[node.id]
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
            if node.kind != "set" or node.id not in cfg.reachable:
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
        if node.id not in cfg.reachable:
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

    if not errors_only or ast.inline_tables(fn.body):
        diags.extend(range_lint(fn, cfg=cfg))
    return errors(diags) if errors_only else diags


def lint_compiled(compiled) -> List[Diagnostic]:
    """Lint a :class:`~repro.core.spec.CompiledFunction` bundle."""
    return lint_function(compiled.bedrock_fn, spec=compiled.spec)
