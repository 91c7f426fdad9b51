"""Abstract interpretation of Bedrock2 functions.

A forward dataflow fixpoint over the :class:`repro.analysis.dataflow.CFG`,
run by :meth:`~repro.analysis.dataflow.CFG.solve` like every other CFG
analysis: each node carries an abstract environment (variable name ->
:class:`Range` over the word's unsigned representative; absent = the full
word).  Every edge out of a ``cond``/``while`` node is labelled with the
branch outcome it is taken on -- an empty arm's edge, which runs straight
to the join, included -- and refines the environment with what that
outcome implies.  Loop heads (``while`` nodes) are *widened* after
:data:`WIDEN_AFTER` growing visits, which bounds every chain, and an
iteration cap backstops the widening.  The worklist is FIFO, so the
effort counters (``absint.fixpoint.iterations``, ``absint.widenings``)
are deterministic.

Three consumers sit on top:

- :func:`range_lint` emits the RB3xx diagnostic family (provable
  wraparound, inline-table overrun, oversized shift amounts, feasible
  division by zero);
- :class:`repro.opt.passes.RangeGuardElimination` rewrites each
  statement under :func:`analyze_function`'s environment at its node
  and decides a loop on the environments of its non-back in-edges
  (:meth:`AbsintResult.edge_env`);
- ``repro lint --ranges`` reports :func:`function_ranges` per program.

Transfer functions mirror :func:`repro.bedrock2.semantics.apply_op`
bit-for-bit (shift amounts mod width, RISC-V division-by-zero results);
the soundness property suite in ``tests/analysis`` co-executes the
interpreter against these environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import CFG, Edge, Node
from repro.analysis.diagnostics import Diagnostic
from repro.bedrock2 import ast
from repro.analysis.absint import domain
from repro.analysis.absint.domain import Range

Env = Dict[str, Range]

# Join this many times at a loop head before widening kicks in.
WIDEN_AFTER = 3

# Inline-table reads enumerate feasible offsets up to this many entries
# when computing the loaded value's range; beyond it, fall back to the
# full ``2**(8*size) - 1`` bound.
TABLE_ENUM_LIMIT = 4096


# -- Expression ranges ------------------------------------------------------


def expr_range(expr: ast.Expr, env: Env, width: int) -> Range:
    """The range of ``expr``'s unsigned value under ``env``."""
    if isinstance(expr, ast.ELit):
        return domain.const(expr.value & ((1 << width) - 1))
    if isinstance(expr, ast.EVar):
        return env.get(expr.name, domain.top(width))
    if isinstance(expr, ast.ELoad):
        return domain.make(0, min((1 << (8 * expr.size)), 1 << width) - 1)
    if isinstance(expr, ast.EInlineTable):
        return _table_range(expr, expr_range(expr.index, env, width), width)
    if isinstance(expr, ast.EOp):
        lhs = expr_range(expr.lhs, env, width)
        rhs = expr_range(expr.rhs, env, width)
        return _apply_op_range(expr.op, lhs, rhs, width)
    return domain.top(width)


def _apply_op_range(op: str, a: Range, b: Range, width: int) -> Range:
    if op == "add":
        return domain.add(a, b, width)
    if op == "sub":
        return domain.sub(a, b, width)
    if op == "mul":
        return domain.mul(a, b, width)
    if op == "mulhuu":
        if a.hi is not None and b.hi is not None:
            return domain.make((a.lo * b.lo) >> width, (a.hi * b.hi) >> width)
        return domain.top(width)
    if op == "divu":
        return domain.divu(a, b, width)
    if op == "remu":
        return domain.remu(a, b, width)
    if op == "and":
        return domain.and_(a, b, width)
    if op == "or":
        return domain.or_(a, b, width)
    if op == "xor":
        return domain.xor(a, b, width)
    if op == "slu":
        return domain.shl(a, b, width)
    if op == "sru":
        return domain.shr(a, b, width)
    if op == "srs":
        return domain.sar(a, b, width)
    if op == "ltu":
        if a.hi is not None and a.hi < b.lo:
            return domain.const(1)
        if b.hi is not None and b.hi <= a.lo:
            return domain.const(0)
        return domain.boolean()
    if op == "eq":
        if a.is_const and b.is_const:
            return domain.const(1 if a.lo == b.lo else 0)
        if (a.hi is not None and a.hi < b.lo) or (b.hi is not None and b.hi < a.lo):
            return domain.const(0)
        return domain.boolean()
    if op == "lts":
        return domain.boolean()
    return domain.top(width)


def _table_range(expr: ast.EInlineTable, index: Range, width: int) -> Range:
    """Range of the loaded value over all *feasible* in-bounds offsets."""
    full = domain.make(0, min((1 << (8 * expr.size)), 1 << width) - 1)
    limit = len(expr.data) - expr.size
    if limit < 0:
        return full
    lo = max(index.lo, 0)
    hi = limit if index.hi is None else min(index.hi, limit)
    if hi < lo or (hi - lo) // index.mod + 1 > TABLE_ENUM_LIMIT:
        return full
    start = lo + (index.rem - lo) % index.mod  # first offset in the class
    values = _table_entries(expr.data, expr.size)[start : hi + 1 : index.mod]
    if not values:
        return full
    return domain.make(min(values), max(values))


@lru_cache(maxsize=64)
def _table_entries(data: bytes, size: int) -> Tuple[int, ...]:
    """The ``size``-byte little-endian value at every in-bounds offset of
    a table, decoded once and reused by every visit of every analysis."""
    if size == 1:
        return tuple(data)
    return tuple(
        int.from_bytes(data[o : o + size], "little")
        for o in range(len(data) - size + 1)
    )


# -- Environment plumbing ----------------------------------------------------


def _norm(env: Env, width: int) -> Env:
    """Drop entries carrying no information (absent means the full word)."""
    t = domain.top(width)
    return {k: v for k, v in env.items() if v != t}


def join_envs(a: Env, b: Env, width: int) -> Env:
    out: Env = {}
    for name, r in a.items():
        other = b.get(name)
        if other is not None:
            out[name] = domain.join(r, other)
    return _norm(out, width)


def _widen_envs(old: Env, new: Env, width: int) -> Env:
    out: Env = {}
    maxword = (1 << width) - 1
    for name, r in new.items():
        prev = old.get(name)
        if prev is None:
            continue
        w = domain.widen(prev, r)
        if w.hi is None:
            w = domain.make(w.lo, maxword, w.mod, w.rem)
        out[name] = w
    return _norm(out, width)


def refine_env(env: Env, cond: ast.Expr, truth: bool, width: int) -> Env:
    """Refine ``env`` with ``cond`` evaluating to nonzero (``truth=True``)
    or zero.  Conservative: only variable-vs-expression comparisons are
    narrowed, and a refinement that would empty a range is skipped."""
    out = dict(env)

    def narrow(name: str, lo: Optional[int] = None, hi: Optional[int] = None):
        out[name] = domain.meet_interval(out.get(name, domain.top(width)), lo, hi)

    if isinstance(cond, ast.EVar):
        if truth:
            narrow(cond.name, lo=1)
        else:
            narrow(cond.name, lo=0, hi=0)
        return _norm(out, width)
    if not isinstance(cond, ast.EOp):
        return env
    lhs, rhs = cond.lhs, cond.rhs
    lrange = expr_range(lhs, env, width)
    rrange = expr_range(rhs, env, width)
    if cond.op == "ltu":
        if truth:
            if isinstance(lhs, ast.EVar) and rrange.hi is not None:
                narrow(lhs.name, hi=rrange.hi - 1)
            if isinstance(rhs, ast.EVar):
                narrow(rhs.name, lo=lrange.lo + 1)
        else:
            if isinstance(lhs, ast.EVar):
                narrow(lhs.name, lo=rrange.lo)
            if isinstance(rhs, ast.EVar) and lrange.hi is not None:
                narrow(rhs.name, hi=lrange.hi)
        return _norm(out, width)
    if cond.op == "eq" and truth:
        if isinstance(lhs, ast.EVar):
            narrow(lhs.name, lo=rrange.lo, hi=rrange.hi)
        if isinstance(rhs, ast.EVar):
            narrow(rhs.name, lo=lrange.lo, hi=lrange.hi)
        return _norm(out, width)
    return env


# -- The CFG fixpoint --------------------------------------------------------


@dataclass
class AbsintResult:
    """Per-node abstract environments plus fixpoint effort counters."""

    cfg: CFG
    width: int
    env_in: Dict[int, Env] = field(default_factory=dict)
    iterations: int = 0
    widenings: int = 0

    def stmt_envs(self) -> Dict[int, Env]:
        """``id(stmt)`` -> environment *before* that statement (joined if
        the same statement object appears at several nodes)."""
        out: Dict[int, Env] = {}
        for node in self.cfg.nodes:
            if node.stmt is None or node.id not in self.env_in:
                continue
            key = id(node.stmt)
            if key in out:
                out[key] = join_envs(out[key], self.env_in[node.id], self.width)
            else:
                out[key] = self.env_in[node.id]
        return out

    def exit_env(self) -> Env:
        return self.env_in.get(self.cfg.exit, {})

    def edge_env(self, edge: Edge) -> Env:
        """The environment ``edge`` carries: its source's transfer, then
        the edge's guard.  ``edge.src`` must have been reached."""
        src = self.cfg.nodes[edge.src]
        out = _transfer(src, self.env_in[edge.src], self.width)
        return _edge_env(edge, out, self.width)


def _transfer(node: Node, env: Env, width: int) -> Env:
    if node.kind == "set":
        out = dict(env)
        out[node.stmt.lhs] = expr_range(node.stmt.rhs, env, width)
        return _norm(out, width)
    kills = node.kills
    return {k: v for k, v in env.items() if k not in kills} if kills else env


def _edge_env(edge: Edge, env: Env, width: int) -> Env:
    """``env`` refined with the branch outcome ``edge`` is taken on."""
    if edge.guard is None:
        return env
    cond, truth = edge.guard
    return refine_env(env, cond, truth, width)


def analyze_function(
    fn: ast.Function,
    width: int = 64,
    seed_env: Optional[Env] = None,
    *,
    cfg: Optional[CFG] = None,
) -> AbsintResult:
    """Run the interval/congruence fixpoint over ``fn``'s CFG (``cfg``
    when the caller already built it)."""
    from repro.obs.trace import current_tracer

    if cfg is None:
        cfg = CFG(fn)
    result = AbsintResult(cfg=cfg, width=width)
    cap = 1000 + 200 * len(cfg.nodes)  # backstop; widening bounds the chains

    def transfer(node: Node, env: Env) -> Env:
        result.iterations += 1
        return _transfer(node, env, width)

    def widen(node: Node, old: Env, new: Env, updates: int) -> Env:
        if result.iterations > cap:
            return {}
        if node.kind == "while" and updates >= WIDEN_AFTER:
            result.widenings += 1
            return _widen_envs(old, new, width)
        return new

    result.env_in = cfg.solve(
        "forward",
        {cfg.entry: _norm(dict(seed_env or {}), width)},
        transfer,
        lambda old, new: join_envs(old, new, width),
        edge=lambda edge, env: _edge_env(edge, env, width),
        widen=widen,
    )
    tracer = current_tracer()
    tracer.inc("absint.fixpoint.iterations", result.iterations)
    if result.widenings:
        tracer.inc("absint.widenings", result.widenings)
    return result


# -- The RB3xx lint ----------------------------------------------------------


def _check_expr(
    expr: ast.Expr,
    env: Env,
    width: int,
    subject: str,
    where: str,
    diags: List[Diagnostic],
) -> Range:
    """Append ``expr``'s RB3xx findings to ``diags`` in pre-order and
    return its range; each subexpression's range is computed once, on
    the way up, and a node's finding is slotted in before its operands'."""
    at = len(diags)
    if isinstance(expr, ast.EOp):
        lhs = _check_expr(expr.lhs, env, width, subject, where, diags)
        rhs = _check_expr(expr.rhs, env, width, subject, where, diags)
        found = _op_finding(expr, lhs, rhs, width, subject, where)
        if found is not None:
            diags.insert(at, found)
        return _apply_op_range(expr.op, lhs, rhs, width)
    if isinstance(expr, ast.ELoad):
        _check_expr(expr.addr, env, width, subject, where, diags)
    elif isinstance(expr, ast.EInlineTable):
        index = _check_expr(expr.index, env, width, subject, where, diags)
        found = _table_overrun(expr, index, subject, where)
        if found is not None:
            diags.insert(at, found)
        return _table_range(expr, index, width)
    return expr_range(expr, env, width)


def _op_finding(
    expr: ast.EOp, lhs: Range, rhs: Range, width: int, subject: str, where: str
) -> Optional[Diagnostic]:
    maxword = (1 << width) - 1
    if expr.op == "add" and lhs.lo + rhs.lo > maxword:
        return Diagnostic(
            "RB301",
            subject,
            where,
            f"word add provably wraps at {width} bits: operands in "
            f"{lhs.pretty()} and {rhs.pretty()}",
        )
    if expr.op == "sub" and lhs.hi is not None and lhs.hi < rhs.lo:
        return Diagnostic(
            "RB301",
            subject,
            where,
            f"word sub provably wraps at {width} bits: minuend in "
            f"{lhs.pretty()} is below subtrahend in {rhs.pretty()}",
        )
    if expr.op == "mul" and lhs.lo * rhs.lo > maxword:
        return Diagnostic(
            "RB301",
            subject,
            where,
            f"word mul provably wraps at {width} bits: operands in "
            f"{lhs.pretty()} and {rhs.pretty()}",
        )
    if expr.op in ("slu", "sru", "srs") and rhs.lo >= width:
        return Diagnostic(
            "RB303",
            subject,
            where,
            f"shift amount in {rhs.pretty()} is provably >= the "
            f"{width}-bit width (Bedrock2 takes it mod {width})",
        )
    if expr.op in ("divu", "remu") and not rhs.excludes_zero():
        return Diagnostic(
            "RB304",
            subject,
            where,
            f"divisor of {expr.op} is not provably nonzero "
            f"(range {rhs.pretty()})",
        )
    return None


def _table_overrun(
    expr: ast.EInlineTable, index: Range, subject: str, where: str
) -> Optional[Diagnostic]:
    if index.lo + expr.size <= len(expr.data):
        return None
    return Diagnostic(
        "RB302",
        subject,
        where,
        f"inline-table read of {expr.size} byte(s) at offset >= "
        f"{index.lo} overruns the {len(expr.data)}-byte table",
    )


def range_lint(
    fn: ast.Function,
    width: int = 64,
    *,
    cfg: Optional[CFG] = None,
) -> List[Diagnostic]:
    """RB301-RB304: word-level defects the range analysis can prove.

    ``cfg`` is ``fn``'s CFG when the caller already built it.
    """
    result = analyze_function(fn, width, cfg=cfg)
    diags: List[Diagnostic] = []
    for node in result.cfg.nodes:
        env = result.env_in.get(node.id)
        if env is None or node.stmt is None:
            continue
        # Nested statements have their own CFG nodes.
        for expr in ast.node_exprs(node.stmt):
            _check_expr(expr, env, width, fn.name, node.path, diags)
    return diags


def function_ranges(fn: ast.Function, width: int = 64) -> Dict[str, str]:
    """Pretty per-variable ranges at function exit (``repro lint --ranges``)."""
    result = analyze_function(fn, width)
    return {name: r.pretty() for name, r in sorted(result.exit_env().items())}
