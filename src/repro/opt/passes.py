"""The Bedrock2 optimization passes.

Each pass is a pure ``Function -> Function`` rewrite.  None of them is
part of the trusted base: the pass manager (:mod:`repro.opt.manager`)
re-checks well-formedness after every pass and, when a validator is
supplied, differentially tests the rewritten function against the
original model before accepting the result.  A pass is therefore allowed
to rely on side conditions it cannot discharge statically (the pointer
strength-reduction pass is the canonical example) exactly because a
violation is caught and the pass's output discarded.

The suite:

- :class:`NormalizeStmts` — flatten ``SSeq`` trees, drop ``SSkip``s.
- :class:`ConstantFolding` — evaluate literal subtrees with the
  interpreter's own :func:`~repro.bedrock2.semantics.apply_op`, plus
  algebraic identities guarded by purity (never deletes a load).
- :class:`RangeGuardElimination` — delete branches and bounds checks the
  abstract interpreter (:mod:`repro.analysis.absint`) proves dead, with
  purity guards on every deleted subtree.
- :class:`BranchSimplification` — ``if (lit)`` becomes the taken arm;
  ``while (0)`` disappears; ``if c {x} else {x}`` collapses when ``c``
  cannot fault.
- :class:`CopyPropagation` — forward var-to-var copies, drop self-copies.
- :class:`LoadCSE` — straight-line common-subexpression elimination for
  memory loads, including hoisting a load that a conditional's test and
  arms all recompute.
- :class:`ForwardSubstitution` — fuse single-use scalar definitions into
  their one consumer (bounded by the RISC-V expression-depth budget).
- :class:`PointerStrengthReduction` — rewrite counted array loops to
  pointer-bumping form, eliminating the per-iteration ``base + i``.
- :class:`DeadCodeElimination` — backward-liveness removal of dead
  assignments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.semantics import ExecutionError, apply_op
from repro.bedrock2.word import Word
from repro.opt.rewrite import (
    MAX_EXPR_DEPTH,
    FreshNames,
    assigned_vars,
    expr_depth,
    expr_is_pure,
    subst_expr,
    subst_vars,
)


def _kills(s: ast.Stmt) -> Tuple[str, ...]:
    """The locals a statement leaves without their old value: those it
    defines, and an unset's name."""
    return (s.name,) if isinstance(s, ast.SUnset) else ast.defined_names(s)


def count_var_reads(node, name: str) -> int:
    """Occurrences of ``EVar(name)`` in all expressions under ``node``."""
    return sum(
        1 for e in ast.walk_exprs(node) if isinstance(e, ast.EVar) and e.name == name
    )


class Pass:
    """Base class: a named Function -> Function rewrite."""

    name = "pass"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        raise NotImplementedError

    def _with_body(self, fn: ast.Function, body: ast.Stmt) -> ast.Function:
        return ast.Function(fn.name, fn.args, fn.rets, body)


# ---------------------------------------------------------------------------
# seq/skip normalization


class NormalizeStmts(Pass):
    """Flatten nested ``SSeq`` trees into right-nested form, dropping skips."""

    name = "normalize"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        return self._with_body(fn, ast.map_stmt(fn.body, self._norm))

    @staticmethod
    def _norm(stmt: ast.Stmt) -> ast.Stmt:
        # Bottom-up, so both halves of a sequence are already normal.
        if isinstance(stmt, (ast.SSeq, ast.SSkip)):
            return ast.seq_of(*ast.flatten(stmt))
        return stmt


# ---------------------------------------------------------------------------
# constant folding


class ConstantFolding(Pass):
    """Bit-exact literal evaluation plus purity-guarded identities.

    Literal/literal operations are computed with the same
    :func:`~repro.bedrock2.semantics.apply_op` the interpreter uses, so a
    folded expression is equal to the runtime value by construction.
    Identities that *discard* an operand (``x * 0``, ``x & 0``) only fire
    when the discarded subtree is pure — a deleted load could hide a
    fault the original program had.
    """

    name = "constfold"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        mask = (1 << width) - 1

        def litval(e: ast.Expr) -> Optional[int]:
            return e.value & mask if isinstance(e, ast.ELit) else None

        def fold(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.EInlineTable):
                off = litval(expr.index)
                if off is not None and off + expr.size <= len(expr.data):
                    raw = int.from_bytes(expr.data[off : off + expr.size], "little")
                    return ast.ELit(raw)
                return expr
            if not isinstance(expr, ast.EOp):
                return expr
            lhs, rhs, op = expr.lhs, expr.rhs, expr.op
            lv, rv = litval(lhs), litval(rhs)
            if lv is not None and rv is not None:
                try:
                    value = apply_op(op, Word(width, lv), Word(width, rv))
                except ExecutionError:
                    return expr
                return ast.ELit(value.unsigned)
            if op == "add":
                if lv == 0:
                    return rhs
                if rv == 0:
                    return lhs
            elif op == "sub":
                if rv == 0:
                    return lhs
            elif op in ("xor", "or"):
                if lv == 0:
                    return rhs
                if rv == 0:
                    return lhs
            elif op == "mul":
                if lv == 1:
                    return rhs
                if rv == 1:
                    return lhs
                if lv == 0 and expr_is_pure(rhs):
                    return ast.ELit(0)
                if rv == 0 and expr_is_pure(lhs):
                    return ast.ELit(0)
            elif op == "and":
                if lv == mask:
                    return rhs
                if rv == mask:
                    return lhs
                if lv == 0 and expr_is_pure(rhs):
                    return ast.ELit(0)
                if rv == 0 and expr_is_pure(lhs):
                    return ast.ELit(0)
            elif op in ("slu", "sru", "srs"):
                # Shift amounts are taken mod the width (RISC-V).
                if rv is not None and rv % width == 0:
                    return lhs
            elif op == "divu":
                if rv == 1:
                    return lhs
            elif op == "remu" and rv == 1 and expr_is_pure(lhs):
                return ast.ELit(0)
            return expr

        return self._with_body(fn, ast.map_stmt(fn.body, on_expr=fold))


# ---------------------------------------------------------------------------
# branch simplification


class BranchSimplification(Pass):
    """Resolve branches whose condition is a literal."""

    name = "branchsimp"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        self.mask = (1 << width) - 1
        return self._with_body(fn, ast.map_stmt(fn.body, self._simp))

    def _simp(self, stmt: ast.Stmt) -> ast.Stmt:
        # Bottom-up: the arms and bodies seen here are already simplified.
        if isinstance(stmt, ast.SSeq):
            return ast.seq_of(stmt.first, stmt.second)
        if isinstance(stmt, ast.SCond):
            if isinstance(stmt.cond, ast.ELit):
                return stmt.then_ if stmt.cond.value & self.mask else stmt.else_
            if stmt.then_ == stmt.else_ and expr_is_pure(stmt.cond):
                return stmt.then_
        if isinstance(stmt, ast.SWhile):
            if isinstance(stmt.cond, ast.ELit) and stmt.cond.value & self.mask == 0:
                return ast.SSkip()
        return stmt


# ---------------------------------------------------------------------------
# copy propagation


class CopyPropagation(Pass):
    """Forward ``x = y`` copies into later reads; drop self-copies.

    The environment maps a variable to the variable it currently copies.
    An entry survives a loop only if neither side is assigned in the
    body; a conditional keeps the entries both arms agree on.
    """

    name = "copyprop"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        body, _ = self._block(fn.body, {})
        return self._with_body(fn, body)

    def _block(
        self, stmt: ast.Stmt, env: Dict[str, str]
    ) -> Tuple[ast.Stmt, Dict[str, str]]:
        out: List[ast.Stmt] = []
        for s in ast.flatten(stmt):
            env = self._stmt(s, env, out)
        return ast.seq_of(*out), env

    def _kill(self, env: Dict[str, str], names) -> Dict[str, str]:
        names = set(names)
        return {k: v for k, v in env.items() if k not in names and v not in names}

    def _stmt(
        self, s: ast.Stmt, env: Dict[str, str], out: List[ast.Stmt]
    ) -> Dict[str, str]:
        if isinstance(s, ast.SSet):
            rhs = subst_vars(s.rhs, env)
            if isinstance(rhs, ast.EVar) and rhs.name == s.lhs:
                return env  # self-copy: drop the statement entirely
            env = self._kill(env, [s.lhs])
            if isinstance(rhs, ast.EVar):
                env[s.lhs] = rhs.name
            out.append(ast.SSet(s.lhs, rhs))
            return env
        if isinstance(s, ast.SCond):
            cond = subst_vars(s.cond, env)
            then_, env_t = self._block(s.then_, dict(env))
            else_, env_e = self._block(s.else_, dict(env))
            out.append(ast.SCond(cond, then_, else_))
            return {k: v for k, v in env_t.items() if env_e.get(k) == v}
        if isinstance(s, ast.SWhile):
            env = self._kill(env, assigned_vars(s.body))
            cond = subst_vars(s.cond, env)
            body, _ = self._block(s.body, dict(env))
            out.append(ast.SWhile(cond, body))
            return env
        if isinstance(s, ast.SStackalloc):
            env = self._kill(env, [s.lhs])
            body, env = self._block(s.body, env)
            out.append(ast.SStackalloc(s.lhs, s.nbytes, body))
            return self._kill(env, [s.lhs])
        # Straight-line statements: substitute into their expressions.
        exprs = [subst_vars(e, env) for e in ast.node_exprs(s)]
        out.append(ast.rebuild(s, exprs, ()))
        kills = _kills(s)
        return self._kill(env, kills) if kills else env


# ---------------------------------------------------------------------------
# load CSE


class LoadCSE(Pass):
    """Straight-line common-subexpression elimination for memory loads.

    ``avail`` maps a load expression (in rewritten form) to the variable
    currently holding its value.  Any store, call, interaction, or stack
    allocation invalidates the whole table; assigning a variable kills
    the entries that mention it.

    Additionally, a load that a conditional's test evaluates is *hoisted*
    into a fresh temporary before the branch when the test plus arms
    recompute it at least twice: the test evaluates the load
    unconditionally anyway, so the hoist introduces no new fault, and it
    makes the load available to both arms.
    """

    name = "loadcse"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        names = FreshNames(fn, prefix="_t")
        body = self._block(fn.body, {}, names)
        return self._with_body(fn, body)

    def _block(
        self, stmt: ast.Stmt, avail: Dict[ast.Expr, str], names: FreshNames
    ) -> ast.Stmt:
        out: List[ast.Stmt] = []
        for s in ast.flatten(stmt):
            self._stmt(s, avail, names, out)
        return ast.seq_of(*out)

    def _rw(self, expr: ast.Expr, avail: Dict[ast.Expr, str]) -> ast.Expr:
        def sub(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.ELoad) and node in avail:
                return ast.EVar(avail[node])
            return node

        return ast.map_expr(expr, sub)

    def _kill_var(self, avail: Dict[ast.Expr, str], name: str) -> None:
        for key in [k for k, v in avail.items() if v == name or name in ast.expr_vars(k)]:
            del avail[key]

    def _stmt(
        self,
        s: ast.Stmt,
        avail: Dict[ast.Expr, str],
        names: FreshNames,
        out: List[ast.Stmt],
    ) -> None:
        if isinstance(s, ast.SSet):
            rhs = self._rw(s.rhs, avail)
            out.append(ast.SSet(s.lhs, rhs))
            self._kill_var(avail, s.lhs)
            if isinstance(rhs, ast.ELoad) and s.lhs not in ast.expr_vars(rhs):
                avail[rhs] = s.lhs
            return
        if isinstance(s, ast.SCond):
            cond = self._rw(s.cond, avail)
            cond = self._hoist(cond, s, avail, names, out)
            avail_t, avail_e = dict(avail), dict(avail)
            then_ = self._block(s.then_, avail_t, names)
            else_ = self._block(s.else_, avail_e, names)
            merged = {k: v for k, v in avail_t.items() if avail_e.get(k) == v}
            avail.clear()
            avail.update(merged)
            out.append(ast.SCond(cond, then_, else_))
            return
        if isinstance(s, (ast.SWhile, ast.SStackalloc)):
            # A loop body or stack frame starts from an empty table, and
            # nothing available inside survives it.
            blocks = [self._block(b, {}, names) for b in ast.child_blocks(s)]
            out.append(ast.with_blocks(s, blocks))
            avail.clear()
            return
        # Straight-line statements: a store, call or interaction may write
        # memory and clears the table; otherwise the killed names go.
        exprs = [self._rw(e, avail) for e in ast.node_exprs(s)]
        out.append(ast.rebuild(s, exprs, ()))
        if isinstance(s, (ast.SStore, ast.SCall, ast.SInteract)):
            avail.clear()
        for name in _kills(s):
            self._kill_var(avail, name)

    def _hoist(
        self,
        cond: ast.Expr,
        original: ast.SCond,
        avail: Dict[ast.Expr, str],
        names: FreshNames,
        out: List[ast.Stmt],
    ) -> ast.Expr:
        def sub(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.ELoad) and node not in avail:
                # Only worth a temporary if the branch recomputes it.
                uses = sum(1 for e in ast.walk_exprs(original) if e == node)
                if uses >= 2:
                    temp = names.fresh()
                    out.append(ast.SSet(temp, node))
                    avail[node] = temp
                    return ast.EVar(temp)
            elif isinstance(node, ast.ELoad):
                return ast.EVar(avail[node])
            return node

        return ast.map_expr(cond, sub)


# ---------------------------------------------------------------------------
# forward substitution


class ForwardSubstitution(Pass):
    """Fuse a single-use scalar definition into its one consumer.

    Two shapes are handled, both restricted to straight-line runs of
    ``SSet`` statements so that the definition and the use see the same
    memory and the same values of the definition's free variables:

    - *redefinition* (any nesting depth): ``x = e1; ...; x = e2`` where
      the intervening statements neither read nor write ``x`` and the
      second right-hand side reads ``x`` exactly once.  Fusing changes no
      observable state: ``x`` ends up with the same value and nobody saw
      the intermediate one.
    - *single consumer* (top level only, where statements execute once):
      ``x = e1; ...; y = e2`` / ``store(addr, e2)`` with ``x`` read
      exactly once in the consumer and nowhere else afterwards, and
      ``x`` not a return variable.

    Fusion is skipped when it would push the consumer past the RISC-V
    backend's expression-depth budget.
    """

    name = "fwdsubst"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        self.fn = fn
        return self._with_body(fn, self._rewrite(fn.body, top_level=True))

    def _rewrite(self, stmt: ast.Stmt, top_level: bool) -> ast.Stmt:
        items = [self._recurse(s) for s in ast.flatten(stmt)]
        changed = True
        while changed:
            changed = self._fuse_once(items, top_level)
        return ast.seq_of(*items)

    def _recurse(self, s: ast.Stmt) -> ast.Stmt:
        blocks = ast.child_blocks(s)
        if not blocks:
            return s
        return ast.with_blocks(
            s, [self._rewrite(b, top_level=False) for b in blocks]
        )

    def _fuse_once(self, items: List[ast.Stmt], top_level: bool) -> bool:
        for i, s in enumerate(items):
            if not isinstance(s, ast.SSet):
                continue
            x, e1 = s.lhs, s.rhs
            deps = ast.expr_vars(e1)
            j = i + 1
            while j < len(items):
                target = items[j]
                if count_var_reads(target, x):
                    break
                # Skip over scalar assignments that do not disturb the
                # definition (no memory writes, no redefinition of deps).
                if not isinstance(target, (ast.SSet, ast.SSkip)):
                    j = len(items)
                    break
                if isinstance(target, ast.SSet) and (
                    target.lhs == x or target.lhs in deps
                ):
                    j = len(items)
                    break
                j += 1
            if j >= len(items):
                continue
            fused = self._try_fuse(items, i, j, x, e1, top_level)
            if fused is not None:
                items[j] = fused
                del items[i]
                return True
        return False

    def _try_fuse(
        self,
        items: List[ast.Stmt],
        i: int,
        j: int,
        x: str,
        e1: ast.Expr,
        top_level: bool,
    ) -> Optional[ast.Stmt]:
        target = items[j]
        if count_var_reads(target, x) != 1:
            return None
        if isinstance(target, ast.SSet):
            redefines = target.lhs == x
            if not redefines and (not top_level or not self._dead_after(items, j, x)):
                return None
            new = ast.SSet(target.lhs, subst_expr(target.rhs, x, e1))
            if expr_depth(new.rhs) > MAX_EXPR_DEPTH:
                return None
            return new
        if isinstance(target, ast.SStore):
            if not top_level or not self._dead_after(items, j, x):
                return None
            new = ast.SStore(
                target.size,
                subst_expr(target.addr, x, e1),
                subst_expr(target.value, x, e1),
            )
            if max(expr_depth(new.addr), expr_depth(new.value)) > MAX_EXPR_DEPTH:
                return None
            return new
        return None

    def _dead_after(self, items: List[ast.Stmt], j: int, x: str) -> bool:
        if x in self.fn.rets:
            return False
        return all(count_var_reads(s, x) == 0 for s in items[j + 1 :])


# ---------------------------------------------------------------------------
# pointer strength reduction


class PointerStrengthReduction(Pass):
    """Rewrite counted array loops into pointer-bumping loops.

    Recognized shape (the output of the map/fold loop lemmas)::

        i = init                     p = base + init
        while (i <u bound) {   ==>   end = base + bound
          ... base + i ...           while (p <u end) {
          i = i + 1                    ... p ...
        }                              p = p + 1
                                     }

    Side conditions checked statically: ``i`` is assigned exactly once in
    the body (the trailing ``i = i + 1``), every read of ``i`` anywhere
    in the function is the loop test, the increment, or an address
    ``base + i`` with a loop-invariant ``base``, and ``i`` is not a
    return variable.  One condition is *not* statically checked: the
    rewritten test ``p <u end`` agrees with ``i <u bound`` only when
    ``base + bound`` does not wrap around the word size.  That is exactly
    the kind of side condition this subsystem delegates to per-pass
    translation validation — on a counterexample input the differential
    check fails and the pass's output is rejected wholesale.
    """

    name = "ptrloop"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        while True:
            body = self._transform_block(fn.body, fn)
            if body is None:
                return fn
            fn = self._with_body(fn, body)

    # One rewrite per iteration so the global read counts stay current.
    def _transform_block(self, stmt: ast.Stmt, fn: ast.Function) -> Optional[ast.Stmt]:
        items = ast.flatten(stmt)
        for idx in range(len(items) - 1):
            replacement = self._match(items[idx], items[idx + 1], fn)
            if replacement is not None:
                return ast.seq_of(*items[:idx], *replacement, *items[idx + 2 :])
        for idx, s in enumerate(items):
            blocks = ast.child_blocks(s)
            for k, block in enumerate(blocks):
                inner = self._transform_block(block, fn)
                if inner is not None:
                    child = ast.with_blocks(s, blocks[:k] + (inner,) + blocks[k + 1 :])
                    return ast.seq_of(*items[:idx], child, *items[idx + 1 :])
        return None

    def _match(
        self, init_s: ast.Stmt, loop: ast.Stmt, fn: ast.Function
    ) -> Optional[List[ast.Stmt]]:
        if not (isinstance(init_s, ast.SSet) and isinstance(loop, ast.SWhile)):
            return None
        cond = loop.cond
        if not (
            isinstance(cond, ast.EOp)
            and cond.op == "ltu"
            and isinstance(cond.lhs, ast.EVar)
        ):
            return None
        ivar = cond.lhs.name
        if init_s.lhs != ivar or ivar in fn.rets:
            return None
        init = init_s.rhs
        if not expr_is_pure(init) or ivar in ast.expr_vars(init):
            return None
        body_assigned = assigned_vars(loop.body)
        bound = cond.rhs
        if isinstance(bound, ast.EVar):
            if bound.name == ivar or bound.name in body_assigned:
                return None
        elif not isinstance(bound, ast.ELit):
            return None

        items = ast.flatten(loop.body)
        if not items:
            return None
        inc = items[-1]
        if not (
            isinstance(inc, ast.SSet)
            and inc.lhs == ivar
            and isinstance(inc.rhs, ast.EOp)
            and inc.rhs.op == "add"
        ):
            return None
        a, b = inc.rhs.lhs, inc.rhs.rhs
        if isinstance(b, ast.EVar) and isinstance(a, ast.ELit):
            a, b = b, a
        if not (
            isinstance(a, ast.EVar)
            and a.name == ivar
            and isinstance(b, ast.ELit)
            and b.value == 1
        ):
            return None
        if self._count_assigns(loop.body, ivar) != 1:
            return None

        # Every other read of ivar in the body must be an address
        # `base + ivar` (either operand order) with an invariant base.
        prefix = items[:-1]
        bases: List[str] = []
        addr_reads = 0
        for s in prefix:
            for e in ast.walk_exprs(s):
                base = self._addr_base(e, ivar)
                if base is not None:
                    if base in body_assigned or base == ivar:
                        return None
                    addr_reads += 1
                    if base not in bases:
                        bases.append(base)
        if not bases:
            return None
        prefix_reads = sum(count_var_reads(s, ivar) for s in prefix)
        if prefix_reads != addr_reads:
            return None
        # Globally, ivar is read nowhere else: test + increment + addresses.
        if count_var_reads(fn.body, ivar) != 2 + addr_reads:
            return None

        names = FreshNames(fn, prefix="_p")
        pvar = {base: names.fresh() for base in bases}
        end = names.fresh("end")
        pre = [
            ast.SSet(pvar[base], ast.EOp("add", ast.EVar(base), init))
            for base in bases
        ]
        pre.append(ast.SSet(end, ast.EOp("add", ast.EVar(bases[0]), bound)))

        def to_pointer(e: ast.Expr) -> ast.Expr:
            base = self._addr_base(e, ivar)
            if base is not None:
                return ast.EVar(pvar[base])
            return e

        new_prefix = [ast.map_stmt(s, on_expr=to_pointer) for s in prefix]
        bumps = [
            ast.SSet(pvar[base], ast.EOp("add", ast.EVar(pvar[base]), ast.ELit(1)))
            for base in bases
        ]
        new_cond = ast.EOp("ltu", ast.EVar(pvar[bases[0]]), ast.EVar(end))
        new_loop = ast.SWhile(new_cond, ast.seq_of(*new_prefix, *bumps))
        return [init_s] + pre + [new_loop]

    @staticmethod
    def _addr_base(e: ast.Expr, ivar: str) -> Optional[str]:
        if not (isinstance(e, ast.EOp) and e.op == "add"):
            return None
        lhs, rhs = e.lhs, e.rhs
        if isinstance(rhs, ast.EVar) and rhs.name == ivar and isinstance(lhs, ast.EVar):
            return lhs.name if lhs.name != ivar else None
        if isinstance(lhs, ast.EVar) and lhs.name == ivar and isinstance(rhs, ast.EVar):
            return rhs.name if rhs.name != ivar else None
        return None

    @staticmethod
    def _count_assigns(stmt: ast.Stmt, name: str) -> int:
        count = 0
        for node in ast.walk_stmts(stmt):
            count += ast.defined_names(node).count(name)
            if isinstance(node, ast.SUnset) and node.name == name:
                count += 1
        return count


# ---------------------------------------------------------------------------
# range-guided guard elimination


class RangeGuardElimination(Pass):
    """Delete branches and bounds checks the range analysis proves dead.

    The pass runs :func:`~repro.analysis.absint.bedrock.analyze_function`
    once and rewrites each statement under that fixpoint's environment
    (variable -> value :class:`~repro.analysis.absint.domain.Range`) at
    the statement's CFG node -- the per-node environments the soundness
    audit in ``tests/analysis/test_absint_soundness.py`` co-executes.
    Three rewrites fire, each only when the deleted subtree is pure (a
    deleted load could hide a fault the original program had):

    - a conditional whose test provably excludes zero (or is provably
      zero) collapses to the taken arm;
    - a loop whose test is provably zero on every edge entering it from
      outside its body (each edge refined by the branch it is taken on)
      disappears;
    - inside expressions, ``x & mask`` with ``x`` provably within the
      mask, ``x remu k`` with ``x`` provably below ``k``, and ``ltu``/
      ``eq`` comparisons the ranges decide fold away.

    Loop bodies see the fixpoint's widened loop-head invariant, never the
    entry environment, which would be unsound for non-invariant facts.

    The range oracle that decides each rewrite is untrusted like every
    pass: ``oracle`` exists so the fault-injection campaign can
    substitute a lying one and watch the per-pass differential
    certificate reject the rewrite.
    """

    name = "rangeguard"

    def __init__(self, oracle=None):
        from repro.analysis.absint.bedrock import expr_range

        self.eval = oracle if oracle is not None else expr_range

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        from repro.analysis.absint.bedrock import analyze_function

        self.width = width
        self.analysis = analyze_function(fn, width)
        self.nodes = {node.path: node for node in self.analysis.cfg.nodes}
        return self._with_body(fn, self._block(fn.body, "body"))

    # -- rewriting walk (paths are the CFG node paths, ``CFG.BLOCK_PATHS``) --

    def _env(self, path: str) -> dict:
        # A node the fixpoint never reached is unreachable: assume nothing.
        return self.analysis.env_in.get(self.nodes[path].id, {})

    def _entry_env(self, path: str) -> dict:
        """The join of the environments on the loop's non-back in-edges
        (the loop-head invariant also joins the back edges, which would
        keep a loop that is false on entry)."""
        from repro.analysis.absint.bedrock import join_envs

        env = None
        for edge in self.nodes[path].preds:
            if edge.back or edge.src not in self.analysis.env_in:
                continue
            out = self.analysis.edge_env(edge)
            env = out if env is None else join_envs(env, out, self.width)
        return env or {}

    def _block(self, stmt: ast.Stmt, path: str) -> ast.Stmt:
        items = ast.flatten(stmt)
        seq = isinstance(stmt, ast.SSeq)
        return ast.seq_of(
            *(
                self._stmt(s, f"{path}[{index}]" if seq else path)
                for index, s in enumerate(items)
            )
        )

    def _stmt(self, s: ast.Stmt, path: str) -> ast.Stmt:
        env = self._env(path)
        suffixes = self.analysis.cfg.BLOCK_PATHS.get(type(s), ())
        exprs = [self._simplify(e, env) for e in ast.node_exprs(s)]
        if isinstance(s, ast.SCond) and expr_is_pure(exprs[0]):
            crange = self.eval(exprs[0], env, self.width)
            arm = 0 if crange.excludes_zero() else 1 if crange.hi == 0 else None
            if arm is not None:
                return self._block(ast.child_blocks(s)[arm], path + suffixes[arm])
        if (
            isinstance(s, ast.SWhile)
            and expr_is_pure(s.cond)
            and self.eval(s.cond, self._entry_env(path), self.width).hi == 0
        ):
            return ast.SSkip()
        blocks = [
            self._block(block, path + suffix)
            for block, suffix in zip(ast.child_blocks(s), suffixes)
        ]
        return ast.rebuild(s, exprs, blocks)

    # -- expression simplification -----------------------------------------

    @staticmethod
    def _is_mask(value: int) -> bool:
        return value >= 0 and (value + 1) & value == 0

    def _simplify(self, expr: ast.Expr, env: dict) -> ast.Expr:
        if not isinstance(expr, ast.EOp):
            return expr
        lhs = self._simplify(expr.lhs, env)
        rhs = self._simplify(expr.rhs, env)
        node = expr if lhs is expr.lhs and rhs is expr.rhs else ast.EOp(expr.op, lhs, rhs)
        a = self.eval(lhs, env, self.width)
        b = self.eval(rhs, env, self.width)
        if node.op == "and":
            if (
                b.is_const
                and self._is_mask(b.lo)
                and a.hi is not None
                and a.hi <= b.lo
                and expr_is_pure(rhs)
            ):
                return lhs
            if (
                a.is_const
                and self._is_mask(a.lo)
                and b.hi is not None
                and b.hi <= a.lo
                and expr_is_pure(lhs)
            ):
                return rhs
        elif node.op == "remu":
            if (
                b.is_const
                and b.lo > 0
                and a.hi is not None
                and a.hi < b.lo
                and expr_is_pure(rhs)
            ):
                return lhs
        elif node.op in ("ltu", "eq"):
            r = self.eval(node, env, self.width)
            if r.is_const and expr_is_pure(lhs) and expr_is_pure(rhs):
                return ast.ELit(r.lo)
        return node


# ---------------------------------------------------------------------------
# dead-code elimination


class DeadCodeElimination(Pass):
    """Backward-liveness removal of assignments nobody reads.

    A dead ``SSet`` is removed even when its right-hand side loads from
    memory: loads cannot write state, so deletion can only *enlarge* the
    domain of definition, and the per-pass differential check guards the
    rewrite like every other one.
    """

    name = "dce"

    def run(self, fn: ast.Function, width: int) -> ast.Function:
        body, _ = self._stmt(fn.body, set(fn.rets))
        return self._with_body(fn, body)

    def _stmt(self, s: ast.Stmt, live: Set[str]) -> Tuple[ast.Stmt, Set[str]]:
        if isinstance(s, ast.SSeq):
            second, mid = self._stmt(s.second, live)
            first, live_in = self._stmt(s.first, mid)
            return ast.seq_of(first, second), live_in
        if isinstance(s, (ast.SSet, ast.SUnset)) and live.isdisjoint(_kills(s)):
            return ast.SSkip(), live
        if isinstance(s, ast.SCond):
            then_, live_t = self._stmt(s.then_, live)
            else_, live_e = self._stmt(s.else_, live)
            if (
                isinstance(then_, ast.SSkip)
                and isinstance(else_, ast.SSkip)
                and expr_is_pure(s.cond)
            ):
                return ast.SSkip(), live
            return ast.SCond(s.cond, then_, else_), (
                live_t | live_e | ast.expr_vars(s.cond)
            )
        if isinstance(s, ast.SWhile):
            head = live | ast.expr_vars(s.cond)
            while True:
                _, body_in = self._stmt(s.body, head)
                grown = head | body_in
                if grown == head:
                    break
                head = grown
            body, _ = self._stmt(s.body, head)
            return ast.SWhile(s.cond, body), head
        if isinstance(s, ast.SStackalloc):
            body, body_in = self._stmt(s.body, live)
            return ast.SStackalloc(s.lhs, s.nbytes, body), body_in - {s.lhs}
        # Straight-line statements: what they define dies, what they read lives.
        live_in = live - set(ast.defined_names(s))
        for expr in ast.node_exprs(s):
            live_in |= ast.expr_vars(expr)
        return s, live_in


def default_pipeline() -> List[Pass]:
    """The ``-O1`` pass order.

    Folding and propagation run again after pointer strength reduction so
    its preheader (``p = base + 0``) collapses, and DCE runs last to
    sweep the induction variables and copies the other passes orphaned.
    """
    return [
        NormalizeStmts(),
        ConstantFolding(),
        RangeGuardElimination(),
        BranchSimplification(),
        CopyPropagation(),
        LoadCSE(),
        ForwardSubstitution(),
        PointerStrengthReduction(),
        ConstantFolding(),
        CopyPropagation(),
        DeadCodeElimination(),
        NormalizeStmts(),
    ]
