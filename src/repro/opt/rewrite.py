"""Pass-specific AST helpers for the optimizer passes.

The traversals themselves (``flatten``, ``walk_exprs``, ``map_expr``,
``map_stmt`` and friends) live in :mod:`repro.bedrock2.ast`; the
conventions the passes follow when using them are in
``docs/optimizer.md``.  What stays here is what only the optimizer
needs: purity, the RISC-V expression-depth budget, variable
substitution, assigned names, and fresh-name generation.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.bedrock2 import ast


def expr_is_pure(expr: ast.Expr) -> bool:
    """True if evaluating ``expr`` can never fault (no memory / table reads)."""
    if isinstance(expr, (ast.ELoad, ast.EInlineTable)):
        return False
    if isinstance(expr, ast.EOp):
        return expr_is_pure(expr.lhs) and expr_is_pure(expr.rhs)
    return True


def expr_depth(expr: ast.Expr) -> int:
    """Maximum number of simultaneously live temporaries the RISC-V
    backend's register stack needs for ``expr`` (``T_REGS`` budget)."""
    if isinstance(expr, ast.EOp):
        return max(expr_depth(expr.lhs), expr_depth(expr.rhs) + 1)
    if isinstance(expr, ast.ELoad):
        return expr_depth(expr.addr)
    if isinstance(expr, ast.EInlineTable):
        return expr_depth(expr.index) + 1
    return 1


# The riscv backend has seven temporaries and raises once an expression
# needs the last one; staying one below that keeps optimized code
# compilable wherever the input was.
MAX_EXPR_DEPTH = 6


def subst_vars(expr: ast.Expr, env: Dict[str, str]) -> ast.Expr:
    """Rename variable reads through ``env`` (used by copy propagation)."""
    if not env:
        return expr

    def rename(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.EVar) and node.name in env:
            return ast.EVar(env[node.name])
        return node

    return ast.map_expr(expr, rename)


def subst_expr(expr: ast.Expr, name: str, replacement: ast.Expr) -> ast.Expr:
    """Replace every read of ``name`` with ``replacement``."""

    def widen(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.EVar) and node.name == name:
            return replacement
        return node

    return ast.map_expr(expr, widen)


def assigned_vars(stmt: ast.Stmt) -> Set[str]:
    """All variable names written (or unset) anywhere under ``stmt``."""
    out: Set[str] = set()
    for node in ast.walk_stmts(stmt):
        out.update(ast.defined_names(node))
        if isinstance(node, ast.SUnset):
            out.add(node.name)
    return out


class FreshNames:
    """Generates local names guaranteed not to collide with ``fn``'s."""

    def __init__(self, fn: ast.Function, prefix: str = "_o"):
        reads = {e.name for e in ast.walk_exprs(fn.body) if isinstance(e, ast.EVar)}
        self.taken = set(fn.args) | set(fn.rets) | assigned_vars(fn.body) | reads
        self.prefix = prefix
        self.counter = 0

    def fresh(self, hint: str = "") -> str:
        while True:
            name = f"{self.prefix}{hint}{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name
