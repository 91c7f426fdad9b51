"""Pretty-printing Bedrock2 to C.

The paper (§4.3) emphasizes that Bedrock2's C pretty-printer is a ~200-line
program "essentially implementing an identity function", and that keeping
it small keeps the trusted base small.  This module plays the same role:
a direct, syntax-directed rendering of the Bedrock2 AST into C, with no
optimization whatsoever.  Everything is rendered over ``uintptr_t``
(Bedrock2 is untyped; all locals are machine words), like the real
pretty-printer.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bedrock2 import ast

_PRELUDE = """\
#include <stdint.h>
#include <string.h>

// Bedrock2 memory accessors (little-endian, any alignment).
static inline uintptr_t _br2_load(uintptr_t a, int sz) {
  uintptr_t r = 0; memcpy(&r, (void*)a, sz); return r;
}
static inline void _br2_store(uintptr_t a, uintptr_t v, int sz) {
  memcpy((void*)a, &v, sz);
}
static inline uintptr_t _br2_mulhuu(uintptr_t a, uintptr_t b) {
  return (uintptr_t)(((__uint128_t)a * b) >> (8 * sizeof(uintptr_t)));
}
"""

_INFIX_OPS: Dict[str, str] = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "divu": "/",
    "remu": "%",
    "and": "&",
    "or": "|",
    "xor": "^",
    "sru": ">>",
    "slu": "<<",
    "ltu": "<",
    "eq": "==",
}


def _print_expr(expr: ast.Expr, tables: Dict[bytes, str]) -> str:
    if isinstance(expr, ast.ELit):
        if expr.value < 0:
            return f"(uintptr_t)({expr.value}LL)"
        return f"(uintptr_t)({expr.value}ULL)"
    if isinstance(expr, ast.EVar):
        return expr.name
    if isinstance(expr, ast.ELoad):
        return f"_br2_load({_print_expr(expr.addr, tables)}, {expr.size})"
    if isinstance(expr, ast.EInlineTable):
        name = tables[expr.data]
        index = _print_expr(expr.index, tables)
        return f"_br2_load((uintptr_t)&{name}[{index}], {expr.size})"
    if isinstance(expr, ast.EOp):
        lhs = _print_expr(expr.lhs, tables)
        rhs = _print_expr(expr.rhs, tables)
        if expr.op in _INFIX_OPS:
            return f"({lhs} {_INFIX_OPS[expr.op]} {rhs})"
        if expr.op == "lts":
            return f"((intptr_t){lhs} < (intptr_t){rhs})"
        if expr.op == "srs":
            return f"((uintptr_t)((intptr_t){lhs} >> {rhs}))"
        if expr.op == "mulhuu":
            return f"_br2_mulhuu({lhs}, {rhs})"
        raise ValueError(f"cannot print operator {expr.op!r}")
    raise ValueError(f"cannot print expression {expr!r}")


def _locals_of(stmt: ast.Stmt, bound: set) -> List[str]:
    """Variables bound in ``stmt`` that need a declaration, in pre-order."""
    out: List[str] = []
    for node in ast.walk_stmts(stmt):
        for name in ast.defined_names(node):
            if name not in bound:
                bound.add(name)
                out.append(name)
    return out


def _print_stmt(stmt: ast.Stmt, tables: Dict[bytes, str], indent: int) -> List[str]:
    pad = "  " * indent
    if isinstance(stmt, ast.SSkip):
        return [f"{pad}/* skip */;"]
    if isinstance(stmt, ast.SSet):
        return [f"{pad}{stmt.lhs} = {_print_expr(stmt.rhs, tables)};"]
    if isinstance(stmt, ast.SUnset):
        return [f"{pad}/* unset {stmt.name} */;"]
    if isinstance(stmt, ast.SStore):
        addr = _print_expr(stmt.addr, tables)
        value = _print_expr(stmt.value, tables)
        return [f"{pad}_br2_store({addr}, {value}, {stmt.size});"]
    if isinstance(stmt, ast.SStackalloc):
        lines = [f"{pad}{{ uint8_t _stack_{stmt.lhs}[{stmt.nbytes}];"]
        lines.append(f"{pad}  {stmt.lhs} = (uintptr_t)&_stack_{stmt.lhs}[0];")
        lines.extend(_print_stmt(stmt.body, tables, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.SCond):
        lines = [f"{pad}if ({_print_expr(stmt.cond, tables)}) {{"]
        lines.extend(_print_stmt(stmt.then_, tables, indent + 1))
        if not isinstance(stmt.else_, ast.SSkip):
            lines.append(f"{pad}}} else {{")
            lines.extend(_print_stmt(stmt.else_, tables, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.SSeq):
        return _print_stmt(stmt.first, tables, indent) + _print_stmt(
            stmt.second, tables, indent
        )
    if isinstance(stmt, ast.SWhile):
        lines = [f"{pad}while ({_print_expr(stmt.cond, tables)}) {{"]
        lines.extend(_print_stmt(stmt.body, tables, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.SCall):
        args = ", ".join(_print_expr(a, tables) for a in stmt.args)
        if len(stmt.lhss) == 0:
            return [f"{pad}{stmt.func}({args});"]
        if len(stmt.lhss) == 1:
            return [f"{pad}{stmt.lhss[0]} = {stmt.func}({args});"]
        outs = ", ".join(f"&{name}" for name in stmt.lhss)
        return [f"{pad}{stmt.func}({args}, {outs});"]
    if isinstance(stmt, ast.SInteract):
        args = ", ".join(_print_expr(a, tables) for a in stmt.args)
        lhss = "".join(f"{name} = " for name in stmt.lhss)
        return [f"{pad}{lhss}_br2_interact_{stmt.action}({args});"]
    raise ValueError(f"cannot print statement {stmt!r}")


def print_c_function(fn: ast.Function) -> str:
    """Render one Bedrock2 function as C text."""
    tables: Dict[bytes, str] = {}
    table_decls: List[str] = []
    for index, data in enumerate(ast.inline_tables(fn.body)):
        name = f"_{fn.name}_table{index}"
        tables[data] = name
        contents = ", ".join(str(b) for b in data)
        table_decls.append(
            f"static const uint8_t {name}[{len(data)}] = {{{contents}}};"
        )

    if len(fn.rets) == 0:
        ret_type, epilogue = "void", []
    elif len(fn.rets) == 1:
        ret_type, epilogue = "uintptr_t", [f"  return {fn.rets[0]};"]
    else:
        ret_type = "void"
        epilogue = [f"  *_out{i} = {name};" for i, name in enumerate(fn.rets)]

    params = [f"uintptr_t {name}" for name in fn.args]
    if len(fn.rets) > 1:
        params += [f"uintptr_t *_out{i}" for i in range(len(fn.rets))]
    signature = f"{ret_type} {fn.name}({', '.join(params) or 'void'})"

    bound = set(fn.args)
    decls = _locals_of(fn.body, bound)
    ret_decls = [r for r in fn.rets if r not in bound]

    lines = table_decls + [signature + " {"]
    for name in decls + ret_decls:
        lines.append(f"  uintptr_t {name} = 0;")
    lines.extend(_print_stmt(fn.body, tables, 1))
    lines.extend(epilogue)
    lines.append("}")
    return "\n".join(lines)


def print_c_program(program: ast.Program, include_prelude: bool = True) -> str:
    """Render a whole Bedrock2 program as a single C translation unit."""
    parts = [_PRELUDE] if include_prelude else []
    parts.extend(print_c_function(fn) for fn in program.functions)
    return "\n\n".join(parts) + "\n"
