"""Tests for Bedrock2 AST construction helpers, traversals and metrics."""

import random

import pytest

from repro.bedrock2 import ast as b2
from repro.core.goals import CompileError
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.resilience.generator import generate_case
from repro.stdlib import default_engine


class TestSeqOf:
    def test_empty_is_skip(self):
        assert isinstance(b2.seq_of(), b2.SSkip)

    def test_single_statement_unwrapped(self):
        stmt = b2.SSet("x", b2.ELit(1))
        assert b2.seq_of(stmt) is stmt

    def test_skips_are_dropped(self):
        stmt = b2.SSet("x", b2.ELit(1))
        assert b2.seq_of(b2.SSkip(), stmt, b2.SSkip()) is stmt

    def test_right_nesting(self):
        a, b, c = (b2.SSet(n, b2.ELit(0)) for n in "abc")
        seq = b2.seq_of(a, b, c)
        assert isinstance(seq, b2.SSeq)
        assert seq.first is a
        assert isinstance(seq.second, b2.SSeq)

    def test_all_skips_is_skip(self):
        assert isinstance(b2.seq_of(b2.SSkip(), b2.SSkip()), b2.SSkip)


class TestStatementCount:
    def test_skip_is_zero(self):
        assert b2.statement_count(b2.SSkip()) == 0

    def test_seq_sums(self):
        stmt = b2.seq_of(b2.SSet("a", b2.ELit(0)), b2.SSet("b", b2.ELit(1)))
        assert b2.statement_count(stmt) == 2

    def test_control_flow_counts_itself_and_children(self):
        cond = b2.SCond(b2.ELit(1), b2.SSet("a", b2.ELit(0)), b2.SSkip())
        assert b2.statement_count(cond) == 2
        loop = b2.SWhile(b2.ELit(0), b2.SSet("a", b2.ELit(0)))
        assert b2.statement_count(loop) == 2
        alloc = b2.SStackalloc("p", 8, b2.SSet("a", b2.ELit(0)))
        assert b2.statement_count(alloc) == 2


class TestExprVars:
    def test_literal_has_none(self):
        assert b2.expr_vars(b2.ELit(5)) == set()

    def test_var(self):
        assert b2.expr_vars(b2.EVar("x")) == {"x"}

    def test_nested_ops(self):
        expr = b2.EOp("add", b2.EVar("x"), b2.ELoad(1, b2.EVar("p")))
        assert b2.expr_vars(expr) == {"x", "p"}

    def test_inline_table_index(self):
        expr = b2.EInlineTable(1, b"\x00", b2.EVar("i"))
        assert b2.expr_vars(expr) == {"i"}


class TestValidation:
    def test_bad_access_size_rejected(self):
        with pytest.raises(ValueError):
            b2.ELoad(3, b2.ELit(0))
        with pytest.raises(ValueError):
            b2.SStore(5, b2.ELit(0), b2.ELit(0))
        with pytest.raises(ValueError):
            b2.EInlineTable(7, b"\x00" * 8, b2.ELit(0))

    def test_program_lookup(self):
        fn = b2.Function("f", (), (), b2.SSkip())
        program = b2.Program((fn,))
        assert program.function("f") is fn
        with pytest.raises(KeyError):
            program.function("g")

    def test_with_function(self):
        program = b2.Program(())
        extended = program.with_function(b2.Function("f", (), (), b2.SSkip()))
        assert len(extended.functions) == 1
        assert len(program.functions) == 0


# -- Traversal primitives ---------------------------------------------------------

X, Y = b2.EVar("x"), b2.EVar("y")
A, B = b2.SSet("a", b2.ELit(1)), b2.SSet("b", b2.ELit(2))

# kind -> (statement, node_exprs, child_blocks, defined_names)
STMT_CASES = {
    "skip": (b2.SSkip(), (), (), ()),
    "set": (b2.SSet("a", X), (X,), (), ("a",)),
    "unset": (b2.SUnset("a"), (), (), ()),
    "store": (b2.SStore(4, X, Y), (X, Y), (), ()),
    "stackalloc": (b2.SStackalloc("p", 8, A), (), (A,), ("p",)),
    "cond": (b2.SCond(X, A, B), (X,), (A, B), ()),
    "seq": (b2.SSeq(A, B), (), (A, B), ()),
    "while": (b2.SWhile(X, A), (X,), (A,), ()),
    "call": (b2.SCall(("r", "s"), "g", (X, Y)), (X, Y), (), ("r", "s")),
    "interact": (b2.SInteract(("r",), "read", (X,)), (X,), (), ("r",)),
}

# kind -> (expression, operands)
EXPR_CASES = {
    "lit": (b2.ELit(3), ()),
    "var": (X, ()),
    "load": (b2.ELoad(1, X), (X,)),
    "op": (b2.EOp("add", X, Y), (X, Y)),
    "table": (b2.EInlineTable(1, b"\x01\x02", X), (X,)),
}

stmt_kinds = pytest.mark.parametrize("kind", sorted(STMT_CASES))
expr_kinds = pytest.mark.parametrize("kind", sorted(EXPR_CASES))


def _rename_x(expr):
    return b2.EVar("z") if expr == X else expr


class TestStatementShape:
    def test_every_statement_type_has_a_case(self):
        covered = {type(case[0]) for case in STMT_CASES.values()}
        assert covered == set(b2._STMT_SHAPES)

    @stmt_kinds
    def test_node_exprs(self, kind):
        stmt, exprs, _, _ = STMT_CASES[kind]
        assert b2.node_exprs(stmt) == exprs

    @stmt_kinds
    def test_child_blocks(self, kind):
        stmt, _, blocks, _ = STMT_CASES[kind]
        assert b2.child_blocks(stmt) == blocks

    @stmt_kinds
    def test_defined_names(self, kind):
        stmt, _, _, names = STMT_CASES[kind]
        assert b2.defined_names(stmt) == names

    @stmt_kinds
    def test_with_blocks(self, kind):
        stmt, exprs, blocks, _ = STMT_CASES[kind]
        assert b2.with_blocks(stmt, blocks) == stmt
        replaced = b2.with_blocks(stmt, [b2.SUnset("q")] * len(blocks))
        assert type(replaced) is type(stmt)
        assert b2.node_exprs(replaced) == exprs
        assert b2.child_blocks(replaced) == (b2.SUnset("q"),) * len(blocks)

    @stmt_kinds
    def test_rebuild(self, kind):
        stmt, exprs, blocks, _ = STMT_CASES[kind]
        assert b2.rebuild(stmt, exprs, blocks) == stmt
        new_exprs = [b2.ELit(9)] * len(exprs)
        replaced = b2.rebuild(stmt, new_exprs, [b2.SUnset("q")] * len(blocks))
        assert type(replaced) is type(stmt)
        assert b2.node_exprs(replaced) == tuple(new_exprs)
        assert b2.child_blocks(replaced) == (b2.SUnset("q"),) * len(blocks)
        assert b2.defined_names(replaced) == b2.defined_names(stmt)

    @stmt_kinds
    def test_walk_stmts_is_preorder(self, kind):
        stmt, _, blocks, _ = STMT_CASES[kind]
        assert list(b2.walk_stmts(stmt)) == [stmt, *blocks]

    @stmt_kinds
    def test_walk_exprs_visits_node_before_blocks(self, kind):
        stmt, exprs, blocks, _ = STMT_CASES[kind]
        block_exprs = [b.rhs for b in blocks]
        assert list(b2.walk_exprs(stmt)) == [*exprs, *block_exprs]

    @stmt_kinds
    def test_map_stmt_identity(self, kind):
        stmt = STMT_CASES[kind][0]
        assert b2.map_stmt(stmt) == stmt
        assert b2.map_stmt(stmt, lambda s: s, lambda e: e) == stmt

    @stmt_kinds
    def test_map_stmt_rewrites_node_exprs(self, kind):
        stmt, exprs, blocks, names = STMT_CASES[kind]
        out = b2.map_stmt(stmt, on_expr=_rename_x)
        assert type(out) is type(stmt)
        assert b2.node_exprs(out) == tuple(_rename_x(e) for e in exprs)
        assert b2.child_blocks(out) == blocks
        assert b2.defined_names(out) == names

    @stmt_kinds
    def test_map_stmt_visits_bottom_up(self, kind):
        stmt, _, blocks, _ = STMT_CASES[kind]
        seen = []

        def record(s):
            seen.append(s)
            return s

        b2.map_stmt(stmt, on_stmt=record)
        assert seen == [*blocks, stmt]


class TestExpressionShape:
    def test_every_expression_type_has_a_case(self):
        covered = {type(case[0]) for case in EXPR_CASES.values()}
        assert covered == set(b2._EXPR_SHAPES)

    @expr_kinds
    def test_operands(self, kind):
        expr, operands = EXPR_CASES[kind]
        assert b2.operands(expr) == operands

    @expr_kinds
    def test_walk_exprs_is_preorder(self, kind):
        expr, operands = EXPR_CASES[kind]
        assert list(b2.walk_exprs(expr)) == [expr, *operands]

    @expr_kinds
    def test_map_expr_visits_operands_first(self, kind):
        expr, operands = EXPR_CASES[kind]
        seen = []

        def record(e):
            seen.append(e)
            return e

        assert b2.map_expr(expr, record) == expr
        assert seen == [*operands, expr]

    @expr_kinds
    def test_map_expr_rebuilds_over_new_operands(self, kind):
        expr, operands = EXPR_CASES[kind]
        out = b2.map_expr(expr, _rename_x)
        assert out == _rename_x(expr) if not operands else type(out) is type(expr)
        assert b2.operands(out) == tuple(_rename_x(o) for o in operands)

    @expr_kinds
    def test_expr_vars(self, kind):
        expected = {"lit": set(), "op": {"x", "y"}}.get(kind, {"x"})
        assert b2.expr_vars(EXPR_CASES[kind][0]) == expected


class TestDerivedTraversals:
    def test_map_stmt_never_revisits_a_transforms_output(self):
        loop = b2.SWhile(X, A)

        def peel(s):
            return b2.SSeq(s.body, s) if isinstance(s, b2.SWhile) else s

        assert b2.map_stmt(loop, peel) == b2.SSeq(A, loop)

    def test_map_stmt_rewrites_expressions_before_blocks(self):
        stmt = b2.SCond(X, b2.SSet("a", Y), b2.SStore(1, X, Y))
        seen = []

        def record(e):
            seen.append(e)
            return e

        b2.map_stmt(stmt, on_expr=record)
        assert seen == [X, Y, X, Y]

    def test_walk_exprs_pre_order_on_nested_tree(self):
        inner = b2.EOp("add", X, b2.ELoad(1, Y))
        stmt = b2.seq_of(b2.SWhile(inner, b2.SSet("a", X)), b2.SStore(1, Y, b2.ELit(0)))
        assert list(b2.walk_exprs(stmt)) == [
            inner, X, b2.ELoad(1, Y), Y, X, Y, b2.ELit(0),
        ]

    def test_flatten(self):
        stmt = b2.SSeq(b2.SSeq(A, b2.SSkip()), b2.SSeq(b2.SCond(X, A, B), B))
        assert b2.flatten(stmt) == [A, b2.SCond(X, A, B), B]
        assert b2.flatten(b2.SSkip()) == []
        assert b2.flatten(A) == [A]

    def test_inline_tables_distinct_by_contents_in_preorder(self):
        t1, t2 = b"\x01\x02", bytes([3, 4])
        stmt = b2.seq_of(
            b2.SSet("a", b2.EInlineTable(1, t2, b2.EInlineTable(1, t1, X))),
            b2.SSet("b", b2.EInlineTable(1, bytes([1, 2]), Y)),
        )
        assert b2.inline_tables(stmt) == [t2, t1]


def _reference_statement_count(stmt):
    """The metric's definition, spelled out field by field."""
    if isinstance(stmt, b2.SSeq):
        return _reference_statement_count(stmt.first) + _reference_statement_count(
            stmt.second
        )
    if isinstance(stmt, b2.SCond):
        return 1 + _reference_statement_count(stmt.then_) + _reference_statement_count(
            stmt.else_
        )
    if isinstance(stmt, (b2.SWhile, b2.SStackalloc)):
        return 1 + _reference_statement_count(stmt.body)
    return 0 if isinstance(stmt, b2.SSkip) else 1


FUZZ_COUNT = 110


@pytest.fixture(scope="module")
def corpus():
    """Registry and query bodies at -O0 and -O1, plus 110 fuzz bodies."""
    bodies = []
    for program in list(all_programs()) + list(all_query_programs()):
        for level in (0, 1):
            bodies.append((f"{program.name}-O{level}", program.compile(opt_level=level)))
    engine = default_engine()
    for index in range(FUZZ_COUNT):
        case = generate_case(random.Random(7000 + index), index)
        try:
            bodies.append((case.name, engine.compile_function(case.model, case.spec)))
        except CompileError:
            continue
    return [(name, compiled.bedrock_fn.body) for name, compiled in bodies]


class TestCorpus:
    def test_corpus_is_large(self, corpus):
        assert len(corpus) >= 34 + 100

    def test_map_stmt_identity_is_equal(self, corpus):
        for name, body in corpus:
            assert b2.map_stmt(body, lambda s: s, lambda e: e) == body, name

    def test_walk_stmts_agrees_with_statement_count(self, corpus):
        for name, body in corpus:
            counted = sum(
                1 for s in b2.walk_stmts(body) if not isinstance(s, (b2.SSeq, b2.SSkip))
            )
            assert counted == b2.statement_count(body) == _reference_statement_count(
                body
            ), name

    def test_walk_exprs_covers_every_node_expression(self, corpus):
        for name, body in corpus:
            via_nodes = [
                e
                for s in b2.walk_stmts(body)
                for top in b2.node_exprs(s)
                for e in b2.walk_exprs(top)
            ]
            assert list(b2.walk_exprs(body)) == via_nodes, name
