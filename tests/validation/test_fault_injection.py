"""Fault injection: the validator must catch wrong code.

Differential testing is our stand-in for Coq proofs, so its *sensitivity*
matters: for each suite program we plant a targeted semantic bug in the
compiled Bedrock2 AST (wrong constant, swapped operator, dropped store)
and check the validator reports a failure.
"""

import random

import pytest

from repro.bedrock2 import ast as b2
from repro.core.spec import CompiledFunction
from repro.programs import get_program
from repro.validation import differential_check


def mutate_exprs_in_stmts(stmt, expr_transform):
    """Rewrite the expressions of ``SSet``/``SStore`` nodes only."""

    def on_stmt(node):
        if isinstance(node, b2.SSet):
            return b2.SSet(node.lhs, b2.map_expr(node.rhs, expr_transform))
        if isinstance(node, b2.SStore):
            return b2.SStore(
                node.size,
                b2.map_expr(node.addr, expr_transform),
                b2.map_expr(node.value, expr_transform),
            )
        return node

    return b2.map_stmt(stmt, on_stmt)


def tampered(compiled: CompiledFunction, new_body) -> CompiledFunction:
    fn = compiled.bedrock_fn
    wrong = b2.Function(fn.name, fn.args, fn.rets, new_body)
    clone = CompiledFunction(
        bedrock_fn=wrong,
        certificate=compiled.certificate,
        spec=compiled.spec,
        model=compiled.model,
    )
    return clone


def gen_for(program):
    if program.calling_style == "window":

        def gen(rng):
            data = program.gen_input(rng, 16)
            return {"s": list(data), "off": rng.randrange(0, len(data) - 3)}

        return gen
    if program.calling_style == "scalar":
        return None

    def gen(rng):
        return {"s": list(program.gen_input(rng, 8 + rng.randrange(24)))}

    return gen


def assert_caught(program_name, mutate_expr):
    program = get_program(program_name)
    compiled = program.compile(fresh=True)
    body = mutate_exprs_in_stmts(compiled.bedrock_fn.body, mutate_expr)
    assert body != compiled.bedrock_fn.body, "mutation did not apply"
    wrong = tampered(compiled, body)
    report = differential_check(
        wrong, trials=12, rng=random.Random(3), input_gen=gen_for(program)
    )
    assert not report.ok, f"validator missed the {program_name} mutation"
    program.compile(fresh=True)  # restore the cache for other tests


class TestPlantedBugs:
    def test_fnv1a_wrong_prime(self):
        from repro.programs.fnv1a import FNV_PRIME

        def mutate(expr):
            if isinstance(expr, b2.ELit) and expr.value == FNV_PRIME:
                return b2.ELit(FNV_PRIME + 2)
            return expr

        assert_caught("fnv1a", mutate)

    def test_crc32_missing_final_xor(self):
        def mutate(expr):
            if isinstance(expr, b2.ELit) and expr.value == 0xFFFFFFFF:
                return b2.ELit(0xFFFFFFFE)
            return expr

        assert_caught("crc32", mutate)

    def test_upstr_wrong_mask(self):
        def mutate(expr):
            if isinstance(expr, b2.ELit) and expr.value == 0x5F:
                return b2.ELit(0x7F)
            return expr

        assert_caught("upstr", mutate)

    def test_ip_swapped_operator(self):
        def mutate(expr):
            if isinstance(expr, b2.EOp) and expr.op == "slu":
                return b2.EOp("sru", expr.lhs, expr.rhs)
            return expr

        assert_caught("ip", mutate)

    def test_utf8_wrong_shift(self):
        def mutate(expr):
            if isinstance(expr, b2.ELit) and expr.value == 18:
                return b2.ELit(17)
            return expr

        assert_caught("utf8", mutate)

    def test_fasta_corrupted_table(self):
        def mutate(expr):
            if isinstance(expr, b2.EInlineTable):
                corrupted = bytearray(expr.data)
                corrupted[ord("A")] = ord("X")
                return b2.EInlineTable(expr.size, bytes(corrupted), expr.index)
            return expr

        program = get_program("fasta")
        compiled = program.compile(fresh=True)
        body = mutate_exprs_in_stmts(compiled.bedrock_fn.body, mutate)
        wrong = tampered(compiled, body)
        report = differential_check(
            wrong,
            trials=12,
            rng=random.Random(3),
            input_gen=lambda rng: {"s": list(b"AAAA")},
        )
        assert not report.ok
        program.compile(fresh=True)

    def test_m3s_wrong_rotation(self):
        program = get_program("m3s")
        compiled = program.compile(fresh=True)

        def mutate(expr):
            if isinstance(expr, b2.ELit) and expr.value == 15:
                return b2.ELit(14)
            return expr

        body = mutate_exprs_in_stmts(compiled.bedrock_fn.body, mutate)
        wrong = tampered(compiled, body)
        report = differential_check(wrong, trials=12, rng=random.Random(3))
        assert not report.ok
        program.compile(fresh=True)

    def test_dropped_store_caught(self):
        program = get_program("upstr")
        compiled = program.compile(fresh=True)

        def drop_stores(node):
            if isinstance(node, b2.SStore):
                return b2.SSkip()
            return node

        body = b2.map_stmt(compiled.bedrock_fn.body, drop_stores)
        wrong = tampered(compiled, body)
        report = differential_check(
            wrong,
            trials=8,
            rng=random.Random(3),
            input_gen=lambda rng: {"s": list(b"lowercase")},
        )
        assert not report.ok
        assert any(f.kind == "memory" for f in report.failures)
        program.compile(fresh=True)

    def test_infinite_loop_caught(self):
        """A non-terminating mutation must fail validation, not hang."""
        program = get_program("fnv1a")
        compiled = program.compile(fresh=True)

        def freeze_counter(node):
            # Remove the loop-counter increment.
            if isinstance(node, b2.SSet) and node.lhs == "i" and isinstance(
                node.rhs, b2.EOp
            ):
                return b2.SSkip()
            return node

        body = b2.map_stmt(compiled.bedrock_fn.body, freeze_counter)
        wrong = tampered(compiled, body)

        from repro.validation.runners import run_function

        with pytest.raises(Exception):
            run_function(
                wrong.bedrock_fn,
                wrong.spec,
                {"s": [1, 2, 3]},
                fuel=100_000,
            )
        program.compile(fresh=True)


class TestReadOnlyInputs:
    def test_clobbering_readonly_input_caught(self):
        """fnv1a's buffer is not an output; a mutation writing to it must
        be flagged even though the hash result stays correct."""
        program = get_program("fnv1a")
        compiled = program.compile(fresh=True)
        fn = compiled.bedrock_fn
        # Prepend a rogue store into the input buffer.
        rogue_body = b2.seq_of(
            b2.SCond(
                b2.EOp("ltu", b2.ELit(0), b2.EVar("len")),
                b2.SStore(1, b2.EVar("s"), b2.ELit(0)),
                b2.SSkip(),
            ),
            fn.body,
        )
        wrong = tampered(compiled, rogue_body)
        report = differential_check(
            wrong,
            trials=6,
            rng=random.Random(0),
            input_gen=lambda rng: {"s": [rng.randrange(1, 256) for _ in range(8)]},
        )
        assert not report.ok
        assert any("read-only input" in f.detail for f in report.failures)
        program.compile(fresh=True)

    def test_suite_still_validates(self):
        """No suite program actually violates the read-only contract."""
        for name in ("fnv1a", "crc32", "ip"):
            program = get_program(name)
            report = differential_check(
                program.compile(), trials=8, rng=random.Random(1),
                input_gen=gen_for(program),
            )
            report.raise_on_failure()
