"""Catalog-vs-target consistency: each primitive op's functional semantics
must agree with the semantics of its Bedrock2 lowering.

This is the semantic content of the expression lemmas, checked as a
property over the whole op catalog: evaluating ``op(a, b)`` in the source
evaluator equals executing the lowered Bedrock2 expression on the word
encodings of ``a`` and ``b``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock2 import ast as b2
from repro.bedrock2.semantics import Interpreter
from repro.source.ops import REGISTRY, eval_op
from repro.source.types import BOOL, BYTE, NAT

WIDTH = 64


def encode(value, ty):
    """The word encoding of a source scalar."""
    if ty is BOOL:
        return 1 if value else 0
    return int(value) & ((1 << WIDTH) - 1)


def domain(ty, draw_int):
    if ty is BOOL:
        return draw_int % 2 == 1
    if ty is BYTE:
        return draw_int % 256
    if ty is NAT:
        return draw_int % (1 << 32)  # keep nat ops in no-overflow territory
    return draw_int % (1 << WIDTH)


def lower_expr(op, arg_exprs):
    """Interpret the catalog's lowering spec, like the expr lemma does."""
    lower = op.lower
    if lower[0] == "op":
        return b2.EOp(lower[1], arg_exprs[0], arg_exprs[1])
    if lower[0] == "op_mask8":
        return b2.EOp("and", b2.EOp(lower[1], arg_exprs[0], arg_exprs[1]), b2.ELit(0xFF))
    if lower[0] == "eq0":
        return b2.EOp("eq", arg_exprs[0], b2.ELit(0))
    if lower[0] == "id":
        return arg_exprs[0]
    if lower[0] == "mask8":
        return b2.EOp("and", arg_exprs[0], b2.ELit(0xFF))
    if lower[0] == "leb":
        return b2.EOp("eq", b2.EOp("ltu", arg_exprs[1], arg_exprs[0]), b2.ELit(0))
    if lower[0] == "guarded":
        kind = lower[1]
        if kind == "fits_word":
            return arg_exprs[0]
        mnemonic = {"add_no_overflow": "add", "sub_no_underflow": "sub",
                    "mul_no_overflow": "mul", "div_nonzero": "divu"}[kind]
        return b2.EOp(mnemonic, arg_exprs[0], arg_exprs[1])
    raise AssertionError(lower)


def side_condition_ok(name, args):
    """Does this input satisfy the op's lowering side condition?"""
    if name == "nat.add":
        return args[0] + args[1] < (1 << WIDTH)
    if name == "nat.sub":
        return args[1] <= args[0]
    if name == "nat.mul":
        return args[0] * args[1] < (1 << WIDTH)
    if name == "cast.of_nat":
        return args[0] < (1 << WIDTH)
    if name == "nat.div":
        return args[1] > 0
    return True


OPS = sorted(REGISTRY)


@pytest.mark.parametrize("name", OPS)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_op_agrees_with_lowering(name, raw_a, raw_b):
    op = REGISTRY[name]
    raws = [raw_a, raw_b][: op.arity]
    args = [domain(ty, raw) for ty, raw in zip(op.arg_types, raws)]
    if not side_condition_ok(name, args):
        return
    source_result = eval_op(name, WIDTH, args)

    arg_exprs = [b2.ELit(encode(a, ty)) for a, ty in zip(args, op.arg_types)]
    fn = b2.Function("f", (), ("r",), b2.SSet("r", lower_expr(op, arg_exprs)))
    (target_word,), _ = Interpreter(b2.Program((fn,)), width=WIDTH).run("f", [])

    assert target_word.unsigned == encode(source_result, op.result_type), (
        name,
        args,
        source_result,
    )
