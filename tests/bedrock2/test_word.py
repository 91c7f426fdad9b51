"""Tests for machine words and the one semantics of their operators.

:class:`Word` is a boxed value: construction, immutability and equality
are tested here.  The operators live only in ``RAW_OPS``; they are
tested through :func:`apply_op` against plain Python-int reference
models, at every supported width.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bedrock2.semantics import OP_TEMPLATES, apply_op
from repro.bedrock2.word import Word

WIDTHS = (8, 16, 32, 64)


def _signed(value, width):
    return value - (1 << width) if value >> (width - 1) else value


#: Each operator on unsigned ``width``-bit ints, as integer arithmetic.
REFERENCE = {
    "add": lambda a, b, w: (a + b) % 2**w,
    "sub": lambda a, b, w: (a - b) % 2**w,
    "mul": lambda a, b, w: (a * b) % 2**w,
    "mulhuu": lambda a, b, w: (a * b) // 2**w,
    "divu": lambda a, b, w: a // b if b else 2**w - 1,
    "remu": lambda a, b, w: a % b if b else a,
    "and": lambda a, b, w: a & b,
    "or": lambda a, b, w: a | b,
    "xor": lambda a, b, w: a ^ b,
    "slu": lambda a, b, w: (a << (b % w)) % 2**w,
    "sru": lambda a, b, w: a >> (b % w),
    "srs": lambda a, b, w: (_signed(a, w) >> (b % w)) % 2**w,
    "ltu": lambda a, b, w: int(a < b),
    "lts": lambda a, b, w: int(_signed(a, w) < _signed(b, w)),
    "eq": lambda a, b, w: int(a == b),
}


def op(name, width, a, b):
    """``apply_op`` on two ``width``-bit words, as an unsigned int."""
    result = apply_op(name, Word(width, a), Word(width, b))
    assert result.width == width
    return result.unsigned


@st.composite
def operands(draw):
    """A width and two unsigned operands of that width."""
    width = draw(st.sampled_from(WIDTHS))
    word = st.integers(min_value=0, max_value=2**width - 1)
    return width, draw(word), draw(word)


def _matches_reference(names, width, a, b):
    for name in names:
        assert op(name, width, a, b) == REFERENCE[name](a, b, width), (name, width, a, b)


class TestConstruction:
    def test_truncates_to_width(self):
        assert Word(8, 256).unsigned == 0
        assert Word(8, 257).unsigned == 1
        assert Word(32, 1 << 40).unsigned == 0

    def test_negative_values_wrap(self):
        assert Word(32, -1).unsigned == 0xFFFFFFFF
        assert Word(8, -2).unsigned == 0xFE

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            Word(12, 0)

    @pytest.mark.parametrize("width", [0, 7, 128, -8, 8.0, True, None, "32", [32]])
    def test_every_unsupported_width_is_rejected(self, width):
        with pytest.raises(ValueError, match="unsupported word width"):
            Word(width, 0)

    def test_from_word(self):
        assert Word(8, Word(32, 0x1FF)).unsigned == 0xFF

    def test_from_word_copies(self):
        source = Word(64, 0x1FF)
        copy = Word(64, source)
        assert copy == source and copy is not source
        assert (copy.width, copy.unsigned) == (64, 0x1FF)

    def test_immutable(self):
        w = Word(32, 1)
        for name, value in (("unsigned", 2), ("width", 64), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(w, name, value)
        assert (w.width, w.unsigned) == (32, 1)
        assert not hasattr(w, "__dict__")


class TestArithmetic:
    def test_add_wraps(self):
        assert op("add", 8, 200, 100) == 300 % 256

    def test_sub_wraps(self):
        assert op("sub", 32, 0, 1) == 0xFFFFFFFF

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width mismatch"):
            apply_op("add", Word(32, 1), Word(64, 1))

    def test_division_by_zero_riscv_semantics(self):
        assert op("divu", 32, 7, 0) == 0xFFFFFFFF
        assert op("remu", 32, 7, 0) == 7

    def test_division(self):
        assert op("divu", 32, 7, 2) == 3
        assert op("remu", 32, 7, 2) == 1


class TestShifts:
    def test_shl_mod_width(self):
        assert op("slu", 32, 1, 33) == 2

    def test_shr_logical(self):
        assert op("sru", 8, 0x80, 1) == 0x40

    def test_sar_sign_extends(self):
        assert op("srs", 8, 0x80, 1) == 0xC0
        assert op("srs", 8, 0x40, 1) == 0x20


class TestComparisons:
    def test_ltu(self):
        assert op("ltu", 8, 1, 255) == 1
        assert op("ltu", 8, 255, 1) == 0

    def test_lts(self):
        assert op("lts", 8, 255, 1) == 1  # -1 < 1
        assert op("lts", 8, 1, 255) == 0

    def test_eq_with_int(self):
        assert Word(8, 0xFF) == -1
        assert Word(8, 0xFF) == 255

    def test_hashable(self):
        assert len({Word(32, 1), Word(32, 1), Word(32, 2)}) == 2

    def test_hash_and_equality_follow_width_and_value(self):
        assert hash(Word(32, 5)) == hash((32, 5))
        assert Word(32, 5) != Word(64, 5)
        assert Word(32, 5) == Word(32, 5 + (1 << 32))
        assert Word(32, 5) != "5"


class TestConversions:
    def test_zero_extend(self):
        # Re-boxing at a wider width keeps the unsigned value.
        assert Word(32, Word(8, 0xFF)).unsigned == 0xFF

    def test_int_protocols(self):
        assert int(Word(32, 42)) == 42
        assert bool(Word(32, 0)) is False
        assert bool(Word(32, 1)) is True


# -- Property tests: every operator is integer arithmetic mod 2^width ---------


def test_every_operator_has_a_reference_model():
    assert set(REFERENCE) == set(OP_TEMPLATES)


@given(operands())
def test_add_models_modular_arithmetic(args):
    _matches_reference(["add"], *args)


@given(operands())
def test_sub_models_modular_arithmetic(args):
    _matches_reference(["sub"], *args)


@given(operands())
def test_mul_models_modular_arithmetic(args):
    _matches_reference(["mul"], *args)


@given(operands())
def test_mulhuu_models_the_high_product(args):
    _matches_reference(["mulhuu"], *args)


@given(operands())
def test_division_models_riscv_division(args):
    width, a, _ = args
    _matches_reference(["divu", "remu"], *args)
    _matches_reference(["divu", "remu"], width, a, 0)


@given(operands())
def test_bitwise_ops_model_python_bitwise(args):
    _matches_reference(["and", "or", "xor"], *args)


@given(operands())
def test_ltu_models_nat_comparison(args):
    _matches_reference(["ltu"], *args)


@given(operands())
def test_lts_models_int_comparison(args):
    _matches_reference(["lts"], *args)


@given(operands())
def test_eq_models_equality(args):
    width, a, _ = args
    _matches_reference(["eq"], *args)
    _matches_reference(["eq"], width, a, a)


@given(operands(), st.integers(min_value=0, max_value=127))
def test_shifts_model_python_shifts(args, amount):
    width, a, _ = args
    _matches_reference(["slu", "sru", "srs"], *args)
    _matches_reference(["slu", "sru", "srs"], width, a, amount)
