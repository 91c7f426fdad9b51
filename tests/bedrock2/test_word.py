"""Unit and property tests for fixed-width machine words."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bedrock2.word import Word, truthy, word8, word32, word64


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


class TestViews:
    def test_signed_positive(self):
        assert Word(8, 127).signed == 127

    def test_signed_negative(self):
        assert Word(8, 128).signed == -128
        assert Word(8, 255).signed == -1

    def test_bytes_roundtrip(self):
        w = Word(32, 0x12345678)
        assert w.to_bytes_le() == bytes([0x78, 0x56, 0x34, 0x12])
        assert Word.from_bytes_le(32, w.to_bytes_le()) == w

    def test_byte_accessor(self):
        w = Word(32, 0x12345678)
        assert [w.byte(i) for i in range(4)] == [0x78, 0x56, 0x34, 0x12]


class TestArithmetic:
    def test_add_wraps(self):
        assert (Word(8, 200) + Word(8, 100)).unsigned == (300 % 256)

    def test_sub_wraps(self):
        assert (Word(32, 0) - Word(32, 1)).unsigned == 0xFFFFFFFF

    def test_mixed_int_operands(self):
        assert (Word(32, 5) + 3).unsigned == 8
        assert (3 + Word(32, 5)).unsigned == 8
        assert (10 - Word(32, 3)).unsigned == 7

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Word(32, 1) + Word(64, 1)

    def test_neg_invert(self):
        assert (-Word(8, 1)).unsigned == 0xFF
        assert (~Word(8, 0)).unsigned == 0xFF

    def test_division_by_zero_riscv_semantics(self):
        assert Word(32, 7).udiv(Word(32, 0)).unsigned == 0xFFFFFFFF
        assert Word(32, 7).umod(Word(32, 0)).unsigned == 7

    def test_division(self):
        assert Word(32, 7).udiv(2).unsigned == 3
        assert Word(32, 7).umod(2).unsigned == 1


class TestShifts:
    def test_shl_mod_width(self):
        assert Word(32, 1).shl(33).unsigned == 2

    def test_shr_logical(self):
        assert Word(8, 0x80).shr(1).unsigned == 0x40

    def test_sar_sign_extends(self):
        assert Word(8, 0x80).sar(1).unsigned == 0xC0
        assert Word(8, 0x40).sar(1).unsigned == 0x20


class TestComparisons:
    def test_ltu(self):
        assert Word(8, 1).ltu(Word(8, 255))
        assert not Word(8, 255).ltu(Word(8, 1))

    def test_lts(self):
        assert Word(8, 255).lts(Word(8, 1))  # -1 < 1
        assert not Word(8, 1).lts(Word(8, 255))

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

    def test_truthy(self):
        assert truthy(32, True).unsigned == 1
        assert truthy(32, False).unsigned == 0


class TestConversions:
    def test_zero_extend(self):
        assert Word(8, 0xFF).zero_extend(32).unsigned == 0xFF

    def test_sign_extend(self):
        assert Word(8, 0xFF).sign_extend(32).unsigned == 0xFFFFFFFF

    def test_truncate(self):
        assert Word(32, 0x1FF).truncate(8).unsigned == 0xFF

    def test_int_protocols(self):
        assert int(Word(32, 42)) == 42
        assert bool(Word(32, 0)) is False
        assert bool(Word(32, 1)) is True

    def test_helpers(self):
        assert word8(1).width == 8
        assert word32(1).width == 32
        assert word64(1).width == 64


# -- Property tests: Word arithmetic is Z arithmetic mod 2^width --------------

words32 = st.integers(min_value=0, max_value=2**32 - 1)


@given(words32, words32)
def test_add_models_modular_arithmetic(a, b):
    assert (Word(32, a) + Word(32, b)).unsigned == (a + b) % 2**32


@given(words32, words32)
def test_sub_models_modular_arithmetic(a, b):
    assert (Word(32, a) - Word(32, b)).unsigned == (a - b) % 2**32


@given(words32, words32)
def test_mul_models_modular_arithmetic(a, b):
    assert (Word(32, a) * Word(32, b)).unsigned == (a * b) % 2**32


@given(words32)
def test_signed_roundtrip(a):
    w = Word(32, a)
    assert Word(32, w.signed).unsigned == a


@given(words32, words32)
def test_ltu_models_nat_comparison(a, b):
    assert Word(32, a).ltu(Word(32, b)) == (a < b)


@given(words32, words32)
def test_lts_models_int_comparison(a, b):
    sa = a - 2**32 if a >= 2**31 else a
    sb = b - 2**32 if b >= 2**31 else b
    assert Word(32, a).lts(Word(32, b)) == (sa < sb)


@given(words32, st.integers(min_value=0, max_value=63))
def test_shifts_model_python_shifts(a, amount):
    assert Word(32, a).shl(amount).unsigned == (a << (amount % 32)) % 2**32
    assert Word(32, a).shr(amount).unsigned == a >> (amount % 32)


@given(words32)
def test_bytes_roundtrip_property(a):
    assert Word.from_bytes_le(32, Word(32, a).to_bytes_le()).unsigned == a
