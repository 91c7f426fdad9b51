"""The runner's bulk ABI encoding against the per-element encoding it replaced.

``_encode_composite`` packs a whole array with one ``struct.pack`` and
``_decode_composite`` reads it back with one ``struct.unpack``.  These
tests hold both to the element-at-a-time ``int.to_bytes`` /
``int.from_bytes`` layout for every element size (1, 2, 4 and 8 bytes),
for cells, and for empty arrays.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.source.evaluator import CellV
from repro.source.types import BOOL, BYTE, NAT, WORD, array_of, cell_of
from repro.validation.runners import _decode_composite, _encode_composite

# (element type, width) -> element size: BYTE/BOOL 1, WORD/NAT width // 8.
_LAYOUTS = [
    (BYTE, 64), (BOOL, 32), (WORD, 16), (NAT, 16),
    (WORD, 32), (NAT, 32), (WORD, 64), (NAT, 64),
]


def _per_element(values, size):
    return b"".join(int(value).to_bytes(size, "little") for value in values)


@pytest.mark.parametrize("elem, width", _LAYOUTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_encoding_matches_per_element(elem, width, data):
    ty = array_of(elem)
    size = ty.elem_size(width // 8)
    values = data.draw(st.lists(st.integers(0, (1 << (8 * size)) - 1), max_size=24))
    encoded = _encode_composite(values, ty, width)
    assert encoded == _per_element(values, size)
    assert _decode_composite(encoded, ty, width) == values


@pytest.mark.parametrize("elem, width", _LAYOUTS)
def test_empty_array(elem, width):
    ty = array_of(elem)
    assert _encode_composite([], ty, width) == b""
    assert _decode_composite(b"", ty, width) == []


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("value", [0, 1, 0x1234, 0xFFFFFFFF])
def test_cell_roundtrip(width, value):
    ty = cell_of(WORD)
    encoded = _encode_composite(CellV(value), ty, width)
    assert encoded == value.to_bytes(width // 8, "little")
    assert _decode_composite(encoded, ty, width) == CellV(value)


@pytest.mark.parametrize("elem, width", _LAYOUTS)
@pytest.mark.parametrize("bad", ["too_wide", "negative"])
def test_out_of_range_element_raises(elem, width, bad):
    ty = array_of(elem)
    size = ty.elem_size(width // 8)
    element = 1 << (8 * size) if bad == "too_wide" else -1
    with pytest.raises(OverflowError):
        _per_element([0, element], size)
    with pytest.raises(OverflowError):
        _encode_composite([0, element], ty, width)


def test_bool_elements_encode_as_bytes():
    ty = array_of(BOOL)
    assert _encode_composite([True, False, True], ty, 64) == b"\x01\x00\x01"
