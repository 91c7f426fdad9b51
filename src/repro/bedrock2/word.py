"""Fixed-width machine words.

Bedrock2 locals hold machine words.  The paper's examples run on 32- and
64-bit targets; Rupicola additionally manipulates bytes (width 8) when
reading from and writing to memory.  A :class:`Word` is a boxed value:
its width and its unsigned representative, masked to the width.  It
defines no operators: the one semantics of the Bedrock2 operators is
:data:`repro.bedrock2.semantics.RAW_OPS` (through ``apply_op`` and the
generated executor).

Words are immutable and hashable so they can be used as dictionary keys
(e.g. in sparse memory maps) and stored in event traces.
"""

from __future__ import annotations

from typing import Iterator, Union

BitWidth = int

_VALID_WIDTHS = (8, 16, 32, 64)

#: Each supported width's mask.
_MASKS = {width: (1 << width) - 1 for width in _VALID_WIDTHS}

IntLike = Union[int, "Word"]


class Word:
    """An unsigned ``width``-bit machine word.

    >>> Word(32, -1)
    Word(32, 0xffffffff)
    >>> Word(8, Word(32, 0x1ff)).unsigned
    255
    """

    __slots__ = ("width", "unsigned")

    def __init__(self, width: BitWidth, value: IntLike):
        mask = _MASKS.get(width) if width.__class__ is int else None
        if mask is None:
            raise ValueError(f"unsupported word width: {width}")
        if isinstance(value, Word):
            value = value.unsigned
        # The slot descriptors write past ``__setattr__``, which refuses.
        _set_width(self, width)
        _set_unsigned(self, value & mask)

    # Words are conceptually immutable.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word instances are immutable")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.width == other.width and self.unsigned == other.unsigned
        if isinstance(other, int):
            return self.unsigned == other & self.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, self.unsigned))

    def __int__(self) -> int:
        return self.unsigned

    def __index__(self) -> int:
        return self.unsigned

    def __bool__(self) -> bool:
        return self.unsigned != 0

    def __iter__(self) -> Iterator[int]:
        raise TypeError("Word is not iterable")

    def __repr__(self) -> str:
        return f"Word({self.width}, {hex(self.unsigned)})"


_set_width = Word.width.__set__
_set_unsigned = Word.unsigned.__set__

