"""Fixed-width two's-complement machine words.

Bedrock2 locals hold machine words; all arithmetic is modular.  The paper's
examples run on 32- and 64-bit targets; Rupicola additionally manipulates
bytes (width 8) when reading from and writing to memory.  The :class:`Word`
type here mirrors Coq's ``word`` interface from the Bedrock2 development:
unsigned representative, modular ring operations, signed views for the
arithmetic comparisons and shifts that need them.

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
    """An unsigned ``width``-bit machine word with modular arithmetic.

    >>> Word(32, 7) + Word(32, 8)
    Word(32, 0xf)
    >>> -Word(32, 1)
    Word(32, 0xffffffff)
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

    # -- Views ------------------------------------------------------------

    @property
    def signed(self) -> int:
        """The two's-complement signed value of this word."""
        sign_bit = 1 << (self.width - 1)
        return self.unsigned - (1 << self.width) if self.unsigned & sign_bit else self.unsigned

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def to_bytes_le(self, nbytes: int | None = None) -> bytes:
        nbytes = self.width // 8 if nbytes is None else nbytes
        return self.unsigned.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes_le(cls, width: BitWidth, data: bytes) -> "Word":
        return cls(width, int.from_bytes(data, "little"))

    # -- Ring operations ---------------------------------------------------

    def _coerce(self, other: IntLike) -> int:
        if isinstance(other, Word):
            if other.width != self.width:
                raise ValueError(f"width mismatch: {self.width} vs {other.width}")
            return other.unsigned
        return other

    def _make(self, value: int) -> "Word":
        return Word(self.width, value)

    def __add__(self, other: IntLike) -> "Word":
        return self._make(self.unsigned + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "Word":
        return self._make(self.unsigned - self._coerce(other))

    def __rsub__(self, other: IntLike) -> "Word":
        return self._make(self._coerce(other) - self.unsigned)

    def __mul__(self, other: IntLike) -> "Word":
        return self._make(self.unsigned * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Word":
        return self._make(-self.unsigned)

    def __invert__(self) -> "Word":
        return self._make(~self.unsigned)

    # -- Bitwise -----------------------------------------------------------

    def __and__(self, other: IntLike) -> "Word":
        return self._make(self.unsigned & self._coerce(other))

    __rand__ = __and__

    def __or__(self, other: IntLike) -> "Word":
        return self._make(self.unsigned | self._coerce(other))

    __ror__ = __or__

    def __xor__(self, other: IntLike) -> "Word":
        return self._make(self.unsigned ^ self._coerce(other))

    __rxor__ = __xor__

    def shl(self, amount: IntLike) -> "Word":
        """Logical left shift; shift amounts are taken mod the width, like RISC-V."""
        return self._make(self.unsigned << (self._coerce(amount) % self.width))

    def shr(self, amount: IntLike) -> "Word":
        """Logical (zero-extending) right shift, amount mod width."""
        return self._make(self.unsigned >> (self._coerce(amount) % self.width))

    def sar(self, amount: IntLike) -> "Word":
        """Arithmetic (sign-extending) right shift, amount mod width."""
        return self._make(self.signed >> (self._coerce(amount) % self.width))

    # -- Division (C / RISC-V semantics) ------------------------------------

    def udiv(self, other: IntLike) -> "Word":
        """Unsigned division; division by zero yields the all-ones word (RISC-V)."""
        divisor = self._coerce(other)
        if divisor == 0:
            return self._make(self.mask)
        return self._make(self.unsigned // divisor)

    def umod(self, other: IntLike) -> "Word":
        """Unsigned remainder; modulo zero yields the dividend (RISC-V)."""
        divisor = self._coerce(other)
        if divisor == 0:
            return self._make(self.unsigned)
        return self._make(self.unsigned % divisor)

    # -- Comparisons (these return plain bools; Bedrock2 exprs reify to 0/1) --

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.width == other.width and self.unsigned == other.unsigned
        if isinstance(other, int):
            return self.unsigned == other & self.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, self.unsigned))

    def ltu(self, other: IntLike) -> bool:
        """Unsigned less-than."""
        return self.unsigned < (self._coerce(other) & self.mask)

    def lts(self, other: IntLike) -> bool:
        """Signed less-than."""
        other_w = other if isinstance(other, Word) else self._make(other)
        return self.signed < other_w.signed

    # -- Conversions ---------------------------------------------------------

    def zero_extend(self, width: BitWidth) -> "Word":
        return Word(width, self.unsigned)

    def sign_extend(self, width: BitWidth) -> "Word":
        return Word(width, self.signed)

    def truncate(self, width: BitWidth) -> "Word":
        return Word(width, self.unsigned)

    def byte(self, index: int) -> int:
        """The ``index``-th little-endian byte of this word."""
        return (self.unsigned >> (8 * index)) & 0xFF

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


def word8(value: IntLike) -> Word:
    return Word(8, value)


def word32(value: IntLike) -> Word:
    return Word(32, value)


def word64(value: IntLike) -> Word:
    return Word(64, value)


def truthy(width: BitWidth, condition: bool) -> Word:
    """Reify a boolean into a Bedrock2 word (1 for true, 0 for false)."""
    return Word(width, 1 if condition else 0)
