"""Source-level types.

Rupicola compiles "arithmetic over many types (Booleans, bounded and
unbounded natural numbers, bytes, integers, machine words)" plus flat data
structures (§3).  The compiler uses these types to decide low-level
representations: words map to Bedrock2 locals directly, bytes are words
with an 8-bit range invariant, bools are 0/1 words, nats are words with a
no-overflow side condition, arrays/cells live in memory behind pointers,
and inline tables become Bedrock2 ``inlinetable`` expressions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class TypeKind(enum.Enum):
    WORD = "word"
    BYTE = "byte"
    BOOL = "bool"
    NAT = "nat"
    UNIT = "unit"
    ARRAY = "array"
    CELL = "cell"
    TABLE = "table"
    PAIR = "pair"


@dataclass(frozen=True)
class SourceType:
    """A source type; composite types carry their element types."""

    kind: TypeKind
    elem: Optional["SourceType"] = None
    second: Optional["SourceType"] = None  # for pairs

    def __repr__(self) -> str:
        if self.kind is TypeKind.ARRAY:
            return f"array({self.elem!r})"
        if self.kind is TypeKind.CELL:
            return f"cell({self.elem!r})"
        if self.kind is TypeKind.TABLE:
            return f"table({self.elem!r})"
        if self.kind is TypeKind.PAIR:
            return f"pair({self.elem!r}, {self.second!r})"
        return self.kind.value

    # -- Classification helpers used by compilation lemmas --------------------

    @property
    def is_scalar(self) -> bool:
        """Scalars live in Bedrock2 locals; composites live behind pointers."""
        return self.kind in (TypeKind.WORD, TypeKind.BYTE, TypeKind.BOOL, TypeKind.NAT)

    def elem_size(self, word_bytes: int) -> int:
        """Byte width of one element when stored in Bedrock2 memory."""
        if self.kind in (TypeKind.ARRAY, TypeKind.CELL, TypeKind.TABLE):
            assert self.elem is not None
            return self.elem.scalar_size(word_bytes)
        raise ValueError(f"{self!r} has no elements")

    def scalar_size(self, word_bytes: int) -> int:
        if self.kind is TypeKind.BYTE:
            return 1
        if self.kind in (TypeKind.WORD, TypeKind.NAT):
            return word_bytes
        if self.kind is TypeKind.BOOL:
            return 1
        raise ValueError(f"{self!r} is not a scalar type")


WORD = SourceType(TypeKind.WORD)
BYTE = SourceType(TypeKind.BYTE)
BOOL = SourceType(TypeKind.BOOL)
NAT = SourceType(TypeKind.NAT)
UNIT = SourceType(TypeKind.UNIT)


def array_of(elem: SourceType) -> SourceType:
    if not elem.is_scalar:
        raise ValueError("arrays hold scalar elements")
    return SourceType(TypeKind.ARRAY, elem)


def cell_of(elem: SourceType) -> SourceType:
    if not elem.is_scalar:
        raise ValueError("cells hold scalar elements")
    return SourceType(TypeKind.CELL, elem)


def table_of(elem: SourceType) -> SourceType:
    if not elem.is_scalar:
        raise ValueError("tables hold scalar elements")
    return SourceType(TypeKind.TABLE, elem)


def pair_of(first: SourceType, second: SourceType) -> SourceType:
    return SourceType(TypeKind.PAIR, first, second)


ARRAY_BYTE = array_of(BYTE)
ARRAY_WORD = array_of(WORD)
CELL_WORD = cell_of(WORD)
TABLE_BYTE = table_of(BYTE)
TABLE_WORD = table_of(WORD)
