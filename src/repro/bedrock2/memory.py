"""Bedrock2's flat, byte-addressed memory model.

Bedrock2 gives programs a partial map from word addresses to bytes; a load
or store at an unmapped address is undefined behaviour and the semantics
reject the execution.  We model this as a set of disjoint allocated
*regions*, each backed by its own ``bytearray`` and found by bisecting
their sorted base addresses, which gives us:

- precise out-of-bounds detection (accesses must fall inside one region);
- cheap stack allocation/deallocation for ``SStackalloc``;
- the footprint bookkeeping the differential tester uses to check that a
  compiled function only writes memory its separation-logic precondition
  owns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


#: Bytes left unmapped below each stack frame.
_STACK_GAP = 0x20


class MemoryError_(Exception):
    """An undefined-behaviour memory operation: an access outside every
    region, an overlapping allocation, or a free of an unallocated base."""


def _out_of_bounds(addr: int, nbytes: int) -> MemoryError_:
    return MemoryError_(f"access of {nbytes} byte(s) at {addr:#x} is out of bounds")


@dataclass(frozen=True)
class Region:
    """A contiguous allocated block ``[base, base + size)``."""

    base: int
    size: int
    label: str = ""

    @property
    def end(self) -> int:
        return self.base + self.size


class Memory:
    """Byte-addressed memory made of explicit allocated regions.

    Addresses are plain unsigned ints (the interpreter truncates word
    addresses to the target width before calling in here).

    The regions live in parallel lists sorted by base: ``_bases``,
    ``_ends``, their ``_buffers`` and the ``Region`` records, plus each
    region's allocation sequence number in ``_seqs`` (``regions``,
    ``region_at``, ``free`` and the overlap error all go by allocation
    order).  Zero-size regions may share a base with a non-empty one; they
    sort before it, so the last region whose base is at or below an
    address is the only one that can contain an access there.

    The invariant the generated executor's region cache rests on: live
    regions are pairwise disjoint, ``allocate`` rejects a zero-size region
    strictly inside another, and a region's ``bytearray`` is never
    resized or replaced while the region lives.  So while a region stays
    allocated, an access inside ``[base, end)`` of a ``region`` answer
    is inside that region and no other, and its buffer is the one
    ``load`` and ``store`` would use.  Only ``free`` ends a region; the
    executor forgets its cached region wherever a ``free`` can have run.
    """

    __slots__ = (
        "width", "_bases", "_ends", "_buffers", "_regions", "_seqs", "_seq",
        "_next_base", "_stack_top", "write_count", "read_count",
    )

    def __init__(self, width: int = 64):
        self.width = width
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._buffers: List[bytearray] = []
        self._regions: List[Region] = []
        self._seqs: List[int] = []
        self._seq = 0
        # Bump allocator state for tests/benchmarks that want "fresh" blocks.
        self._next_base = 0x1000
        # Stack allocations grow downward from high memory.
        self._stack_top = (1 << min(width, 47)) - 0x1000
        self.write_count = 0
        self.read_count = 0

    # -- Allocation ---------------------------------------------------------

    def allocate(self, size: int, label: str = "", base: Optional[int] = None) -> int:
        """Allocate a fresh region of ``size`` bytes; returns its base address."""
        if size < 0:
            raise ValueError("allocation size must be nonnegative")
        if base is None:
            base = self._next_base
            self._next_base = base + size + 0x40  # red zone between blocks
        end = base + size
        # Ends ascend with bases, so the regions overlapping [base, end)
        # are the run just below the first region based at or above end.
        hi = bisect_left(self._bases, end)
        lo = hi
        while lo and self._ends[lo - 1] > base:
            lo -= 1
        if lo < hi:
            first = min(range(lo, hi), key=self._seqs.__getitem__)
            raise MemoryError_(
                f"allocation [{base:#x},{end:#x}) overlaps {self._regions[first]}"
            )
        index = bisect_right(self._bases, base) if size else bisect_left(self._bases, base)
        self._bases.insert(index, base)
        self._ends.insert(index, end)
        self._buffers.insert(index, bytearray(size))
        self._regions.insert(index, Region(base, size, label))
        self._seqs.insert(index, self._seq)
        self._seq += 1
        return base

    def allocate_stack(self, size: int) -> int:
        """Allocate a stack block (grows downward); used by ``SStackalloc``."""
        base = self._stack_top - (size + _STACK_GAP)
        self.allocate(size, label="stack", base=base)
        self._stack_top = base
        return base

    def _index_of(self, base: int) -> int:
        """The index of the earliest-allocated region based at ``base``."""
        lo = bisect_left(self._bases, base)
        hi = bisect_right(self._bases, base, lo)
        if lo == hi:
            return -1
        return min(range(lo, hi), key=self._seqs.__getitem__)

    def free(self, base: int) -> None:
        """Free the region starting exactly at ``base``.

        Freeing the top-most stack frame gives its space back, so a loop
        around an ``SStackalloc`` reuses one frame instead of walking the
        stack down into the heap.
        """
        index = self._index_of(base)
        if index < 0:
            raise MemoryError_(f"free of unallocated address {base:#x}")
        region = self._regions[index]
        for column in (self._bases, self._ends, self._buffers, self._regions, self._seqs):
            del column[index]
        if region.label == "stack" and base == self._stack_top:
            self._stack_top = base + region.size + _STACK_GAP

    def store_bytes_at(self, base: int, data: bytes, label: str = "") -> int:
        """Allocate a region at ``base`` and initialize it with ``data``."""
        self.allocate(len(data), label=label, base=base)
        self.store_bytes(base, data)
        return base

    def place_bytes(self, data: bytes, label: str = "") -> int:
        """Allocate a fresh region initialized with ``data``; returns its base."""
        base = self.allocate(len(data), label=label)
        self.store_bytes(base, data)
        return base

    # -- Access -------------------------------------------------------------

    def region(self, addr: int, nbytes: int) -> Tuple[int, int, bytearray]:
        """The region holding ``[addr, addr + nbytes)``: its base, its end
        and its buffer; raises on an access outside every region.

        This is the one bounds check of every access.  The generated
        executor keeps the last answer and reads and writes the buffer
        itself while its accesses fall inside ``[base, end)``.
        """
        index = bisect_right(self._bases, addr) - 1
        if index < 0 or addr + nbytes > self._ends[index]:
            raise _out_of_bounds(addr, nbytes)
        return self._bases[index], self._ends[index], self._buffers[index]

    def _locate(self, addr: int, nbytes: int) -> Tuple[bytearray, int]:
        """The buffer holding ``[addr, addr + nbytes)`` and ``addr``'s offset in it."""
        base, _, buffer = self.region(addr, nbytes)
        return buffer, addr - base

    def load(self, addr: int, nbytes: int) -> int:
        """Load ``nbytes`` little-endian bytes; raises on unmapped access."""
        base, _, buffer = self.region(addr, nbytes)
        self.read_count += 1
        offset = addr - base
        return int.from_bytes(buffer[offset : offset + nbytes], "little")

    def store(self, addr: int, nbytes: int, value: int) -> None:
        """Store the low ``nbytes`` bytes of ``value`` (two's complement),
        little-endian; raises on unmapped access."""
        base, _, buffer = self.region(addr, nbytes)
        self.write_count += 1
        offset = addr - base
        buffer[offset : offset + nbytes] = (
            value & ((1 << 8 * nbytes) - 1)
        ).to_bytes(nbytes, "little")

    def load_bytes(self, addr: int, nbytes: int) -> bytes:
        buffer, offset = self._locate(addr, nbytes)
        return bytes(buffer[offset : offset + nbytes])

    def store_bytes(self, addr: int, data: bytes) -> None:
        if data:
            buffer, offset = self._locate(addr, len(data))
            buffer[offset : offset + len(data)] = data

    # -- Introspection --------------------------------------------------------

    @property
    def regions(self) -> Tuple[Region, ...]:
        """The live regions in allocation order."""
        return tuple(region for _, region in sorted(zip(self._seqs, self._regions)))

    def region_at(self, base: int) -> Region:
        index = self._index_of(base)
        if index < 0:
            raise MemoryError_(f"no region based at {base:#x}")
        return self._regions[index]

    def snapshot(self) -> Dict[int, int]:
        """A copy of all mapped bytes, for differential comparison."""
        return {
            base + offset: byte
            for base, buffer in zip(self._bases, self._buffers)
            for offset, byte in enumerate(buffer)
        }

    def copy(self) -> "Memory":
        clone = Memory(self.width)
        clone._bases = list(self._bases)
        clone._ends = list(self._ends)
        clone._buffers = [bytearray(buffer) for buffer in self._buffers]
        clone._regions = list(self._regions)
        clone._seqs = list(self._seqs)
        clone._seq = self._seq
        clone._next_base = self._next_base
        clone._stack_top = self._stack_top
        return clone
