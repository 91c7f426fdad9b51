"""The dict-backed ``Memory`` the flat-buffer one replaced, kept as an oracle.

``tests/bedrock2/test_memory.py`` runs random operation sequences on this
class and on :class:`repro.bedrock2.memory.Memory` and requires identical
values, errors, counters, snapshots, regions and stack pointers.  It is
the semantics of the memory model written in its most direct form: one
dict entry per mapped byte and a linear scan over the regions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bedrock2.memory import _STACK_GAP, MemoryError_, Region


class DictMemory:
    """One dict entry per mapped byte, regions scanned in insertion order.

    Addresses are plain unsigned ints (the interpreter truncates word
    addresses to the target width before calling in here).
    """

    def __init__(self, width: int = 64):
        self.width = width
        self._bytes: Dict[int, int] = {}
        self._regions: List[Region] = []
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
        region = Region(base, size, label)
        for other in self._regions:
            if region.base < other.end and other.base < region.end:
                raise MemoryError_(
                    f"allocation [{base:#x},{base + size:#x}) overlaps {other}"
                )
        self._regions.append(region)
        for offset in range(size):
            self._bytes.setdefault(base + offset, 0)
        return base

    def allocate_stack(self, size: int) -> int:
        """Allocate a stack block (grows downward); used by ``SStackalloc``."""
        base = self._stack_top - (size + _STACK_GAP)
        self.allocate(size, label="stack", base=base)
        self._stack_top = base
        return base

    def free(self, base: int) -> None:
        """Free the region starting exactly at ``base``.

        Freeing the top-most stack frame gives its space back, so a loop
        around an ``SStackalloc`` reuses one frame instead of walking the
        stack down into the heap.
        """
        for index, region in enumerate(self._regions):
            if region.base == base:
                del self._regions[index]
                for offset in range(region.size):
                    self._bytes.pop(base + offset, None)
                if region.label == "stack" and base == self._stack_top:
                    self._stack_top = base + region.size + _STACK_GAP
                return
        raise MemoryError_(f"free of unallocated address {base:#x}")

    def store_bytes_at(self, base: int, data: bytes, label: str = "") -> int:
        """Allocate a region at ``base`` and initialize it with ``data``."""
        self.allocate(len(data), label=label, base=base)
        for offset, byte in enumerate(data):
            self._bytes[base + offset] = byte
        return base

    def place_bytes(self, data: bytes, label: str = "") -> int:
        """Allocate a fresh region initialized with ``data``; returns its base."""
        base = self.allocate(len(data), label=label)
        for offset, byte in enumerate(data):
            self._bytes[base + offset] = byte
        return base

    # -- Access -------------------------------------------------------------

    def _region_for(self, addr: int, nbytes: int) -> Region:
        for region in self._regions:
            if region.base <= addr and addr + nbytes <= region.end:
                return region
        raise MemoryError_(f"access of {nbytes} byte(s) at {addr:#x} is out of bounds")

    def region(self, addr: int, nbytes: int) -> Tuple[int, int, bytearray]:
        """The region holding ``[addr, addr + nbytes)``: its base, its end
        and a copy of its bytes."""
        region = self._region_for(addr, nbytes)
        data = bytearray(self._bytes[region.base + offset] for offset in range(region.size))
        return region.base, region.end, data

    def load(self, addr: int, nbytes: int) -> int:
        """Load ``nbytes`` little-endian bytes; raises on unmapped access."""
        self._region_for(addr, nbytes)
        self.read_count += 1
        value = 0
        for offset in range(nbytes):
            value |= self._bytes.get(addr + offset, 0) << (8 * offset)
        return value

    def store(self, addr: int, nbytes: int, value: int) -> None:
        """Store ``nbytes`` little-endian bytes; raises on unmapped access."""
        self._region_for(addr, nbytes)
        self.write_count += 1
        for offset in range(nbytes):
            self._bytes[addr + offset] = (value >> (8 * offset)) & 0xFF

    def load_bytes(self, addr: int, nbytes: int) -> bytes:
        self._region_for(addr, nbytes)
        return bytes(self._bytes.get(addr + offset, 0) for offset in range(nbytes))

    def store_bytes(self, addr: int, data: bytes) -> None:
        if data:
            self._region_for(addr, len(data))
        for offset, byte in enumerate(data):
            self._bytes[addr + offset] = byte

    # -- Introspection --------------------------------------------------------

    @property
    def regions(self) -> Tuple[Region, ...]:
        return tuple(self._regions)

    def region_at(self, base: int) -> Region:
        for region in self._regions:
            if region.base == base:
                return region
        raise MemoryError_(f"no region based at {base:#x}")

    def snapshot(self) -> Dict[int, int]:
        """A copy of all mapped bytes, for differential comparison."""
        return dict(self._bytes)

    def copy(self) -> "DictMemory":
        clone = DictMemory(self.width)
        clone._bytes = dict(self._bytes)
        clone._regions = list(self._regions)
        clone._next_base = self._next_base
        clone._stack_top = self._stack_top
        return clone
