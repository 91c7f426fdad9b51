"""Tests for the flat byte-addressed memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock2.memory import Memory, MemoryError_
from tests.bedrock2.dict_memory import DictMemory


class TestAllocation:
    def test_allocate_returns_disjoint_regions(self):
        mem = Memory()
        a = mem.allocate(16)
        b = mem.allocate(16)
        assert a + 16 <= b or b + 16 <= a

    def test_allocate_at_fixed_base(self):
        mem = Memory()
        assert mem.allocate(8, base=0x2000) == 0x2000

    def test_overlapping_allocation_rejected(self):
        mem = Memory()
        mem.allocate(16, base=0x1000)
        with pytest.raises(MemoryError_):
            mem.allocate(16, base=0x1008)

    def test_free_then_reallocate(self):
        mem = Memory()
        mem.allocate(16, base=0x1000)
        mem.free(0x1000)
        assert mem.allocate(16, base=0x1000) == 0x1000

    def test_free_unallocated_rejected(self):
        mem = Memory()
        with pytest.raises(MemoryError_):
            mem.free(0xDEAD)

    def test_negative_size_rejected(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.allocate(-1)

    def test_stack_allocations_are_fresh(self):
        mem = Memory()
        a = mem.allocate_stack(64)
        b = mem.allocate_stack(64)
        assert a != b


class TestAccess:
    def test_load_store_roundtrip(self):
        mem = Memory()
        base = mem.allocate(8)
        mem.store(base, 4, 0xDEADBEEF)
        assert mem.load(base, 4) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = Memory()
        base = mem.allocate(4)
        mem.store(base, 4, 0x11223344)
        assert mem.load(base, 1) == 0x44
        assert mem.load(base + 3, 1) == 0x11

    def test_unaligned_access_allowed_within_region(self):
        mem = Memory()
        base = mem.allocate(8)
        mem.store(base + 1, 4, 0xCAFEBABE)
        assert mem.load(base + 1, 4) == 0xCAFEBABE

    def test_out_of_bounds_load_rejected(self):
        mem = Memory()
        base = mem.allocate(4)
        with pytest.raises(MemoryError_):
            mem.load(base + 2, 4)  # straddles the end

    def test_out_of_bounds_store_rejected(self):
        mem = Memory()
        base = mem.allocate(4)
        with pytest.raises(MemoryError_):
            mem.store(base + 4, 1, 0)

    def test_unmapped_access_rejected(self):
        mem = Memory()
        with pytest.raises(MemoryError_):
            mem.load(0x9999, 1)

    def test_access_must_be_within_single_region(self):
        mem = Memory()
        mem.allocate(4, base=0x1000)
        mem.allocate(4, base=0x1004)
        # Regions are adjacent but separate allocations: straddling is UB.
        with pytest.raises(MemoryError_):
            mem.load(0x1002, 4)

    def test_bulk_bytes(self):
        mem = Memory()
        base = mem.place_bytes(b"hello")
        assert mem.load_bytes(base, 5) == b"hello"
        mem.store_bytes(base, b"HELLO")
        assert mem.load_bytes(base, 5) == b"HELLO"

    def test_store_bytes_at(self):
        mem = Memory()
        mem.store_bytes_at(0x4000, b"abc")
        assert mem.load_bytes(0x4000, 3) == b"abc"


class TestIntrospection:
    def test_snapshot_is_a_copy(self):
        mem = Memory()
        base = mem.allocate(2)
        snap = mem.snapshot()
        mem.store(base, 1, 7)
        assert snap[base] == 0

    def test_copy_is_independent(self):
        mem = Memory()
        base = mem.allocate(2)
        clone = mem.copy()
        mem.store(base, 1, 9)
        assert clone.load(base, 1) == 0

    def test_region_at(self):
        mem = Memory()
        base = mem.allocate(4, label="buf")
        assert mem.region_at(base).label == "buf"
        with pytest.raises(MemoryError_):
            mem.region_at(base + 1)

    def test_region_is_the_live_buffer(self):
        mem = Memory()
        base = mem.allocate(8)
        start, end, buffer = mem.region(base + 2, 4)
        assert (start, end) == (base, base + 8)
        buffer[3] = 0xAB
        assert mem.load(base + 3, 1) == 0xAB
        assert (mem.read_count, mem.write_count) == (1, 0)  # ``region`` counts nothing
        with pytest.raises(MemoryError_, match="access of 4 byte"):
            mem.region(base + 6, 4)

    def test_counts(self):
        mem = Memory()
        base = mem.allocate(4)
        mem.store(base, 4, 1)
        mem.load(base, 4)
        assert mem.write_count == 1
        assert mem.read_count == 1


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_load_store_roundtrip_property(nbytes, value):
    mem = Memory()
    base = mem.allocate(8)
    truncated = value & ((1 << (8 * nbytes)) - 1)
    mem.store(base, nbytes, truncated)
    assert mem.load(base, nbytes) == truncated


@given(st.binary(min_size=0, max_size=64))
def test_bytes_roundtrip_property(data):
    mem = Memory()
    base = mem.place_bytes(data) if data else mem.allocate(0)
    assert mem.load_bytes(base, len(data)) == data


# -- The flat-buffer memory against the dict-backed oracle -----------------

_WINDOW = 0x1000  # bump allocations start here too, so explicit bases collide


def _outcome(mem, kind, args):
    try:
        return ("ok", _apply(mem, kind, args))
    except (MemoryError_, ValueError) as exc:
        return (type(exc), str(exc))


def _observe(mem):
    return (mem.read_count, mem.write_count, mem.snapshot(), mem.regions, mem._stack_top)


def _addresses(ref):
    """Addresses at, just inside and just outside every live region."""
    points = {_WINDOW, _WINDOW + 0x41, ref._stack_top}
    for region in ref.regions:
        points.update((region.base - 1, region.base, region.base + 1,
                       region.end - 1, region.end, region.end + 1))
    return sorted(point for point in points if point >= 0)


@st.composite
def _operation(draw, ref):
    points = _addresses(ref)
    address = st.one_of(st.sampled_from(points),
                        st.integers(_WINDOW - 8, _WINDOW + 0x100))
    bases = [region.base for region in ref.regions]
    live_base = st.sampled_from(bases) if bases else address
    size = st.one_of(st.just(0), st.integers(1, 12))  # empty regions half the time
    kind = draw(st.sampled_from((
        "allocate", "allocate_at", "allocate_stack", "free", "place_bytes",
        "store_bytes_at", "load", "store", "load_bytes", "store_bytes",
        "region_at", "region", "copy",
    )))
    if kind == "allocate":
        return kind, (draw(size), draw(st.sampled_from(("", "a", "b"))))
    if kind == "allocate_at":
        return kind, (draw(size), draw(st.one_of(live_base, address)))
    if kind == "allocate_stack":
        return kind, (draw(size),)
    if kind in ("free", "region_at"):
        return kind, (draw(st.one_of(live_base, address)),)
    if kind == "place_bytes":
        return kind, (draw(st.binary(max_size=12)),)
    if kind == "store_bytes_at":
        return kind, (draw(address), draw(st.binary(max_size=12)))
    if kind == "load":
        return kind, (draw(address), draw(st.sampled_from((0, 1, 2, 4, 8))))
    if kind == "store":
        value = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from((-1, -256, 256, 2**64)))
        return kind, (draw(address), draw(st.sampled_from((0, 1, 2, 4, 8))), draw(value))
    if kind == "region":  # an empty access may touch two regions: none is *the* one
        return kind, (draw(address), draw(st.sampled_from((1, 2, 4, 8))))
    if kind == "load_bytes":
        return kind, (draw(address), draw(st.integers(0, 12)))
    if kind == "store_bytes":
        return kind, (draw(address), draw(st.binary(max_size=12)))
    return kind, ()


def _apply(mem, kind, args):
    if kind == "allocate":
        return mem.allocate(args[0], label=args[1])
    if kind == "allocate_at":
        return mem.allocate(args[0], label="x", base=args[1])
    if kind == "copy":
        return None
    if kind == "region":
        base, end, buffer = mem.region(*args)
        return base, end, bytes(buffer)
    return getattr(mem, kind)(*args)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memory_matches_dict_oracle(data):
    ref, mem = DictMemory(), Memory()
    copies = []
    for _ in range(data.draw(st.integers(1, 40))):
        kind, args = data.draw(_operation(ref))
        if kind == "copy":
            copies.append((ref.copy(), mem.copy(), mem.snapshot()))
        assert _outcome(mem, kind, args) == _outcome(ref, kind, args), (kind, args)
        assert _observe(mem) == _observe(ref), (kind, args)
    for ref_clone, clone, at_copy in copies:
        # Later writes to the original never reach a copy.
        assert clone.snapshot() == at_copy == ref_clone.snapshot()
        assert clone.regions == ref_clone.regions
        assert clone._stack_top == ref_clone._stack_top


class TestOracleCorners:
    """The corners the random sequences must reach, pinned as examples."""

    def _both(self, ops):
        ref, mem = DictMemory(), Memory()
        for kind, args in ops:
            assert _outcome(mem, kind, args) == _outcome(ref, kind, args), (kind, args)
            assert _observe(mem) == _observe(ref), (kind, args)
        return mem

    def test_zero_size_regions_share_a_base_with_a_non_empty_one(self):
        mem = self._both([
            ("allocate_at", (0, 0x2000)),
            ("allocate_at", (8, 0x2000)),
            ("allocate_at", (0, 0x2000)),
            ("store", (0x2000, 8, 0x1122334455667788)),
            ("load", (0x2004, 4)),
            ("allocate_at", (0, 0x2004)),  # strictly inside: overlap
            ("free", (0x2000,)),           # frees the first-allocated, empty one
            ("load", (0x2000, 8)),
            ("free", (0x2000,)),
            ("load", (0x2000, 1)),
        ])
        assert [r.size for r in mem.regions] == [0]

    def test_explicit_adjacent_regions_and_crossing_accesses(self):
        self._both([
            ("allocate_at", (4, 0x2000)),
            ("allocate_at", (4, 0x2004)),
            ("allocate_at", (0, 0x2010)),
            ("store", (0x2003, 2, 0xFFFF)),   # crosses the first region's end
            ("store", (0x1FFF, 2, 0xFFFF)),   # crosses its start
            ("load", (0x2002, 4)),
            ("region", (0x2003, 1)),
            ("region", (0x2003, 2)),          # crosses into the adjacent region
            ("region", (0x2004, 4)),
            ("load_bytes", (0x2004, 4)),
            ("load_bytes", (0x2008, 0)),      # load_bytes(end, 0)
            ("load_bytes", (0x2009, 0)),
            ("load_bytes", (0x2010, 0)),      # a zero-size region's base
            ("store_bytes", (0x2006, b"abc")),
            ("allocate_at", (8, 0x1FFC)),     # overlaps two regions
        ])

    def test_out_of_order_stack_frees(self):
        ref, mem = DictMemory(), Memory()
        frames = [(ref.allocate_stack(n), mem.allocate_stack(n)) for n in (16, 8, 0, 24)]
        for ref_base, base in (frames[1], frames[3], frames[0], frames[2]):
            assert base == ref_base
            ref.free(ref_base)
            mem.free(base)
            assert _observe(mem) == _observe(ref)
            assert mem.allocate_stack(4) == ref.allocate_stack(4)
            assert _observe(mem) == _observe(ref)

    def test_negative_and_over_wide_store_values(self):
        self._both([
            ("allocate_at", (8, 0x3000)),
            ("store", (0x3000, 4, -1)),
            ("store", (0x3004, 2, -0x1234)),
            ("store", (0x3000, 1, 0x1FF)),
            ("store", (0x3001, 8, 2**72 + 5)),  # out of bounds: checked first
            ("store", (0x3000, 8, 2**72 - 3)),
            ("load", (0x3000, 8)),
        ])
