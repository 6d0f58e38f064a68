"""Sparse memory and region mapping tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.machine import Machine
from repro.machine.devices import CLINT_MTIME, UART_BASE, UART_SIZE
from repro.machine.memory import Memory, MemoryRegion, PAGE_SIZE
from repro.snapshot import capture, restore


@pytest.fixture
def mem():
    memory = Memory()
    memory.map_region("ram", 0x1000, 0x10000)
    return memory


class TestMapping:
    def test_unmapped_read_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read_u64(0x100)

    def test_unmapped_write_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.write_u64(0x100000, 1)

    def test_straddling_region_end_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read_u64(0x1000 + 0x10000 - 4)

    def test_negative_address_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read_u8(-1)

    def test_overlapping_regions_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.map_region("clash", 0x1800, 0x100)

    def test_zero_size_region_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.map_region("empty", 0x100000, 0)

    def test_non_strict_mode(self):
        memory = Memory(strict=False)
        memory.write_u64(0xDEAD0000, 42)
        assert memory.read_u64(0xDEAD0000) == 42

    def test_region_lookup(self, mem):
        assert mem.region_at(0x1000).name == "ram"
        assert mem.region_at(0x100000) is None


class TestAccess:
    def test_uninitialized_reads_zero(self, mem):
        assert mem.read_u64(0x2000) == 0

    def test_widths(self, mem):
        mem.write_u64(0x2000, 0x1122334455667788)
        assert mem.read_u8(0x2000) == 0x88          # little-endian
        assert mem.read_u16(0x2000) == 0x7788
        assert mem.read_u32(0x2000) == 0x55667788
        assert mem.read_u64(0x2000) == 0x1122334455667788

    def test_truncation_on_write(self, mem):
        mem.write_u8(0x2000, 0x1FF)
        assert mem.read_u8(0x2000) == 0xFF

    def test_cross_page_access(self, mem):
        address = 0x1000 + PAGE_SIZE - 4
        mem.write_u64(address, 0xAABBCCDD11223344)
        assert mem.read_u64(address) == 0xAABBCCDD11223344

    def test_bytes_roundtrip(self, mem):
        payload = bytes(range(256))
        mem.write_bytes(0x3000, payload)
        assert mem.read_bytes(0x3000, 256) == payload

    @given(
        st.integers(0, 0xFF00), st.binary(min_size=1, max_size=64)
    )
    @settings(max_examples=50)
    def test_write_read_property(self, offset, payload):
        memory = Memory()
        memory.map_region("ram", 0x1000, 0x10000)
        address = 0x1000 + offset
        memory.write_bytes(address, payload)
        assert memory.read_bytes(address, len(payload)) == payload


class TestStrictEdges:
    def test_negative_address_write_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.write_u8(-1, 0xFF)

    def test_read_straddling_adjacent_regions_faults(self):
        """Two back-to-back regions: an access may not span both."""
        memory = Memory()
        memory.map_region("low", 0x1000, 0x1000)
        memory.map_region("high", 0x2000, 0x1000)
        with pytest.raises(MemoryFault):
            memory.read_u64(0x2000 - 4)
        # Each side is individually fine.
        assert memory.read_u64(0x2000 - 8) == 0
        assert memory.read_u64(0x2000) == 0

    def test_write_straddling_adjacent_regions_faults(self):
        memory = Memory()
        memory.map_region("low", 0x1000, 0x1000)
        memory.map_region("high", 0x2000, 0x1000)
        with pytest.raises(MemoryFault):
            memory.write_u64(0x2000 - 4, 1)

    def test_region_overlap_rejected_at_either_edge(self, mem):
        with pytest.raises(ValueError, match="overlaps"):
            mem.map_region("head", 0x800, 0x900)   # overlaps ram start
        with pytest.raises(ValueError, match="overlaps"):
            mem.map_region("tail", 0x10FFF, 0x10)  # overlaps ram end
        mem.map_region("above", 0x11000, 0x10)     # adjacent is fine


class TestCodeWriteHooks:
    def test_hook_fires_once_per_page_per_write(self, mem):
        calls = []
        mem.add_code_write_hook(calls.append)
        mem.watch_code_page(0x2000 // PAGE_SIZE)
        mem.write_bytes(0x2000, bytes(300))
        assert calls == [0x2000 // PAGE_SIZE]

    def test_hook_fires_per_watched_page_across_boundary(self):
        memory = Memory()
        memory.map_region("ram", 0x1000, 0x10000)
        calls = []
        memory.add_code_write_hook(calls.append)
        first = 0x2000 // PAGE_SIZE
        second = first + 1
        memory.watch_code_page(first)
        memory.watch_code_page(second)
        start = 0x2000 + PAGE_SIZE - 16
        memory.write_bytes(start, bytes(32))  # straddles both pages
        assert calls == [first, second]

    def test_hook_runs_after_write_completes(self):
        memory = Memory()
        memory.map_region("ram", 0x1000, 0x10000)
        seen = []
        page = 0x2000 // PAGE_SIZE

        def hook(page_index):
            seen.append(memory.read_bytes(0x2000 + PAGE_SIZE - 4, 8))

        memory.add_code_write_hook(hook)
        memory.watch_code_page(page)
        memory.write_bytes(0x2000 + PAGE_SIZE - 4, b"\xAA" * 8)
        # The hook observed the full cross-page write, not a prefix.
        assert seen == [b"\xAA" * 8]

    def test_unwatched_page_does_not_fire(self, mem):
        calls = []
        mem.add_code_write_hook(calls.append)
        mem.write_bytes(0x2000, bytes(64))
        assert calls == []


class TestProgramLoading:
    def test_load_program(self):
        from repro.isa import assemble

        program = assemble("nop\n.data\nvalue: .dword 0x42")
        memory = Memory()
        memory.load_program(program)
        assert memory.read_u64(program.symbols["value"]) == 0x42

    def test_load_into_existing_region(self):
        from repro.isa import assemble

        program = assemble("nop\n.data\nvalue: .dword 0x42")
        memory = Memory()
        data = program.sections[".data"]
        memory.map_region("prewired", data.base, 0x10000)
        regions_before = len(memory.regions) + 1  # .text gets its own
        memory.load_program(program)
        assert len(memory.regions) == regions_before
        assert memory.read_u64(program.symbols["value"]) == 0x42

    def test_partial_overlap_reported_explicitly(self):
        from repro.isa import assemble

        program = assemble("nop\n.data\nvalue: .dword 0x42")
        memory = Memory()
        data = program.sections[".data"]
        # A region covering only part of the page-rounded section span.
        memory.map_region("stub", data.base + PAGE_SIZE // 2, 0x100)
        with pytest.raises(ValueError, match="partially overlaps"):
            memory.load_program(program)

    def test_partial_overlap_message_names_section_and_region(self):
        from repro.isa import assemble

        program = assemble("nop\n.data\nvalue: .dword 0x42")
        memory = Memory()
        data = program.sections[".data"]
        memory.map_region("stub", data.base + PAGE_SIZE // 2, 0x100)
        with pytest.raises(ValueError) as excinfo:
            memory.load_program(program)
        message = str(excinfo.value)
        assert ".data" in message
        assert "stub" in message
        assert "page-rounded" in message


# -- the page path against the byte path ----------------------------------------
#
# Every tier reaches RAM through the typed accessors, so the differential
# fuzz oracle cannot see a fault in their page path: this property is the
# reference check.  The reference memory is driven only through
# read_bytes/write_bytes.

_HALF = PAGE_SIZE // 2


@st.composite
def _regions(draw):
    """Regions over pages 1..8 as ``(base, size)`` pairs.

    Each page is unmapped, full, or split mid-page: only its low half
    mapped (a region that ends mid-page), or both halves as two adjacent
    regions.  A drawn break splits a run of full pages into adjacent
    regions.
    """
    kinds = draw(st.lists(
        st.sampled_from(["full", "full", "none", "low", "halves"]),
        min_size=1, max_size=8,
    ))
    breaks = draw(st.lists(st.booleans(), min_size=len(kinds),
                           max_size=len(kinds)))
    regions, start = [], None

    def close(end):
        nonlocal start
        if start is not None:
            regions.append((start, end - start))
        start = None

    for page, (kind, cut) in enumerate(zip(kinds, breaks), start=1):
        base = page * PAGE_SIZE
        if kind == "none" or cut:
            close(base)
        if kind == "none":
            continue
        if start is None:
            start = base
        if kind != "full":
            close(base + _HALF)
            if kind == "halves":
                start = base + _HALF
    close((len(kinds) + 1) * PAGE_SIZE)
    return regions or [(PAGE_SIZE, PAGE_SIZE)]


def _outcome(access):
    try:
        return "ok", access()
    except MemoryFault as fault:
        return "fault", fault.address, str(fault)


class _Side:
    """One memory under test plus its byte-path reference."""

    def __init__(self, tested: Memory, reference: Memory):
        self.tested = tested
        self.reference = reference
        self.tested_hooks: list[int] = []
        self.reference_hooks: list[int] = []
        tested.add_code_write_hook(self.tested_hooks.append)
        reference.add_code_write_hook(self.reference_hooks.append)

    def read(self, size, address):
        got = _outcome(lambda: getattr(self.tested, f"read_u{8 * size}")(
            address))
        want = _outcome(lambda: int.from_bytes(
            self.reference.read_bytes(address, size), "little"))
        assert got == want, (size, hex(address))

    def write(self, size, address, value):
        got = _outcome(lambda: getattr(self.tested, f"write_u{8 * size}")(
            address, value))
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        want = _outcome(lambda: self.reference.write_bytes(address, data))
        assert got == want, (size, hex(address))
        assert self.tested_hooks == self.reference_hooks

    def watch(self, page):
        self.tested.watch_code_page(page)
        self.reference.watch_code_page(page)

    def restore(self):
        """Swap the tested memory for a restored snapshot of it: the
        page index must come back through the ``regions`` setter."""
        restored = restore(capture(Machine(memory=self.tested))).memory
        restored.add_code_write_hook(self.tested_hooks.append)
        self.tested = restored

    def check_pages(self):
        def contents(memory):
            return {i: bytes(p) for i, p in memory._pages.items()}

        assert contents(self.tested) == contents(self.reference)
        assert self.tested_hooks == self.reference_hooks


_KINDS = st.sampled_from(
    ["read"] * 4 + ["write"] * 4 + ["watch", "fork", "restore"]
)


class TestPagePathEqualsBytePath:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_typed_access_matches_read_write_bytes(self, data):
        regions = data.draw(_regions(), label="regions")
        edges = sorted(
            {base for base, _ in regions}
            | {base + size for base, size in regions}
        )
        full = [
            page for base, size in regions
            for page in range(-(-base // PAGE_SIZE), (base + size) >> 12)
        ]
        offsets = st.one_of(
            st.sampled_from([0, 8, _HALF - 4, _HALF, PAGE_SIZE - 8,
                             PAGE_SIZE - 7, PAGE_SIZE - 1]),
            st.integers(0, PAGE_SIZE - 1),
        )
        in_page = st.builds(
            lambda p, o: p * PAGE_SIZE + o,
            st.sampled_from(full or [1]), offsets,
        )
        addresses = st.one_of(
            in_page,
            in_page,
            # anywhere, mapped or not
            st.builds(lambda p, o: p * PAGE_SIZE + o,
                      st.integers(0, (edges[-1] >> 12) + 1), offsets),
            # around region ends: straddling, and the unmapped tail
            st.builds(lambda e, d: e + d, st.sampled_from(edges),
                      st.integers(-9, 8)),
            st.integers(-16, -1),
        )
        # A small pool, so that accesses revisit learned pages.
        pool = data.draw(st.lists(addresses, min_size=1, max_size=8),
                         label="addresses")
        ops = data.draw(st.lists(
            st.tuples(_KINDS, st.integers(0, 1), st.sampled_from([1, 2, 4, 8]),
                      st.integers(0, 7), st.integers(0, (1 << 64) - 1)),
            min_size=10, max_size=50,
        ), label="ops")
        tested, reference = Memory(), Memory()
        for index, (base, size) in enumerate(regions):
            tested.map_region(f"r{index}", base, size)
            reference.map_region(f"r{index}", base, size)
        sides = [_Side(tested, reference)]
        for kind, which, size, slot, value in ops:
            side = sides[which % len(sides)]
            address = pool[slot % len(pool)]
            if kind == "read":
                side.read(size, address)
            elif kind == "write":
                side.write(size, address, value)
            elif kind == "watch":
                side.watch(address >> 12)
            elif kind == "fork" and len(sides) == 1:
                sides.append(_Side(sides[0].tested.fork(),
                                   sides[0].reference.fork()))
            elif kind == "restore":
                side.restore()
        for side in sides:
            side.check_pages()

    def test_every_size_at_every_offset_near_a_page_end(self):
        """The page path's own boundary: accesses that end at, or one
        byte past, the end of a full page, both into the next mapped
        page (whose bytes are nonzero) and off the last mapped one."""
        pattern = (bytes(range(1, 256)) * 33)[:2 * PAGE_SIZE]
        tested, reference = Memory(), Memory()
        for memory in (tested, reference):
            memory.map_region("ram", PAGE_SIZE, 2 * PAGE_SIZE)
            memory.write_bytes(PAGE_SIZE, pattern)
        side = _Side(tested, reference)
        for page in (1, 2):
            for size in (1, 2, 4, 8):
                for offset in range(PAGE_SIZE - 9, PAGE_SIZE):
                    address = page * PAGE_SIZE + offset
                    side.read(size, address)
                    side.write(size, address, ~offset)
                    side.read(size, address)
        side.check_pages()

    def test_assigning_regions_forgets_full_pages(self):
        memory = Memory()
        memory.map_region("ram", 0x1000, 0x2000)
        memory.write_u64(0x1000, 5)
        assert memory.read_u64(0x1000) == 5
        memory.regions = [MemoryRegion("high", 0x2000, 0x1000)]
        with pytest.raises(MemoryFault):
            memory.read_u64(0x1000)
        with pytest.raises(MemoryFault):
            memory.write_u64(0x1000, 6)

    def test_fork_does_not_learn_pages_mapped_after_it(self):
        parent = Memory()
        parent.map_region("ram", 0x1000, 0x1000)
        parent.write_u64(0x1000, 1)
        child = parent.fork()
        parent.map_region("late", 0x5000, 0x1000)
        parent.write_u64(0x5000, 2)
        assert parent.read_u64(0x5000) == 2
        with pytest.raises(MemoryFault):
            child.read_u64(0x5000)
        assert child.read_u64(0x1000) == 1


class TestBusRouting:
    def test_clint_mtime_load_returns_live_cycles(self):
        machine = Machine()
        machine.hart.cycles = 12_345
        assert machine.bus.read_u64(CLINT_MTIME) == 12_345
        machine.hart.cycles = 99
        assert machine.bus.read_u64(CLINT_MTIME) == 99

    def test_uart_store_lands_in_the_device_not_ram(self):
        machine = Machine()
        # RAM mapped under the UART page: the device still wins.
        machine.memory.map_region("shadow", UART_BASE, PAGE_SIZE)
        assert machine.bus.write_u8(UART_BASE, ord("A")) is True
        assert machine.uart.output == b"A"
        assert machine.memory.read_u8(UART_BASE) == 0
        # The same page past the device's end is plain RAM.
        assert machine.bus.write_u8(UART_BASE + UART_SIZE, 7) is False
        assert machine.bus.read_u8(UART_BASE + UART_SIZE) == 7
        assert machine.uart.output == b"A"
