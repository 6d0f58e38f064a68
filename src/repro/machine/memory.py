"""Sparse simulated physical memory.

Memory is organized as explicitly mapped regions backed by 4 KiB pages
allocated on demand.  Accesses outside any mapped region raise
:class:`MemoryFault`, which the hart converts into access-fault traps —
this is what makes a garbage-decrypted pointer *observable* as a crash,
exactly the paper's argument for pointer randomization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


@dataclass(frozen=True)
class MemoryRegion:
    """A mapped address range [base, base + size)."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end


def _typed_read(size: int):
    """``Memory.read_u<8*size>``: the page path, else the byte path."""
    last = PAGE_SIZE - size

    def read(self: Memory, address: int) -> int:
        offset = address & PAGE_MASK
        index = address >> PAGE_SHIFT
        if offset <= last and index in self._full_pages:
            page = self._pages.get(index)
            if page is None:
                return 0  # mapped but never written
            return int.from_bytes(page[offset:offset + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    read.__name__ = f"read_u{8 * size}"
    read.__qualname__ = f"Memory.{read.__name__}"
    return read


def _typed_write(size: int):
    """``Memory.write_u<8*size>``: the page path, else the byte path."""
    last = PAGE_SIZE - size
    mask = (1 << (8 * size)) - 1

    def write(self: Memory, address: int, value: int) -> None:
        data = (value & mask).to_bytes(size, "little")
        offset = address & PAGE_MASK
        index = address >> PAGE_SHIFT
        # Absent, COW-shared and watched code pages take the byte
        # path: it allocates, copies, or runs the code-write hooks.
        if (
            offset <= last
            and index in self._full_pages
            and index not in self._cow_pages
            and index not in self._watched_pages
        ):
            page = self._pages.get(index)
            if page is not None:
                page[offset:offset + size] = data
                return
        self.write_bytes(address, data)

    write.__name__ = f"write_u{8 * size}"
    write.__qualname__ = f"Memory.{write.__name__}"
    return write


class Memory:
    """Sparse byte-addressable memory with region mapping.

    ``strict=False`` turns the whole address space into one implicit
    region (useful for small unit tests); the kernel and benchmarks run
    with ``strict=True``.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._regions: list[MemoryRegion] = []
        #: Pages proven to lie wholly inside one mapped region: a typed
        #: access that stays inside one of them needs no region check.
        #: Filled lazily by the byte path (never when ``strict`` is
        #: False), replaced whenever ``regions`` changes, and shared
        #: with forks, whose regions are equal.
        self._full_pages: set[int] = set()
        self._pages: dict[int, bytearray] = {}
        #: Pages holding translated code: a write that lands on one of
        #: these notifies every registered hook so block caches can
        #: invalidate stale translations (self-modifying code).
        self._watched_pages: set[int] = set()
        self._code_write_hooks: list = []
        #: Pages shared copy-on-write with a forked Memory; the first
        #: write to one replaces it with a private copy.
        self._cow_pages: set[int] = set()
        #: Number of COW page copies this instance has performed.
        self.cow_copies = 0

    # -- code-write tracking -----------------------------------------------------

    def watch_code_page(self, page_index: int) -> None:
        """Report future writes to ``page_index`` to the code-write hooks."""
        self._watched_pages.add(page_index)

    def unwatch_all_code_pages(self) -> None:
        self._watched_pages.clear()

    def add_code_write_hook(self, hook) -> None:
        """Register ``hook(page_index)`` to run on writes to watched pages."""
        self._code_write_hooks.append(hook)

    # -- copy-on-write forking ---------------------------------------------------

    def fork(self) -> "Memory":
        """Return a child sharing every current page copy-on-write.

        Parent and child each mark today's pages as shared; whichever
        side writes a shared page first replaces it with a private copy,
        so neither can observe the other's subsequent writes.  Region
        mapping and the watched-code-page set are copied; code-write
        hooks are *not* — they bind to the parent's hart, and the
        child's consumers must register their own.
        """
        child = Memory(strict=self.strict)
        child._regions = list(self._regions)
        child._full_pages = self._full_pages
        shared = set(self._pages)
        child._pages = dict(self._pages)
        child._cow_pages = set(shared)
        self._cow_pages |= shared
        child._watched_pages = set(self._watched_pages)
        return child

    def shared_page_count(self) -> int:
        """Pages still shared with a fork (not yet privately copied)."""
        return len(self._cow_pages)

    # -- mapping ---------------------------------------------------------------

    @property
    def regions(self) -> list[MemoryRegion]:
        """Mapped regions.  Assign a new list to change them wholesale
        (snapshot restore does); never mutate the list in place."""
        return self._regions

    @regions.setter
    def regions(self, regions: list[MemoryRegion]) -> None:
        self._regions = regions
        self._full_pages = set()

    def map_region(self, name: str, base: int, size: int) -> MemoryRegion:
        """Map [base, base+size); overlapping an existing region is an error."""
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        region = MemoryRegion(name, base, size)
        for existing in self.regions:
            if base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        # Mapping only adds memory, so every known full page stays
        # full; the copy stops this memory's new pages reaching forks
        # that do not map the region.
        self._full_pages = set(self._full_pages)
        return region

    def is_mapped(self, address: int, length: int = 1) -> bool:
        if not self.strict:
            return True
        return any(r.contains(address, length) for r in self._regions)

    def region_at(self, address: int) -> MemoryRegion | None:
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    def _check(self, address: int, length: int) -> None:
        """Fault an access outside every region; learn full pages."""
        if address < 0:
            raise MemoryFault(address, "negative address")
        if not self.strict:
            return
        regions = self._regions
        if not any(r.contains(address, length) for r in regions):
            raise MemoryFault(address, "access to unmapped memory")
        index = address >> PAGE_SHIFT
        if index not in self._full_pages and any(
            r.contains(index << PAGE_SHIFT, PAGE_SIZE) for r in regions
        ):
            self._full_pages.add(index)

    # -- raw byte access -------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        self._check(address, length)
        out = bytearray(length)
        offset = 0
        while offset < length:
            page_index = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[
                    page_offset:page_offset + chunk
                ]
            offset += chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data``; code-write hooks fire after the full write.

        Hooks run at most once per watched page per call (a multi-page
        write used to fire them once per written chunk), and only after
        every byte has landed, so a block-invalidation hook observes the
        fully-written page.
        """
        self._check(address, len(data))
        offset = 0
        length = len(data)
        watched = self._watched_pages
        touched: list[int] = []
        while offset < length:
            page_index = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[page_index] = page
            elif self._cow_pages and page_index in self._cow_pages:
                # First write to a page shared with a fork: go private.
                page = bytearray(page)
                self._pages[page_index] = page
                self._cow_pages.discard(page_index)
                self.cow_copies += 1
            page[page_offset:page_offset + chunk] = data[
                offset:offset + chunk
            ]
            if watched and page_index in watched and (
                not touched or touched[-1] != page_index
            ):
                touched.append(page_index)
            offset += chunk
        for page_index in touched:
            for hook in self._code_write_hooks:
                hook(page_index)

    # -- typed access -----------------------------------------------------------
    #
    # An access that stays inside one known full page is one set test,
    # one dict lookup and one slice; everything else (page-crossing,
    # partly mapped or unmapped pages, negative addresses, non-strict
    # memories) takes the byte path above.

    read_u8 = _typed_read(1)
    read_u16 = _typed_read(2)
    read_u32 = _typed_read(4)
    read_u64 = _typed_read(8)
    write_u8 = _typed_write(1)
    write_u16 = _typed_write(2)
    write_u32 = _typed_write(4)
    write_u64 = _typed_write(8)

    # -- program loading ---------------------------------------------------------

    def load_program(self, program) -> None:
        """Map and copy every section of an assembled Program.

        A section already fully inside a mapped region reuses it; one
        entirely in unmapped space gets a fresh page-rounded region.  A
        section *partially* overlapping an existing region is reported
        explicitly — the page-rounded mapping would otherwise fail with
        an unhelpful generic region-overlap error.
        """
        for section in program.sections.values():
            if not section.data:
                continue
            length = len(section.data)
            size = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            if not self.is_mapped(section.base, length):
                end = section.base + size
                clash = next(
                    (r for r in self.regions
                     if section.base < r.end and r.base < end),
                    None,
                )
                if clash is not None:
                    raise ValueError(
                        f"section {section.name!r} "
                        f"[{section.base:#x}, {section.base + length:#x}) "
                        f"partially overlaps region {clash.name!r} "
                        f"[{clash.base:#x}, {clash.end:#x}): a section "
                        "must lie fully inside one mapped region or in "
                        "unmapped space (its mapping is page-rounded to "
                        f"{size:#x} bytes)"
                    )
                self.map_region(section.name, section.base, size)
            self.write_bytes(section.base, bytes(section.data))
