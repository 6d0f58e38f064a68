"""Basic-block translation cache for the hart's fast path.

A :class:`TranslatedBlock` is a straight-line instruction sequence
predecoded into ``(handler, instruction)`` pairs, keyed by its entry PC
and the privilege level it was translated under.  Executing a cached
block skips the per-instruction fetch -> decode -> dispatch-lookup cost
— the dominant share of interpreter time — while reusing the *same*
handler closures as :meth:`repro.machine.hart.Hart.step`, so
architectural state and cycle accounting stay bit-identical.  Hot
blocks are additionally compiled into specialized Python functions and
direct-chained (see :mod:`repro.machine.blockcompile`).

Invalidation rules (see ``docs/perf.md``):

* a memory write that lands on a page containing translated code drops
  every block overlapping that page (self-modifying code);
* privilege transitions never reuse a block translated under another
  privilege level, because blocks are keyed by ``(pc, privilege)``;
* CSR instructions terminate blocks at translation time, so CSR-driven
  state changes take effect before any later predecoded instruction.

Every removal — page invalidation, explicit flush, or LRU eviction —
bumps :attr:`BlockCache.epoch`.  Direct chain links between compiled
blocks are stamped with the epoch they were created under and are
ignored once it moves on, so a stale link can never resurrect a dropped
translation.
"""

from __future__ import annotations

from repro.machine.memory import PAGE_SHIFT
from repro.telemetry.events import (
    BLOCK_EVICT,
    BLOCK_FLUSH,
    BLOCK_HIT,
    BLOCK_INVALIDATE,
)

#: Longest straight-line sequence one block may hold.
MAX_BLOCK_INSTRUCTIONS = 64

#: Blocks cached before least-recently-used eviction kicks in.  Kernel
#: images here translate to a few hundred blocks; the cap only guards
#: degenerate workloads (e.g. JIT-like self-modifying loops) from
#: unbounded growth, and LRU keeps their hot working set translated
#: instead of retranslating everything after a full flush.
DEFAULT_CAPACITY = 4096


class TranslatedBlock:
    """One predecoded straight-line sequence.

    ``ops`` is split into ``body`` and ``last`` so the executor can run
    the body with architectural counters (``pc``/``instret``) held in
    locals and sync them exactly once before the final op — the only
    instruction that may observe them, since CSR reads terminate blocks.
    """

    __slots__ = (
        "entry_pc", "ops", "body", "last", "cycle_bound", "pages",
        "privilege", "exec_count", "compiled", "compile_failed", "links",
        "layout",
    )

    def __init__(
        self,
        entry_pc: int,
        ops: tuple,
        cycle_bound: int,
        pages: frozenset[int],
        privilege: int = 3,
        layout: BlockLayout | None = None,
    ):
        self.entry_pc = entry_pc
        #: ``(handler, instruction)`` pairs, in program order.
        self.ops = ops
        self.body = ops[:-1]
        self.last = ops[-1]
        #: Upper bound on cycles one execution of this block can
        #: consume (worst case per instruction, plus one trap entry).
        #: Used to prove no timer interrupt can become deliverable
        #: mid-block.
        self.cycle_bound = cycle_bound
        #: Physical page indices the block's code occupies.
        self.pages = pages
        #: Privilege level the block was translated (and keyed) under;
        #: the compiled tier folds it into the generated code.
        self.privilege = privilege
        # -- compiled tier ------------------------------------------------
        #: Executions through the block interpreter; once this crosses
        #: the hart's compile threshold the block is compiled.
        self.exec_count = 0
        #: ``fn(hart) -> +steps`` (chainable exit) / ``-steps``
        #: (trap, device store, CSR/system last op), or None.
        self.compiled = None
        #: Codegen refused this block; don't retry every execution.
        self.compile_failed = False
        #: Direct chain links: ``next_pc -> (epoch, TranslatedBlock)``.
        self.links: dict = {}
        #: The shared :class:`BlockLayout` this block was translated
        #: into or adopted from (None outside a fork's shared table);
        #: compiling the block publishes its code there.
        self.layout = layout

    def __len__(self) -> int:
        return len(self.ops)


class BlockLayout:
    """The hart-independent part of a translation, shareable via
    :attr:`repro.machine.hart.Hart.shared_layouts`.

    Handlers are closures over one hart, so a :class:`TranslatedBlock`
    cannot cross machines — but the predecoded instruction sequence,
    cycle bound and page set are pure functions of the code bytes.  A
    layout carries those plus the exact ``raw`` bytes it was derived
    from; an adopting hart bulk-reads the same span and only rebinds
    handlers when the bytes still match, so a stale layout (different
    user program at the same address, self-modified code) is rejected
    by comparison instead of by an invalidation protocol.

    The first fork to compile a block from the layout leaves the code
    object and its decode-derived globals (the ``_k<i>``/``_b<i>``
    crypto constants and the ``_il`` terminal instruction) in ``code``
    and ``consts``; the byte compare that admits the layout admits that
    code too, so an adopting sibling rebinds it instead of compiling.

    The table keys layouts by the hart's cost key as well as by
    ``(pc, privilege)``: the cycle bound and the cycle literals folded
    into the code depend on the cost model and the engine's hit/miss
    cycles, so only harts that agree on those share them, whatever
    template they were forked from.
    """

    __slots__ = ("raw", "instructions", "cycle_bound", "pages", "code",
                 "consts")

    def __init__(self, raw: bytes, instructions: tuple, cycle_bound: int,
                 pages: frozenset[int]):
        self.raw = raw
        self.instructions = instructions
        self.cycle_bound = cycle_bound
        self.pages = pages
        self.code = None
        self.consts: dict | None = None


#: Layouts kept per key, newest first: one per program a fork has run
#: at that address (a key with more variants recompiles the oldest).
MAX_LAYOUTS_PER_KEY = 8

#: Keys one shared-layout table may hold (bounded by code footprint in
#: practice; the cap only guards degenerate self-modifying guests).
MAX_SHARED_LAYOUTS = 8192


class LayoutTable(dict):
    """``(pc, privilege, cost key) -> [BlockLayout, ...]``, newest
    first, shared by every fork of a boot cache; counts the compiled
    functions those forks rebound."""

    __slots__ = ("binds",)

    def __init__(self):
        super().__init__()
        self.binds = 0

    def publish(self, key: tuple, layout: BlockLayout) -> None:
        """Put ``layout`` first under ``key``, dropping the oldest
        beyond ``MAX_LAYOUTS_PER_KEY``."""
        layouts = self.setdefault(key, [])
        layouts.insert(0, layout)
        del layouts[MAX_LAYOUTS_PER_KEY:]


class BlockCache:
    """``(entry_pc, privilege) -> TranslatedBlock`` with page index.

    The mapping doubles as the LRU order (Python dicts preserve
    insertion order): a lookup re-inserts the entry, and eviction pops
    the oldest one.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._blocks: dict[tuple[int, int], TranslatedBlock] = {}
        self._by_page: dict[int, set[tuple[int, int]]] = {}
        self.translations = 0
        self.invalidated_blocks = 0
        self.flushes = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        #: Bumped whenever any block leaves the cache; chain links
        #: carry the epoch they were minted under and one integer
        #: compare validates them (QEMU-style lazy unlinking).
        self.epoch = 0
        #: Telemetry sink (``hook(kind, **fields)``) or None; compile
        #: events are emitted by the hart, which owns the timing.
        self.trace_hook = None

    def __len__(self) -> int:
        return len(self._blocks)

    def lookup(self, key: tuple[int, int]) -> TranslatedBlock | None:
        blocks = self._blocks
        block = blocks.pop(key, None)
        if block is None:
            self.misses += 1
            return None
        blocks[key] = block  # refresh LRU position
        self.hits += 1
        hook = self.trace_hook
        if hook is not None:
            hook(BLOCK_HIT, pc=key[0], instructions=len(block.ops))
        return block

    def peek(self, key: tuple[int, int]) -> TranslatedBlock | None:
        """Lookup without statistics or LRU refresh (chain resolution)."""
        return self._blocks.get(key)

    def insert(self, key: tuple[int, int], block: TranslatedBlock) -> None:
        if len(self._blocks) >= self.capacity:
            self._evict_oldest()
        self._blocks[key] = block
        for page in block.pages:
            self._by_page.setdefault(page, set()).add(key)
        self.translations += 1

    def _evict_oldest(self) -> None:
        key, block = next(iter(self._blocks.items()))
        self._remove(key, block)
        self.evictions += 1
        self.epoch += 1
        hook = self.trace_hook
        if hook is not None:
            hook(BLOCK_EVICT, pc=key[0], instructions=len(block.ops))

    def _remove(self, key: tuple[int, int], block: TranslatedBlock) -> None:
        del self._blocks[key]
        for page in block.pages:
            siblings = self._by_page.get(page)
            if siblings is not None:
                siblings.discard(key)
                if not siblings:
                    del self._by_page[page]

    def invalidate_page(self, page_index: int) -> int:
        """Drop every block overlapping ``page_index``; return the count."""
        keys = self._by_page.pop(page_index, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            block = self._blocks.pop(key, None)
            if block is None:
                continue
            dropped += 1
            for page in block.pages:
                if page != page_index:
                    siblings = self._by_page.get(page)
                    if siblings is not None:
                        siblings.discard(key)
        self.invalidated_blocks += dropped
        if dropped:
            self.epoch += 1
        hook = self.trace_hook
        if hook is not None and dropped:
            hook(BLOCK_INVALIDATE, page=page_index, blocks=dropped)
        return dropped

    def flush(self) -> None:
        hook = self.trace_hook
        if hook is not None:
            hook(BLOCK_FLUSH, blocks=len(self._blocks))
        self.invalidated_blocks += len(self._blocks)
        self._blocks.clear()
        self._by_page.clear()
        self.flushes += 1
        self.epoch += 1

    @staticmethod
    def pages_of(entry_pc: int, num_instructions: int) -> frozenset[int]:
        """Page indices covered by ``num_instructions`` words at ``entry_pc``."""
        last_byte = entry_pc + 4 * num_instructions - 1
        return frozenset(range(entry_pc >> PAGE_SHIFT,
                               (last_byte >> PAGE_SHIFT) + 1))
