"""Boot-once, fork-per-scenario kernel session cache.

Every consumer of the simulator used to pay full kernel boot cost per
scenario: the Table-4 attack suite boots a fresh kernel for each of its
(attack, config) cells even though the post-boot state is identical
within a config.  :class:`BootCache` removes that cost:

1. the first request for a configuration boots a **template** machine —
   the kernel image loaded, user sections mapped as fixed-size regions
   but left empty, master key installed — single-stepped up to the
   first user instruction;
2. every request (including the first) **forks** the template
   copy-on-write (:func:`repro.snapshot.fork`) and writes the
   scenario's user program into the child, which copies only the pages
   it touches.

Kernel boot never reads user memory (the kernel jumps to the fixed user
entry address; ``run_until`` stops *before* the first user fetch), so a
fork-plus-program-write is bit-identical to a fresh boot with that
program going forward.

Templates are keyed by ``(KernelConfig, kernel image hash, master
key)`` — the config alone is not enough, because the kernel image also
depends on compiler internals; hashing the assembled image makes the
cache robust against any out-of-band variation.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.crypto.engine import CryptoEngine
from repro.crypto.keys import KeySelect
from repro.kernel import layout as kmap
from repro.machine.blockcache import LayoutTable
from repro.machine.machine import Machine
from repro.snapshot import fork

#: Fixed span mapped for each user section in a template (64 KiB —
#: comfortably larger than any scenario program; a program that does
#: not fit falls back to an uncached boot).
TEMPLATE_USER_SPAN = 0x0001_0000


def program_digest(program) -> str:
    """Content hash of an assembled program (sections + entry point)."""
    digest = hashlib.sha256()
    for name in sorted(program.sections):
        section = program.sections[name]
        digest.update(name.encode("utf-8"))
        digest.update(section.base.to_bytes(8, "little"))
        digest.update(bytes(section.data))
    digest.update(program.entry.to_bytes(8, "little"))
    return digest.hexdigest()


#: Default template bound: large enough for the whole Figure-5 build
#: matrix plus a couple of ad-hoc configs, small enough that a
#: long-lived fleet worker cannot accumulate booted machines without
#: limit.
DEFAULT_MAX_TEMPLATES = 8


class BootCache:
    """Caches booted template machines; hands out COW forks of them.

    The cache is bounded: at most ``max_templates`` booted machines are
    retained, evicted least-recently-used (every hit refreshes the
    template's recency).  ``max_templates=None`` keeps the old
    unbounded behaviour.
    """

    def __init__(self, max_templates: int | None = DEFAULT_MAX_TEMPLATES):
        if max_templates is not None and max_templates < 1:
            raise ValueError(
                f"need at least one template slot, got {max_templates}"
            )
        self.max_templates = max_templates
        self._templates: OrderedDict[tuple, Machine] = OrderedDict()
        #: Block layouts shared by every fork of every template: each
        #: fork contributes its translations and compiled code and
        #: adopts its siblings' (validated byte-for-byte at adoption),
        #: so a block is predecoded and compiled once per distinct
        #: code, not once per fork or per template.
        self._layouts = LayoutTable()
        #: Template boots performed (the expensive operation saved).
        self.boots = 0
        #: Forks handed out.
        self.forks = 0
        #: Requests that could not be served from a template.
        self.fallbacks = 0
        #: Templates dropped to keep the cache within ``max_templates``.
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._templates)

    def stats(self) -> dict:
        """Counter snapshot (plus current size) for reporting."""
        return {
            "templates": len(self._templates),
            "max_templates": self.max_templates,
            "boots": self.boots,
            "forks": self.forks,
            "fallbacks": self.fallbacks,
            "evictions": self.evictions,
            "shared_code_binds": self._layouts.binds,
        }

    def publish_metrics(self, registry, prefix: str = "bootcache") -> None:
        """Expose the cache counters as gauges on a metrics registry."""
        for name, value in self.stats().items():
            if name == "max_templates":
                continue
            registry.set(f"{prefix}.{name}", value)

    # -- public API --------------------------------------------------------------

    def machine_for(self, image, master_key: int) -> Machine | None:
        """A fresh machine parked at the user entry with ``image`` loaded.

        Returns ``None`` when the image cannot be served from a template
        (user program too large for the fixed spans, or the kernel
        never reached user space) — the caller then boots from reset.
        """
        user = image.user_program
        if not self._coverable(user):
            self.fallbacks += 1
            return None
        key = (
            image.config,
            program_digest(image.kernel_program),
            master_key,
        )
        template = self._templates.get(key)
        if template is None:
            template = self._boot_template(image, master_key)
            if template is None:
                self.fallbacks += 1
                return None
            self._templates[key] = template
            if (
                self.max_templates is not None
                and len(self._templates) > self.max_templates
            ):
                self._templates.popitem(last=False)
                self.evictions += 1
        else:
            self._templates.move_to_end(key)
        child = fork(template)
        child.hart.shared_layouts = self._layouts
        for section in user.sections.values():
            if section.data:
                child.memory.write_bytes(section.base, bytes(section.data))
        # Match what a freshly constructed Machine would use right now
        # (the perf harness flips the default between measurement modes).
        child.fast_path = Machine.DEFAULT_FAST_PATH
        self.forks += 1
        return child

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _coverable(user_program) -> bool:
        """Does every user section fit inside the fixed template spans?"""
        for section in user_program.sections.values():
            if not section.data:
                continue
            base = kmap.USER_BASES.get(section.name)
            if base is None or section.base != base:
                return False
            if len(section.data) > TEMPLATE_USER_SPAN:
                return False
        return True

    def _boot_template(self, image, master_key: int) -> Machine | None:
        """Boot the kernel once with empty user regions mapped."""
        from repro.crypto.alternatives import CIPHER_MISS_CYCLES, make_cipher

        config = image.config
        engine = CryptoEngine(
            clb_entries=config.clb_entries,
            cipher=make_cipher(config.cipher),
            miss_cycles=CIPHER_MISS_CYCLES[config.cipher],
        )
        machine = Machine(engine=engine)
        machine.memory.load_program(image.kernel_program)
        for name, base in kmap.USER_BASES.items():
            machine.memory.map_region(
                f"user{name}", base, TEMPLATE_USER_SPAN
            )
        machine.memory.map_region(
            "stacks", kmap.STACK_REGION, kmap.STACK_REGION_SIZE
        )
        machine.memory.map_region(
            "page_pool", kmap.PAGE_POOL, kmap.PAGE_POOL_SIZE
        )
        engine.key_file.set_key(KeySelect.M, master_key)
        machine.hart.pc = image.kernel_program.entry
        self.boots += 1
        if not machine.run_until(image.user_program.entry, 20_000_000):
            return None
        return machine
