"""Rebuild a live machine from a :class:`MachineSnapshot`.

The restored machine is bit-identical to the captured one *going
forward*: every architectural and modeled-microarchitectural bit is
reinstated, while derived caches restart cold —

* the new hart gets an empty basic-block translation cache;
* the process-wide decode cache is dropped (it is content-addressed and
  could never serve stale entries, but a restore is the documented
  invalidation point — see ``docs/snapshot.md``);
* self-modifying-code tracking is re-armed: every page that was watched
  at capture time is watched again, and the new hart's code-write hook
  is registered on the restored memory, so translations made after the
  restore are invalidated by guest writes exactly as before.
"""

from __future__ import annotations

from repro.crypto.engine import CryptoEngine
from repro.crypto.keys import KeyFile, KeySelect
from repro.errors import SnapshotError
from repro.isa.decoder import clear_decode_cache
from repro.machine.machine import HaltReason, Machine
from repro.machine.memory import Memory, MemoryRegion, PAGE_SIZE
from repro.machine.timing import CostModel
from repro.snapshot.state import (
    SNAPSHOT_VERSION,
    EngineState,
    MachineSnapshot,
)


def build_engine(state: EngineState, cipher=None) -> CryptoEngine:
    """Reconstruct a crypto-engine (key file + CLB + stats) from state.

    ``cipher`` lets an in-process fork reuse the parent's cipher object
    (they are stateless); otherwise one is rebuilt from the recorded
    spec.
    """
    if cipher is None:
        cipher = _make_cipher(state.cipher)
    key_file = KeyFile()
    for ksel, hi, lo in state.keys:
        register = key_file.registers[KeySelect(ksel)]
        register.hi = hi
        register.lo = lo
    engine = CryptoEngine(
        key_file=key_file,
        clb_entries=state.clb.num_entries,
        cipher=cipher,
        miss_cycles=state.miss_cycles,
        hit_cycles=state.hit_cycles,
    )
    # CLB lines and replacement clock.
    engine.clb._clock = state.clb.clock
    for entry, line in zip(engine.clb.entries, state.clb.entries):
        valid, ksel, tweak, plaintext, ciphertext, last_use = line
        entry.valid = valid
        entry.ksel = KeySelect(ksel)
        entry.tweak = tweak
        entry.plaintext = plaintext
        entry.ciphertext = ciphertext
        entry.last_use = last_use
    for name, value in state.clb.stats.items():
        setattr(engine.clb.stats, name, value)
    # Engine counters.
    stats = state.stats
    engine.stats.encryptions = stats["encryptions"]
    engine.stats.decryptions = stats["decryptions"]
    engine.stats.integrity_faults = stats["integrity_faults"]
    engine.stats.cycles = stats["cycles"]
    engine.stats.per_key = {
        KeySelect(ksel): count for ksel, count in stats["per_key"].items()
    }
    return engine


def _make_cipher(spec: dict):
    from repro.crypto.alternatives import XexXteaCipher, XorDsrCipher
    from repro.crypto.qarma import Qarma64

    name = spec.get("name")
    if name == "qarma":
        return Qarma64(rounds=spec["rounds"], sbox=spec["sbox"])
    if name == "xor":
        return XorDsrCipher()
    if name == "xex":
        return XexXteaCipher()
    raise SnapshotError(f"unknown cipher spec {spec!r}")


def apply_scalar_state(machine: Machine, snapshot: MachineSnapshot) -> None:
    """Reinstate everything except memory pages onto a fresh machine."""
    from repro.machine.hart import PrivilegeLevel

    hart = machine.hart
    state = snapshot.hart
    hart.regs._regs[:] = state.regs
    hart.pc = state.pc
    hart.privilege = PrivilegeLevel(state.privilege)
    hart.cycles = state.cycles
    hart.instret = state.instret
    hart.waiting_for_interrupt = state.waiting_for_interrupt
    hart.csrs._storage = dict(snapshot.csrs)

    devices = snapshot.devices
    machine.clint._mtime = devices.clint_mtime
    machine.clint.mtimecmp = devices.clint_mtimecmp
    machine.syscon.shutdown_requested = devices.shutdown_requested
    machine.syscon.exit_code = devices.exit_code
    machine.uart.output = bytearray(devices.uart_output)
    machine.rng.state = devices.rng_state

    machine.fast_path = snapshot.fast_path
    machine.halt_reason = (
        HaltReason(snapshot.halt_reason)
        if snapshot.halt_reason is not None
        else None
    )


def restore(snapshot: MachineSnapshot) -> Machine:
    """Build a fresh :class:`Machine` in the snapshot's exact state."""
    if snapshot.version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {snapshot.version} not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    if not snapshot.memory.pages_captured:
        raise SnapshotError(
            "snapshot was captured without page contents (fork-style); "
            "it cannot be restored standalone"
        )
    memory = Memory(strict=snapshot.memory.strict)
    memory.regions = [
        MemoryRegion(name, base, size)
        for name, base, size in snapshot.memory.regions
    ]
    for index, data in snapshot.memory.pages.items():
        if len(data) != PAGE_SIZE:
            raise SnapshotError(
                f"page {index:#x} has {len(data)} bytes, "
                f"expected {PAGE_SIZE}"
            )
        memory._pages[index] = bytearray(data)

    engine = build_engine(snapshot.engine)
    machine = Machine(
        memory=memory,
        engine=engine,
        cost_model=CostModel(**snapshot.cost),
    )
    apply_scalar_state(machine, snapshot)
    # Re-arm SMC tracking: the Machine constructor registered the new
    # hart's code-write hook; watching the captured pages again makes
    # guest writes to restored code pages invalidate any block the new
    # hart translates from them.  The translation caches themselves
    # restart cold — the new BlockCache is empty and the process-wide
    # decode cache is dropped here, the documented invalidation point.
    for page_index in snapshot.memory.watched_pages:
        memory.watch_code_page(page_index)
    machine.hart.blocks.flush()
    clear_decode_cache()
    return machine
