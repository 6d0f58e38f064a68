"""Capture a live :class:`~repro.machine.machine.Machine` into a snapshot."""

from __future__ import annotations

from repro.errors import SnapshotError
from repro.telemetry.events import SNAPSHOT_CAPTURE
from repro.snapshot.state import (
    CLBState,
    DeviceState,
    EngineState,
    HartState,
    MachineSnapshot,
    MemoryState,
)


def cipher_spec(cipher) -> dict:
    """Identify a cipher object so restore can rebuild an equal one."""
    from repro.crypto.alternatives import XexXteaCipher, XorDsrCipher
    from repro.crypto.qarma import Qarma64

    if isinstance(cipher, Qarma64):
        return {
            "name": "qarma",
            "rounds": cipher.rounds,
            "sbox": cipher.sbox_index,
        }
    if isinstance(cipher, XorDsrCipher):
        return {"name": "xor", "rounds": 1, "sbox": -1}
    if isinstance(cipher, XexXteaCipher):
        return {"name": "xex", "rounds": cipher.rounds, "sbox": -1}
    raise SnapshotError(
        f"cannot snapshot unknown cipher type {type(cipher).__name__}"
    )


def _capture_memory(memory, include_pages: bool) -> MemoryState:
    return MemoryState(
        strict=memory.strict,
        regions=tuple(
            (r.name, r.base, r.size) for r in memory.regions
        ),
        watched_pages=tuple(sorted(memory._watched_pages)),
        pages=(
            {index: bytes(page) for index, page in memory._pages.items()}
            if include_pages
            else {}
        ),
        pages_captured=include_pages,
    )


def _capture_engine(engine) -> EngineState:
    clb = engine.clb
    clb_state = CLBState(
        num_entries=clb.num_entries,
        clock=clb._clock,
        entries=tuple(
            (
                entry.valid,
                int(entry.ksel),
                entry.tweak,
                entry.plaintext,
                entry.ciphertext,
                entry.last_use,
            )
            for entry in clb.entries
        ),
        stats={
            "enc_hits": clb.stats.enc_hits,
            "enc_misses": clb.stats.enc_misses,
            "dec_hits": clb.stats.dec_hits,
            "dec_misses": clb.stats.dec_misses,
            "invalidations": clb.stats.invalidations,
            "evictions": clb.stats.evictions,
        },
    )
    return EngineState(
        cipher=cipher_spec(engine.cipher),
        miss_cycles=engine.miss_cycles,
        hit_cycles=engine.hit_cycles,
        keys=tuple(
            (int(ksel), reg.hi, reg.lo)
            for ksel, reg in sorted(
                engine.key_file.registers.items(), key=lambda kv: int(kv[0])
            )
        ),
        stats={
            "encryptions": engine.stats.encryptions,
            "decryptions": engine.stats.decryptions,
            "integrity_faults": engine.stats.integrity_faults,
            "cycles": engine.stats.cycles,
            "per_key": {
                int(ksel): count
                for ksel, count in engine.stats.per_key.items()
            },
        },
        clb=clb_state,
    )


def capture(machine, include_pages: bool = True) -> MachineSnapshot:
    """Snapshot ``machine`` at the current instruction boundary.

    ``include_pages=False`` skips copying memory page contents — used by
    :func:`repro.snapshot.fork.fork`, which shares pages copy-on-write
    instead.  Such a snapshot cannot be serialized or restored on its
    own.
    """
    hart = machine.hart
    hook = hart.trace_hook
    if hook is not None:
        hook(
            SNAPSHOT_CAPTURE,
            pages=len(machine.memory._pages),
            include_pages=include_pages,
        )
    return MachineSnapshot(
        hart=HartState(
            regs=tuple(hart.regs._regs),
            pc=hart.pc,
            privilege=int(hart.privilege),
            cycles=hart.cycles,
            instret=hart.instret,
            waiting_for_interrupt=hart.waiting_for_interrupt,
        ),
        csrs=dict(hart.csrs._storage),
        memory=_capture_memory(machine.memory, include_pages),
        devices=DeviceState(
            clint_mtime=machine.clint._mtime,
            clint_mtimecmp=machine.clint.mtimecmp,
            shutdown_requested=machine.syscon.shutdown_requested,
            exit_code=machine.syscon.exit_code,
            uart_output=bytes(machine.uart.output),
            rng_state=machine.rng.state,
        ),
        engine=_capture_engine(machine.engine),
        cost=hart.cost.costs(),
        fast_path=machine.fast_path,
        halt_reason=(
            machine.halt_reason.value
            if machine.halt_reason is not None
            else None
        ),
    )
