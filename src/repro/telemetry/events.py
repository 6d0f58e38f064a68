"""Event vocabulary of the telemetry trace bus.

Every structured event is identified by a dotted *kind* string and
carries a cycle timestamp (the hart's ``cycles`` counter at emission
time) plus a small payload dict whose required fields are listed in
:data:`EVENT_SCHEMA`.  Producers (hart, block cache, CLB, engine, CSR
file, kernel probe, snapshot subsystem) import the kind constants from
here; this module deliberately imports nothing from the rest of the
simulator so it can sit below every layer.

One kind is special: :data:`INSN_RETIRE` is the *raw plane*.  Its
subscribers are called positionally as ``fn(ins, pc)`` with the decoded
:class:`~repro.isa.instructions.Instruction` — no :class:`Event` object
is built — because it fires once per retired instruction and the fuzz
coverage map and the PC profiler cannot afford per-event allocation.
"""

from __future__ import annotations

__all__ = [
    "Event",
    "EVENT_SCHEMA",
    "STRUCTURED_KINDS",
    "INSN_RETIRE",
    "TRAP_ENTER",
    "TRAP_EXIT",
    "CLB_ENC_HIT",
    "CLB_ENC_MISS",
    "CLB_DEC_HIT",
    "CLB_DEC_MISS",
    "CLB_EVICT",
    "CLB_INVALIDATE",
    "BLOCK_COMPILE",
    "BLOCK_HIT",
    "BLOCK_INVALIDATE",
    "BLOCK_FLUSH",
    "BLOCK_EVICT",
    "BLOCK_JIT",
    "CRYPTO_OP",
    "CRYPTO_FAULT",
    "KEY_WRITE",
    "SYSCALL_ENTER",
    "SYSCALL_EXIT",
    "SCHED_SWITCH",
    "SNAPSHOT_CAPTURE",
    "SNAPSHOT_FORK",
    "SPEC_WINDOW",
    "SPEC_LOAD",
    "SPEC_STORE",
    "SPEC_BRANCH",
    "SPEC_CSR_READ",
    "SPEC_CRYPTO",
    "SPEC_SQUASH",
    "SPEC_KINDS",
]

#: Raw plane: one positional ``fn(ins, pc)`` call per retired instruction.
INSN_RETIRE = "insn.retire"

# -- machine ---------------------------------------------------------------
TRAP_ENTER = "trap.enter"
TRAP_EXIT = "trap.exit"
BLOCK_COMPILE = "block.compile"
BLOCK_HIT = "block.hit"
BLOCK_INVALIDATE = "block.invalidate"
BLOCK_FLUSH = "block.flush"
BLOCK_EVICT = "block.evict"
BLOCK_JIT = "block.jit"
KEY_WRITE = "key.csr_write"

# -- crypto engine / CLB ---------------------------------------------------
CLB_ENC_HIT = "clb.enc.hit"
CLB_ENC_MISS = "clb.enc.miss"
CLB_DEC_HIT = "clb.dec.hit"
CLB_DEC_MISS = "clb.dec.miss"
CLB_EVICT = "clb.evict"
CLB_INVALIDATE = "clb.ksel_invalidate"
CRYPTO_OP = "crypto.op"
CRYPTO_FAULT = "crypto.integrity_fault"

# -- kernel (derived machine-side by the kernel probe) ---------------------
SYSCALL_ENTER = "syscall.enter"
SYSCALL_EXIT = "syscall.exit"
SCHED_SWITCH = "sched.switch"

# -- snapshot subsystem ----------------------------------------------------
SNAPSHOT_CAPTURE = "snapshot.capture"
SNAPSHOT_FORK = "snapshot.fork"

# -- speculative front-end (repro.machine.spec) -----------------------------
# Emitted only while a SpeculativeEngine is attached AND a bus hook is
# installed; the default machine never produces them.  ``spec.window``
# opens a transient window (a mispredicted branch/return/indirect);
# every event in between describes one *transient* operation executed
# against shadow state; ``spec.squash`` closes the window and records
# why.  The ``tainted`` flags mark values/addresses derived from a
# configured secret range, a forwarded key CSR or a crypto result —
# the leakage analyzer turns tainted transient events into findings.
SPEC_WINDOW = "spec.window"
SPEC_LOAD = "spec.load"
SPEC_STORE = "spec.store"
SPEC_BRANCH = "spec.branch"
SPEC_CSR_READ = "spec.csr_read"
SPEC_CRYPTO = "spec.crypto"
SPEC_SQUASH = "spec.squash"

#: kind -> required payload field names (the event schema).
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    TRAP_ENTER: ("cause", "interrupt", "pc", "tval"),
    TRAP_EXIT: ("pc", "privilege"),
    BLOCK_COMPILE: ("pc", "instructions", "ns"),
    BLOCK_HIT: ("pc", "instructions"),
    BLOCK_INVALIDATE: ("page", "blocks"),
    BLOCK_FLUSH: ("blocks",),
    BLOCK_EVICT: ("pc", "instructions"),
    BLOCK_JIT: ("pc", "instructions", "ns"),
    KEY_WRITE: ("ksel", "half"),
    CLB_ENC_HIT: ("ksel",),
    CLB_ENC_MISS: ("ksel",),
    CLB_DEC_HIT: ("ksel",),
    CLB_DEC_MISS: ("ksel",),
    CLB_EVICT: ("ksel",),
    CLB_INVALIDATE: ("ksel", "dropped"),
    CRYPTO_OP: ("op", "ksel", "cycles", "hit"),
    CRYPTO_FAULT: ("ksel",),
    SYSCALL_ENTER: ("nr", "name", "tid"),
    SYSCALL_EXIT: ("nr", "name", "tid", "cycles"),
    SCHED_SWITCH: ("from_tid", "to_tid"),
    SNAPSHOT_CAPTURE: ("pages", "include_pages"),
    SNAPSHOT_FORK: ("pages",),
    SPEC_WINDOW: ("window", "pc", "target", "reason"),
    SPEC_LOAD: ("window", "pc", "address", "tainted"),
    SPEC_STORE: ("window", "pc", "address", "tainted"),
    SPEC_BRANCH: ("window", "pc", "taken", "tainted"),
    SPEC_CSR_READ: ("window", "pc", "csr", "key", "forwarded"),
    SPEC_CRYPTO: ("window", "pc", "op", "ksel", "tainted", "hit"),
    SPEC_SQUASH: ("window", "pc", "executed", "cause"),
}

#: Every speculative-plane kind (subscribe to these to observe windows).
SPEC_KINDS: tuple[str, ...] = (
    SPEC_WINDOW,
    SPEC_LOAD,
    SPEC_STORE,
    SPEC_BRANCH,
    SPEC_CSR_READ,
    SPEC_CRYPTO,
    SPEC_SQUASH,
)

#: Every structured (non-raw) kind, in schema order.
STRUCTURED_KINDS: tuple[str, ...] = tuple(EVENT_SCHEMA)


class Event:
    """One cycle-stamped structured event."""

    __slots__ = ("kind", "cycle", "data")

    def __init__(self, kind: str, cycle: int, data: dict):
        self.kind = kind
        self.cycle = cycle
        self.data = data

    def to_json(self) -> dict:
        return {"kind": self.kind, "cycle": self.cycle, **self.data}

    def __repr__(self) -> str:
        return f"Event({self.kind!r}, cycle={self.cycle}, {self.data!r})"
