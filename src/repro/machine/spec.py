"""Opt-in speculative front-end: branch prediction + transient windows.

The hart itself is strictly in-order and non-speculative — that is what
makes the three execution tiers provably equivalent.  This module adds
a *model* of speculation on top of it, without ever touching
architectural state:

* a :class:`BranchPredictor` (2-bit saturating BHT, a bounded return
  address stack, a small BTB for indirect jumps) observes every retired
  branch/jal/jalr;
* on a misprediction, a bounded **transient window** executes down the
  wrong path against :class:`_Shadow` register/memory overlays — loads
  read through to committed memory, stores land in the overlay only;
* the window is **squashed** on its first fault, serializing
  instruction, device access or when the window budget is exhausted;
  nothing the window did survives, by construction: the shadow object
  is simply dropped.

Attachment reuses the hart's tracer stack (`Hart._tracer_stack`), which
buys two guarantees for free: the compiled tier stands down while
speculation is attached (wrapped handlers must run), and detach
restores the exact pre-attach dispatch table.  When no engine is
attached the hart is bit-identical to a build without this module —
the neutrality tests prove it on state digests.

Taint tracking rides along in the shadow state: values loaded from a
configured secret range, forwarded key-CSR halves and crypto inputs
are tainted, and taint propagates through ALU ops, loads and stores.
A tainted transient load/store *address* or branch *condition* is a
secret-dependent access sequence — exactly what the leakage analyzer
(:mod:`repro.telemetry.leakage`) flags.

Key CSRs deserve a note: RegVault's key registers are write-only, and
this model extends that to the transient domain by default — a
transient read of a key CSR squashes the window before any data is
forwarded (``forward_key_csrs=False``).  Setting
``forward_key_csrs=True`` models naive hardware that forwards the key
value and only traps at retirement (the Meltdown-style behaviour the
transient attack family measures RegVault against).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DecodeError, MemoryFault
from repro.isa import csrdefs
from repro.isa import instructions as tab
from repro.isa.decoder import decode_cached
from repro.machine.hart import (
    ALU_RI,
    ALU_RI_W,
    ALU_RR,
    ALU_RR_W,
    BRANCH_CONDS,
    Hart,
)
from repro.machine.trap import Trap
from repro.telemetry.events import (
    SPEC_BRANCH,
    SPEC_CRYPTO,
    SPEC_CSR_READ,
    SPEC_LOAD,
    SPEC_SQUASH,
    SPEC_STORE,
    SPEC_WINDOW,
)
from repro.utils.bits import MASK64, sign_extend, to_unsigned64

__all__ = ["SpecConfig", "SpecStats", "BranchPredictor", "SpeculativeEngine"]

#: Registers the RISC-V calling convention designates as link registers;
#: writes through them are treated as calls, ``jalr x0`` through them as
#: returns (the standard RAS push/pop hint discipline).
LINK_REGS = frozenset({1, 5})


@dataclass(frozen=True)
class SpecConfig:
    """Shape of the modeled front-end.  All fields have safe defaults."""

    #: Maximum transient instructions per window.
    window: int = 32
    #: Direct-mapped 2-bit-counter branch history table entries.
    bht_size: int = 256
    #: Return address stack depth (overflow drops the oldest entry).
    ras_depth: int = 8
    #: Branch target buffer entries for indirect jumps.
    btb_size: int = 64
    #: False (RegVault): a transient key-CSR read squashes before any
    #: data is forwarded.  True: model insecure hardware that forwards
    #: the key value transiently and only traps at retirement.
    forward_key_csrs: bool = False
    #: Half-open ``(lo, hi)`` address ranges whose bytes are secret:
    #: loading from them taints the loaded value.
    secret_ranges: tuple = ()


@dataclass
class SpecStats:
    """Counters for one attached engine (never architectural state)."""

    branches: int = 0
    indirects: int = 0
    predicted: int = 0
    mispredictions: int = 0
    ras_underflows: int = 0
    windows: int = 0
    transient_instructions: int = 0
    key_csr_reads: int = 0
    #: squash cause -> count ("window_full", "trap", "serializing",
    #: "device", "key_csr").
    squashes: dict = field(default_factory=dict)

    def count_squash(self, cause: str) -> None:
        self.squashes[cause] = self.squashes.get(cause, 0) + 1

    def to_json(self) -> dict:
        return {
            "branches": self.branches,
            "indirects": self.indirects,
            "predicted": self.predicted,
            "mispredictions": self.mispredictions,
            "ras_underflows": self.ras_underflows,
            "windows": self.windows,
            "transient_instructions": self.transient_instructions,
            "key_csr_reads": self.key_csr_reads,
            "squashes": dict(sorted(self.squashes.items())),
        }


class BranchPredictor:
    """2-bit BHT + bounded RAS + small BTB.

    Counters start weakly not-taken (1); >= 2 predicts taken.  The RAS
    drops its *oldest* entry on overflow (hardware-style circular
    behaviour) and reports underflow as ``None`` — an empty stack makes
    no prediction rather than a wild one.
    """

    _INIT = 1  # weakly not-taken

    def __init__(self, config: SpecConfig):
        self.bht: dict[int, int] = {}
        self.bht_size = max(1, config.bht_size)
        self.ras: list[int] = []
        self.ras_depth = max(1, config.ras_depth)
        self.btb: dict[int, int] = {}
        self.btb_size = max(1, config.btb_size)

    # -- conditional branches ---------------------------------------------

    def predict_branch(self, pc: int) -> bool:
        return self.bht.get((pc >> 2) % self.bht_size, self._INIT) >= 2

    def update_branch(self, pc: int, taken: bool) -> None:
        index = (pc >> 2) % self.bht_size
        counter = self.bht.get(index, self._INIT)
        self.bht[index] = min(3, counter + 1) if taken else max(0, counter - 1)

    # -- return address stack ---------------------------------------------

    def push_return(self, address: int) -> None:
        if len(self.ras) >= self.ras_depth:
            del self.ras[0]
        self.ras.append(address)

    def pop_return(self) -> int | None:
        """Predicted return target, or None on underflow."""
        if not self.ras:
            return None
        return self.ras.pop()

    # -- indirect jumps ----------------------------------------------------

    def predict_indirect(self, pc: int) -> int | None:
        return self.btb.get(pc)

    def train_indirect(self, pc: int, target: int) -> None:
        if pc not in self.btb and len(self.btb) >= self.btb_size:
            self.btb.clear()
        self.btb[pc] = target


class _DeviceAccess(Exception):
    """Transient access hit MMIO: the window must stop (no side effects)."""


class _Shadow:
    """Register/memory overlays plus byte-level taint for one window."""

    __slots__ = ("hart", "secret_ranges", "regs", "reg_taint", "mem",
                 "mem_taint", "_bus", "_mem")

    def __init__(self, hart: Hart, config: SpecConfig):
        self.hart = hart
        self.secret_ranges = config.secret_ranges
        self.regs: dict[int, int] = {}
        self.reg_taint: set[int] = set()
        self.mem: dict[int, int] = {}       # address -> byte
        self.mem_taint: set[int] = set()    # tainted byte addresses
        self._bus = hart.bus
        self._mem = hart._code_mem

    # -- registers ---------------------------------------------------------

    def read_reg(self, index: int) -> tuple[int, bool]:
        if index == 0:
            return 0, False
        if index in self.regs:
            return self.regs[index], index in self.reg_taint
        return self.hart.regs[index], False

    def write_reg(self, index: int, value: int, tainted: bool) -> None:
        if index == 0:
            return
        self.regs[index] = value & MASK64
        if tainted:
            self.reg_taint.add(index)
        else:
            self.reg_taint.discard(index)

    # -- memory ------------------------------------------------------------

    def _secret(self, address: int) -> bool:
        for lo, hi in self.secret_ranges:
            if lo <= address < hi:
                return True
        return False

    def load(self, address: int, size: int) -> tuple[int, bool]:
        """Overlay-through load; raises MemoryFault/_DeviceAccess."""
        bus = self._bus
        if hasattr(bus, "_device_for") and \
                bus._device_for(address, size) is not None:
            raise _DeviceAccess
        value = 0
        tainted = False
        mem = self._mem
        overlay = self.mem
        for offset in range(size):
            byte_address = (address + offset) & MASK64
            if byte_address in overlay:
                byte = overlay[byte_address]
                tainted |= byte_address in self.mem_taint
            else:
                byte = mem.read_u8(byte_address)
                tainted |= self._secret(byte_address)
            value |= byte << (8 * offset)
        return value, tainted

    def store(self, address: int, size: int, value: int,
              tainted: bool) -> None:
        """Overlay-only store: committed memory is never written."""
        bus = self._bus
        if hasattr(bus, "_device_for") and \
                bus._device_for(address, size) is not None:
            raise _DeviceAccess
        overlay = self.mem
        taint = self.mem_taint
        for offset in range(size):
            byte_address = (address + offset) & MASK64
            overlay[byte_address] = (value >> (8 * offset)) & 0xFF
            if tainted:
                taint.add(byte_address)
            else:
                taint.discard(byte_address)


#: Instructions that end a transient window without executing: they can
#: move privilege, pending interrupts or the idle flag, none of which
#: have shadow equivalents worth modeling.
_SERIALIZING = frozenset({"ecall", "ebreak", "mret", "sret", "wfi"})


class SpeculativeEngine:
    """The attachable speculative front-end for one hart.

    ``attach_to``/``detach`` follow the tracer-stack LIFO discipline:
    an engine attached after an ``insn.retire`` tracer
    (``Hart.attach_tracer``) must be detached before it.
    ``trace_hook`` (``hook(kind, **fields)``, usually
    ``TraceBus.make_hook``) is optional — stats are always counted,
    events only emitted while a hook is installed.
    """

    def __init__(self, config: SpecConfig | None = None):
        self.config = config or SpecConfig()
        self.predictor = BranchPredictor(self.config)
        self.stats = SpecStats()
        self.trace_hook = None
        self.hart: Hart | None = None
        #: The dispatch table this engine saved on the tracer stack.
        self._frame: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    def attach_to(self, hart: Hart) -> "SpeculativeEngine":
        if self.hart is not None:
            raise RuntimeError("speculative engine is already attached")
        if hart.spec is not None:
            raise RuntimeError("hart already has a speculative engine")
        self._frame = hart._dispatch
        hart._tracer_stack.append(self._frame)
        dispatch = dict(hart._dispatch)
        for mnemonic in BRANCH_CONDS:
            dispatch[mnemonic] = self._wrap(
                dispatch[mnemonic], self.on_branch
            )
        dispatch["jal"] = self._wrap(dispatch["jal"], self.on_jal)
        dispatch["jalr"] = self._wrap(dispatch["jalr"], self.on_jalr)
        hart._dispatch = dispatch
        hart.spec = self
        self.hart = hart
        # Translated blocks capture handler references: drop them so
        # the block interpreter picks up the wrapped control-flow
        # handlers.
        hart.blocks.drop_translations()
        return self

    def detach(self) -> None:
        hart = self.hart
        if hart is None:
            return
        if not hart._tracer_stack or hart._tracer_stack[-1] is not self._frame:
            raise RuntimeError(
                "speculation must be detached LIFO with respect to tracers"
            )
        hart._dispatch = hart._tracer_stack.pop()
        hart.spec = None
        self.hart = None
        self._frame = None
        hart.blocks.drop_translations()

    @staticmethod
    def _wrap(handler, observe):
        def wrapped(ins, pc, _handler=handler, _observe=observe):
            next_pc = _handler(ins, pc)
            _observe(ins, pc, next_pc)
            return next_pc

        return wrapped

    def _emit(self, kind: str, **fields) -> None:
        hook = self.trace_hook
        if hook is not None:
            hook(kind, **fields)

    # -- retirement observers ----------------------------------------------
    #
    # These run *after* the architectural handler, which for this model
    # is equivalent to predicting at fetch: branches write no registers,
    # and a jalr's link write belongs to both paths.

    def on_branch(self, ins, pc: int, next_pc) -> None:
        taken = next_pc is not None
        predictor = self.predictor
        predicted = predictor.predict_branch(pc)
        predictor.update_branch(pc, taken)
        self.stats.branches += 1
        if predicted == taken:
            self.stats.predicted += 1
            return
        self.stats.mispredictions += 1
        if predicted:
            wrong = (pc + ins.imm) & MASK64
        else:
            wrong = (pc + 4) & MASK64
        self._window(pc, wrong, "branch")

    def on_jal(self, ins, pc: int, next_pc) -> None:
        # Direct target: always predicted correctly; calls push the RAS.
        if ins.rd in LINK_REGS:
            self.predictor.push_return((pc + 4) & MASK64)

    def on_jalr(self, ins, pc: int, next_pc) -> None:
        predictor = self.predictor
        actual = next_pc
        is_return = ins.rd == 0 and ins.rs1 in LINK_REGS
        self.stats.indirects += 1
        if is_return:
            predicted = predictor.pop_return()
            if predicted is None:
                self.stats.ras_underflows += 1
                return  # an empty RAS makes no prediction
            kind = "return"
        else:
            if ins.rd in LINK_REGS:
                predictor.push_return((pc + 4) & MASK64)
            predicted = predictor.predict_indirect(pc)
            predictor.train_indirect(pc, actual)
            if predicted is None:
                return  # cold BTB: no prediction, no window
            kind = "indirect"
        if predicted == actual:
            self.stats.predicted += 1
            return
        self.stats.mispredictions += 1
        self._window(pc, predicted, kind)

    # -- the transient window ----------------------------------------------

    def _window(self, branch_pc: int, start_pc: int, kind: str) -> None:
        stats = self.stats
        window_id = stats.windows
        stats.windows += 1
        self._emit(
            SPEC_WINDOW, window=window_id, pc=branch_pc,
            target=start_pc, reason=kind,
        )
        hart = self.hart
        shadow = _Shadow(hart, self.config)
        mem = hart._code_mem
        pc = start_pc
        executed = 0
        cause = "window_full"
        for _ in range(self.config.window):
            if pc % 4:
                cause = "trap"
                break
            try:
                word = mem.read_u32(pc)
            except MemoryFault:
                cause = "trap"
                break
            try:
                ins = decode_cached(word)
            except DecodeError:
                cause = "trap"
                break
            try:
                next_pc, stop = self._texec(shadow, ins, pc, window_id)
            except _DeviceAccess:
                executed += 1
                cause = "device"
                break
            except MemoryFault:
                cause = "trap"
                break
            if stop is not None:
                cause = stop
                break
            executed += 1
            pc = (pc + 4) & MASK64 if next_pc is None else next_pc
        stats.transient_instructions += executed
        stats.count_squash(cause)
        self._emit(
            SPEC_SQUASH, window=window_id, pc=branch_pc,
            executed=executed, cause=cause,
        )
        # The shadow object is dropped here: nothing a transient
        # instruction wrote can reach architectural state.

    def _texec(self, shadow: _Shadow, ins, pc: int,
               window_id: int):
        """One transient instruction; returns ``(next_pc, stop_cause)``."""
        mnemonic = ins.mnemonic

        op = ALU_RI.get(mnemonic)
        if op is not None:
            a, ta = shadow.read_reg(ins.rs1)
            shadow.write_reg(ins.rd, op(a, ins.imm) & MASK64, ta)
            return None, None
        op = ALU_RR.get(mnemonic)
        if op is not None:
            a, ta = shadow.read_reg(ins.rs1)
            b, tb = shadow.read_reg(ins.rs2)
            shadow.write_reg(ins.rd, op(a, b) & MASK64, ta or tb)
            return None, None
        op = ALU_RI_W.get(mnemonic)
        if op is not None:
            a, ta = shadow.read_reg(ins.rs1)
            result = to_unsigned64(sign_extend(op(a, ins.imm) & MASK64, 32))
            shadow.write_reg(ins.rd, result, ta)
            return None, None
        op = ALU_RR_W.get(mnemonic)
        if op is not None:
            a, ta = shadow.read_reg(ins.rs1)
            b, tb = shadow.read_reg(ins.rs2)
            result = to_unsigned64(sign_extend(op(a, b) & MASK64, 32))
            shadow.write_reg(ins.rd, result, ta or tb)
            return None, None

        if mnemonic in tab.LOADS:
            base, tb = shadow.read_reg(ins.rs1)
            address = (base + ins.imm) & MASK64
            self._emit(
                SPEC_LOAD, window=window_id, pc=pc,
                address=address, tainted=tb,
            )
            size = tab.ACCESS_SIZE[mnemonic]
            value, tv = shadow.load(address, size)
            if not mnemonic.endswith("u") and mnemonic != "ld":
                value = to_unsigned64(sign_extend(value, size * 8))
            shadow.write_reg(ins.rd, value, tb or tv)
            return None, None
        if mnemonic in tab.STORES:
            base, tb = shadow.read_reg(ins.rs1)
            address = (base + ins.imm) & MASK64
            value, tv = shadow.read_reg(ins.rs2)
            self._emit(
                SPEC_STORE, window=window_id, pc=pc,
                address=address, tainted=tb,
            )
            shadow.store(address, tab.ACCESS_SIZE[mnemonic], value, tv)
            return None, None

        cond = BRANCH_CONDS.get(mnemonic)
        if cond is not None:
            a, ta = shadow.read_reg(ins.rs1)
            b, tb = shadow.read_reg(ins.rs2)
            taken = bool(cond(a, b))
            self._emit(
                SPEC_BRANCH, window=window_id, pc=pc,
                taken=taken, tainted=ta or tb,
            )
            return ((pc + ins.imm) & MASK64) if taken else None, None
        if mnemonic == "jal":
            shadow.write_reg(ins.rd, (pc + 4) & MASK64, False)
            return (pc + ins.imm) & MASK64, None
        if mnemonic == "jalr":
            base, tb = shadow.read_reg(ins.rs1)
            target = (base + ins.imm) & MASK64 & ~1
            self._emit(
                SPEC_BRANCH, window=window_id, pc=pc,
                taken=True, tainted=tb,
            )
            shadow.write_reg(ins.rd, (pc + 4) & MASK64, False)
            return target, None
        if mnemonic == "lui":
            shadow.write_reg(ins.rd, to_unsigned64(ins.imm), False)
            return None, None
        if mnemonic == "auipc":
            shadow.write_reg(ins.rd, (pc + ins.imm) & MASK64, False)
            return None, None
        if mnemonic == "fence":
            return None, None
        if mnemonic in _SERIALIZING:
            return None, "serializing"
        if mnemonic in tab.CSR_OPS:
            return self._texec_csr(shadow, ins, pc, window_id)
        if ins.ksel is not None and ins.byte_range is not None:
            return self._texec_crypto(shadow, ins, pc, window_id)
        # Decodable but unmodeled: treat as a transient illegal op.
        return None, "trap"

    def _texec_csr(self, shadow: _Shadow, ins, pc: int, window_id: int):
        mnemonic = ins.mnemonic
        write_op = mnemonic in ("csrrw", "csrrwi")
        writes = write_op or ins.rs1 != 0
        if writes:
            # CSR writes are serializing: the window stops *before*
            # applying anything (keys, mtvec, mie must never move).
            return None, "serializing"
        hart = self.hart
        if ins.csr in csrdefs.KEY_CSR_LOOKUP:
            self.stats.key_csr_reads += 1
            forward = self.config.forward_key_csrs
            self._emit(
                SPEC_CSR_READ, window=window_id, pc=pc, csr=ins.csr,
                key=True, forwarded=forward,
            )
            if not forward:
                # RegVault hardware gates the read before any forward:
                # the window squashes and the key never leaves the file.
                return None, "key_csr"
            ksel, half = csrdefs.KEY_CSR_LOOKUP[ins.csr]
            key128 = hart.engine.key_file.key(ksel)
            value = (key128 >> 64) if half else key128 & MASK64
            shadow.write_reg(ins.rd, value & MASK64, True)
            return None, None
        try:
            value = hart.csrs.read(ins.csr, hart.privilege)
        except Trap:
            return None, "trap"
        shadow.write_reg(ins.rd, value, False)
        return None, None

    def _texec_crypto(self, shadow: _Shadow, ins, pc: int, window_id: int):
        hart = self.hart
        if int(hart.privilege) == hart.engine.USER:
            return None, "trap"
        engine = hart.engine
        value, tv = shadow.read_reg(ins.rs1)
        tweak, tt = shadow.read_reg(ins.rs2)
        is_encrypt = ins.mnemonic[2] == "e"
        # Probe the CLB without mutating stats or LRU metadata: the
        # engine's lookup_* helpers are architectural, this is not.
        hit = False
        if is_encrypt:
            plaintext = ins.byte_range.select(value)
            for entry in engine.clb.entries:
                if (entry.valid and entry.ksel == ins.ksel
                        and entry.tweak == tweak
                        and entry.plaintext == plaintext):
                    hit = True
                    break
            key128 = engine.key_file.key(ins.ksel)
            result = engine.cipher.encrypt(plaintext, tweak, key128)
        else:
            for entry in engine.clb.entries:
                if (entry.valid and entry.ksel == ins.ksel
                        and entry.tweak == tweak
                        and entry.ciphertext == value):
                    hit = True
                    break
            key128 = engine.key_file.key(ins.ksel)
            result = engine.cipher.decrypt(value, tweak, key128)
        self._emit(
            SPEC_CRYPTO, window=window_id, pc=pc,
            op="enc" if is_encrypt else "dec", ksel=int(ins.ksel),
            tainted=tv or tt, hit=hit,
        )
        if not is_encrypt and result & ~ins.byte_range.mask & MASK64:
            return None, "trap"  # transient integrity fault squashes
        shadow.write_reg(ins.rd, result & MASK64, tv or tt)
        return None, None
