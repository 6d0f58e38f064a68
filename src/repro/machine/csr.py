"""Control and status register file, including RegVault key CSRs.

Privilege rules (standard RISC-V):
* CSR address bits [9:8] encode the minimum privilege level;
* addresses with bits [11:10] == 0b11 are read-only.

RegVault rules (§2.3.1):
* the key CSRs (``krega_lo`` .. ``kregg_hi``) are **write-only**: kernel
  writes install key material, but any read attempt traps, so key bits
  can never be exfiltrated through a CSR read — even by kernel code;
* the master key has no CSR address at all; it is initialized by
  "hardware" at reset (see :class:`repro.machine.hart.Hart`).
"""

from __future__ import annotations

from repro.crypto.keys import KeyFile
from repro.isa import csrdefs
from repro.machine.trap import Cause, Trap
from repro.telemetry.events import KEY_WRITE
from repro.utils.bits import MASK64

#: mstatus bit positions used by this model.
MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7
MSTATUS_MPP_SHIFT = 11
MSTATUS_MPP_MASK = 0b11 << MSTATUS_MPP_SHIFT

#: mie/mip bit for the machine timer interrupt.
MIE_MTIE = 1 << 7
MIP_MTIP = 1 << 7


class CSRFile:
    """CSR storage with privilege and RegVault access enforcement."""

    def __init__(self, key_file: KeyFile):
        self.key_file = key_file
        self._storage: dict[int, int] = {
            csrdefs.MSTATUS: 0,
            csrdefs.MISA: (2 << 62) | (1 << 8) | (1 << 12) | (1 << 20),
            csrdefs.MEDELEG: 0,
            csrdefs.MIDELEG: 0,
            csrdefs.MIE: 0,
            csrdefs.MTVEC: 0,
            csrdefs.MSCRATCH: 0,
            csrdefs.MEPC: 0,
            csrdefs.MCAUSE: 0,
            csrdefs.MTVAL: 0,
            csrdefs.MIP: 0,
            csrdefs.MHARTID: 0,
            csrdefs.SSTATUS: 0,
            csrdefs.SIE: 0,
            csrdefs.STVEC: 0,
            csrdefs.SSCRATCH: 0,
            csrdefs.SEPC: 0,
            csrdefs.SCAUSE: 0,
            csrdefs.STVAL: 0,
            csrdefs.SIP: 0,
            csrdefs.SATP: 0,
        }
        #: Hooked counters, set by the hart (cycle/instret reads).
        self.counter_hooks: dict[int, callable] = {}
        #: Telemetry hook (``hook(kind, **fields)``) fired on key-CSR
        #: writes, or None.  Observes only the write's occurrence —
        #: never the key material.
        self.trace_hook = None

    @staticmethod
    def _min_privilege(csr: int) -> int:
        return (csr >> 8) & 0b11

    @staticmethod
    def _is_read_only(csr: int) -> bool:
        return (csr >> 10) & 0b11 == 0b11

    def _check_privilege(self, csr: int, privilege: int) -> None:
        if privilege < self._min_privilege(csr):
            raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=csr)

    # -- read/write -------------------------------------------------------------

    def read(self, csr: int, privilege: int) -> int:
        self._check_privilege(csr, privilege)
        if csr in csrdefs.KEY_CSR_LOOKUP:
            # Paper: kernels "can write general key registers, but are
            # not allowed to read them".
            raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=csr)
        if csr in self.counter_hooks:
            return self.counter_hooks[csr]() & MASK64
        if csr not in self._storage:
            raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=csr)
        return self._storage[csr]

    def write(self, csr: int, value: int, privilege: int) -> None:
        self._check_privilege(csr, privilege)
        if self._is_read_only(csr):
            raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=csr)
        value &= MASK64
        if csr in csrdefs.KEY_CSR_LOOKUP:
            ksel, half = csrdefs.KEY_CSR_LOOKUP[csr]
            if half:
                self.key_file.set_word(ksel, hi=value)
            else:
                self.key_file.set_word(ksel, lo=value)
            hook = self.trace_hook
            if hook is not None:
                hook(KEY_WRITE, ksel=int(ksel), half="hi" if half else "lo")
            return
        if csr not in self._storage:
            raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=csr)
        self._storage[csr] = value

    # -- raw access for the trap unit (no privilege checks) ---------------------

    def raw_read(self, csr: int) -> int:
        return self._storage[csr]

    def raw_write(self, csr: int, value: int) -> None:
        self._storage[csr] = value & MASK64

    # -- mstatus helpers ---------------------------------------------------------

    @property
    def mstatus(self) -> int:
        return self._storage[csrdefs.MSTATUS]

    @mstatus.setter
    def mstatus(self, value: int) -> None:
        self._storage[csrdefs.MSTATUS] = value & MASK64

    def set_mip_bit(self, bit: int, asserted: bool) -> None:
        if asserted:
            self._storage[csrdefs.MIP] |= bit
        else:
            self._storage[csrdefs.MIP] &= ~bit & MASK64
