"""Top-level simulated SoC: hart + memory + devices.

:class:`Machine` is the main entry point for running programs:

>>> from repro.isa import assemble
>>> from repro.machine import Machine
>>> program = assemble('''
... _start:
...     li a0, 7
...     li t0, 0x5555
...     li t1, 0x02010000
...     sw t0, 0(t1)        # SYSCON poweroff
... ''')
>>> machine = Machine.from_program(program)
>>> machine.run()
<HaltReason.SHUTDOWN: 'shutdown'>
>>> machine.hart.regs.by_name('a0')
7
"""

from __future__ import annotations

import enum

from repro.crypto.engine import CryptoEngine
from repro.errors import ReproError
from repro.machine.csr import MIP_MTIP
from repro.machine.devices import Clint, Device, Rng, Syscon, Uart
from repro.machine.hart import Hart
from repro.machine.memory import PAGE_SHIFT, Memory
from repro.machine.timing import CostModel
from repro.machine.trap import Trap


class HaltReason(enum.Enum):
    SHUTDOWN = "shutdown"
    BREAKPOINT = "breakpoint"
    STEP_LIMIT = "step_limit"
    WFI_NO_WAKEUP = "wfi_no_wakeup"
    DOUBLE_TRAP = "double_trap"


class SystemBus:
    """Routes hart memory accesses to devices or RAM.

    Only an access that starts on a device page can reach a device
    (a device must contain the whole access), so any other access goes
    straight to RAM after one set test.
    """

    def __init__(self, memory: Memory, devices: list[Device]):
        self.memory = memory
        self.devices = devices
        self._device_pages = frozenset(
            page
            for device in devices
            for page in range(
                device.base >> PAGE_SHIFT,
                ((device.base + device.size - 1) >> PAGE_SHIFT) + 1,
            )
        )

    def _device_for(self, address: int, length: int) -> Device | None:
        for device in self.devices:
            if device.contains(address, length):
                return device
        return None

    def read_u8(self, address: int) -> int:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 1)
            if device:
                return device.read(address, 1) & 0xFF
        return self.memory.read_u8(address)

    def read_u16(self, address: int) -> int:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 2)
            if device:
                return device.read(address, 2) & 0xFFFF
        return self.memory.read_u16(address)

    def read_u32(self, address: int) -> int:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 4)
            if device:
                return device.read(address, 4) & 0xFFFFFFFF
        return self.memory.read_u32(address)

    def read_u64(self, address: int) -> int:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 8)
            if device:
                return device.read(address, 8)
        return self.memory.read_u64(address)

    # Writes report whether a device (rather than RAM) absorbed them:
    # the hart's block fast path ends a translated block after a device
    # store so machine-loop-visible state (shutdown requests, timer
    # reprogramming) is observed at the same instruction boundary as
    # under single-stepping.

    def write_u8(self, address: int, value: int) -> bool:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 1)
            if device:
                device.write(address, 1, value)
                return True
        self.memory.write_u8(address, value)
        return False

    def write_u16(self, address: int, value: int) -> bool:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 2)
            if device:
                device.write(address, 2, value)
                return True
        self.memory.write_u16(address, value)
        return False

    def write_u32(self, address: int, value: int) -> bool:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 4)
            if device:
                device.write(address, 4, value)
                return True
        self.memory.write_u32(address, value)
        return False

    def write_u64(self, address: int, value: int) -> bool:
        if address >> PAGE_SHIFT in self._device_pages:
            device = self._device_for(address, 8)
            if device:
                device.write(address, 8, value)
                return True
        self.memory.write_u64(address, value)
        return False


#: Default RAM layout for stacks and heaps (kept clear of section bases).
STACK_BASE = 0x0800_0000
STACK_SIZE = 0x0010_0000
HEAP_BASE = 0x0900_0000
HEAP_SIZE = 0x0040_0000


class Machine:
    """A complete simulated SoC."""

    #: Process-wide default for new machines; the perf harness flips it
    #: to measure the single-step baseline through code paths that
    #: construct machines internally (attack suite, benchmarks).
    DEFAULT_FAST_PATH = True

    def __init__(
        self,
        memory: Memory | None = None,
        engine: CryptoEngine | None = None,
        cost_model: CostModel | None = None,
    ):
        self.memory = memory if memory is not None else Memory()
        self.clint = Clint()
        self.syscon = Syscon()
        self.uart = Uart()
        self.rng = Rng()
        self.bus = SystemBus(
            self.memory, [self.clint, self.syscon, self.uart, self.rng]
        )
        self.engine = engine if engine is not None else CryptoEngine()
        self.hart = Hart(self.bus, self.engine, cost_model)
        # mtime mirrors the hart's cycle counter at every instruction
        # boundary — exact even in the middle of a translated block.
        self.clint.attach_cycle_source(lambda: self.hart.cycles)
        self.halt_reason: HaltReason | None = None
        #: Run via the basic-block fast path by default; ``run(fast=...)``
        #: overrides per call (the perf harness measures both).
        self.fast_path = Machine.DEFAULT_FAST_PATH

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_program(
        cls,
        program,
        engine: CryptoEngine | None = None,
        cost_model: CostModel | None = None,
        stack: bool = True,
        heap: bool = False,
    ) -> "Machine":
        """Build a machine with ``program`` loaded and the PC at its entry."""
        machine = cls(engine=engine, cost_model=cost_model)
        machine.memory.load_program(program)
        if stack:
            machine.memory.map_region("stack", STACK_BASE, STACK_SIZE)
            machine.hart.regs.set_by_name("sp", STACK_BASE + STACK_SIZE)
        if heap:
            machine.memory.map_region("heap", HEAP_BASE, HEAP_SIZE)
        machine.hart.pc = program.entry
        return machine

    # -- execution ---------------------------------------------------------------

    def run(
        self, max_steps: int = 10_000_000, fast: bool | None = None
    ) -> HaltReason:
        """Run until shutdown, breakpoint, a stuck WFI or the step limit.

        ``fast`` selects the basic-block fast path (default: the
        machine's ``fast_path`` attribute).  Both modes produce
        identical architectural state and cycle counts; the fast path
        retires whole translated blocks per loop iteration instead of
        one instruction.
        """
        if fast is None:
            fast = self.fast_path
        hart = self.hart
        clint = self.clint
        syscon = self.syscon
        remaining = max_steps
        while remaining > 0:
            if syscon.shutdown_requested:
                self.halt_reason = HaltReason.SHUTDOWN
                return self.halt_reason
            if hart.waiting_for_interrupt:
                if clint.mtimecmp <= (1 << 62):
                    # Fast-forward the idle time to the next timer event.
                    hart.cycles = max(hart.cycles, clint.mtimecmp)
                    hart.waiting_for_interrupt = False
                else:
                    self.halt_reason = HaltReason.WFI_NO_WAKEUP
                    return self.halt_reason
            hart.csrs.set_mip_bit(MIP_MTIP, clint.timer_pending)
            try:
                if fast:
                    remaining -= hart.run_block(remaining, clint.mtimecmp)
                else:
                    hart.step()
                    remaining -= 1
            except Trap as trap:
                # A trap escaping the hart means mtvec was not installed.
                raise ReproError(
                    f"unhandled trap with no trap vector: {trap}"
                ) from trap
        self.halt_reason = HaltReason.STEP_LIMIT
        return self.halt_reason

    def run_until(self, pc: int, max_steps: int = 10_000_000) -> bool:
        """Run until the hart is about to execute ``pc``.

        Returns True when the breakpoint address was reached, False when
        the machine halted or hit the step limit first.  Used by the
        attack framework to pause execution at a victim location.
        """
        # Deliberately single-stepped: the breakpoint comparison must
        # run before every instruction, which a block fast path would
        # skip past.
        hart = self.hart
        clint = self.clint
        for _ in range(max_steps):
            if hart.pc == pc:
                return True
            if self.syscon.shutdown_requested:
                self.halt_reason = HaltReason.SHUTDOWN
                return False
            hart.csrs.set_mip_bit(MIP_MTIP, clint.timer_pending)
            hart.step()
        return False

    # -- convenience -------------------------------------------------------------

    @property
    def exit_code(self) -> int:
        return self.syscon.exit_code

    @property
    def console(self) -> str:
        return self.uart.text

    def read_u64(self, address: int) -> int:
        """Debug/attack view of physical memory (bypasses devices)."""
        return self.memory.read_u64(address)

    def write_u64(self, address: int, value: int) -> None:
        """Debug/attack poke of physical memory (bypasses devices)."""
        self.memory.write_u64(address, value)
