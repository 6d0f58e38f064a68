"""The simulated RV64IM hart with the RegVault extension.

Models an in-order, single-issue core (the paper's Rocket baseline):
fetch, decode (memoized), execute, trap.  The RegVault crypto-engine is
invoked by the ``cre``/``crd`` instructions; its privilege gate and
integrity faults surface as architectural traps.
"""

from __future__ import annotations

import enum
import time

from repro.crypto.engine import CryptoEngine
from repro.errors import (
    DecodeError,
    IntegrityViolation,
    MemoryFault,
    PrivilegeError,
)
from repro.isa import csrdefs
from repro.isa import instructions as tab
from repro.isa.decoder import BLOCK_TERMINATORS, decode_cached, predecode
from repro.isa.instructions import Instruction
from repro.machine.blockcache import (
    MAX_BLOCK_INSTRUCTIONS,
    MAX_SHARED_LAYOUTS,
    BlockCache,
    BlockLayout,
    TranslatedBlock,
)
from repro.machine.blockcompile import bind_code, compile_block
from repro.machine.csr import (
    CSRFile,
    MIE_MTIE,
    MIP_MTIP,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MSTATUS_MPP_MASK,
    MSTATUS_MPP_SHIFT,
)
from repro.machine.regfile import RegisterFile
from repro.machine.timing import CostModel
from repro.machine.trap import Cause, Trap, mcause_value
from repro.telemetry.events import (
    BLOCK_COMPILE,
    INSN_RETIRE,
    TRAP_ENTER,
    TRAP_EXIT,
)
from repro.utils.bits import (
    MASK64,
    sign_extend,
    to_signed64,
    to_unsigned64,
)


class PrivilegeLevel(enum.IntEnum):
    USER = 0
    SUPERVISOR = 1
    MACHINE = 3


class Hart:
    """One hardware thread.

    Parameters
    ----------
    bus:
        Object with ``read_u8/16/32/64`` and ``write_u8/16/32/64``
        methods (a :class:`repro.machine.machine.SystemBus` or a bare
        :class:`repro.machine.memory.Memory`).
    engine:
        The RegVault crypto-engine (key registers + CLB + QARMA).
    cost_model:
        Cycle accounting; see :mod:`repro.machine.timing`.
    """

    def __init__(
        self,
        bus,
        engine: CryptoEngine | None = None,
        cost_model: CostModel | None = None,
    ):
        self.bus = bus
        self.engine = engine if engine is not None else CryptoEngine()
        self.cost = cost_model or CostModel()
        self.regs = RegisterFile()
        self.csrs = CSRFile(self.engine.key_file)
        self.pc = 0
        self.privilege = PrivilegeLevel.MACHINE
        self.cycles = 0
        self.instret = 0
        self.waiting_for_interrupt = False
        self.csrs.counter_hooks[csrdefs.CYCLE] = lambda: self.cycles
        self.csrs.counter_hooks[csrdefs.TIME] = lambda: self.cycles
        self.csrs.counter_hooks[csrdefs.INSTRET] = lambda: self.instret
        self.csrs.counter_hooks[csrdefs.MCYCLE] = lambda: self.cycles
        self.csrs.counter_hooks[csrdefs.MINSTRET] = lambda: self.instret
        self._dispatch = self._build_dispatch()
        #: Dispatch tables saved by the installed dispatch wrappers (the
        #: ``insn.retire`` plane and speculation).  The compiled tier
        #: stands down while it is non-empty.
        self._tracer_stack: list[dict] = []
        #: Telemetry hook (``hook(kind, **fields)``) for trap entry and
        #: exit and for snapshots taken of this machine, or None.
        self.trace_hook = None
        #: Attached :class:`repro.machine.spec.SpeculativeEngine`, or
        #: None (the default: no speculation is ever modeled).
        self.spec = None
        # -- fast path: basic-block translation cache ----------------------
        self.blocks = BlockCache()
        #: :class:`repro.machine.blockcache.LayoutTable` shared by every
        #: fork of a boot cache (installed by the cache, None otherwise).
        #: Layouts, and the compiled code they carry, are validated
        #: byte-for-byte against live memory before adoption, so the
        #: table needs no invalidation and tolerates siblings with
        #: divergent memory.
        self.shared_layouts = None
        #: What a layout's cycle bound and code fold in besides its
        #: bytes and privilege; part of its key in ``shared_layouts``.
        self._cost_key = (
            *self.cost.costs().values(),
            self.engine.hit_cycles,
            self.engine.miss_cycles,
        )
        #: Translations answered from ``shared_layouts``.
        self.layout_hits = 0
        # -- compiled tier: specialized functions + direct chaining --------
        #: Master switch for the third execution tier (the differential
        #: fuzzer pins it off on one DUT to compare tiers directly).
        self.compile_enabled = True
        #: Block-interpreter executions before a block is compiled.
        #: ``compile()`` costs a few hundred microseconds per block, so
        #: only blocks with demonstrated reuse (loops, hot call targets)
        #: are worth it; boot-style code that runs a handful of times
        #: stays on the block interpreter.
        self.compile_threshold = 16
        #: Blocks compiled so far (mirrored into telemetry metrics).
        self.compiled_blocks = 0
        #: Set mid-block by device stores and code-page writes; forces a
        #: return to the machine loop before the next predecoded op.
        self._block_break = False
        # Translation fetches bypass the device bus (code never lives in
        # MMIO, and device reads can have side effects); execution-time
        # loads and stores still go through ``self.bus`` unchanged.
        self._code_mem = getattr(bus, "memory", bus)
        if hasattr(self._code_mem, "add_code_write_hook"):
            self._code_mem.add_code_write_hook(self._on_code_write)

    # ------------------------------------------------------------------ step --

    def step(self) -> None:
        """Execute one instruction (or take one pending interrupt)."""
        if self._take_pending_interrupt():
            return
        pc = self.pc
        try:
            word = self._fetch(pc)
            try:
                ins = decode_cached(word)
            except DecodeError:
                raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=word) from None
            handler = self._dispatch.get(ins.mnemonic)
            if handler is None:
                raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=word)
            next_pc = handler(ins, pc)
            self.pc = (pc + 4) if next_pc is None else next_pc
            self.instret += 1
        except Trap as trap:
            self._enter_trap(trap, pc)

    # ------------------------------------------------------------ fast path --

    def run_block(self, limit: int, deadline: int = MASK64) -> int:
        """Execute up to one translated basic block; return steps consumed.

        Equivalence contract with a :meth:`step` loop (the machine loop
        refreshes MIP between calls, exactly as it does between steps):

        * the same handler closures run, in the same order, so register,
          memory, CSR and cycle effects are bit-identical;
        * a pending interrupt is taken at the block boundary, and the
          ``deadline`` guard falls back to single-stepping whenever the
          machine timer could become deliverable mid-block;
        * device stores and writes to translated code pages end the
          block before the next predecoded instruction.

        ``limit`` bounds the instructions this call may retire (the
        machine loop's remaining step budget).
        """
        if self._take_pending_interrupt():
            return 1
        pc = self.pc
        key = (pc, self.privilege)
        block = self.blocks.lookup(key)
        if block is None:
            block = self._translate(pc, key)
        if block is None or len(block.ops) > limit:
            self.step()
            return 1
        if (
            self.cycles + block.cycle_bound >= deadline
            and self._timer_deliverable()
        ):
            # The timer could fire mid-block: single-step so interrupt
            # delivery lands on the same instruction as the slow path.
            self.step()
            return 1
        if self.compile_enabled and not self._tracer_stack:
            fn = block.compiled
            if fn is None and not block.compile_failed:
                block.exec_count += 1
                if block.exec_count >= self.compile_threshold:
                    fn = compile_block(self, block)
            if fn is not None:
                return self._run_compiled(block, fn, limit, deadline)
        # Body ops run with ``pc`` in a local and ``instret`` batched:
        # no instruction in the body can observe either (CSR reads
        # terminate blocks, so they only appear as the final op), and
        # every exit below syncs both before returning.  ``pc`` always
        # names the instruction being executed — it is only advanced
        # after a handler returns — so the trap paths see the exact
        # faulting address.
        executed = 0
        self._block_break = False
        try:
            for handler, ins in block.body:
                next_pc = handler(ins, pc)
                pc = (pc + 4) if next_pc is None else next_pc
                executed += 1
                if self._block_break:
                    self.pc = pc
                    self.instret += executed
                    return executed
        except Trap as trap:
            self.instret += executed
            self._enter_trap(trap, pc)
            return executed + 1
        # The final op may read the counter CSRs: sync the
        # architectural view first.
        self.pc = pc
        self.instret += executed
        handler, ins = block.last
        try:
            next_pc = handler(ins, pc)
        except Trap as trap:
            self._enter_trap(trap, pc)
            return executed + 1
        self.pc = (pc + 4) if next_pc is None else next_pc
        self.instret += 1
        return executed + 1

    def _run_compiled(self, block, fn, limit: int, deadline: int) -> int:
        """Run compiled blocks back to back (tier 3, direct chaining).

        Each iteration reproduces one machine-loop round exactly:

        * a negative return from ``fn`` (trap, device store, code-page
          write, CSR/system op) is never chained — those exits can move
          mtimecmp, keys, privilege or the shutdown flag;
        * between chained blocks the machine loop's MIP refresh is
          replayed set-only: mtime *is* the live cycle counter and
          mtimecmp cannot change mid-chain (device stores break out),
          so timer pendency is monotone within a chain;
        * the next block must fit the remaining step budget and pass
          the same cycle-bound deadline guard as ``run_block``, and is
          only entered through an epoch-validated direct link.
        """
        blocks = self.blocks
        total = 0
        while True:
            self._block_break = False
            executed = fn(self)
            if executed < 0:
                return total - executed
            total += executed
            if self._block_break or total >= limit:
                return total
            if self.cycles >= deadline:
                self.csrs.set_mip_bit(MIP_MTIP, True)
            if self._take_pending_interrupt():
                return total + 1
            next_pc = self.pc
            epoch = blocks.epoch
            entry = block.links.get(next_pc)
            if entry is not None and entry[0] == epoch:
                nxt = entry[1]
            else:
                nxt = blocks.peek((next_pc, block.privilege))
                if nxt is not None:
                    links = block.links
                    if len(links) >= self._MAX_CHAIN_LINKS:
                        links.clear()
                    links[next_pc] = (epoch, nxt)
            if (
                nxt is None
                or nxt.compiled is None
                or len(nxt.ops) > limit - total
                or (
                    self.cycles + nxt.cycle_bound >= deadline
                    and self._timer_deliverable()
                )
            ):
                return total
            block = nxt
            fn = nxt.compiled

    #: Direct links cached per block before the table is reset (guards
    #: indirect-jump-heavy blocks from unbounded link growth).
    _MAX_CHAIN_LINKS = 8

    #: Words fetched per translation round; most blocks fit in one.
    _FETCH_CHUNK = 8

    def _adopt_layout(self, pc: int, key: tuple[int, int], mem):
        """Rebind a shared :class:`BlockLayout` into a local block.

        Tries the layouts under this pc, privilege and cost key newest
        first, validating each byte-for-byte against live memory —
        adoption is only a win because the bulk read + compare is far
        cheaper than fetch/predecode/cost-bounding the sequence, and
        the comparison makes sharing unconditionally safe: a sibling
        fork's layout for code this machine has since overwritten (or
        never had) simply fails to match and translation proceeds
        normally.  The same compare admits the code a sibling compiled
        from the layout, so the fork skips compilation as well.
        """
        shared = self.shared_layouts
        if shared is None:
            return None
        for layout in shared.get(key + (self._cost_key,), ()):
            try:
                raw = bytes(mem.read_bytes(pc, len(layout.raw)))
            except (MemoryFault, AttributeError):
                continue
            if raw == layout.raw:
                break
        else:
            return None
        dispatch = self._dispatch
        ops = tuple(
            (dispatch[ins.mnemonic], ins) for ins in layout.instructions
        )
        block = TranslatedBlock(
            pc, ops, layout.cycle_bound, layout.pages, int(key[1]), layout
        )
        self.blocks.insert(key, block)
        if hasattr(mem, "watch_code_page"):
            for page in layout.pages:
                mem.watch_code_page(page)
        self.layout_hits += 1
        if layout.code is not None:
            block.compiled = bind_code(self, block, layout)
            shared.binds += 1
        return block

    def _translate(self, pc: int, key: tuple[int, int]) -> TranslatedBlock | None:
        """Predecode the straight-line sequence starting at ``pc``."""
        if pc % 4:
            return None
        trace = self.blocks.trace_hook
        started_ns = time.perf_counter_ns() if trace is not None else 0
        mem = self._code_mem
        block = self._adopt_layout(pc, key, mem)
        if block is not None:
            return block
        address = pc
        instructions: list = []
        while len(instructions) < MAX_BLOCK_INSTRUCTIONS:
            try:
                raw = mem.read_bytes(address, 4 * self._FETCH_CHUNK)
                words = [
                    int.from_bytes(raw[i:i + 4], "little")
                    for i in range(0, len(raw), 4)
                ]
            except (MemoryFault, AttributeError):
                # Chunk crosses unmapped memory (or the bus has no bulk
                # read): retry word-by-word up to the first fault.
                words = []
                for _ in range(self._FETCH_CHUNK):
                    try:
                        words.append(mem.read_u32(address + 4 * len(words)))
                    except MemoryFault:
                        break
                if not words:
                    break
            chunk_ins = predecode(words)
            instructions.extend(chunk_ins)
            if len(chunk_ins) < len(words) or (
                chunk_ins and chunk_ins[-1].mnemonic in BLOCK_TERMINATORS
            ):
                break  # hit a terminator or an undecodable word
            address += 4 * len(words)
        del instructions[MAX_BLOCK_INSTRUCTIONS:]
        ops = []
        for ins in instructions:
            handler = self._dispatch.get(ins.mnemonic)
            if handler is None:
                break
            ops.append((handler, ins))
        if not ops:
            return None
        bound = self.worst_case_cycles(ins for _, ins in ops)
        pages = BlockCache.pages_of(pc, len(ops))
        block = TranslatedBlock(pc, tuple(ops), bound, pages, int(key[1]))
        self.blocks.insert(key, block)
        if hasattr(mem, "watch_code_page"):
            for page in pages:
                mem.watch_code_page(page)
        shared = self.shared_layouts
        if shared is not None and len(shared) < MAX_SHARED_LAYOUTS:
            try:
                raw = bytes(mem.read_bytes(pc, 4 * len(ops)))
            except (MemoryFault, AttributeError):
                raw = None
            if raw is not None:
                block.layout = BlockLayout(
                    raw, tuple(ins for _, ins in ops), bound, pages
                )
                shared.publish(key + (self._cost_key,), block.layout)
        if trace is not None:
            trace(
                BLOCK_COMPILE,
                pc=pc,
                instructions=len(ops),
                ns=time.perf_counter_ns() - started_ns,
            )
        return block

    def worst_case_cycles(self, instructions) -> int:
        """Upper bound on the cycles one pass over ``instructions`` can
        consume: each instruction's worst case plus one trap entry (a
        mid-block trap charges it).  This is the ``cycle_bound`` the
        timer-deadline guard in :meth:`run_block` and
        :meth:`_run_compiled` relies on."""
        cost = self.cost
        crypto_worst = max(self.engine.miss_cycles, self.engine.hit_cycles)
        bound = cost.trap_entry
        for ins in instructions:
            if cost.classify(ins.mnemonic) == "crypto":
                bound += crypto_worst
            else:
                bound += cost.worst_case(ins.mnemonic)
        return bound

    def _on_code_write(self, page_index: int) -> None:
        self.blocks.invalidate_page(page_index)
        self._block_break = True

    def _timer_deliverable(self) -> bool:
        """Could a machine-timer interrupt be taken if MTIP became set?"""
        if not self.csrs.raw_read(csrdefs.MIE) & MIE_MTIE:
            return False
        return (
            self.privilege < PrivilegeLevel.MACHINE
            or bool(self.csrs.mstatus & MSTATUS_MIE)
        )

    def _fetch(self, pc: int) -> int:
        if pc % 4:
            raise Trap(Cause.INSTRUCTION_MISALIGNED, tval=pc)
        try:
            return self.bus.read_u32(pc)
        except MemoryFault:
            raise Trap(Cause.INSTRUCTION_ACCESS_FAULT, tval=pc) from None

    # ------------------------------------------------------------- interrupts --

    def _take_pending_interrupt(self) -> bool:
        mip = self.csrs.raw_read(csrdefs.MIP)
        mie = self.csrs.raw_read(csrdefs.MIE)
        pending = mip & mie
        if not pending & MIP_MTIP:
            return False
        enabled = (
            self.privilege < PrivilegeLevel.MACHINE
            or self.csrs.mstatus & MSTATUS_MIE
        )
        if not enabled:
            return False
        self.waiting_for_interrupt = False
        self._enter_trap(
            Trap(Cause.MACHINE_TIMER_INTERRUPT, interrupt=True), self.pc
        )
        return True

    # ------------------------------------------------------------------ traps --

    def _enter_trap(self, trap: Trap, pc: int) -> None:
        """Trap into machine mode (this model does not delegate)."""
        hook = self.trace_hook
        if hook is not None:
            # Before the trap is taken: observers see pre-entry state.
            hook(
                TRAP_ENTER,
                cause=int(trap.cause),
                interrupt=bool(trap.interrupt),
                pc=pc,
                tval=trap.tval,
            )
        self.csrs.raw_write(csrdefs.MEPC, pc)
        self.csrs.raw_write(
            csrdefs.MCAUSE, mcause_value(trap.cause, trap.interrupt)
        )
        self.csrs.raw_write(csrdefs.MTVAL, trap.tval)
        mstatus = self.csrs.mstatus
        mpie = 1 if mstatus & MSTATUS_MIE else 0
        mstatus &= ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK) & MASK64
        mstatus |= mpie << 7
        mstatus |= int(self.privilege) << MSTATUS_MPP_SHIFT
        self.csrs.mstatus = mstatus
        self.privilege = PrivilegeLevel.MACHINE
        mtvec = self.csrs.raw_read(csrdefs.MTVEC)
        if mtvec == 0:
            raise Trap(trap.cause, trap.tval, trap.interrupt)
        self.pc = mtvec & ~0b11
        self.cycles += self.cost.trap_entry

    def _mret(self, ins: Instruction, pc: int) -> int:
        if self.privilege != PrivilegeLevel.MACHINE:
            raise Trap(Cause.ILLEGAL_INSTRUCTION)
        mstatus = self.csrs.mstatus
        previous = (mstatus & MSTATUS_MPP_MASK) >> MSTATUS_MPP_SHIFT
        mie = 1 if mstatus & MSTATUS_MPIE else 0
        mstatus &= ~(MSTATUS_MIE | MSTATUS_MPIE | MSTATUS_MPP_MASK) & MASK64
        mstatus |= mie << 3
        mstatus |= MSTATUS_MPIE
        self.csrs.mstatus = mstatus
        self.privilege = PrivilegeLevel(previous)
        self.cycles += self.cost.trap_return
        next_pc = self.csrs.raw_read(csrdefs.MEPC)
        hook = self.trace_hook
        if hook is not None:
            hook(TRAP_EXIT, pc=next_pc, privilege=int(self.privilege))
        return next_pc

    # --------------------------------------------------------------- telemetry --

    def attach_tracer(self, bus) -> bool:
        """Wrap the dispatch table for ``bus``'s ``insn.retire`` plane.

        Every subscriber is called positionally as ``fn(ins, pc)`` before
        the handler, with no event object allocated (this is the
        per-instruction path).  The wrappers call straight through to the
        original closures, so architectural state, cycle accounting and
        trap behaviour are unchanged.  Compiled code runs no dispatch
        closures, so the compiled tier stands down while the wrapper is
        installed.  Structured events (traps, key CSRs, snapshots) do not
        come through here: they go through ``trace_hook`` attributes.

        Returns False, installing nothing, when ``bus`` has no
        ``insn.retire`` subscriber.  Otherwise translated blocks are
        dropped (not counted as a guest flush) so they pick up the
        wrapped handlers, and :meth:`detach_tracer` restores the exact
        pre-attach table.
        """
        observers = bus.subscribers(INSN_RETIRE)
        if not observers:
            return False
        if len(observers) == 1:
            observe = observers[0]
        else:
            def observe(ins, pc, _observers=tuple(observers)):
                for fn in _observers:
                    fn(ins, pc)

        def wrap(handler):
            def wrapped(ins, pc, _handler=handler):
                observe(ins, pc)
                return _handler(ins, pc)

            return wrapped

        self._tracer_stack.append(self._dispatch)
        self._dispatch = {
            mnemonic: wrap(handler)
            for mnemonic, handler in self._dispatch.items()
        }
        self.blocks.drop_translations()
        return True

    def detach_tracer(self) -> None:
        """Undo the most recent :meth:`attach_tracer` exactly."""
        if not self._tracer_stack:
            return
        self._dispatch = self._tracer_stack.pop()
        self.blocks.drop_translations()

    def attach_speculation(self, spec) -> None:
        """Attach a :class:`repro.machine.spec.SpeculativeEngine`.

        Wraps only the control-flow handlers (branches, ``jal``,
        ``jalr``) so the predictor observes every retirement, and
        pushes a frame on the tracer stack: the compiled tier stands
        down while speculation is attached, exactly as it does for the
        ``insn.retire`` plane, and :meth:`detach_speculation` restores
        the pre-attach dispatch table.  Architectural state is untouched —
        transient windows run against shadow overlays only.
        """
        spec.attach_to(self)

    def detach_speculation(self) -> None:
        """Undo :meth:`attach_speculation` (LIFO w.r.t. tracers)."""
        if self.spec is not None:
            self.spec.detach()

    # ---------------------------------------------------------------- dispatch --

    def _build_dispatch(self):
        d = {}

        # ALU: register-register and immediate, 64- and 32-bit ("W").
        for table, factory in (
            (ALU_RR, self._alu),
            (ALU_RR_W, self._alu_w),
            (ALU_RI, self._alu_imm),
            (ALU_RI_W, self._alu_imm_w),
        ):
            for mnemonic, op in table.items():
                d[mnemonic] = factory(mnemonic, op)

        # Memory.
        for mnemonic in tab.LOADS:
            d[mnemonic] = self._make_load(mnemonic)
        for mnemonic in tab.STORES:
            d[mnemonic] = self._make_store(mnemonic)

        # Control flow.
        for mnemonic, condition in BRANCH_CONDS.items():
            d[mnemonic] = self._branch(mnemonic, condition)
        d["jal"] = self._jal
        d["jalr"] = self._jalr
        d["lui"] = self._lui
        d["auipc"] = self._auipc

        # System.
        d["fence"] = self._fence
        d["ecall"] = self._ecall
        d["ebreak"] = self._ebreak
        d["mret"] = self._mret
        d["sret"] = self._mret  # single-trap-level model: sret behaves as mret
        d["wfi"] = self._wfi
        for mnemonic in tab.CSR_OPS:
            d[mnemonic] = self._make_csr(mnemonic)

        # RegVault.
        from repro.crypto.keys import KeySelect

        for ksel in KeySelect:
            d[tab.crypto_mnemonic(True, ksel)] = self._make_crypto(True)
            d[tab.crypto_mnemonic(False, ksel)] = self._make_crypto(False)

        return d

    # -- handler factories -------------------------------------------------------
    #
    # Per-mnemonic cycle costs are resolved once at dispatch-build time:
    # the cost model is fixed for the hart's lifetime, and both the
    # single-step path and the block fast path call these same closures,
    # which is what keeps their cycle accounting bit-identical.

    def _alu(self, mnemonic: str, op):
        cycle_cost = self.cost.cost(mnemonic)

        def handler(ins: Instruction, pc: int):
            self.regs.write(ins.rd, op(self.regs[ins.rs1], self.regs[ins.rs2]))
            self.cycles += cycle_cost
            return None

        return handler

    def _alu_w(self, mnemonic: str, op):
        cycle_cost = self.cost.cost(mnemonic)

        def handler(ins: Instruction, pc: int):
            result = op(self.regs[ins.rs1], self.regs[ins.rs2])
            self.regs.write(ins.rd, to_unsigned64(sign_extend(result, 32)))
            self.cycles += cycle_cost
            return None

        return handler

    def _alu_imm(self, mnemonic: str, op):
        cycle_cost = self.cost.cost(mnemonic)

        def handler(ins: Instruction, pc: int):
            self.regs.write(ins.rd, op(self.regs[ins.rs1], ins.imm))
            self.cycles += cycle_cost
            return None

        return handler

    def _alu_imm_w(self, mnemonic: str, op):
        cycle_cost = self.cost.cost(mnemonic)

        def handler(ins: Instruction, pc: int):
            result = op(self.regs[ins.rs1], ins.imm)
            self.regs.write(ins.rd, to_unsigned64(sign_extend(result, 32)))
            self.cycles += cycle_cost
            return None

        return handler

    @staticmethod
    def _div(a, b):
        sa, sb = to_signed64(a), to_signed64(b)
        if sb == 0:
            return MASK64
        if sa == -(1 << 63) and sb == -1:
            return a
        quotient = abs(sa) // abs(sb)
        return -quotient if (sa < 0) != (sb < 0) else quotient

    @staticmethod
    def _divu(a, b):
        return MASK64 if b == 0 else a // b

    @staticmethod
    def _rem(a, b):
        sa, sb = to_signed64(a), to_signed64(b)
        if sb == 0:
            return a
        if sa == -(1 << 63) and sb == -1:
            return 0
        remainder = abs(sa) % abs(sb)
        return -remainder if sa < 0 else remainder

    @staticmethod
    def _remu(a, b):
        return a if b == 0 else a % b

    @staticmethod
    def _div32(a, b):
        sa = sign_extend(a & 0xFFFFFFFF, 32)
        sb = sign_extend(b & 0xFFFFFFFF, 32)
        if sb == 0:
            return -1
        if sa == -(1 << 31) and sb == -1:
            return sa
        quotient = abs(sa) // abs(sb)
        return -quotient if (sa < 0) != (sb < 0) else quotient

    @staticmethod
    def _divu32(a, b):
        ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
        return 0xFFFFFFFF if ub == 0 else ua // ub

    @staticmethod
    def _rem32(a, b):
        sa = sign_extend(a & 0xFFFFFFFF, 32)
        sb = sign_extend(b & 0xFFFFFFFF, 32)
        if sb == 0:
            return sa
        if sa == -(1 << 31) and sb == -1:
            return 0
        remainder = abs(sa) % abs(sb)
        return -remainder if sa < 0 else remainder

    @staticmethod
    def _remu32(a, b):
        ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
        return ua if ub == 0 else ua % ub

    def _make_load(self, mnemonic: str):
        size = tab.ACCESS_SIZE[mnemonic]
        signed = not mnemonic.endswith("u") and mnemonic != "ld"
        reader = {
            1: lambda a: self.bus.read_u8(a),
            2: lambda a: self.bus.read_u16(a),
            4: lambda a: self.bus.read_u32(a),
            8: lambda a: self.bus.read_u64(a),
        }[size]

        def handler(ins: Instruction, pc: int):
            address = (self.regs[ins.rs1] + ins.imm) & MASK64
            try:
                value = reader(address)
            except MemoryFault:
                raise Trap(Cause.LOAD_ACCESS_FAULT, tval=address) from None
            if signed:
                value = to_unsigned64(sign_extend(value, size * 8))
            self.regs.write(ins.rd, value)
            self.cycles += self.cost.load
            return None

        return handler

    def _make_store(self, mnemonic: str):
        size = tab.ACCESS_SIZE[mnemonic]
        writer = {
            1: lambda a, v: self.bus.write_u8(a, v),
            2: lambda a, v: self.bus.write_u16(a, v),
            4: lambda a, v: self.bus.write_u32(a, v),
            8: lambda a, v: self.bus.write_u64(a, v),
        }[size]

        def handler(ins: Instruction, pc: int):
            address = (self.regs[ins.rs1] + ins.imm) & MASK64
            try:
                # A truthy return marks a device (MMIO) write: devices
                # can redirect the machine loop (shutdown, timer
                # reprogramming), so the block fast path must yield.
                if writer(address, self.regs[ins.rs2]):
                    self._block_break = True
            except MemoryFault:
                raise Trap(Cause.STORE_ACCESS_FAULT, tval=address) from None
            self.cycles += self.cost.store
            return None

        return handler

    def _branch(self, mnemonic: str, condition):
        taken_cost = self.cost.cost(mnemonic, branch_taken=True)
        not_taken_cost = self.cost.cost(mnemonic, branch_taken=False)

        def handler(ins: Instruction, pc: int):
            if condition(self.regs[ins.rs1], self.regs[ins.rs2]):
                self.cycles += taken_cost
                return (pc + ins.imm) & MASK64
            self.cycles += not_taken_cost
            return None

        return handler

    def _jal(self, ins: Instruction, pc: int):
        self.regs.write(ins.rd, pc + 4)
        self.cycles += self.cost.jump
        return (pc + ins.imm) & MASK64

    def _jalr(self, ins: Instruction, pc: int):
        target = (self.regs[ins.rs1] + ins.imm) & MASK64 & ~1
        self.regs.write(ins.rd, pc + 4)
        self.cycles += self.cost.jump
        return target

    def _lui(self, ins: Instruction, pc: int):
        self.regs.write(ins.rd, to_unsigned64(ins.imm))
        self.cycles += self.cost.default
        return None

    def _auipc(self, ins: Instruction, pc: int):
        self.regs.write(ins.rd, (pc + ins.imm) & MASK64)
        self.cycles += self.cost.default
        return None

    def _fence(self, ins: Instruction, pc: int):
        self.cycles += self.cost.default
        return None

    def _ecall(self, ins: Instruction, pc: int):
        cause = {
            PrivilegeLevel.USER: Cause.ECALL_FROM_U,
            PrivilegeLevel.SUPERVISOR: Cause.ECALL_FROM_S,
            PrivilegeLevel.MACHINE: Cause.ECALL_FROM_M,
        }[self.privilege]
        raise Trap(cause)

    def _ebreak(self, ins: Instruction, pc: int):
        raise Trap(Cause.BREAKPOINT, tval=pc)

    def _wfi(self, ins: Instruction, pc: int):
        self.waiting_for_interrupt = True
        self.cycles += self.cost.default
        return None

    def _make_csr(self, mnemonic: str):
        write_op = mnemonic in ("csrrw", "csrrwi")
        set_op = mnemonic in ("csrrs", "csrrsi")
        immediate = mnemonic.endswith("i")

        def handler(ins: Instruction, pc: int):
            operand = ins.rs1 if immediate else self.regs[ins.rs1]
            reads = not (write_op and ins.rd == 0)
            writes = write_op or (not immediate and ins.rs1 != 0) or (
                immediate and ins.rs1 != 0
            )
            old = self.csrs.read(ins.csr, self.privilege) if reads else 0
            if writes:
                if write_op:
                    new = operand
                elif set_op:
                    new = old | operand
                else:
                    new = old & ~operand & MASK64
                self.csrs.write(ins.csr, new, self.privilege)
            self.regs.write(ins.rd, old)
            self.cycles += self.cost.csr
            return None

        return handler

    def _make_crypto(self, is_encrypt: bool):
        def handler(ins: Instruction, pc: int):
            value = self.regs[ins.rs1]
            tweak = self.regs[ins.rs2]
            try:
                if is_encrypt:
                    result, op_cycles = self.engine.encrypt(
                        ins.ksel, value, ins.byte_range, tweak,
                        privilege=int(self.privilege),
                    )
                else:
                    result, op_cycles = self.engine.decrypt(
                        ins.ksel, value, ins.byte_range, tweak,
                        privilege=int(self.privilege),
                    )
            except PrivilegeError:
                raise Trap(Cause.ILLEGAL_INSTRUCTION, tval=pc) from None
            except IntegrityViolation:
                # A failed decrypt still consumed the engine latency.
                self.cycles += self.engine.miss_cycles
                raise Trap(
                    Cause.REGVAULT_INTEGRITY_FAULT, tval=pc
                ) from None
            self.regs.write(ins.rd, result)
            # Engine latency: 1 cycle on a CLB hit, 3 on a miss (§4.2).
            self.cycles += op_cycles
            return None

        return handler


# -- pure instruction semantics -------------------------------------------------
#
# The one interpreter copy of ALU and branch semantics: the hart's
# handlers wrap these, and the speculative engine's transient windows
# call them on shadow state.  Results are unmasked Python ints — callers
# mask to 64 bits, or sign-extend bit 31 for the ``_W`` tables.  They
# follow the class because the division entries are its static methods.
# The compiled tier keeps its own source templates, the independent
# implementation the differential fuzzer checks these against.

ALU_RR = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 63),
    "slt": lambda a, b: int(to_signed64(a) < to_signed64(b)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: to_signed64(a) >> (b & 63),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (to_signed64(a) * to_signed64(b)) >> 64,
    "mulhsu": lambda a, b: (to_signed64(a) * b) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": Hart._div,
    "divu": Hart._divu,
    "rem": Hart._rem,
    "remu": Hart._remu,
}

ALU_RR_W = {
    "addw": lambda a, b: a + b,
    "subw": lambda a, b: a - b,
    "sllw": lambda a, b: a << (b & 31),
    "srlw": lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    "sraw": lambda a, b: sign_extend(a & 0xFFFFFFFF, 32) >> (b & 31),
    "mulw": lambda a, b: a * b,
    "divw": Hart._div32,
    "divuw": Hart._divu32,
    "remw": Hart._rem32,
    "remuw": Hart._remu32,
}

ALU_RI = {
    "addi": lambda a, i: a + i,
    "slti": lambda a, i: int(to_signed64(a) < i),
    "sltiu": lambda a, i: int(a < to_unsigned64(i)),
    "xori": lambda a, i: a ^ to_unsigned64(i),
    "ori": lambda a, i: a | to_unsigned64(i),
    "andi": lambda a, i: a & to_unsigned64(i),
    "slli": lambda a, i: a << i,
    "srli": lambda a, i: a >> i,
    "srai": lambda a, i: to_signed64(a) >> i,
}

ALU_RI_W = {
    "addiw": lambda a, i: a + i,
    "slliw": lambda a, i: a << i,
    "srliw": lambda a, i: (a & 0xFFFFFFFF) >> i,
    "sraiw": lambda a, i: sign_extend(a & 0xFFFFFFFF, 32) >> i,
}

BRANCH_CONDS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed64(a) < to_signed64(b),
    "bge": lambda a, b: to_signed64(a) >= to_signed64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}
