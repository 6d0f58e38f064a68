"""Compile translated blocks into specialized Python functions (tier 3).

The block interpreter (:meth:`repro.machine.hart.Hart.run_block`) still
pays one dict-dispatch call, one closure frame and several attribute
reads per instruction.  This module removes those by synthesizing one
Python function per :class:`~repro.machine.blockcache.TranslatedBlock`:
instruction semantics are inlined as straight-line source, immediates
and per-instruction PCs are folded to literals at compile time, the
registers the block touches live in locals, and ``instret``/``cycles``
are accumulated as constants between the points where something could
observe them.

The generated function's contract with the hart (``fn(hart) -> int``):

* a **positive** return ``n`` means ``n`` instructions retired and the
  block exited through its terminal branch/jump/fallthrough with
  ``hart.pc`` set — the caller may chain directly into the next
  compiled block;
* a **negative** return ``-n`` means ``n`` steps were consumed but the
  exit is not chainable: a trap was entered, a device store or
  code-page write ended the block, or the final op was a CSR/system
  instruction (which can change interrupt enables, keys or privilege);
* in both cases every piece of architectural state — registers, pc,
  privilege, cycles, instret, CSRs, memory, devices, engine — is
  bit-identical to what a :meth:`Hart.step` loop would have produced.

Exactness rules mirrored from the interpreter, in codegen form:

* ``hart.cycles`` is flushed *before* every load, store and crypto op:
  a load from the CLINT reads ``mtime`` (a live view of the cycle
  counter), and the engine's fault path charges ``miss_cycles``
  against an up-to-date counter;
* memory faults re-raise as the same access-fault traps, with the
  computed address in ``tval`` and the faulting instruction's pc;
* a truthy store return (device write) or a code-page write hook sets
  ``hart._block_break`` — the generated store site checks it and exits
  with pc at the *next* instruction, exactly like the interpreter;
* a CSR/system final op falls back to the original handler closure
  after syncing pc/instret/cycles/registers, so CSR counter reads and
  ``mret`` observe the same architectural view as under ``step()``;
* crypto ops fold the block's privilege level into the call (blocks
  are keyed by ``(pc, privilege)``, so it cannot change mid-block).
"""

from __future__ import annotations

import time
from types import FunctionType

from repro.errors import IntegrityViolation, MemoryFault, PrivilegeError
from repro.isa import instructions as tab
from repro.isa.decoder import BLOCK_TERMINATORS
from repro.machine.trap import Cause, Trap
from repro.telemetry.events import BLOCK_JIT
from repro.utils.bits import MASK64, to_signed64

__all__ = ["bind_code", "compile_block"]

_H = 1 << 63


class _Unsupported(Exception):
    """An op the code generator cannot inline exactly."""


# -- inline helpers shipped to every generated function -----------------------


def _wx(v):
    """to_unsigned64(sign_extend(v, 32)) for W-op results."""
    v &= 0xFFFFFFFF
    return v | 0xFFFFFFFF00000000 if v & 0x80000000 else v


def _s32(v):
    """sign_extend(v & 0xFFFFFFFF, 32) (signed Python int)."""
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


def _sx8(v):
    return v | 0xFFFFFFFFFFFFFF00 if v & 0x80 else v


def _sx16(v):
    return v | 0xFFFFFFFFFFFF0000 if v & 0x8000 else v


def _sx32(v):
    return v | 0xFFFFFFFF00000000 if v & 0x80000000 else v


# -- expression templates ------------------------------------------------------
# Each template receives operand *source strings* (a register local such
# as ``r5``, or the literal ``0`` for x0) plus folded immediates, and
# returns an expression whose value is already masked to 64 bits — the
# generated code assigns it straight into the register-file list.

_ALU_RR = {
    "add": lambda a, b: f"({a} + {b}) & M",
    "sub": lambda a, b: f"({a} - {b}) & M",
    "sll": lambda a, b: f"({a} << ({b} & 63)) & M",
    "slt": lambda a, b: f"(({a} ^ H) < ({b} ^ H)) + 0",
    "sltu": lambda a, b: f"({a} < {b}) + 0",
    "xor": lambda a, b: f"{a} ^ {b}",
    "srl": lambda a, b: f"{a} >> ({b} & 63)",
    "sra": lambda a, b: f"(_ts({a}) >> ({b} & 63)) & M",
    "or": lambda a, b: f"{a} | {b}",
    "and": lambda a, b: f"{a} & {b}",
    "mul": lambda a, b: f"({a} * {b}) & M",
    "mulh": lambda a, b: f"((_ts({a}) * _ts({b})) >> 64) & M",
    "mulhsu": lambda a, b: f"((_ts({a}) * {b}) >> 64) & M",
    "mulhu": lambda a, b: f"({a} * {b}) >> 64",
    "div": lambda a, b: f"_div({a}, {b}) & M",
    "divu": lambda a, b: f"_divu({a}, {b})",
    "rem": lambda a, b: f"_rem({a}, {b}) & M",
    "remu": lambda a, b: f"_remu({a}, {b})",
    "addw": lambda a, b: f"_wx({a} + {b})",
    "subw": lambda a, b: f"_wx({a} - {b})",
    "sllw": lambda a, b: f"_wx({a} << ({b} & 31))",
    "srlw": lambda a, b: f"_wx(({a} & 0xFFFFFFFF) >> ({b} & 31))",
    "sraw": lambda a, b: f"_wx(_s32({a}) >> ({b} & 31))",
    "mulw": lambda a, b: f"_wx({a} * {b})",
    "divw": lambda a, b: f"_wx(_div32({a}, {b}))",
    "divuw": lambda a, b: f"_wx(_divu32({a}, {b}))",
    "remw": lambda a, b: f"_wx(_rem32({a}, {b}))",
    "remuw": lambda a, b: f"_wx(_remu32({a}, {b}))",
}

_ALU_IMM = {
    "addi": lambda a, i: f"({a} + {i}) & M",
    "slti": lambda a, i: f"(({a} ^ H) < {((i & MASK64) ^ _H)}) + 0",
    "sltiu": lambda a, i: f"({a} < {i & MASK64}) + 0",
    "xori": lambda a, i: f"{a} ^ {i & MASK64}",
    "ori": lambda a, i: f"{a} | {i & MASK64}",
    "andi": lambda a, i: f"{a} & {i & MASK64}",
    "slli": lambda a, i: f"({a} << {i}) & M",
    "srli": lambda a, i: f"{a} >> {i}",
    "srai": lambda a, i: f"(_ts({a}) >> {i}) & M",
    "addiw": lambda a, i: f"_wx({a} + {i})",
    "slliw": lambda a, i: f"_wx({a} << {i})",
    "srliw": lambda a, i: f"_wx(({a} & 0xFFFFFFFF) >> {i})",
    "sraiw": lambda a, i: f"_wx(_s32({a}) >> {i})",
}

_BRANCH_COND = {
    "beq": lambda a, b: f"{a} == {b}",
    "bne": lambda a, b: f"{a} != {b}",
    "blt": lambda a, b: f"({a} ^ H) < ({b} ^ H)",
    "bge": lambda a, b: f"({a} ^ H) >= ({b} ^ H)",
    "bltu": lambda a, b: f"{a} < {b}",
    "bgeu": lambda a, b: f"{a} >= {b}",
}

#: Final ops handled by calling the original handler closure after a
#: full state sync (CSR reads need exact counters; mret/wfi/ecall/...
#: change machine-loop-visible state, so their exit is never chainable).
_HANDLER_FALLBACK = frozenset(tab.CSR_OPS) | frozenset(tab.SYSTEM_OPS)


class _Codegen:
    def __init__(self, hart, block):
        self.hart = hart
        self.block = block
        self.lines: list[str] = []
        self.env: dict = {}
        #: Cycle cost accumulated since the last flush (a literal).
        self.pending = 0
        self.written: set[int] = set()
        self.loaded: set[int] = set()

    # -- small emission helpers -------------------------------------------

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def flush_cycles(self, indent: int = 1) -> None:
        if self.pending:
            self.emit(f"hart.cycles += {self.pending}", indent)
            self.pending = 0

    def reg(self, number: int) -> str:
        """Operand string for register ``number`` (x0 folds to 0)."""
        if number == 0:
            return "0"
        self.loaded.add(number)
        return f"r{number}"

    def dest(self, number: int) -> str | None:
        if number == 0:
            return None
        self.loaded.add(number)
        self.written.add(number)
        return f"r{number}"

    def writeback(self, indent: int) -> None:
        for number in sorted(self.written):
            self.emit(f"regs[{number}] = r{number}", indent)

    def exit_trap(self, index: int, trap_expr: str, pc: int,
                  indent: int) -> None:
        """Shared tail of every in-block trap path."""
        self.writeback(indent)
        if index:
            self.emit(f"hart.instret += {index}", indent)
        self.emit(f"hart._enter_trap({trap_expr}, {pc})", indent)
        self.emit(f"return {-(index + 1)}", indent)

    # -- per-op emitters ---------------------------------------------------

    def op_alu_rr(self, ins, cost: int) -> None:
        dest = self.dest(ins.rd)
        if dest is not None:
            expr = _ALU_RR[ins.mnemonic](self.reg(ins.rs1), self.reg(ins.rs2))
            self.emit(f"{dest} = {expr}")
        self.pending += cost

    def op_alu_imm(self, ins, cost: int) -> None:
        dest = self.dest(ins.rd)
        if dest is not None:
            expr = _ALU_IMM[ins.mnemonic](self.reg(ins.rs1), ins.imm)
            self.emit(f"{dest} = {expr}")
        self.pending += cost

    def op_lui(self, ins, cost: int) -> None:
        dest = self.dest(ins.rd)
        if dest is not None:
            self.emit(f"{dest} = {ins.imm & MASK64}")
        self.pending += cost

    def op_auipc(self, ins, pc: int, cost: int) -> None:
        dest = self.dest(ins.rd)
        if dest is not None:
            self.emit(f"{dest} = {(pc + ins.imm) & MASK64}")
        self.pending += cost

    def op_load(self, ins, index: int, pc: int) -> None:
        size = tab.ACCESS_SIZE[ins.mnemonic]
        signed = not ins.mnemonic.endswith("u") and ins.mnemonic != "ld"
        # A device load can observe hart.cycles (CLINT mtime): flush.
        self.flush_cycles()
        self.emit(f"_a = ({self.reg(ins.rs1)} + {ins.imm}) & M")
        self.emit("try:")
        self.emit(f"_v = _rd{size}(_a)", 2)
        self.emit("except _MF:")
        self.exit_trap(index, "_Trap(_LAF, tval=_a)", pc, 2)
        dest = self.dest(ins.rd)
        if dest is not None:
            if signed:
                self.emit(f"{dest} = _sx{size * 8}(_v)")
            else:
                self.emit(f"{dest} = _v")
        self.pending += self.hart.cost.load

    def op_store(self, ins, index: int, pc: int) -> None:
        size = tab.ACCESS_SIZE[ins.mnemonic]
        store_cost = self.hart.cost.store
        self.flush_cycles()
        self.emit(f"_a = ({self.reg(ins.rs1)} + {ins.imm}) & M")
        self.emit("try:")
        self.emit(f"_d = _wr{size}(_a, {self.reg(ins.rs2)})", 2)
        self.emit("except _MF:")
        self.exit_trap(index, "_Trap(_SAF, tval=_a)", pc, 2)
        # Device stores and code-page writes end the block with pc at
        # the next instruction (the store itself retired).
        self.emit("if _d or hart._block_break:")
        self.emit("hart._block_break = True", 2)
        self.writeback(2)
        self.emit(f"hart.pc = {pc + 4}", 2)
        self.emit(f"hart.instret += {index + 1}", 2)
        self.emit(f"hart.cycles += {store_cost}", 2)
        self.emit(f"return {-(index + 1)}", 2)
        self.pending += store_cost

    def op_crypto(self, ins, index: int, pc: int) -> None:
        parsed = tab.parse_crypto_mnemonic(ins.mnemonic)
        if parsed is None:
            raise _Unsupported(ins.mnemonic)
        is_encrypt, _ = parsed
        call = "_enc" if is_encrypt else "_dec"
        ksel_name = f"_k{index}"
        range_name = f"_b{index}"
        self.env[ksel_name] = ins.ksel
        self.env[range_name] = ins.byte_range
        self.flush_cycles()
        self.emit("try:")
        self.emit(
            f"_v, _oc = {call}({ksel_name}, {self.reg(ins.rs1)}, "
            f"{range_name}, {self.reg(ins.rs2)}, "
            f"privilege={self.block.privilege})",
            2,
        )
        self.emit("except _PE:")
        self.exit_trap(index, f"_Trap(_ILL, tval={pc})", pc, 2)
        self.emit("except _IV:")
        self.emit("hart.cycles += _engine.miss_cycles", 2)
        self.exit_trap(index, f"_Trap(_RVF, tval={pc})", pc, 2)
        dest = self.dest(ins.rd)
        if dest is not None:
            self.emit(f"{dest} = _v")
        self.emit("hart.cycles += _oc")

    # -- terminal ops ------------------------------------------------------

    def last_branch(self, ins, pc: int, count: int) -> None:
        cost = self.hart.cost
        taken = cost.cost(ins.mnemonic, branch_taken=True)
        not_taken = cost.cost(ins.mnemonic, branch_taken=False)
        cond = _BRANCH_COND[ins.mnemonic](
            self.reg(ins.rs1), self.reg(ins.rs2)
        )
        self.emit(f"if {cond}:")
        self.chainable_exit((pc + ins.imm) & MASK64, count,
                            self.pending + taken, 2)
        self.chainable_exit(pc + 4, count, self.pending + not_taken, 1)
        self.pending = 0

    def last_jal(self, ins, pc: int, count: int) -> None:
        dest = self.dest(ins.rd)
        if dest is not None:
            self.emit(f"{dest} = {pc + 4}")
        self.chainable_exit((pc + ins.imm) & MASK64, count,
                            self.pending + self.hart.cost.jump, 1)
        self.pending = 0

    def last_jalr(self, ins, pc: int, count: int) -> None:
        # Target is computed before the link write (rd may equal rs1).
        self.emit(
            f"_t = ({self.reg(ins.rs1)} + {ins.imm}) & {MASK64 & ~1}"
        )
        dest = self.dest(ins.rd)
        if dest is not None:
            self.emit(f"{dest} = {pc + 4}")
        self.chainable_exit("_t", count,
                            self.pending + self.hart.cost.jump, 1)
        self.pending = 0

    def last_fallthrough(self, pc: int, count: int) -> None:
        self.chainable_exit(pc + 4, count, self.pending, 1)
        self.pending = 0

    def chainable_exit(self, target, count: int, cycles: int,
                       indent: int) -> None:
        self.writeback(indent)
        self.emit(f"hart.instret += {count}", indent)
        if cycles:
            self.emit(f"hart.cycles += {cycles}", indent)
        self.emit(f"hart.pc = {target}", indent)
        self.emit(f"return {count}", indent)

    def last_handler(self, ins, pc: int, count: int) -> None:
        """CSR/system final op: sync everything, call the real handler
        (``_hl``, bound per hart by :func:`_build_env`)."""
        self.flush_cycles()
        self.writeback(1)
        self.emit(f"hart.pc = {pc}")
        if count > 1:
            self.emit(f"hart.instret += {count - 1}")
        self.env["_il"] = ins
        self.emit("try:")
        self.emit(f"_n = _hl(_il, {pc})", 2)
        self.emit("except _TrapExc as _t:")
        self.emit(f"hart._enter_trap(_t, {pc})", 2)
        self.emit(f"return {-count}", 2)
        self.emit(f"hart.pc = {pc + 4} if _n is None else _n")
        self.emit("hart.instret += 1")
        self.emit(f"return {-count}")

    # -- driver ------------------------------------------------------------

    def generate(self) -> str:
        hart = self.hart
        block = self.block
        cost = hart.cost
        ops = block.ops
        count = len(ops)
        for index, (_, ins) in enumerate(ops):
            mnemonic = ins.mnemonic
            pc = block.entry_pc + 4 * index
            is_last = index == count - 1
            if mnemonic in tab.BRANCHES:
                self.last_branch(ins, pc, count)
            elif mnemonic == "jal":
                self.last_jal(ins, pc, count)
            elif mnemonic == "jalr":
                self.last_jalr(ins, pc, count)
            elif mnemonic in _HANDLER_FALLBACK:
                self.last_handler(ins, pc, count)
            elif mnemonic in _ALU_RR:
                self.op_alu_rr(ins, cost.cost(mnemonic))
            elif mnemonic in _ALU_IMM:
                self.op_alu_imm(ins, cost.cost(mnemonic))
            elif mnemonic == "lui":
                self.op_lui(ins, cost.default)
            elif mnemonic == "auipc":
                self.op_auipc(ins, pc, cost.default)
            elif mnemonic == "fence":
                self.pending += cost.default
            elif mnemonic in tab.LOADS:
                self.op_load(ins, index, pc)
            elif mnemonic in tab.STORES:
                self.op_store(ins, index, pc)
            elif tab.parse_crypto_mnemonic(mnemonic) is not None:
                self.op_crypto(ins, index, pc)
            else:
                raise _Unsupported(mnemonic)
            if is_last and mnemonic not in BLOCK_TERMINATORS:
                self.last_fallthrough(pc, count)

        header = ["def _block(hart):", "    regs = hart.regs._regs"]
        for number in sorted(self.loaded):
            header.append(f"    r{number} = regs[{number}]")
        return "\n".join(header + self.lines) + "\n"


def _build_env(hart, block) -> dict:
    bus = hart.bus
    return {
        "M": MASK64,
        "H": _H,
        "_ts": to_signed64,
        "_wx": _wx,
        "_s32": _s32,
        "_sx8": _sx8,
        "_sx16": _sx16,
        "_sx32": _sx32,
        "_div": hart._div,
        "_divu": hart._divu,
        "_rem": hart._rem,
        "_remu": hart._remu,
        "_div32": hart._div32,
        "_divu32": hart._divu32,
        "_rem32": hart._rem32,
        "_remu32": hart._remu32,
        "_rd1": bus.read_u8,
        "_rd2": bus.read_u16,
        "_rd4": bus.read_u32,
        "_rd8": bus.read_u64,
        "_wr1": bus.write_u8,
        "_wr2": bus.write_u16,
        "_wr4": bus.write_u32,
        "_wr8": bus.write_u64,
        "_enc": hart.engine.encrypt,
        "_dec": hart.engine.decrypt,
        "_engine": hart.engine,
        "_hl": block.last[0],
        "_MF": MemoryFault,
        "_PE": PrivilegeError,
        "_IV": IntegrityViolation,
        "_Trap": Trap,
        "_TrapExc": Trap,
        "_LAF": Cause.LOAD_ACCESS_FAULT,
        "_SAF": Cause.STORE_ACCESS_FAULT,
        "_ILL": Cause.ILLEGAL_INSTRUCTION,
        "_RVF": Cause.REGVAULT_INTEGRITY_FAULT,
        "__builtins__": {},
    }


def bind_code(hart, block, layout):
    """Rebind the code ``layout`` carries to ``hart``.

    The globals are this hart's :func:`_build_env` plus the layout's
    decode-derived constants.  Code objects are immutable and the
    constants depend only on the bytes the layout was admitted by, so
    sharing needs no locking and no invalidation beyond that byte
    compare.
    """
    env = _build_env(hart, block)
    env.update(layout.consts)
    code = layout.code
    return FunctionType(code, env, code.co_name)


def compile_block(hart, block):
    """Compile ``block`` for ``hart``; returns the function or None.

    On success the function is stored in ``block.compiled`` and, if no
    sibling got there first, its code on ``block.layout``; on refusal
    ``block.compile_failed`` is set so the block stays on the
    interpreting tier without re-attempting every execution.
    """
    trace = hart.blocks.trace_hook
    started_ns = time.perf_counter_ns() if trace is not None else 0
    generator = _Codegen(hart, block)
    try:
        source = generator.generate()
    except _Unsupported:
        block.compile_failed = True
        return None
    env = _build_env(hart, block)
    env.update(generator.env)
    namespace: dict = {}
    exec(  # noqa: S102 - source is synthesized above, not external input
        compile(source, f"<block@{block.entry_pc:#x}>", "exec"),
        env,
        namespace,
    )
    fn = namespace["_block"]
    block.compiled = fn
    hart.compiled_blocks += 1
    layout = block.layout
    if layout is not None and layout.code is None:
        layout.code = fn.__code__
        layout.consts = generator.env
    if trace is not None:
        trace(
            BLOCK_JIT,
            pc=block.entry_pc,
            instructions=len(block.ops),
            ns=time.perf_counter_ns() - started_ns,
        )
    return fn
