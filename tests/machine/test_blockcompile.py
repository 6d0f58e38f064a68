"""Compiled-tier tests: codegen equivalence, chaining, invalidation.

The third execution tier compiles translated blocks into specialized
Python functions and direct-chains stable branch targets.  Its contract
is identical to the block interpreter's: bit-identical architectural
state — registers, memory, CSRs, pc, privilege, cycles, instret — versus
single-stepping, under every invalidation rule PR-1 established (SMC,
privilege keying, CSR termination, timer deadlines).
"""

from __future__ import annotations

import pytest

from repro.isa import assemble
from repro.machine.blockcompile import compile_block
from repro.machine.compare import architectural_state, diff_states
from repro.machine.hart import (
    ALU_RI,
    ALU_RI_W,
    ALU_RR,
    ALU_RR_W,
    BRANCH_CONDS,
)
from tests.conftest import HALT, machine_with_keys


def run_tiers(source: str, max_steps: int = 1_000_000):
    """Run a snippet single-stepped and through the compiled tier.

    The compiled machine uses threshold 1 so *every* translated block is
    compiled on first execution — the harshest setting for codegen bugs.
    """
    program = assemble(source)
    step = machine_with_keys(program)
    step.run(max_steps, fast=False)
    compiled = machine_with_keys(program)
    compiled.hart.compile_threshold = 1
    compiled.run(max_steps, fast=True)
    return step, compiled


def assert_equivalent(step, compiled) -> None:
    diffs = diff_states(
        architectural_state(step), architectural_state(compiled)
    )
    assert not diffs, "compiled tier diverged:\n" + "\n".join(diffs)


class TestCompiledEquivalence:
    def test_hot_loop_compiles_and_matches(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 200
    li s2, 0
loop:
    slli t0, s0, 2
    xor s2, s2, t0
    mulw t1, s0, s0
    add s2, s2, t1
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)
        assert compiled.hart.compiled_blocks > 0

    def test_memory_traffic(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 64
    li s3, 0x08000000
loop:
    slli t0, s0, 3
    add t1, s3, t0
    sd s0, 0(t1)
    lw t2, 0(t1)
    lb t3, 1(t1)
    lhu t4, 2(t1)
    add s2, s2, t2
    add s2, s2, t3
    add s2, s2, t4
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)

    def test_signed_arithmetic_edge_cases(self):
        step, compiled = run_tiers(f"""
_start:
    li a0, -1
    li a1, 0x7FFFFFFFFFFFFFFF
    li s0, 0
    li s1, 32
loop:
    sra t0, a1, s0
    srai t1, a0, 7
    slt t2, a0, a1
    sltu t3, a0, a1
    divw t4, a1, a0
    remw t5, a1, a0
    add s2, s2, t0
    add s2, s2, t2
    add s2, s2, t3
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)

    def test_trap_mid_compiled_block(self):
        # The load targets unmapped space, so every loop iteration takes
        # a load-access-fault out of the middle of a compiled block.
        step, compiled = run_tiers(f"""
_start:
    la t0, handler
    csrrw x0, mtvec, t0
    li s0, 0
    li s1, 20
loop:
    li a1, 0x40000000
    ld a2, 0(a1)
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
handler:
    csrrs a3, mepc, x0
    addi a3, a3, 4
    csrrw x0, mepc, a3
    addi s3, s3, 1
    mret
""")
        assert_equivalent(step, compiled)
        assert compiled.hart.regs.by_name("s3") == 20

    def test_csr_in_loop(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 30
loop:
    csrrs t0, cycle, x0
    csrrs t1, instret, x0
    add s2, s2, t0
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)

    def test_crypto_ops_in_loop(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 25
    li a0, 0x123456789ABCDEF0
loop:
    add t1, a0, s0
    creak a1, t1[7:0], s0
    crdak a2, a1, s0, [7:0]
    bne a2, t1, _bad
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
_bad:
    li t0, 0x5555
    li t1, 0x02010000
    sw t0, 0(t1)
""")
        assert_equivalent(step, compiled)
        assert compiled.engine.stats.encryptions == 25

    def test_jalr_function_calls(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 40
loop:
    la t0, helper
    jalr ra, 0(t0)
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
helper:
    addi s2, s2, 5
    ret
""")
        assert_equivalent(step, compiled)

    def test_kernel_boot_protected(self):
        from repro.kernel.api import KernelSession
        from repro.kernel.config import KernelConfig

        config = KernelConfig.full(num_threads=2)
        results = {}
        for tier in ("step", "compiled"):
            session = KernelSession(config)
            session.machine.fast_path = tier == "compiled"
            if tier == "compiled":
                session.machine.hart.compile_threshold = 1
            results[tier] = (
                session.run(),
                architectural_state(session.machine),
                session.machine.hart.compiled_blocks,
            )
        step_result, step_state, _ = results["step"]
        fast_result, fast_state, compiled_blocks = results["compiled"]
        assert step_result == fast_result
        diffs = diff_states(step_state, fast_state)
        assert not diffs, "compiled boot diverged:\n" + "\n".join(diffs)
        assert compiled_blocks > 0


#: Zero, one, minus one and the 32- and 64-bit extremes; their pairs
#: include division by zero and INT_MIN / -1 at both widths.
EDGE_OPERANDS = (0, 1, -1, 2**31 - 1, -2**31, 2**32 - 1, 2**63 - 1, -2**63)
SHIFT_AMOUNTS = (0, 31, 32, 63)
IMMEDIATES = (0, 1, -1, 2047, -2048)
_IMMEDIATE_SHIFTS = {"slli", "srli", "srai", "slliw", "srliw", "sraiw"}


def _edge_program(mnemonic: str) -> str:
    """Every edge case of ``mnemonic``, each result stored to memory."""
    lines = ["_start:", "    li s3, 0x08000000"]
    if mnemonic in ALU_RI or mnemonic in ALU_RI_W:
        if mnemonic in _IMMEDIATE_SHIFTS:
            immediates = SHIFT_AMOUNTS if mnemonic in ALU_RI else (0, 31)
        else:
            immediates = IMMEDIATES
        cases = [(a, i) for a in EDGE_OPERANDS for i in immediates]
    else:
        cases = [(a, b) for a in EDGE_OPERANDS
                 for b in EDGE_OPERANDS + SHIFT_AMOUNTS[1:]]
    for index, (a, b) in enumerate(cases):
        lines.append(f"    li a0, {a}")
        if mnemonic in BRANCH_CONDS:
            lines += [f"    li a1, {b}", "    li t2, 0",
                      f"    {mnemonic} a0, a1, case{index}",
                      "    li t2, 1", f"case{index}:"]
        elif mnemonic in ALU_RI or mnemonic in ALU_RI_W:
            lines.append(f"    {mnemonic} t2, a0, {b}")
        else:
            lines += [f"    li a1, {b}", f"    {mnemonic} t2, a0, a1"]
        lines.append(f"    sd t2, {8 * index}(s3)")
    return "\n".join(lines) + "\n" + HALT


class TestEdgeOperands:
    @pytest.mark.parametrize("mnemonic", [
        *ALU_RR, *ALU_RR_W, *ALU_RI, *ALU_RI_W, *BRANCH_CONDS,
    ])
    def test_compiled_tier_matches_hart_tables(self, mnemonic):
        step, compiled = run_tiers(_edge_program(mnemonic))
        assert_equivalent(step, compiled)
        assert compiled.hart.compiled_blocks > 0


class TestChaining:
    def _hot_loop(self, compile_threshold=1):
        program = assemble(f"""
_start:
    li s0, 0
    li s1, 100
loop:
    addi s2, s2, 3
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        machine = machine_with_keys(program)
        machine.hart.compile_threshold = compile_threshold
        return machine

    def test_links_populated(self):
        machine = self._hot_loop()
        machine.run(10_000, fast=True)
        hart = machine.hart
        linked = [
            block for (_, block) in [
                (k, hart.blocks.peek(k)) for k in list(hart.blocks._blocks)
            ] if block is not None and block.links
        ]
        assert linked, "no chain links recorded on a hot self-loop"
        for block in linked:
            assert len(block.links) <= hart._MAX_CHAIN_LINKS
            for epoch, target in block.links.values():
                assert epoch == hart.blocks.epoch
                assert target.compiled is not None

    def test_stale_links_not_followed_after_smc(self):
        # Self-modifying store into a block that was already a chain
        # target: the epoch bump must prevent the stale compiled body
        # from running (x8 would come out wrong if it did).
        step, compiled = run_tiers(f"""
_start:
    la x20, loop
    li x5, 0
    li x6, 10
    li x8, 0
loop:
    addi x5, x5, 1
    addi x8, x8, 2
    li x9, 6
    bne x5, x9, tail
    lui x21, 8256
    addi x21, x21, 1043
    sw x21, 28(x20)
tail:
    addi x8, x8, 1
    addi x8, x8, 1
    blt x5, x6, loop
{HALT}
""")
        assert_equivalent(step, compiled)
        assert compiled.hart.blocks.invalidated_blocks > 0

    def test_threshold_gates_compilation(self):
        machine = self._hot_loop(compile_threshold=1_000_000)
        machine.run(10_000, fast=True)
        assert machine.hart.compiled_blocks == 0

        machine = self._hot_loop(compile_threshold=4)
        machine.run(10_000, fast=True)
        assert machine.hart.compiled_blocks > 0

    def test_compile_disabled_falls_back(self):
        machine = self._hot_loop()
        machine.hart.compile_enabled = False
        machine.run(10_000, fast=True)
        assert machine.hart.compiled_blocks == 0


class TestTelemetryInteraction:
    def test_tracer_forces_tier_two(self):
        # With an insn.retire tracer attached the per-instruction
        # dispatch handlers are wrapped; the compiled tier would bypass
        # them, so it must stand down while the wrapper is installed.
        from repro.telemetry.bus import TraceBus
        from repro.telemetry.events import INSN_RETIRE

        program = assemble(f"""
_start:
    li s0, 0
    li s1, 100
loop:
    addi s2, s2, 3
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        bus = TraceBus()
        retired = []
        bus.subscribe(INSN_RETIRE, lambda ins, pc: retired.append(pc))
        hart.attach_tracer(bus)
        machine.run(10_000, fast=True)
        hart.detach_tracer()
        assert hart.compiled_blocks == 0
        assert len(retired) == machine.hart.instret


class TestCompileBlockDirect:
    def test_compiled_function_installed(self):
        program = assemble(f"""
_start:
    li s0, 7
    addi s0, s0, 1
{HALT}
""")
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        machine.run(100, fast=True)
        blocks = [
            hart.blocks.peek(key) for key in list(hart.blocks._blocks)
        ]
        assert any(
            b is not None and b.compiled is not None for b in blocks
        )

    def test_compile_failure_marks_block(self):
        # Force the unsupported path by handing compile_block a block
        # with a mnemonic the codegen does not know.
        program = assemble(f"_start:\n    addi x1, x0, 1\n{HALT}")
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        machine.run(100, fast=True)
        block = next(
            b for b in (
                hart.blocks.peek(k) for k in list(hart.blocks._blocks)
            ) if b is not None
        )
        handler, ins = block.ops[0]

        class Odd:
            mnemonic = "unknown.op"

        class FakeBlock:
            entry_pc = block.entry_pc
            ops = ((handler, Odd()),)
            privilege = block.privilege
            compile_failed = False
            compiled = None

        fake_block = FakeBlock()
        assert compile_block(hart, fake_block) is None
        assert fake_block.compile_failed
