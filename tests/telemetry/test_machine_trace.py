"""Machine-level tracing: hart planes, component hooks, the facade.

These run a small bare-metal program under an attached
:class:`~repro.telemetry.Telemetry` and check that every producer
(dispatch wrapping, trap entry/exit, block cache, CLB, crypto engine,
key CSRs) emits the events the schema promises, on every tier — and
that detaching restores the machine to its exact pre-attach shape.
"""

from __future__ import annotations

from repro.isa import assemble
from repro.machine.trap import Cause
from repro.telemetry import TraceBus
from repro.telemetry.events import (
    BLOCK_COMPILE,
    BLOCK_HIT,
    CLB_ENC_MISS,
    CRYPTO_OP,
    INSN_RETIRE,
    KEY_WRITE,
    SPEC_WINDOW,
    TRAP_ENTER,
    TRAP_EXIT,
)
from repro.telemetry.tracer import Telemetry
from tests.conftest import HALT, machine_with_keys

#: A little of everything: a loop (block re-execution), crypto ops
#: (CLB + engine events), a key CSR write, and an M-mode ecall round
#: trip (trap enter + mret exit).
SOURCE = f"""
_start:
    la t0, handler
    csrw mtvec, t0
    li s0, 0
    li s1, 20
loop:
    addi s0, s0, 1
    blt s0, s1, loop
    li a1, 0x42
    li t1, 0x99
    creak a2, a1[7:0], t1
    crdak a3, a2, t1, [7:0]
    csrw krega_lo, s0
    ecall
resume:
    li a0, 0
{HALT}
handler:
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
"""


#: Assembled once for symbol lookups; every machine gets a fresh copy.
PROGRAM = assemble(SOURCE)

#: Self-modifying code: the first pass of the loop turns the ``addi``
#: at ``target`` into a nop, so the cached block holding it must go.
SMC_SOURCE = f"""
_start:
    la t0, target
    li t1, 0x13
    li s0, 0
    li s1, 3
    li a0, 0
loop:
    addi s0, s0, 1
target:
    addi a0, a0, 5
    sw t1, 0(t0)
    blt s0, s1, loop
{HALT}
"""


def traced_machine(**planes):
    machine = machine_with_keys(assemble(SOURCE))
    telemetry = Telemetry(**planes)
    telemetry.attach(machine)
    return machine, telemetry


class TestEventProduction:
    def run_traced(self, fast: bool, compile_threshold=None, **planes):
        machine, telemetry = traced_machine(**planes)
        if compile_threshold is not None:
            machine.hart.compile_threshold = compile_threshold
        machine.run(10_000, fast=fast)
        telemetry.detach()
        return machine, telemetry

    def test_trap_enter_and_exit(self):
        machine, telemetry = self.run_traced(fast=False)
        enters = telemetry.recorder.by_kind(TRAP_ENTER)
        exits = telemetry.recorder.by_kind(TRAP_EXIT)
        assert len(enters) == 1 and len(exits) == 1
        assert enters[0].data["cause"] == int(Cause.ECALL_FROM_M)
        assert enters[0].data["interrupt"] is False
        assert exits[0].data["pc"] == PROGRAM.symbol("resume")
        assert exits[0].cycle >= enters[0].cycle

    def test_crypto_and_clb_events(self):
        _, telemetry = self.run_traced(fast=False)
        ops = telemetry.recorder.by_kind(CRYPTO_OP)
        assert [op.data["op"] for op in ops] == ["enc", "dec"]
        assert all(op.data["cycles"] > 0 for op in ops)
        misses = telemetry.recorder.by_kind(CLB_ENC_MISS)
        assert len(misses) == 1

    def test_key_csr_write_event(self):
        _, telemetry = self.run_traced(fast=False)
        writes = telemetry.recorder.by_kind(KEY_WRITE)
        assert len(writes) == 1
        assert writes[0].data["half"] == "lo"

    def test_block_events_on_fast_path(self):
        _, telemetry = self.run_traced(fast=True)
        compiles = telemetry.recorder.by_kind(BLOCK_COMPILE)
        hits = telemetry.recorder.by_kind(BLOCK_HIT)
        assert compiles, "fast path must emit block.compile"
        assert all(c.data["instructions"] > 0 for c in compiles)
        assert all(c.data["ns"] >= 0 for c in compiles)
        # The 20-iteration loop re-enters its block from the cache.
        assert len(hits) >= 10

    def test_fast_and_slow_see_same_trap_events(self):
        _, slow = self.run_traced(fast=False)
        _, fast = self.run_traced(fast=True)
        keep = lambda t, kind: [  # noqa: E731
            e.data for e in t.recorder.by_kind(kind)
        ]
        assert keep(slow, TRAP_ENTER) == keep(fast, TRAP_ENTER)
        assert keep(slow, TRAP_EXIT) == keep(fast, TRAP_EXIT)
        assert keep(slow, CRYPTO_OP) == keep(fast, CRYPTO_OP)
        # Counting planes leave the compiled tier on, and compiled code
        # emits the same machine events at the same cycles.
        _, slow = self.run_traced(False, 1, profile=False)
        compiled, fast = self.run_traced(True, 1, profile=False)
        assert compiled.hart.compiled_blocks >= 1
        machine_kinds = (TRAP_ENTER, TRAP_EXIT, CRYPTO_OP, KEY_WRITE)
        seen = lambda t: [  # noqa: E731
            (e.kind, e.cycle, e.data)
            for e in t.recorder.events
            if e.kind in machine_kinds or e.kind.startswith("clb.")
        ]
        assert seen(fast) == seen(slow)
        assert {kind for kind, _, _ in seen(fast)} >= set(machine_kinds)


class TestRawPlane:
    def test_insn_retire_counts_match_instret(self):
        machine = machine_with_keys(assemble(SOURCE))
        bus = TraceBus()
        observed = [0]

        def on_insn(ins, pc):
            observed[0] += 1

        bus.subscribe(INSN_RETIRE, on_insn)
        machine.hart.attach_tracer(bus)
        machine.run(10_000, fast=True)
        machine.hart.detach_tracer()
        # The trapping ecall is observed but does not retire.
        assert observed[0] == machine.hart.instret + 1

    def test_profiler_attributes_loop_pcs(self):
        machine, telemetry = traced_machine(trace=False, metrics=False)
        machine.run(10_000, fast=True)
        telemetry.detach()
        profiler = telemetry.profiler
        assert profiler.total == machine.hart.instret + 1
        loop = PROGRAM.symbol("loop")
        # Two instructions per iteration, 20 iterations.
        assert profiler.samples[loop] == 20
        assert profiler.samples[loop + 4] == 20


class TestMetricsMirroring:
    def test_stats_are_mirrored_and_idempotent(self):
        machine, telemetry = traced_machine()
        machine.run(10_000, fast=True)
        telemetry.detach()
        registry = telemetry.registry
        stats = machine.engine.stats
        assert registry.counter_value("crypto.encryptions") == stats.encryptions
        assert registry.counter_value("crypto.decryptions") == stats.decryptions
        blocks = machine.hart.blocks
        assert registry.counter_value("block.misses") == blocks.misses
        assert registry.counter_value("block.hits") == blocks.hits
        assert registry.counter_value("block.translations") == (
            blocks.translations
        )
        # Event-driven counters agree with the recorder.
        assert registry.counter_value("events.trap.enter") == 1
        assert registry.counter_value("events.crypto.op") == 2
        # collect() mirrors by assignment: calling it again via
        # metrics_json() must not double-count.
        first = telemetry.metrics_json()
        second = telemetry.metrics_json()
        assert first == second

    def test_wrapping_the_dispatch_table_is_not_a_guest_flush(self):
        """The profile plane drops translated blocks on attach and on
        detach; neither drop is reported as the guest's."""
        machine, telemetry = traced_machine()
        machine.run(10_000, fast=True)
        telemetry.detach()
        assert machine.hart.blocks.translations > 0
        assert telemetry.registry.counter_value("block.flushes") == 0
        assert telemetry.registry.counter_value("block.invalidated") == 0

    def test_real_code_rewrites_are_still_reported(self):
        untraced = machine_with_keys(assemble(SMC_SOURCE))
        untraced.run(10_000, fast=True)
        expected = untraced.hart.blocks.invalidated_blocks
        assert expected > 0
        machine = machine_with_keys(assemble(SMC_SOURCE))
        telemetry = Telemetry()
        telemetry.attach(machine)
        machine.run(10_000, fast=True)
        telemetry.detach()
        assert telemetry.registry.counter_value("block.invalidated") == (
            expected
        )
        assert machine.hart.regs.by_name("a0") == (
            untraced.hart.regs.by_name("a0")
        )


class TestAttachDetach:
    def test_detach_restores_exact_dispatch(self):
        machine = machine_with_keys(assemble(SOURCE))
        hart = machine.hart
        original_dispatch = hart._dispatch
        original_enter = hart._enter_trap
        telemetry = Telemetry()
        telemetry.attach(machine)
        assert hart._dispatch is not original_dispatch
        telemetry.detach()
        assert hart._dispatch is original_dispatch
        # Bound methods compare equal, never identical.
        assert hart._enter_trap == original_enter
        assert machine.engine.clb.trace_hook is None
        assert machine.engine.trace_hook is None
        assert hart.blocks.trace_hook is None
        assert hart.csrs.trace_hook is None
        assert hart.trace_hook is None

    def test_attach_twice_is_rejected(self):
        machine = machine_with_keys(assemble(SOURCE))
        telemetry = Telemetry()
        telemetry.attach(machine)
        try:
            try:
                telemetry.attach(machine)
                raised = False
            except RuntimeError:
                raised = True
            assert raised
        finally:
            telemetry.detach()

    def test_detach_keeps_another_attachments_snapshot_sink(self):
        # Snapshot events belong to the machine they read: another
        # machine's attachment cannot remove A's, and a fork of a
        # machine nothing observes lands on no trace.
        from repro.snapshot import fork
        from repro.telemetry.events import SNAPSHOT_FORK

        machine = machine_with_keys(assemble(SOURCE))
        telemetry = Telemetry()
        telemetry.attach(machine)
        try:
            other_machine = machine_with_keys(assemble(SOURCE))
            other = Telemetry(trace=False, metrics=False)
            other.attach(other_machine)
            other.detach()
            fork(other_machine)
            assert len(telemetry.recorder.by_kind(SNAPSHOT_FORK)) == 0
            fork(machine)
            assert len(telemetry.recorder.by_kind(SNAPSHOT_FORK)) == 1
        finally:
            telemetry.detach()

    def test_detach_gives_back_the_hooks_it_found(self):
        # A speculative engine with its own bus hook, as the transient
        # attacks attach it, keeps reporting after any telemetry
        # attachment comes and goes.
        from repro.machine.spec import SpeculativeEngine
        from repro.telemetry import TraceRecorder

        machine = machine_with_keys(assemble(SOURCE))
        engine = SpeculativeEngine()
        machine.hart.attach_speculation(engine)
        bus = TraceBus()
        recorder = TraceRecorder()
        bus.subscribe(SPEC_WINDOW, recorder)
        own_hook = bus.make_hook(lambda: machine.hart.cycles)
        engine.trace_hook = own_hook
        for planes in ({"trace": False, "metrics": False}, {}):
            telemetry = Telemetry(**planes)
            telemetry.attach(machine)
            telemetry.detach()
            assert engine.trace_hook is own_hook
        machine.run(10_000, fast=True)
        machine.hart.detach_speculation()
        assert engine.stats.windows > 0
        assert len(recorder.by_kind(SPEC_WINDOW)) == engine.stats.windows

    def test_detach_is_idempotent(self):
        machine = machine_with_keys(assemble(SOURCE))
        telemetry = Telemetry()
        telemetry.attach(machine)
        telemetry.detach()
        telemetry.detach()  # must not raise
        assert not telemetry.attached
