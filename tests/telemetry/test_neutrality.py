"""Telemetry neutrality: observation must change nothing, anywhere.

The subsystem's core contract is that attaching the full telemetry
stack — tracing, metrics, profiling, kernel probe — is architecturally
invisible.  These tests prove it bit-for-bit:

* identical ``architectural_state`` / ``state_digest`` for a traced vs
  untraced run (bare metal and full kernel boot);
* identical cycle and instret counters;
* identical snapshot bytes when captured under an installed trace hook;
* identical fuzz-campaign reports modulo the opt-in ``telemetry`` key;
* the disabled path leaves no residue (and no measurable slowdown).
"""

from __future__ import annotations

import time

from repro.fuzz import FuzzConfig, run_campaign
from repro.isa import assemble
from repro.machine.compare import architectural_state, diff_states, state_digest
from repro.snapshot import capture, to_bytes
from repro.telemetry.runner import run_workload
from repro.telemetry.tracer import Telemetry
from tests.conftest import HALT, machine_with_keys

SOURCE = f"""
_start:
    la t0, handler
    csrw mtvec, t0
    li s0, 0
    li s1, 300
loop:
    addi s0, s0, 1
    li a1, 0x42
    creak a2, a1[7:0], s0
    crdak a3, a2, s0, [7:0]
    blt s0, s1, loop
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


def run_plain(fast: bool, max_steps: int = 100_000):
    machine = machine_with_keys(assemble(SOURCE))
    machine.run(max_steps, fast=fast)
    return machine


def run_traced(fast: bool, max_steps: int = 100_000):
    machine = machine_with_keys(assemble(SOURCE))
    telemetry = Telemetry()
    telemetry.attach(machine)
    try:
        machine.run(max_steps, fast=fast)
    finally:
        telemetry.detach()
    return machine


class TestMachineNeutrality:
    def assert_identical(self, plain, traced):
        diffs = diff_states(
            architectural_state(plain), architectural_state(traced)
        )
        assert not diffs, "telemetry changed state:\n" + "\n".join(diffs)
        assert state_digest(plain) == state_digest(traced)
        assert plain.hart.cycles == traced.hart.cycles
        assert plain.hart.instret == traced.hart.instret

    def test_slow_path_is_unchanged(self):
        self.assert_identical(run_plain(False), run_traced(False))

    def test_fast_path_is_unchanged(self):
        self.assert_identical(run_plain(True), run_traced(True))

    def test_traced_fast_matches_plain_slow(self):
        # Transitively: tracing preserves the fast path's equivalence
        # contract with single-stepping.
        self.assert_identical(run_plain(False), run_traced(True))


class TestKernelNeutrality:
    def test_traced_boot_is_bit_identical(self):
        from repro.perf.workloads import INTERP_WORKLOADS

        workload = {w.name: w for w in INTERP_WORKLOADS}[
            "kernel_boot_protected"
        ]
        plain = workload.build_session(quick=True)
        plain_result = plain.run(workload.max_steps)

        traced = run_workload("kernel_boot_protected", quick=True)

        assert traced.cycles == plain_result.cycles
        assert traced.instructions == plain_result.instructions
        assert traced.exit_code == plain_result.exit_code
        assert traced.console == plain_result.console


class TestSnapshotNeutrality:
    def test_snapshot_bytes_identical_under_tracing(self):
        steps = 500
        plain = machine_with_keys(assemble(SOURCE))
        plain.run(steps, fast=True)
        baseline = to_bytes(capture(plain))

        traced = machine_with_keys(assemble(SOURCE))
        telemetry = Telemetry()
        telemetry.attach(traced)
        try:
            traced.run(steps, fast=True)
            # Captured while the hart's trace hook is installed: the
            # capture is observed (snapshot.capture event) but unchanged.
            blob = to_bytes(capture(traced))
        finally:
            telemetry.detach()
        assert blob == baseline
        events = telemetry.recorder.by_kind("snapshot.capture")
        assert len(events) == 1
        assert events[0].data["include_pages"] is True


class TestFuzzNeutrality:
    def test_campaign_report_identical_modulo_telemetry_key(self):
        base = FuzzConfig(seed=11, budget=24, emit_dir=None)
        counted = FuzzConfig(seed=11, budget=24, emit_dir=None,
                             telemetry=True)
        plain = run_campaign(base)
        traced = run_campaign(counted)
        block = traced.pop("telemetry")
        assert plain == traced
        assert block["insns_observed"] > 0
        # Cases may halt inside a handler, so exits can trail entries.
        assert 0 <= block["traps_exited"] <= block["traps_entered"]


class TestDisabledPath:
    def test_fresh_machine_has_no_hooks(self):
        machine = machine_with_keys(assemble(SOURCE))
        assert machine.engine.clb.trace_hook is None
        assert machine.engine.trace_hook is None
        assert machine.hart.blocks.trace_hook is None
        assert machine.hart.csrs.trace_hook is None
        assert machine.hart.trace_hook is None

    def test_detached_machine_runs_at_full_speed(self):
        """Attach-then-detach must leave no measurable residue (≤5%).

        The structural check above is the real guarantee (the dispatch
        table is literally the original object again); this timing pass
        is a smoke test, best-of-3 with retries to tolerate scheduler
        noise.
        """
        for attempt in range(4):
            baseline = float("inf")
            cycled = float("inf")
            for _ in range(3):
                fresh = machine_with_keys(assemble(SOURCE))
                started = time.perf_counter()
                fresh.run(100_000, fast=True)
                baseline = min(baseline, time.perf_counter() - started)

                detached = machine_with_keys(assemble(SOURCE))
                telemetry = Telemetry()
                telemetry.attach(detached)
                telemetry.detach()
                started = time.perf_counter()
                detached.run(100_000, fast=True)
                cycled = min(cycled, time.perf_counter() - started)
            if cycled <= baseline * 1.05:
                return
        assert cycled <= baseline * 1.05, (
            f"detached run {cycled:.4f}s vs baseline {baseline:.4f}s"
        )


class TestSpecNeutrality:
    """Speculation off (the default) must be provably absent.

    A build that never attaches a SpeculativeEngine is bit-identical to
    one that never imported the module; an attach/detach cycle leaves
    no residue; and every opt-in surface (fuzz report, attack matrix)
    serializes identically with the feature off.
    """

    def test_spec_attach_detach_leaves_no_residue(self):
        from repro.machine.spec import SpeculativeEngine

        plain = machine_with_keys(assemble(SOURCE))
        plain.run(100_000, fast=True)

        cycled = machine_with_keys(assemble(SOURCE))
        original = cycled.hart._dispatch
        engine = SpeculativeEngine()
        cycled.hart.attach_speculation(engine)
        cycled.hart.detach_speculation()
        assert cycled.hart._dispatch is original
        assert cycled.hart.spec is None
        cycled.run(100_000, fast=True)

        assert state_digest(plain) == state_digest(cycled)
        diffs = diff_states(
            architectural_state(plain), architectural_state(cycled)
        )
        assert not diffs, "spec attach/detach left residue:\n" + \
            "\n".join(diffs)

    def test_spec_enabled_run_is_architecturally_invisible(self):
        from repro.machine.spec import SpeculativeEngine

        plain = machine_with_keys(assemble(SOURCE))
        plain.run(100_000, fast=True)

        specced = machine_with_keys(assemble(SOURCE))
        engine = SpeculativeEngine()
        specced.hart.attach_speculation(engine)
        try:
            specced.run(100_000, fast=True)
        finally:
            specced.hart.detach_speculation()
        assert engine.stats.branches > 0  # the front-end saw the run
        assert state_digest(plain) == state_digest(specced)
        assert plain.hart.cycles == specced.hart.cycles

    def test_campaign_report_identical_modulo_spec_keys(self):
        import json

        base = FuzzConfig(seed=13, budget=24, emit_dir=None)
        specced = FuzzConfig(seed=13, budget=24, emit_dir=None, spec=True)
        plain = run_campaign(base)
        spec_report = run_campaign(specced)

        assert spec_report.pop("spec") is True
        oracle_block = spec_report["oracles"].pop("spec_convergence")
        assert oracle_block["divergences"] == 0
        assert oracle_block["cases"] > 0
        # Canonical JSON equality: the exact bytes CI would diff.
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(spec_report, sort_keys=True)

    def test_default_attack_matrix_unchanged_by_transient_runs(self):
        import json

        from repro.attacks.suite import matrix_json, run_suite
        from repro.attacks.transient import TRANSIENT_ATTACKS
        from repro.kernel import KernelConfig

        configs = (KernelConfig.baseline(), KernelConfig.full())
        before = json.dumps(
            matrix_json(run_suite(configs)), sort_keys=True
        )
        # Running the transient family must not perturb a subsequent
        # default matrix (no global state, no predictor residue).
        run_suite(configs, use_boot_cache=False,
                  attacks=TRANSIENT_ATTACKS)
        after = json.dumps(
            matrix_json(run_suite(configs)), sort_keys=True
        )
        assert before == after
