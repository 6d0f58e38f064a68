"""The three differential oracles.

Every oracle returns an :class:`OracleOutcome`; ``ok=False`` means a
*divergence* — two execution paths that must agree did not — never
merely "the program trapped" (traps are legal behaviour both paths must
reproduce identically).

1. :func:`run_differential` — the same program on two machines, one
   single-stepping, one through the block translation cache; full
   architectural state must match, including cycle/instret counters,
   trap side effects and crypto-engine/CLB state.
2. :func:`run_snapshot` — one uninterrupted fast-path run vs. run k
   steps → capture → serialize → deserialize → restore → resume; the
   serialized form must also be stable (capture∘restore = identity).
3. :func:`run_compiler` — a random mini-IR program compiled with
   protection off and on: both binaries round-trip through the
   disassembler word-by-word, both runs halt with identical observable
   results, and the protected build's sensitive field is not stored in
   plaintext.

One more oracle is opt-in: :func:`run_spec_convergence` (speculation
must be architecturally invisible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase
from repro.fuzz.harness import build_machine, harness_source
from repro.isa import assemble
from repro.isa.decoder import DecodeError, decode
from repro.isa.disassembler import disassemble
from repro.isa.encoder import encode
from repro.machine import HaltReason, architectural_state, diff_states
from repro.machine.spec import SpecConfig, SpeculativeEngine
from repro.snapshot import capture, from_bytes, restore, to_bytes
from repro.telemetry.bus import TraceBus
from repro.telemetry.events import INSN_RETIRE, TRAP_ENTER

__all__ = [
    "OracleOutcome",
    "run_differential",
    "run_snapshot",
    "run_spec_convergence",
    "run_compiler",
    "roundtrip_words",
]

#: Per-case step budget: generous enough for every generated case,
#: small enough that a mutated infinite loop costs milliseconds.
CASE_STEP_BUDGET = 4000


@dataclass
class OracleOutcome:
    ok: bool
    oracle: str
    detail: str = ""
    diffs: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _run_guarded(machine, max_steps: int, fast: bool):
    """Run; a Python-level error (e.g. trap with mtvec=0) is an outcome."""
    try:
        machine.run(max_steps, fast=fast)
        return None
    except ReproError as error:
        return f"{type(error).__name__}: {error}"


def _compare(ref, dut, oracle: str, context: str) -> OracleOutcome:
    left = architectural_state(ref)
    right = architectural_state(dut)
    if left == right:
        return OracleOutcome(True, oracle)
    diffs = diff_states(left, right)
    return OracleOutcome(
        False, oracle,
        detail=f"{context}: {len(diffs)} field(s) diverged",
        diffs=diffs[:40],
    )


# -- oracle 1: step vs run_block vs compiled ----------------------------------


def run_differential(
    case: FuzzCase,
    coverage=None,
    mutate_hart=None,
    max_steps: int = CASE_STEP_BUDGET,
    observers=None,
) -> OracleOutcome:
    """All three execution tiers must be bit-identical.

    One reference machine single-steps; one DUT runs the block
    interpreter with the compiled tier pinned off; a second DUT runs
    with the compiled tier forced on (threshold 1, so every translated
    block is compiled and chained).  Full architectural state must
    match pairwise.

    ``coverage`` (a CoverageMap) observes the reference run through the
    telemetry trace bus (``insn.retire`` through ``attach_tracer``,
    ``trap.enter`` through the hart's ``trace_hook``); ``observers``
    is an optional iterable of extra ``(kind, callback)`` subscriptions
    for the same bus (the campaign's ``--telemetry`` counters).
    ``mutate_hart`` is a test hook: it receives both fast-path harts so
    mutation tests can plant a bug and watch the oracle catch it.
    """
    program = assemble(harness_source(list(case.body_words), case.reg_seed))
    ref = build_machine(program)
    dut_block = build_machine(program)
    dut_block.hart.compile_enabled = False
    dut_compiled = build_machine(program)
    dut_compiled.hart.compile_threshold = 1
    if coverage is not None or observers:
        bus = TraceBus()
        if coverage is not None:
            bus.subscribe(INSN_RETIRE, coverage.record_instruction)
            bus.subscribe(TRAP_ENTER, coverage.record_trap_event)
        for kind, callback in observers or ():
            bus.subscribe(kind, callback)
        ref.hart.attach_tracer(bus)
        ref.hart.trace_hook = bus.make_hook(lambda: ref.hart.cycles)
    if mutate_hart is not None:
        mutate_hart(dut_block.hart)
        mutate_hart(dut_compiled.hart)
    error_ref = _run_guarded(ref, max_steps, fast=False)
    error_block = _run_guarded(dut_block, max_steps, fast=True)
    error_compiled = _run_guarded(dut_compiled, max_steps, fast=True)
    if coverage is not None:
        coverage.record_engine(ref)
    if not (error_ref == error_block == error_compiled):
        return OracleOutcome(
            False, "step_vs_block",
            detail=(
                f"errors diverged: step={error_ref!r} "
                f"block={error_block!r} compiled={error_compiled!r}"
            ),
        )
    outcome = _compare(ref, dut_block, "step_vs_block", case.name)
    if not outcome:
        return outcome
    return _compare(
        ref, dut_compiled, "step_vs_block", f"{case.name}[compiled]"
    )


# -- oracle 2: snapshot/restore/resume ----------------------------------------


def run_snapshot(
    case: FuzzCase,
    rng: Random,
    max_steps: int = CASE_STEP_BUDGET,
) -> OracleOutcome:
    """Interrupting a run with a serialized snapshot must be invisible."""
    program = assemble(harness_source(list(case.body_words), case.reg_seed))
    straight = build_machine(program)
    if _run_guarded(straight, max_steps, fast=True) is not None:
        # Unharnessable case (e.g. clobbered trap vector): oracle 1
        # already checks those; nothing to snapshot here.
        return OracleOutcome(True, "snapshot", detail="skipped: run errored")

    retired = max(1, straight.hart.instret)
    cut = rng.randint(1, retired)
    first = build_machine(program)
    first.run(cut, fast=True)

    snapshot = capture(first)
    blob = to_bytes(snapshot)
    resumed = restore(from_bytes(blob))
    reblob = to_bytes(capture(resumed))
    if reblob != blob:
        return OracleOutcome(
            False, "snapshot",
            detail=f"{case.name}: serialization not stable across "
            f"restore ({len(blob)} vs {len(reblob)} bytes)",
        )
    resumed.run(max_steps - cut, fast=True)
    return _compare(
        straight, resumed, "snapshot", f"{case.name} cut@{cut}"
    )


# -- oracle 3: compiler round-trip --------------------------------------------


def roundtrip_words(program) -> tuple[int, list[str]]:
    """Every .text word: decode → re-encode and disassemble → re-assemble.

    Returns (words checked, mismatch descriptions).
    """
    section = program.sections[".text"]
    data = section.data
    mismatches = []
    count = 0
    for offset in range(0, len(data) - len(data) % 4, 4):
        word = int.from_bytes(data[offset:offset + 4], "little")
        count += 1
        try:
            ins = decode(word)
        except DecodeError:
            mismatches.append(f"+{offset:#x}: {word:#010x} does not decode")
            continue
        reencoded = encode(ins)
        if reencoded != word:
            mismatches.append(
                f"+{offset:#x}: {word:#010x} re-encodes to {reencoded:#010x}"
            )
            continue
        text = disassemble(ins)
        try:
            single = assemble(f"_start:\n    {text}\n")
            word2 = int.from_bytes(
                single.sections[".text"].data[:4], "little"
            )
        except ReproError as error:
            mismatches.append(
                f"+{offset:#x}: {text!r} does not re-assemble: {error}"
            )
            continue
        if word2 != word:
            mismatches.append(
                f"+{offset:#x}: {text!r} re-assembles to "
                f"{word2:#010x}, expected {word:#010x}"
            )
    return count, mismatches


def run_compiler(steps, max_steps: int = 3_000_000) -> OracleOutcome:
    """Protection on vs off: same observable behaviour, different bytes."""
    from repro.compiler.pipeline import CompileOptions, compile_module
    from repro.fuzz.irgen import STARTUP, build_module

    module, vault = build_module(steps)
    runs = {}
    total_words = 0
    for options in (CompileOptions.baseline(), CompileOptions.full()):
        compiled = compile_module(module, options)
        program = assemble(STARTUP + compiled.asm)
        words, mismatches = roundtrip_words(program)
        total_words += words
        if mismatches:
            return OracleOutcome(
                False, "compiler",
                detail=f"{options.name}: {len(mismatches)} round-trip "
                "mismatch(es)",
                diffs=mismatches[:20],
            )
        machine = build_machine(program)
        reason = machine.run(max_steps)
        if reason is not HaltReason.SHUTDOWN:
            return OracleOutcome(
                False, "compiler",
                detail=f"{options.name}: did not halt ({reason})",
            )
        slot = compiled.layout.struct_layout(vault).slot("b")
        address = program.symbol("vault") + slot.offset
        runs[options.name] = {
            "exit_code": machine.exit_code,
            "console": machine.console,
            "b_cell": machine.read_u64(address),
        }
    base, full = runs["baseline"], runs["full"]
    if base["exit_code"] != full["exit_code"]:
        return OracleOutcome(
            False, "compiler",
            detail=f"exit codes diverge: baseline={base['exit_code']} "
            f"full={full['exit_code']}",
        )
    if base["console"] != full["console"]:
        return OracleOutcome(False, "compiler", detail="console diverges")
    if base["b_cell"] == full["b_cell"]:
        return OracleOutcome(
            False, "compiler",
            detail="protected field 'vault.b' is stored in plaintext "
            f"({base['b_cell']:#x}) in the full build",
        )
    outcome = OracleOutcome(True, "compiler")
    outcome.words = total_words
    return outcome


# -- oracle 4: speculative convergence ----------------------------------------


def run_spec_convergence(
    case: FuzzCase,
    max_steps: int = CASE_STEP_BUDGET,
    spec_config: SpecConfig | None = None,
) -> OracleOutcome:
    """Speculation must be architecturally invisible.

    The same harnessed case runs twice on the fast path: once plain,
    once with a :class:`SpeculativeEngine` attached — every transient
    window the predictor opens (down mispredicted paths, through SMC'd
    regions, into faulting loads) must squash without a trace.  Full
    architectural state, cycle/instret counters and crypto-engine state
    must be bit-identical afterwards.
    """
    program = assemble(harness_source(list(case.body_words), case.reg_seed))
    ref = build_machine(program)
    dut = build_machine(program)
    spec = SpeculativeEngine(spec_config or SpecConfig())
    dut.hart.attach_speculation(spec)
    try:
        error_ref = _run_guarded(ref, max_steps, fast=True)
        error_dut = _run_guarded(dut, max_steps, fast=True)
    finally:
        dut.hart.detach_speculation()
    if error_ref != error_dut:
        outcome = OracleOutcome(
            False, "spec_convergence",
            detail=f"errors diverged: plain={error_ref!r} "
            f"spec={error_dut!r}",
        )
    else:
        outcome = _compare(ref, dut, "spec_convergence", case.name)
    outcome.windows = spec.stats.windows
    outcome.transient_instructions = spec.stats.transient_instructions
    return outcome
