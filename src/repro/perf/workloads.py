"""Fixed benchmark workloads for the perf harness.

Two kinds of workload live here:

* **Interpreter workloads** (:class:`InterpWorkload`) boot a kernel and
  run it to completion twice — once single-stepped, once through the
  basic-block fast path — and assert that both runs retire the same
  instruction count, cycle count, console output and exit code.  The
  reported metric is instructions/sec of simulated execution.

* **Engine workloads** (:class:`EngineWorkload`) exercise the crypto
  engine directly (QARMA throughput, CLB hit/miss behaviour) and report
  operations/sec plus the engine/CLB statistics snapshots.

All workloads are deterministic: fixed seeds, fixed iteration counts
(scaled down under ``--quick``), no wall-clock-dependent control flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compiler.ir import Const
from repro.kernel.config import KernelConfig
from repro.kernel.structs import SYS_GETPPID


# -- user modules ----------------------------------------------------------------


def _storm_module(iterations: int):
    """A tight null-syscall loop: the lmbench ``lat_syscall null`` shape."""
    from repro.bench.workloads.base import make_user_module

    def body(lb):
        acc = lb.accumulate()
        lb.loop(iterations, lambda lb2, i: lb2.add_into(acc, lb2.syscall(SYS_GETPPID)))
        lb.exit(Const(0))

    return make_user_module(body)


def _compute_module(iterations: int):
    """A dispatch-bound ALU kernel (mix of mul/shift/xor per iteration).

    This is the steady-state half of ``kernel_boot``: the boot itself
    exercises translation and compile *overhead* (every block is cold),
    while this loop exercises sustained execution where the compiled
    tier's direct chaining should dominate.
    """
    from repro.bench.workloads.base import make_user_module

    def body(lb):
        acc = lb.accumulate()

        def step(lb2, i):
            b = lb2.b
            mixed = b.xor(b.mul(i, i), b.shl(i, Const(3)))
            lb2.add_into(acc, b.and_(mixed, Const(0xFFFF)))

        lb.loop(iterations, step)
        lb.exit(Const(0))

    return make_user_module(body)


# -- interpreter workloads -------------------------------------------------------


@dataclass(frozen=True)
class InterpWorkload:
    """A kernel run measured under both interpreter modes."""

    name: str
    description: str
    #: ``make_config(quick) -> KernelConfig``
    make_config: Callable[[bool], KernelConfig]
    #: ``make_module(quick) -> Module | None`` (None = default boot payload)
    make_module: Callable[[bool], object] = lambda quick: None
    max_steps: int = 20_000_000

    def build_session(self, quick: bool):
        from repro.kernel.api import KernelSession

        return KernelSession(
            self.make_config(quick), self.make_module(quick)
        )


def _boot_config(quick: bool) -> KernelConfig:
    # The unprotected build is the pure-interpreter measurement: with
    # protections on, QARMA (pure Python) dominates the profile and the
    # dispatch win is masked — that case is kernel_boot_protected below.
    return KernelConfig.baseline(num_threads=2 if quick else 8)


def _boot_protected_config(quick: bool) -> KernelConfig:
    return KernelConfig.full(num_threads=1 if quick else 2)


def _storm_config(quick: bool) -> KernelConfig:
    return KernelConfig.full()


INTERP_WORKLOADS: tuple[InterpWorkload, ...] = (
    InterpWorkload(
        name="kernel_boot",
        description=(
            "Boot the unprotected (baseline-config) kernel with 8 "
            "threads and run a dispatch-bound ALU loop to shutdown.  "
            "Interpreter-bound: measures raw dispatch throughput, cold "
            "translation through the boot and steady state through the "
            "compute payload."
        ),
        make_config=_boot_config,
        make_module=lambda quick: _compute_module(2_000 if quick else 40_000),
    ),
    InterpWorkload(
        name="kernel_boot_protected",
        description=(
            "Boot the fully-protected kernel (RA+FP+noncontrol+spill"
            "+CIP, QARMA, 8-entry CLB).  Crypto-bound: QARMA in Python "
            "dominates, so the dispatch speedup is intentionally "
            "diluted here."
        ),
        make_config=_boot_protected_config,
    ),
    InterpWorkload(
        name="syscall_storm",
        description=(
            "Fully-protected kernel running a tight getppid() loop "
            "(lmbench lat_syscall null shape): trap entry/exit, CIP "
            "seal/unseal and scheduler interaction under load."
        ),
        make_config=_storm_config,
        make_module=lambda quick: _storm_module(60 if quick else 300),
    ),
)


# -- attack-suite replay ---------------------------------------------------------


def run_attack_replay(quick: bool, use_boot_cache: bool = True) -> dict:
    """Replay the Table-4 penetration tests; return outcome fingerprint.

    The fingerprint (attack, config, outcome) triples double as the
    equivalence check between interpreter modes: an attack suite that
    changes verdicts under the fast path means the fast path is wrong.

    A fresh :class:`~repro.kernel.BootCache` serves each replay (one
    boot per config, one fork per cell) unless ``use_boot_cache`` is
    False.
    """
    from repro.attacks.suite import ALL_ATTACKS, run_attack

    boot_cache = None
    if use_boot_cache:
        from repro.kernel import BootCache

        boot_cache = BootCache()
    attacks = ALL_ATTACKS[:3] if quick else ALL_ATTACKS
    configs = (KernelConfig.baseline(), KernelConfig.full())
    fingerprint = []
    for attack_cls in attacks:
        for config in configs:
            result = run_attack(attack_cls, config, boot_cache)
            fingerprint.append(
                (result.attack, result.config, result.succeeded)
            )
    return {
        "results": len(fingerprint),
        "succeeded": sum(1 for _, _, ok in fingerprint if ok),
        "fingerprint": fingerprint,
    }


# -- snapshot / fork throughput ---------------------------------------------------


def run_snapshot_workload(quick: bool) -> dict:
    """Measure snapshot capture/serialize/restore and COW-fork throughput.

    Micro-benchmarks run against a fully-protected kernel parked at the
    first user instruction; the macro number replays the attack suite
    cold (boot from reset per cell) and warm (boot once per config,
    fork per cell) and verifies the verdicts are identical.
    """
    import time

    from repro import snapshot as snap
    from repro.kernel import KernelSession

    session = KernelSession(KernelConfig.full())
    assert session.run_until(session.image.user_program.entry)
    machine = session.machine

    iterations = 5 if quick else 25

    def timed(operation):
        start = time.perf_counter()
        for _ in range(iterations):
            operation()
        return iterations / (time.perf_counter() - start)

    reference = snap.capture(machine)
    data = snap.to_bytes(reference)
    rates = {
        "capture_per_second": timed(lambda: snap.capture(machine)),
        "serialize_per_second": timed(lambda: snap.to_bytes(reference)),
        "deserialize_per_second": timed(lambda: snap.from_bytes(data)),
        "restore_per_second": timed(lambda: snap.restore(reference)),
        "fork_per_second": timed(lambda: snap.fork(machine)),
    }

    # Macro comparison — the two real operating points of the suite:
    # cold start (fresh process: compile every kernel, boot from reset
    # per cell) vs steady state (templates and build caches live: fork
    # per cell).  A warm-up replay populates the caches off the clock,
    # exactly as repeat invocations of the suite do in practice.
    from repro.isa.decoder import clear_decode_cache
    from repro.kernel.build import _KERNEL_CACHE

    _KERNEL_CACHE.clear()
    clear_decode_cache()
    cold_start = time.perf_counter()
    cold = run_attack_replay(quick, use_boot_cache=False)
    cold_wall = time.perf_counter() - cold_start

    from repro.attacks.suite import ALL_ATTACKS, run_attack
    from repro.kernel import BootCache

    boot_cache = BootCache()
    attacks = ALL_ATTACKS[:3] if quick else ALL_ATTACKS
    configs = (KernelConfig.baseline(), KernelConfig.full())

    def replay() -> list:
        fingerprint = []
        for attack_cls in attacks:
            for config in configs:
                result = run_attack(attack_cls, config, boot_cache)
                fingerprint.append(
                    (result.attack, result.config, result.succeeded)
                )
        return fingerprint

    warmup_fingerprint = replay()  # populates the templates off-clock
    warm_start = time.perf_counter()
    warm_fingerprint = replay()
    warm_wall = time.perf_counter() - warm_start

    return {
        "pages": len(reference.memory.pages),
        "snapshot_bytes": len(data),
        "content_hash": reference.content_hash(),
        **rates,
        "suite": {
            "attacks_run": cold["results"],
            "equivalent": cold["fingerprint"] == warm_fingerprint
            and cold["fingerprint"] == warmup_fingerprint,
            "cold_wall_seconds": cold_wall,
            "warm_wall_seconds": warm_wall,
            "speedup": cold_wall / warm_wall,
            "template_boots": boot_cache.boots,
            "forks": boot_cache.forks,
        },
    }


# -- engine workloads ------------------------------------------------------------


@dataclass(frozen=True)
class EngineWorkload:
    """A direct crypto-engine benchmark (no simulated hart)."""

    name: str
    description: str
    #: ``run(quick) -> (operations, extra_stats_dict)``
    run: Callable[[bool], tuple[int, dict]]


def _qarma_throughput(quick: bool) -> tuple[int, dict]:
    """Raw QARMA ops/sec with the CLB disabled (every op computes).

    The engine loop runs with the memo disabled (every tweak is fresh
    anyway), so this measures the table-fused cipher fast path; a short
    reference-path loop alongside it reports the host speedup of the
    fused implementation over the cell-list reference.
    """
    import time

    from repro.crypto.engine import CryptoEngine
    from repro.crypto.keys import KeySelect
    from repro.crypto.primitives import FULL_RANGE
    from repro.crypto.qarma import Qarma64

    engine = CryptoEngine(clb_entries=0, memo_entries=0)
    engine.key_file.set_key(KeySelect.A, 0x0123456789ABCDEF0123456789ABCDEF)
    iterations = 500 if quick else 5_000
    value = 0x1111111111111111
    for i in range(iterations):
        tweak = 0x8000_0000 + 8 * i
        sealed, _ = engine.encrypt(KeySelect.A, value, FULL_RANGE, tweak)
        value, _ = engine.decrypt(KeySelect.A, sealed, FULL_RANGE, tweak)

    # Fast path vs reference path, same cipher object and inputs.
    cipher = Qarma64()
    key = 0x0123456789ABCDEF0123456789ABCDEF
    ref_iters = max(1, iterations // 10)
    start = time.perf_counter()
    for i in range(ref_iters):
        cipher.encrypt(0x2222222222222222 + i, 0x9000 + i, key)
    fast_wall = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(ref_iters):
        cipher.encrypt_reference(0x2222222222222222 + i, 0x9000 + i, key)
    reference_wall = time.perf_counter() - start
    return engine.stats.operations, {
        "engine": engine.stats.snapshot(),
        "fast_path_speedup": reference_wall / fast_wall,
    }


def _clb_sweep(quick: bool) -> tuple[int, dict]:
    """CLB hit/miss sweep: high-locality vs low-locality phases.

    Phase 1 re-seals the same 4 (value, tweak) pairs — the function
    prologue/epilogue pattern the 8-entry CLB is designed for — and
    should approach a 100% hit ratio.  Phase 2 streams unique tweaks
    (working set >> 8 entries) and should approach 0%.
    """
    from repro.crypto.engine import CryptoEngine
    from repro.crypto.keys import KeySelect
    from repro.crypto.primitives import FULL_RANGE

    engine = CryptoEngine(clb_entries=8)
    engine.key_file.set_key(KeySelect.A, 0xFEDCBA9876543210FEDCBA9876543210)
    rounds = 50 if quick else 500

    # High locality: 4 hot lines, revisited every round.
    hot = [(0x2222 * (i + 1), 0x9000_0000 + 8 * i) for i in range(4)]
    for _ in range(rounds):
        for value, tweak in hot:
            sealed, _ = engine.encrypt(KeySelect.A, value, FULL_RANGE, tweak)
            engine.decrypt(KeySelect.A, sealed, FULL_RANGE, tweak)
    high = engine.clb.stats.snapshot()
    engine.reset_stats()

    # Low locality: every access uses a fresh tweak.
    for i in range(rounds * 8):
        tweak = 0xA000_0000 + 8 * i
        engine.encrypt(KeySelect.A, 0x3333_3333, FULL_RANGE, tweak)
    low = engine.clb.stats.snapshot()

    operations = high["accesses"] + low["accesses"]
    return operations, {
        "high_locality": high,
        "low_locality": low,
    }


ENGINE_WORKLOADS: tuple[EngineWorkload, ...] = (
    EngineWorkload(
        name="qarma_throughput",
        description="Raw QARMA-64 encrypt+decrypt round-trips, CLB off.",
        run=_qarma_throughput,
    ),
    EngineWorkload(
        name="clb_sweep",
        description=(
            "8-entry CLB under a high-locality phase (4 hot lines) and "
            "a low-locality phase (streaming tweaks)."
        ),
        run=_clb_sweep,
    ),
)


#: Every workload name the CLI accepts, in report order.
WORKLOADS: tuple[str, ...] = (
    tuple(w.name for w in INTERP_WORKLOADS)
    + ("attack_replay", "snapshot")
    + tuple(w.name for w in ENGINE_WORKLOADS)
)
