"""Measure the perf workloads and assemble the benchmark report.

Interpreter workloads run once per mode (single-step baseline vs the
block fast path) per repeat; the best wall-clock of the repeats is kept
to damp scheduler noise, while the architectural results — which must
be identical across repeats *and* modes — are cross-checked every time.
"""

from __future__ import annotations

import json
import platform
import time

from repro.machine.machine import Machine
from repro.perf.workloads import (
    ENGINE_WORKLOADS,
    INTERP_WORKLOADS,
    WORKLOADS,
    run_attack_replay,
    run_snapshot_workload,
)

SCHEMA = "repro.perf/1"
#: Bumped whenever a key is added/renamed; BENCH_history extraction and
#: CI artifact diffs key off this.
SCHEMA_VERSION = 1


class EquivalenceError(AssertionError):
    """Fast path and single-step baseline disagreed on architecture."""


#: Execution tiers measured per interpreter workload:
#: ``(name, fast_path, compile_enabled)``.
TIERS = (
    ("baseline", False, False),   # tier 1: single-step interpreter
    ("block", True, False),       # tier 2: predecoded block interpreter
    ("fast", True, True),         # tier 3: compiled blocks + chaining
)


def _measure_interp(workload, quick: bool, mode: str, repeats: int):
    """Run one interpreter workload in one tier; return (metrics, fp)."""
    compile_enabled = {name: comp for name, _, comp in TIERS}[mode]
    best = None
    fingerprint = None
    for _ in range(repeats):
        session = workload.build_session(quick)
        hart = session.machine.hart
        hart.compile_enabled = compile_enabled
        start = time.perf_counter()
        result = session.run(workload.max_steps)
        wall = time.perf_counter() - start
        fp = {
            "halt_reason": getattr(result.halt_reason, "value", None),
            "exit_code": result.exit_code,
            "console": result.console,
            "instructions": result.instructions,
            "cycles": result.cycles,
        }
        if fingerprint is None:
            fingerprint = fp
        elif fp != fingerprint:
            raise EquivalenceError(
                f"{workload.name}: non-deterministic run in tier "
                f"{mode}: {fp} != {fingerprint}"
            )
        blocks = hart.blocks
        candidate = {
            "wall_seconds": wall,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "instructions_per_second": result.instructions / wall,
            "simulated_cycles_per_second": result.cycles / wall,
            "block_translations": blocks.translations,
            "blocks_invalidated": blocks.invalidated_blocks,
            "block_hits": blocks.hits,
            "block_misses": blocks.misses,
            "block_evictions": blocks.evictions,
            "blocks_compiled": hart.compiled_blocks,
        }
        if best is None or wall < best["wall_seconds"]:
            best = candidate
    return best, fingerprint


def _check_equivalence(name: str, slow_fp: dict, fast_fp: dict) -> None:
    if slow_fp == fast_fp:
        return
    diffs = {
        key: (slow_fp[key], fast_fp[key])
        for key in slow_fp
        if slow_fp[key] != fast_fp[key]
    }
    raise EquivalenceError(
        f"{name}: fast path diverged from single-step baseline: {diffs}"
    )


def _run_interp_workload(workload, quick: bool, repeats: int) -> dict:
    saved = Machine.DEFAULT_FAST_PATH
    rows = {}
    fingerprints = {}
    try:
        for mode, fast_path, _ in TIERS:
            Machine.DEFAULT_FAST_PATH = fast_path
            rows[mode], fingerprints[mode] = _measure_interp(
                workload, quick, mode, repeats
            )
    finally:
        Machine.DEFAULT_FAST_PATH = saved
    for mode in ("block", "fast"):
        _check_equivalence(
            f"{workload.name}[{mode}]",
            fingerprints["baseline"],
            fingerprints[mode],
        )
    slow_fp = fingerprints["baseline"]
    baseline_wall = rows["baseline"]["wall_seconds"]
    return {
        "kind": "interpreter",
        "description": workload.description,
        "equivalent": True,
        "instructions": slow_fp["instructions"],
        "simulated_cycles": slow_fp["cycles"],
        "halt_reason": slow_fp["halt_reason"],
        "exit_code": slow_fp["exit_code"],
        "baseline": rows["baseline"],
        "block": rows["block"],
        "fast": rows["fast"],
        # "speedup" stays the headline baseline->top-tier number; the
        # per-tier ratios break it down.
        "speedup": baseline_wall / rows["fast"]["wall_seconds"],
        "block_speedup": baseline_wall / rows["block"]["wall_seconds"],
        "compiled_speedup_over_block": (
            rows["block"]["wall_seconds"] / rows["fast"]["wall_seconds"]
        ),
    }


def _run_attack_replay(quick: bool, repeats: int) -> dict:
    saved = Machine.DEFAULT_FAST_PATH
    try:
        Machine.DEFAULT_FAST_PATH = False
        start = time.perf_counter()
        slow = run_attack_replay(quick)
        slow_wall = time.perf_counter() - start
        Machine.DEFAULT_FAST_PATH = True
        start = time.perf_counter()
        fast = run_attack_replay(quick)
        fast_wall = time.perf_counter() - start
    finally:
        Machine.DEFAULT_FAST_PATH = saved
    if slow["fingerprint"] != fast["fingerprint"]:
        raise EquivalenceError(
            "attack_replay: penetration-test verdicts changed under the "
            f"fast path: {slow['fingerprint']} != {fast['fingerprint']}"
        )
    return {
        "kind": "interpreter",
        "description": (
            "Replay the Table-4 penetration-test matrix under both "
            "interpreter modes; verdicts must match."
        ),
        "equivalent": True,
        "attacks_run": slow["results"],
        "attacks_succeeded": slow["succeeded"],
        "baseline": {"wall_seconds": slow_wall},
        "fast": {"wall_seconds": fast_wall},
        "speedup": slow_wall / fast_wall,
    }


def _run_snapshot_workload(quick: bool) -> dict:
    """Snapshot/fork throughput plus boot-cached attack-suite speedup.

    Runs once regardless of ``repeats``: the macro half replays the
    whole penetration matrix twice (cold and warm), which dwarfs any
    scheduler noise the repeats would damp.
    """
    data = run_snapshot_workload(quick)
    if not data["suite"]["equivalent"]:
        raise EquivalenceError(
            "snapshot: boot-cached attack suite changed verdicts"
        )
    return {
        "kind": "snapshot",
        "description": (
            "Machine snapshot capture/serialize/restore and COW fork "
            "throughput; attack suite cold (boot per cell) vs warm "
            "(boot once per config, fork per cell)."
        ),
        "equivalent": True,
        **data,
    }


def _run_engine_workload(workload, quick: bool, repeats: int) -> dict:
    best = None
    stats = None
    operations = None
    for _ in range(repeats):
        start = time.perf_counter()
        ops, extra = workload.run(quick)
        wall = time.perf_counter() - start
        if operations is None:
            operations, stats = ops, extra
        if best is None or wall < best:
            best = wall
    return {
        "kind": "engine",
        "description": workload.description,
        "operations": operations,
        "wall_seconds": best,
        "operations_per_second": operations / best,
        "stats": stats,
    }


def _telemetry_block(quick: bool) -> dict:
    """One instrumented protected-boot run's metrics, for the report.

    Runs off the benchmark clock (the measured runs above are never
    instrumented) and uses the metrics plane only, so the report gains
    CLB/crypto/block/trap/syscall counters without trace overhead.
    """
    from repro.telemetry.runner import run_workload

    run = run_workload(
        "kernel_boot_protected",
        quick=quick,
        trace=False,
        profile=False,
        metrics=True,
    )
    return {
        "workload": run.workload,
        "metrics": run.telemetry.metrics_json(),
    }


def run_perf(
    quick: bool = False,
    repeats: int | None = None,
    only: list[str] | None = None,
    telemetry: bool = False,
) -> dict:
    """Run the selected workloads; return the JSON-ready report dict."""
    if only:
        unknown = sorted(set(only) - set(WORKLOADS))
        if unknown:
            raise ValueError(
                f"unknown workloads {unknown}; choose from {list(WORKLOADS)}"
            )
    if repeats is None:
        repeats = 1 if quick else 3
    repeats = max(1, repeats)
    selected = set(only) if only else set(WORKLOADS)

    results: dict[str, dict] = {}
    for workload in INTERP_WORKLOADS:
        if workload.name in selected:
            results[workload.name] = _run_interp_workload(
                workload, quick, repeats
            )
    if "attack_replay" in selected:
        results["attack_replay"] = _run_attack_replay(quick, repeats)
    if "snapshot" in selected:
        results["snapshot"] = _run_snapshot_workload(quick)
    for workload in ENGINE_WORKLOADS:
        if workload.name in selected:
            results[workload.name] = _run_engine_workload(
                workload, quick, repeats
            )

    report = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "workloads": results,
    }
    if telemetry:
        report["telemetry"] = _telemetry_block(quick)
    return report


def write_report(report: dict, path: str) -> None:
    # Sorted keys keep BENCH_history diffs and CI artifact comparisons
    # deterministic regardless of workload execution order.
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
