"""Perf-regression gate over a ``BENCH_interp.json`` report.

CI runs the quick benchmark and then this gate: it fails the build if
the compiled tier stops paying for itself on the dispatch-bound boot
workload, or if any interpreter workload loses architectural
equivalence.  The floors are deliberately generous — shared CI runners
are noisy and quick mode amortizes compilation over fewer iterations —
so a red gate means the tier actually regressed, not that the runner
was slow today.

On top of the fixed floors, ``--history BENCH_history`` adds windowed
trend detection (:mod:`repro.perf.trend`): the current numbers — and,
with ``--fuzz-report``, the fuzz coverage counts — must stay inside a
tolerance band around the median of the last K comparable recorded
runs, so sustained regressions that never cross a fixed floor still
fail the gate.

Usage::

    python -m repro.perf.gate BENCH_interp.json \\
        [--history BENCH_history] [--fuzz-report fuzz-report.json]
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["GATES", "check_report", "check_trend"]

#: ``(workload, metric path, floor)`` — every gated ratio must stay at
#: or above its floor.  ``kernel_boot`` is the canonical dispatch-bound
#: workload: if compiled blocks stop beating the block interpreter
#: there, the tier has regressed everywhere.
GATES = (
    ("kernel_boot", "compiled_speedup_over_block", 1.2),
    ("kernel_boot", "speedup", 2.0),
)


def check_report(report: dict) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    workloads = report.get("workloads", {})

    for name, data in workloads.items():
        if data.get("kind") != "interpreter":
            continue
        if data.get("equivalent") is not True:
            failures.append(f"{name}: not marked architecturally equivalent")

    for name, metric, floor in GATES:
        data = workloads.get(name)
        if data is None:
            failures.append(f"{name}: workload missing from report")
            continue
        value = data.get(metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{name}: metric {metric!r} missing")
        elif value < floor:
            failures.append(
                f"{name}: {metric} = {value:.2f} below floor {floor:.2f}"
            )

    boot = workloads.get("kernel_boot", {})
    fast_row = boot.get("fast", {})
    if fast_row and not fast_row.get("blocks_compiled"):
        failures.append(
            "kernel_boot: compiled tier ran zero blocks through the "
            "compiler (tier silently disabled?)"
        )
    return failures


def check_trend(
    report: dict,
    history_dir: str,
    fuzz_report: dict | None = None,
    fleet_report: dict | None = None,
    window: int | None = None,
    min_history: int | None = None,
) -> list[str]:
    """Trend failures for the report against a ``BENCH_history/`` dir."""
    from datetime import datetime, timezone

    from repro.perf import trend

    history = trend.load_history(history_dir)
    current = trend.make_entry(
        report,
        fuzz_report,
        fleet_report,
        timestamp=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        label="current",
    )
    findings = trend.analyze(
        history,
        current,
        window=window or trend.DEFAULT_WINDOW,
        min_history=min_history or trend.DEFAULT_MIN_HISTORY,
    )
    print(f"trend window ({len(history)} history entries):")
    print(trend.format_findings(findings))
    return trend.trend_failures(findings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.gate",
        description="Fail if a benchmark report regresses the gated floors.",
    )
    parser.add_argument("report", help="path to BENCH_interp.json")
    parser.add_argument("--history", metavar="DIR", default=None,
                        help="BENCH_history directory; adds windowed "
                        "trend detection on top of the fixed floors")
    parser.add_argument("--fuzz-report", metavar="FILE", default=None,
                        help="fuzz campaign report whose coverage counts "
                        "join the trend check")
    parser.add_argument("--fleet-report", metavar="FILE", default=None,
                        help="BENCH_fleet.json whose serving throughput "
                        "joins the trend check")
    parser.add_argument("--window", type=int, default=None,
                        help="trend window size (median of last K)")
    parser.add_argument("--min-history", type=int, default=None,
                        help="skip metrics with fewer comparable entries")
    args = parser.parse_args(argv)

    with open(args.report, encoding="utf-8") as handle:
        report = json.load(handle)
    failures = check_report(report)
    if args.history:
        fuzz = None
        if args.fuzz_report:
            with open(args.fuzz_report, encoding="utf-8") as handle:
                fuzz = json.load(handle)
        fleet = None
        if args.fleet_report:
            with open(args.fleet_report, encoding="utf-8") as handle:
                fleet = json.load(handle)
        failures += check_trend(
            report, args.history, fuzz_report=fuzz, fleet_report=fleet,
            window=args.window, min_history=args.min_history,
        )
    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    gated = ", ".join(f"{w}.{m} >= {f}" for w, m, f in GATES)
    trend_note = " + trend window" if args.history else ""
    print(f"perf gate passed ({gated}{trend_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
