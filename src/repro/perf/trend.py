"""Windowed perf/coverage trend tracking over ``BENCH_history/``.

``BENCH_history/`` is a checked-in directory of small, timestamped
history entries — one per recorded benchmark run — each holding the
handful of metrics the trend gate watches (per-workload ips, the
kernel-boot speedup ratios, fuzz coverage counts) rather than the full
``BENCH_interp.json``.  The analyzer compares the *current* run against
the **median of the last K** comparable history entries with a
per-metric tolerance band, so a single noisy run neither fails the gate
nor poisons the history, while a sustained regression of either speed
or fuzz coverage does fail it.

Comparability rules keep apples with apples: benchmark metrics only
compare against entries recorded with the same ``--quick`` setting,
fuzz coverage only against entries whose campaign shape
``(seed, budget, shards)`` matches, and fleet serving throughput only
against entries whose loadgen shape ``(seed, jobs, workers)`` matches.
Entries recorded from spec-enabled runs (reports carrying a
``"spec": true`` marker) only ever compare against other spec-enabled
entries — the speculative front-end slows every workload it touches.

CLI::

    python -m repro.perf.trend record BENCH_interp.json \\
        --history BENCH_history [--fuzz-report fuzz.json] [--label ci]
    python -m repro.perf.trend check BENCH_interp.json \\
        --history BENCH_history [--fuzz-report fuzz.json]

``check`` exits non-zero on any regression; ``--inject-regression F``
scales the current metrics by ``F`` first, which CI uses to prove the
failing path stays wired up.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

__all__ = [
    "HIGHER_IS_WORSE",
    "HISTORY_SCHEMA",
    "TRACKED_METRICS",
    "TrendFinding",
    "analyze",
    "extract_metrics",
    "load_history",
    "make_entry",
    "save_entry",
    "trend_failures",
]

HISTORY_SCHEMA = "repro.perf/history-1"
HISTORY_SCHEMA_VERSION = 1

DEFAULT_WINDOW = 5
#: Fewer comparable entries than this and a metric is skipped rather
#: than guessed at.
DEFAULT_MIN_HISTORY = 3

#: metric name -> relative tolerance below the window median that still
#: passes.  Speedup ratios are machine-independent (tight band); raw
#: ips track the host's wall clock (loose band — shared CI runners are
#: noisy); fuzz coverage is deterministic per campaign shape (tightest).
TRACKED_METRICS: dict[str, float] = {
    "kernel_boot.speedup": 0.35,
    "kernel_boot.block_speedup": 0.35,
    "kernel_boot.compiled_speedup_over_block": 0.35,
    "kernel_boot.fast.ips": 0.60,
    "kernel_boot_protected.fast.ips": 0.60,
    "syscall_storm.fast.ips": 0.60,
    "qarma_throughput.ops_per_second": 0.60,
    "fuzz.coverage.instruction_pairs": 0.10,
    "fuzz.coverage.trap_edges": 0.25,
    "fuzz.coverage.clb_events": 0.25,
    "fleet.jobs_per_second": 0.60,
    "fleet.cold_vs_warm": 0.35,
    "fleet.span_overhead_pct": 2.0,
}

#: Metrics where *larger* is the regression direction (costs, not
#: throughput).  Their TRACKED_METRICS tolerance is an absolute
#: allowance added to the window median — a percentage-cost metric
#: hovering near zero would make any relative band meaningless — and
#: the gate fails when the current value exceeds ``median +
#: tolerance``.
HIGHER_IS_WORSE: frozenset[str] = frozenset({
    "fleet.span_overhead_pct",
})

#: Metrics that improved past this fraction above the median are
#: labelled ``improving`` in the check output (informational only).
_IMPROVEMENT_BAND = 0.15


@dataclass
class TrendFinding:
    metric: str
    #: ``regression`` | ``ok`` | ``improving`` | ``insufficient-history``
    status: str
    current: float
    median: float | None
    #: The passing bound: a floor for throughput-style metrics, a
    #: ceiling for :data:`HIGHER_IS_WORSE` cost metrics.
    floor: float | None
    window: int


def extract_metrics(
    bench_report: dict | None = None,
    fuzz_report: dict | None = None,
    fleet_report: dict | None = None,
) -> dict[str, float]:
    """Pull the tracked metric values out of full reports.

    Either report may be absent; only metrics whose source data exists
    end up in the result.
    """
    metrics: dict[str, float] = {}
    workloads = (bench_report or {}).get("workloads", {})

    def put(name, value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[name] = value

    for workload in ("kernel_boot", "kernel_boot_protected",
                     "syscall_storm"):
        data = workloads.get(workload, {})
        fast = data.get("fast", {})
        put(f"{workload}.fast.ips", fast.get("instructions_per_second"))
        if workload == "kernel_boot":
            put("kernel_boot.speedup", data.get("speedup"))
            put("kernel_boot.block_speedup", data.get("block_speedup"))
            put("kernel_boot.compiled_speedup_over_block",
                data.get("compiled_speedup_over_block"))
    qarma = workloads.get("qarma_throughput", {})
    put("qarma_throughput.ops_per_second",
        qarma.get("operations_per_second"))

    coverage = (fuzz_report or {}).get("coverage", {})
    put("fuzz.coverage.instruction_pairs",
        coverage.get("instruction_pairs"))
    put("fuzz.coverage.trap_edges", coverage.get("trap_edges"))
    put("fuzz.coverage.clb_events", coverage.get("clb_events"))

    timing = (fleet_report or {}).get("timing", {})
    put("fleet.jobs_per_second", timing.get("jobs_per_second"))
    put("fleet.cold_vs_warm", timing.get("cold_vs_warm"))
    put("fleet.span_overhead_pct", timing.get("span_overhead_pct"))
    return metrics


def _fuzz_source(fuzz_report: dict | None) -> dict | None:
    if not fuzz_report:
        return None
    return {
        "seed": fuzz_report.get("seed"),
        "budget": fuzz_report.get("budget"),
        "shards": fuzz_report.get("shards", 1),
    }


def _fleet_source(fleet_report: dict | None) -> dict | None:
    if not fleet_report:
        return None
    source = {
        "seed": fleet_report.get("seed"),
        "jobs": fleet_report.get("jobs"),
        "workers": fleet_report.get("workers"),
    }
    # Span-decorated runs pay the observability cost; their throughput
    # lives in its own lane.  Absent (not false) when off, so older
    # plain entries keep comparing against plain runs.
    if fleet_report.get("spans"):
        source["spans"] = True
    return source


def make_entry(
    bench_report: dict | None = None,
    fuzz_report: dict | None = None,
    fleet_report: dict | None = None,
    *,
    timestamp: str,
    label: str = "manual",
) -> dict:
    """Build one history entry from full reports."""
    source: dict = {}
    if bench_report:
        source["quick"] = bool(bench_report.get("quick"))
        source["python"] = bench_report.get("python")
        source["platform"] = bench_report.get("platform")
    fuzz = _fuzz_source(fuzz_report)
    if fuzz:
        source["fuzz"] = fuzz
    fleet = _fleet_source(fleet_report)
    if fleet:
        source["fleet"] = fleet
    # A fuzz report produced with the speculative front-end attached
    # carries a "spec": true marker.  Spec-enabled runs pay for the
    # transient windows, so their numbers live in their own lane.
    if any((report or {}).get("spec")
           for report in (bench_report, fuzz_report, fleet_report)):
        source["spec"] = True
    return {
        "schema": HISTORY_SCHEMA,
        "schema_version": HISTORY_SCHEMA_VERSION,
        "timestamp": timestamp,
        "label": label,
        "source": source,
        "metrics": extract_metrics(bench_report, fuzz_report, fleet_report),
    }


def save_entry(entry: dict, directory) -> Path:
    """Write one entry as ``<timestamp>-<label>.json``; return the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = entry["timestamp"].replace(":", "").replace("-", "")
    path = directory / f"{stamp}-{entry['label']}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_history(directory) -> list[dict]:
    """Every history entry in a directory, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        if document.get("schema") == HISTORY_SCHEMA:
            entries.append(document)
    entries.sort(key=lambda e: (e.get("timestamp", ""), e.get("label", "")))
    return entries


def _comparable(entry: dict, current: dict, metric: str) -> bool:
    """Does a history entry's run shape match the current one for
    this metric?"""
    source = entry.get("source", {})
    now = current.get("source", {})
    # Entries recorded with the speculative front-end enabled never
    # compare against plain ones (and vice versa); absent means plain.
    if bool(source.get("spec")) != bool(now.get("spec")):
        return False
    if metric.startswith("fuzz."):
        return source.get("fuzz") == now.get("fuzz") and now.get("fuzz")
    if metric.startswith("fleet."):
        return source.get("fleet") == now.get("fleet") and now.get("fleet")
    return source.get("quick") == now.get("quick")


def analyze(
    history: list[dict],
    current: dict,
    window: int = DEFAULT_WINDOW,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> list[TrendFinding]:
    """Compare a current entry against the history; one finding per
    tracked metric present in the current entry."""
    findings = []
    for metric, tolerance in TRACKED_METRICS.items():
        value = current.get("metrics", {}).get(metric)
        if value is None:
            continue
        values = [
            entry["metrics"][metric]
            for entry in history
            if metric in entry.get("metrics", {})
            and _comparable(entry, current, metric)
        ][-window:]
        if len(values) < min_history:
            findings.append(TrendFinding(
                metric, "insufficient-history", value, None, None,
                len(values),
            ))
            continue
        mid = median(values)
        if metric in HIGHER_IS_WORSE:
            # Cost metric: the bound is a ceiling, tolerance absolute.
            bound = mid + tolerance
            if value > bound:
                status = "regression"
            elif value < mid * (1.0 - _IMPROVEMENT_BAND):
                status = "improving"
            else:
                status = "ok"
        else:
            bound = mid * (1.0 - tolerance)
            if value < bound:
                status = "regression"
            elif value > mid * (1.0 + _IMPROVEMENT_BAND):
                status = "improving"
            else:
                status = "ok"
        findings.append(TrendFinding(
            metric, status, value, mid, bound, len(values)
        ))
    return findings


def trend_failures(findings: list[TrendFinding]) -> list[str]:
    """Gate-style failure messages for every regressed metric."""
    return [
        f"{f.metric}: {f.current:.4g} "
        + (
            f"above trend ceiling {f.floor:.4g}"
            if f.metric in HIGHER_IS_WORSE
            else f"below trend floor {f.floor:.4g}"
        )
        + f" (median of last {f.window}: {f.median:.4g})"
        for f in findings
        if f.status == "regression"
    ]


def format_findings(findings: list[TrendFinding]) -> str:
    lines = []
    for f in findings:
        if f.median is None:
            lines.append(
                f"  {f.metric:45s} {f.current:>12.4g}  "
                f"(skipped: only {f.window} comparable entries)"
            )
        else:
            lines.append(
                f"  {f.metric:45s} {f.current:>12.4g}  "
                f"median {f.median:>12.4g}  bound {f.floor:>12.4g}  "
                f"{f.status}"
            )
    return "\n".join(lines) if lines else "  (no tracked metrics present)"


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.trend",
        description="Record/check benchmark trend history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="append one history entry extracted from reports"
    )
    check = sub.add_parser(
        "check", help="compare current reports against the history"
    )
    for command in (record, check):
        command.add_argument("bench", nargs="?", default=None,
                             help="BENCH_interp.json (optional when "
                             "--fuzz-report is given)")
        command.add_argument("--history", required=True, metavar="DIR",
                             help="BENCH_history directory")
        command.add_argument("--fuzz-report", default=None, metavar="FILE",
                             help="fuzz campaign report for the coverage "
                             "metrics")
        command.add_argument("--fleet-report", default=None, metavar="FILE",
                             help="BENCH_fleet.json for the serving "
                             "throughput metrics")
    record.add_argument("--label", default="manual")
    record.add_argument("--timestamp", default=None,
                        help="ISO-8601 UTC override (default: now)")
    check.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    check.add_argument("--min-history", type=int,
                       default=DEFAULT_MIN_HISTORY)
    check.add_argument("--inject-regression", type=float, default=None,
                       metavar="FACTOR",
                       help="scale current metrics by FACTOR before "
                       "checking (CI self-test of the failing path)")
    args = parser.parse_args(argv)

    bench = _load_json(args.bench) if args.bench else None
    fuzz = _load_json(args.fuzz_report) if args.fuzz_report else None
    fleet = _load_json(args.fleet_report) if args.fleet_report else None
    if bench is None and fuzz is None and fleet is None:
        parser.error("need a bench report, a --fuzz-report, a "
                     "--fleet-report, or any combination")

    if args.command == "record":
        timestamp = args.timestamp or (
            datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        )
        entry = make_entry(
            bench, fuzz, fleet, timestamp=timestamp, label=args.label
        )
        path = save_entry(entry, args.history)
        print(f"recorded {len(entry['metrics'])} metric(s) -> {path}")
        return 0

    timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    current = make_entry(
        bench, fuzz, fleet, timestamp=timestamp, label="current"
    )
    if args.inject_regression is not None:
        # Scale every metric toward its own regression direction: down
        # for throughput-style metrics, up for cost metrics.
        current["metrics"] = {
            name: (
                value / args.inject_regression
                if name in HIGHER_IS_WORSE and args.inject_regression
                else value * args.inject_regression
            )
            for name, value in current["metrics"].items()
        }
    history = load_history(args.history)
    findings = analyze(
        history, current, window=args.window, min_history=args.min_history
    )
    print(f"trend check against {len(history)} history entr"
          f"{'y' if len(history) == 1 else 'ies'} in {args.history}:")
    print(format_findings(findings))
    failures = trend_failures(findings)
    if failures:
        print("trend gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("trend gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
