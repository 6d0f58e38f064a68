"""Validators for the benchmark report and trend-history formats.

Same contract as :mod:`repro.telemetry.schema`: each validator returns
a list of problem strings — empty means valid.  CI validates uploaded
``BENCH_interp.json`` artifacts and every ``BENCH_history/`` entry so a
malformed report fails the job instead of silently poisoning the trend
window.
"""

from __future__ import annotations

from repro.perf.runner import SCHEMA as BENCH_SCHEMA
from repro.perf.trend import HISTORY_SCHEMA, TRACKED_METRICS
from repro.validate import is_int, is_number

__all__ = ["validate_bench", "validate_history_entry"]

_KNOWN_KINDS = ("interpreter", "snapshot", "engine")


def validate_bench(document: dict) -> list[str]:
    """Validate a ``repro.perf`` benchmark report."""
    problems: list[str] = []
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    if not is_int(document.get("schema_version")):
        problems.append("missing integer 'schema_version'")
    if not isinstance(document.get("quick"), bool):
        problems.append("missing boolean 'quick'")
    workloads = document.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["'workloads' missing or empty"]
    for name, data in workloads.items():
        where = f"workloads.{name}"
        if not isinstance(data, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = data.get("kind")
        if kind not in _KNOWN_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        if kind == "interpreter":
            if data.get("equivalent") is not True:
                problems.append(
                    f"{where}: not marked architecturally equivalent"
                )
            if not is_number(data.get("speedup")):
                problems.append(f"{where}: missing numeric 'speedup'")
            for tier in ("baseline", "fast"):
                row = data.get(tier)
                if not isinstance(row, dict) or not is_number(
                    row.get("wall_seconds")
                ):
                    problems.append(
                        f"{where}.{tier}: missing numeric 'wall_seconds'"
                    )
        elif kind == "engine":
            for key in ("operations", "operations_per_second"):
                if not is_number(data.get(key)):
                    problems.append(f"{where}: missing numeric {key!r}")
    return problems


def validate_history_entry(document: dict) -> list[str]:
    """Validate one ``BENCH_history/`` entry."""
    problems: list[str] = []
    if document.get("schema") != HISTORY_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    if not is_int(document.get("schema_version")):
        problems.append("missing integer 'schema_version'")
    timestamp = document.get("timestamp")
    if not isinstance(timestamp, str) or "T" not in timestamp:
        problems.append(f"bad 'timestamp' {timestamp!r} (want ISO-8601)")
    if not isinstance(document.get("label"), str):
        problems.append("missing string 'label'")
    if not isinstance(document.get("source"), dict):
        problems.append("'source' is not an object")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return problems + ["'metrics' missing or empty"]
    for name, value in metrics.items():
        if name not in TRACKED_METRICS:
            problems.append(f"metrics.{name}: not a tracked metric")
        if not is_number(value) or value < 0:
            problems.append(
                f"metrics.{name}: not a non-negative number: {value!r}"
            )
    return problems
