"""Validators for the telemetry export formats.

Each validator returns a list of problem strings — empty means valid.
CI runs :func:`validate_chrome_trace` against the traced-workload
artifact; the unit tests run all three against fresh exports.
"""

from __future__ import annotations

from repro.telemetry.events import EVENT_SCHEMA
from repro.telemetry.metrics import METRICS_SCHEMA
from repro.validate import is_int, is_number

__all__ = [
    "validate_events",
    "validate_chrome_trace",
    "validate_metrics",
    "validate_leakage",
    "validate_profile",
    "validate_spans",
    "validate_flightrec",
]

_PHASES_NEEDING_DUR = {"X"}
_KNOWN_PHASES = {"X", "B", "E", "i", "I", "C", "M"}


def _check_payload(kind: str, payload: dict, where: str) -> list[str]:
    required = EVENT_SCHEMA.get(kind)
    if required is None:
        return [f"{where}: unknown event kind {kind!r}"]
    return [
        f"{where}: kind {kind!r} missing required field {field!r}"
        for field in required
        if field not in payload
    ]


def validate_events(document: dict) -> list[str]:
    """Validate a ``TraceRecorder.to_json()`` document."""
    problems: list[str] = []
    if document.get("schema") != "repro.telemetry/events-1":
        problems.append(f"bad schema id {document.get('schema')!r}")
    events = document.get("events")
    if not isinstance(events, list):
        return problems + ["'events' is not a list"]
    for index, event in enumerate(events):
        where = f"events[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = event.get("kind")
        if not isinstance(kind, str):
            problems.append(f"{where}: missing 'kind'")
            continue
        if not is_int(event.get("cycle")):
            problems.append(f"{where}: missing integer 'cycle'")
        problems.extend(_check_payload(kind, event, where))
    return problems


def validate_chrome_trace(document: dict) -> list[str]:
    """Validate a Trace Event Format document and its event payloads."""
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing 'name'")
        for field in ("pid", "tid"):
            if not is_int(event.get(field)):
                problems.append(f"{where}: missing integer {field!r}")
        if phase == "M":
            continue  # metadata events carry no timestamp
        if not is_number(event.get("ts")):
            problems.append(f"{where}: missing numeric 'ts'")
        if phase in _PHASES_NEEDING_DUR:
            dur = event.get("dur")
            if not is_number(dur) or dur < 0:
                problems.append(f"{where}: 'X' span needs dur >= 0")
        args = event.get("args")
        if isinstance(args, dict):
            kind = args.get("kind")
            if isinstance(kind, str) and not kind.startswith("counter."):
                problems.extend(_check_payload(kind, args, where))
    return problems


_FINDING_KINDS = {
    "transient-secret-load",
    "transient-secret-store",
    "secret-dependent-branch",
    "transient-key-csr-read",
    "secret-keyed-crypto",
}


def validate_leakage(document: dict) -> list[str]:
    """Validate a ``LeakageAnalyzer.report()`` document."""
    from repro.telemetry.leakage import LEAKAGE_SCHEMA

    problems: list[str] = []
    if document.get("schema") != LEAKAGE_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    for field in ("windows", "transient_instructions"):
        value = document.get(field)
        if not is_int(value) or value < 0:
            problems.append(f"'{field}' is not a non-negative integer")
    blocked = document.get("blocked")
    if not isinstance(blocked, dict) or not is_int(
        blocked.get("key_csr_reads")
    ):
        problems.append("'blocked.key_csr_reads' is not an integer")
    findings = document.get("findings")
    if not isinstance(findings, list):
        return problems + ["'findings' is not a list"]
    for index, finding in enumerate(findings):
        where = f"findings[{index}]"
        if not isinstance(finding, dict):
            problems.append(f"{where}: not an object")
            continue
        if finding.get("kind") not in _FINDING_KINDS:
            problems.append(
                f"{where}: unknown finding kind {finding.get('kind')!r}"
            )
        for field in ("pc", "window", "count"):
            if not is_int(finding.get(field)):
                problems.append(f"{where}: missing integer {field!r}")
        if not isinstance(finding.get("detail"), str):
            problems.append(f"{where}: missing 'detail'")
    if document.get("clean") is not (len(findings) == 0):
        problems.append("'clean' flag inconsistent with findings list")
    return problems


def validate_profile(document: dict) -> list[str]:
    """Validate a ``Profiler.to_json()`` document."""
    problems: list[str] = []
    if document.get("schema") != "repro.telemetry/profile-1":
        problems.append(f"bad schema id {document.get('schema')!r}")
    for field in ("total_instructions", "distinct_pcs"):
        value = document.get(field)
        if not is_int(value) or value < 0:
            problems.append(f"'{field}' is not a non-negative integer")
    rows = document.get("rows")
    if not isinstance(rows, list):
        return problems + ["'rows' is not a list"]
    for index, row in enumerate(rows):
        where = f"rows[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(row.get("symbol"), str):
            problems.append(f"{where}: missing 'symbol'")
        for field in ("count", "pcs", "low_pc"):
            if not is_int(row.get(field)):
                problems.append(f"{where}: missing integer {field!r}")
        if not is_number(row.get("percent")):
            problems.append(f"{where}: missing numeric 'percent'")
    return problems


def validate_spans(document: dict) -> list[str]:
    """Validate a ``repro.telemetry/spans-1`` document (single or merged)."""
    from repro.telemetry.spans import SPANS_SCHEMA

    problems: list[str] = []
    if document.get("schema") != SPANS_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    if document.get("merged"):
        processes = document.get("processes")
        if not isinstance(processes, list) or not all(
            isinstance(p, str) for p in processes
        ):
            problems.append("merged document: 'processes' is not a str list")
    elif not isinstance(document.get("process"), str):
        problems.append("'process' is not a string")
    dropped = document.get("dropped")
    if not is_int(dropped) or dropped < 0:
        problems.append("'dropped' is not a non-negative integer")
    spans = document.get("spans")
    if not isinstance(spans, list):
        return problems + ["'spans' is not a list"]
    ids_seen: set[tuple[str | None, str]] = set()
    for index, span in enumerate(spans):
        where = f"spans[{index}]"
        if not isinstance(span, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "span_id", "process"):
            if not isinstance(span.get(field), str) or not span.get(field):
                problems.append(f"{where}: missing string {field!r}")
        for field in ("trace_id", "parent_id"):
            value = span.get(field)
            if value is not None and not isinstance(value, str):
                problems.append(f"{where}: {field!r} is neither str nor null")
        start = span.get("start_us")
        end = span.get("end_us")
        if not is_int(start):
            problems.append(f"{where}: missing integer 'start_us'")
        if not is_int(end):
            problems.append(f"{where}: missing integer 'end_us'")
        if is_int(start) and is_int(end) and end < start:
            problems.append(f"{where}: end_us {end} < start_us {start}")
        if not isinstance(span.get("attrs"), dict):
            problems.append(f"{where}: 'attrs' is not an object")
        key = (span.get("trace_id"), span.get("span_id"))
        if isinstance(key[1], str):
            if key in ids_seen:
                problems.append(
                    f"{where}: duplicate span_id {key[1]!r} in trace "
                    f"{key[0]!r}"
                )
            ids_seen.add(key)
    return problems


def validate_flightrec(document: dict) -> list[str]:
    """Validate a ``repro.telemetry/flightrec-1`` crash dump."""
    from repro.telemetry.flightrec import FLIGHTREC_SCHEMA

    problems: list[str] = []
    if document.get("schema") != FLIGHTREC_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    for field in ("process", "reason"):
        if not isinstance(document.get(field), str):
            problems.append(f"'{field}' is not a string")
    limit = document.get("limit")
    if not is_int(limit) or limit < 1:
        problems.append("'limit' is not a positive integer")
    for field in ("seen", "dropped"):
        value = document.get(field)
        if not is_int(value) or value < 0:
            problems.append(f"'{field}' is not a non-negative integer")
    events = document.get("events")
    if not isinstance(events, list):
        return problems + ["'events' is not a list"]
    if is_int(limit) and len(events) > limit:
        problems.append(f"{len(events)} events exceed ring limit {limit}")
    if (
        is_int(document.get("seen"))
        and is_int(document.get("dropped"))
        and document["seen"] - document["dropped"] != len(events)
    ):
        problems.append(
            f"seen {document['seen']} - dropped {document['dropped']} "
            f"!= {len(events)} events"
        )
    last_seq = 0
    for index, event in enumerate(events):
        where = f"events[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        seq = event.get("seq")
        if not is_int(seq) or seq < 1:
            problems.append(f"{where}: missing positive integer 'seq'")
        elif seq <= last_seq:
            problems.append(f"{where}: seq {seq} not increasing")
        else:
            last_seq = seq
        if not isinstance(event.get("kind"), str):
            problems.append(f"{where}: missing 'kind'")
        if not is_int(event.get("cycle")):
            problems.append(f"{where}: missing integer 'cycle'")
    return problems


def validate_metrics(document: dict) -> list[str]:
    """Validate a ``MetricsRegistry.to_json()`` document."""
    problems: list[str] = []
    if document.get("schema") != METRICS_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    for section in ("counters", "gauges", "histograms"):
        table = document.get(section)
        if not isinstance(table, dict):
            problems.append(f"'{section}' is not an object")
            continue
        for name in table:
            if not isinstance(name, str) or not name:
                problems.append(f"{section}: bad metric name {name!r}")
    counters = document.get("counters")
    if isinstance(counters, dict):
        for name, value in counters.items():
            if not is_int(value) or value < 0:
                problems.append(
                    f"counters.{name}: not a non-negative integer"
                )
    histograms = document.get("histograms")
    if isinstance(histograms, dict):
        for name, hist in histograms.items():
            if not isinstance(hist, dict):
                problems.append(f"histograms.{name}: not an object")
                continue
            if not is_int(hist.get("count")):
                problems.append(f"histograms.{name}: 'count' is not an integer")
            if not is_number(hist.get("sum")):
                problems.append(f"histograms.{name}: 'sum' is not a number")
            buckets = hist.get("buckets")
            if not isinstance(buckets, dict) or not all(
                is_int(count) for count in buckets.values()
            ):
                problems.append(
                    f"histograms.{name}: 'buckets' is not an object of "
                    "integers"
                )
            elif sum(buckets.values()) != hist.get("count"):
                problems.append(
                    f"histograms.{name}: bucket sum {sum(buckets.values())} "
                    f"!= count {hist.get('count')}"
                )
    return problems
