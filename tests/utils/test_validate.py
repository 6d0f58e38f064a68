"""Artifact-validator dispatch tests (``python -m repro.validate``)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.validate import main, validate_document


def test_dispatch_on_schema_id():
    kind, problems = validate_document({
        "schema": "repro.perf/history-1",
        "schema_version": 1,
        "timestamp": "2026-08-09T00:00:00Z",
        "label": "x",
        "source": {"quick": True},
        "metrics": {"kernel_boot.speedup": 10.0},
    })
    assert kind == "repro.perf/history-1"
    assert problems == []


def test_chrome_trace_recognized_by_shape():
    kind, problems = validate_document({
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1},
        ],
    })
    assert kind == "chrome-trace"
    assert problems == []


def test_unknown_document_is_a_problem():
    kind, problems = validate_document({"schema": "not/a-schema"})
    assert kind == "unknown"
    assert problems


def test_cli_walks_directories_and_sets_exit_code(tmp_path, capsys):
    good = tmp_path / "metrics.json"
    good.write_text(json.dumps({
        "schema": "repro.telemetry/metrics-1",
        "counters": {}, "gauges": {}, "histograms": {},
    }))
    assert main([str(tmp_path)]) == 0
    assert "1/1 documents valid" in capsys.readouterr().out

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1/2 documents valid" in out


def test_cli_validates_fuzz_report(tmp_path, capsys):
    from repro.fuzz import FuzzConfig, run_campaign

    report = run_campaign(FuzzConfig(seed=1, budget=6, emit_dir=None))
    path = tmp_path / "fuzz-report.json"
    path.write_text(json.dumps(report))
    assert main([str(path)]) == 0
    capsys.readouterr()

    del report["coverage"]
    path.write_text(json.dumps(report))
    assert main([str(path)]) == 1


#: An otherwise-valid document per schema, and the path to one of its
#: integer fields.
_INTEGER_FIELDS = {
    "metrics": ({"schema": "repro.telemetry/metrics-1",
                 "counters": {"c": 1}, "gauges": {}, "histograms": {}},
                ("counters", "c")),
    "metrics-histogram": ({"schema": "repro.telemetry/metrics-1",
                           "counters": {}, "gauges": {}, "histograms": {
                               "h": {"count": 1, "sum": 3,
                                     "buckets": {"le_4": 1}}}},
                          ("histograms", "h", "buckets", "le_4")),
    "chrome-trace": ({"traceEvents": [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 1}]},
        ("traceEvents", 0, "pid")),
    "events": ({"schema": "repro.telemetry/events-1", "events": [
        {"kind": "trap.exit", "cycle": 1, "pc": 0, "privilege": 3}]},
        ("events", 0, "cycle")),
    "profile": ({"schema": "repro.telemetry/profile-1",
                 "total_instructions": 1, "distinct_pcs": 0, "rows": []},
                ("total_instructions",)),
    "leakage": ({"schema": "repro.telemetry/leakage-1", "windows": 1,
                 "transient_instructions": 0,
                 "blocked": {"key_csr_reads": 0}, "findings": [],
                 "clean": True}, ("windows",)),
    "flightrec": ({"schema": "repro.telemetry/flightrec-1",
                   "process": "p", "reason": "r", "limit": 4, "seen": 1,
                   "dropped": 0,
                   "events": [{"seq": 1, "kind": "k", "cycle": 0}]},
                  ("events", 0, "seq")),
    "spans": ({"schema": "repro.telemetry/spans-1", "process": "p",
               "dropped": 0, "spans": [
                   {"name": "n", "span_id": "s", "process": "p",
                    "trace_id": None, "parent_id": None, "start_us": 1,
                    "end_us": 5, "attrs": {}}]},
              ("spans", 0, "start_us")),
    "history": ({"schema": "repro.perf/history-1", "schema_version": 1,
                 "timestamp": "2026-08-09T00:00:00Z", "label": "x",
                 "source": {}, "metrics": {"kernel_boot.speedup": 10.0}},
                ("schema_version",)),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_FIELDS))
def test_boolean_in_an_integer_field_is_rejected(name):
    document, path = copy.deepcopy(_INTEGER_FIELDS[name])
    assert validate_document(document)[1] == []
    *parents, field = path
    target = document
    for key in parents:
        target = target[key]
    target[field] = True
    assert validate_document(document)[1]


def test_non_integer_histogram_bucket_is_reported_not_raised():
    document, _ = copy.deepcopy(_INTEGER_FIELDS["metrics-histogram"])
    document["histograms"]["h"]["buckets"]["le_4"] = "1"
    assert validate_document(document)[1]
