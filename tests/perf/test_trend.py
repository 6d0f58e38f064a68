"""Trend-gate tests: extraction, windowed analysis, gate wiring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.schema import validate_bench, validate_history_entry
from repro.perf.trend import (
    HISTORY_SCHEMA,
    TrendFinding,
    analyze,
    extract_metrics,
    load_history,
    make_entry,
    save_entry,
    trend_failures,
)


def _bench_report(ips=1_000_000.0, speedup=20.0, quick=True) -> dict:
    return {
        "schema": "repro.perf/1",
        "schema_version": 1,
        "quick": quick,
        "python": "3.11.7",
        "platform": "test",
        "workloads": {
            "kernel_boot": {
                "kind": "interpreter",
                "equivalent": True,
                "speedup": speedup,
                "block_speedup": 6.0,
                "compiled_speedup_over_block": 3.0,
                "baseline": {"wall_seconds": 1.0},
                "fast": {
                    "wall_seconds": 0.05,
                    "instructions_per_second": ips,
                    "blocks_compiled": 12,
                },
            },
            "qarma_throughput": {
                "kind": "engine",
                "operations": 1000,
                "operations_per_second": 20_000.0,
            },
        },
    }


def _fuzz_report(pairs=500, seed=0, budget=400, shards=2) -> dict:
    return {
        "schema": "repro.fuzz/dist-report-1",
        "schema_version": 1,
        "seed": seed,
        "budget": budget,
        "shards": shards,
        "coverage": {
            "instruction_pairs": pairs,
            "trap_edges": 8,
            "clb_events": 6,
        },
    }


def _fleet_report(jps=20.0, ratio=4.0, seed=0, jobs=120, workers=4) -> dict:
    return {
        "schema": "repro.fleet/bench-1",
        "schema_version": 1,
        "seed": seed,
        "jobs": jobs,
        "workers": workers,
        "timing": {
            "jobs_per_second": jps,
            "cold_vs_warm": ratio,
        },
    }


def _history(count=5, ips=1_000_000.0, **kwargs) -> list[dict]:
    return [
        make_entry(
            _bench_report(ips=ips, **kwargs),
            _fuzz_report(),
            timestamp=f"2026-08-0{index + 1}T00:00:00Z",
            label="seed",
        )
        for index in range(count)
    ]


def _current(ips=1_000_000.0, pairs=500, **kwargs) -> dict:
    return make_entry(
        _bench_report(ips=ips, **kwargs),
        _fuzz_report(pairs=pairs),
        timestamp="2026-08-09T00:00:00Z",
        label="current",
    )


def _by_metric(findings) -> dict[str, TrendFinding]:
    return {finding.metric: finding for finding in findings}


# -- extraction ----------------------------------------------------------------


def test_extract_metrics_pulls_tracked_values():
    metrics = extract_metrics(_bench_report(), _fuzz_report())
    assert metrics["kernel_boot.speedup"] == 20.0
    assert metrics["kernel_boot.fast.ips"] == 1_000_000.0
    assert metrics["qarma_throughput.ops_per_second"] == 20_000.0
    assert metrics["fuzz.coverage.instruction_pairs"] == 500
    # Bench-only extraction simply omits the fuzz metrics.
    assert "fuzz.coverage.instruction_pairs" not in extract_metrics(
        _bench_report()
    )


def test_entry_passes_its_own_validator():
    entry = make_entry(
        _bench_report(), _fuzz_report(),
        timestamp="2026-08-09T00:00:00Z", label="ci",
    )
    assert entry["schema"] == HISTORY_SCHEMA
    assert validate_history_entry(entry) == []
    assert entry["source"]["fuzz"] == {
        "seed": 0, "budget": 400, "shards": 2,
    }


def test_fleet_metrics_extract_with_their_source_shape():
    metrics = extract_metrics(fleet_report=_fleet_report())
    assert metrics == {
        "fleet.jobs_per_second": 20.0, "fleet.cold_vs_warm": 4.0,
    }
    assert "fleet.jobs_per_second" not in extract_metrics(_bench_report())
    entry = make_entry(
        fleet_report=_fleet_report(),
        timestamp="2026-08-09T00:00:00Z", label="ci",
    )
    assert validate_history_entry(entry) == []
    assert entry["source"]["fleet"] == {
        "seed": 0, "jobs": 120, "workers": 4,
    }


def test_history_round_trips_through_directory(tmp_path):
    for entry in _history(3):
        save_entry(entry, tmp_path)
    loaded = load_history(tmp_path)
    assert len(loaded) == 3
    assert [e["timestamp"] for e in loaded] == sorted(
        e["timestamp"] for e in loaded
    )
    # Non-history JSON in the directory is ignored.
    (tmp_path / "other.json").write_text(json.dumps({"schema": "x"}))
    assert len(load_history(tmp_path)) == 3


# -- analysis ------------------------------------------------------------------


def test_sustained_regression_is_detected():
    findings = analyze(_history(), _current(ips=200_000.0, pairs=300))
    by_metric = _by_metric(findings)
    assert by_metric["kernel_boot.fast.ips"].status == "regression"
    assert by_metric["fuzz.coverage.instruction_pairs"].status == (
        "regression"
    )
    failures = trend_failures(findings)
    assert any("kernel_boot.fast.ips" in f for f in failures)
    assert any("instruction_pairs" in f for f in failures)


def test_noise_within_tolerance_passes():
    # 10% below the median is inside the 60% ips band and the 10%
    # coverage band's edge.
    findings = analyze(_history(), _current(ips=900_000.0, pairs=460))
    assert trend_failures(findings) == []
    assert _by_metric(findings)["kernel_boot.fast.ips"].status == "ok"


def test_improving_trend_passes_and_is_labelled():
    findings = analyze(_history(), _current(ips=2_000_000.0, pairs=700))
    by_metric = _by_metric(findings)
    assert by_metric["kernel_boot.fast.ips"].status == "improving"
    assert by_metric["fuzz.coverage.instruction_pairs"].status == (
        "improving"
    )
    assert trend_failures(findings) == []


def test_median_window_damps_a_single_outlier():
    history = _history(5)
    # One historic entry was wildly fast; the median ignores it.
    history[2]["metrics"]["kernel_boot.fast.ips"] = 50_000_000.0
    findings = analyze(history, _current(ips=900_000.0))
    assert _by_metric(findings)["kernel_boot.fast.ips"].status != (
        "regression"
    )


def test_insufficient_history_skips_metric():
    findings = analyze(_history(2), _current(ips=100.0))
    statuses = {f.status for f in findings}
    assert statuses == {"insufficient-history"}
    assert trend_failures(findings) == []


def test_quick_and_full_runs_never_compare():
    history = _history(5, quick=True)
    findings = analyze(history, _current(ips=100.0, quick=False))
    assert _by_metric(findings)["kernel_boot.fast.ips"].status == (
        "insufficient-history"
    )


def test_fleet_metrics_compare_only_matching_loadgen_shape():
    history = [
        make_entry(
            fleet_report=_fleet_report(jps=100.0),
            timestamp=f"2026-08-0{index + 1}T00:00:00Z", label="seed",
        )
        for index in range(5)
    ]
    slow = make_entry(
        fleet_report=_fleet_report(jps=10.0),
        timestamp="2026-08-09T00:00:00Z", label="current",
    )
    assert _by_metric(analyze(history, slow))[
        "fleet.jobs_per_second"
    ].status == "regression"
    other_shape = make_entry(
        fleet_report=_fleet_report(jps=10.0, jobs=600),
        timestamp="2026-08-09T00:00:00Z", label="current",
    )
    assert _by_metric(analyze(history, other_shape))[
        "fleet.jobs_per_second"
    ].status == "insufficient-history"


def test_span_overhead_extracts_and_splits_the_lane():
    report = _fleet_report()
    report["spans"] = True
    report["timing"]["span_overhead_pct"] = 1.2
    metrics = extract_metrics(fleet_report=report)
    assert metrics["fleet.span_overhead_pct"] == 1.2
    entry = make_entry(
        fleet_report=report, timestamp="2026-08-09T00:00:00Z", label="obs",
    )
    assert validate_history_entry(entry) == []
    assert entry["source"]["fleet"]["spans"] is True
    # Plain runs stay comparable with pre-observability entries: no
    # "spans" key at all.
    plain = make_entry(
        fleet_report=_fleet_report(),
        timestamp="2026-08-09T00:00:00Z", label="plain",
    )
    assert "spans" not in plain["source"]["fleet"]


def _obs_entry(overhead, jps=20.0, timestamp="2026-08-09T00:00:00Z",
               label="obs"):
    report = _fleet_report(jps=jps)
    report["spans"] = True
    report["timing"]["span_overhead_pct"] = overhead
    return make_entry(fleet_report=report, timestamp=timestamp, label=label)


def test_span_overhead_regression_direction_is_up():
    """The overhead metric is a cost: the gate fails when it *rises*
    past median + absolute tolerance, never when it falls."""
    history = [
        _obs_entry(1.0, timestamp=f"2026-08-0{index + 1}T00:00:00Z")
        for index in range(5)
    ]
    cheap = _by_metric(analyze(history, _obs_entry(0.2)))
    assert cheap["fleet.span_overhead_pct"].status == "improving"
    on_trend = _by_metric(analyze(history, _obs_entry(2.5)))
    assert on_trend["fleet.span_overhead_pct"].status == "ok"
    blown = analyze(history, _obs_entry(3.5))
    assert _by_metric(blown)["fleet.span_overhead_pct"].status == (
        "regression"
    )
    failures = trend_failures(blown)
    assert any(
        "fleet.span_overhead_pct" in f and "above trend ceiling" in f
        for f in failures
    )


def test_span_runs_never_compare_against_plain_runs():
    plain_history = [
        make_entry(
            fleet_report=_fleet_report(),
            timestamp=f"2026-08-0{index + 1}T00:00:00Z", label="plain",
        )
        for index in range(5)
    ]
    findings = _by_metric(analyze(plain_history, _obs_entry(1.0, jps=5.0)))
    # Throughput with spans on is a different lane entirely.
    assert findings["fleet.jobs_per_second"].status == (
        "insufficient-history"
    )


def test_spec_enabled_entries_live_in_their_own_lane():
    """A history mixing plain and spec-enabled fuzz runs never
    cross-compares: each current run sees only its own kind."""
    def entry(pairs, spec, timestamp, label):
        fuzz = _fuzz_report(pairs=pairs)
        if spec:
            fuzz["spec"] = True
        return make_entry(
            _bench_report(), fuzz, timestamp=timestamp, label=label
        )

    # Five fast plain entries interleaved with five slow spec entries.
    history = []
    for index in range(5):
        history.append(entry(
            500, False, f"2026-08-0{index + 1}T00:00:00Z", "plain"
        ))
        history.append(entry(
            200, True, f"2026-08-0{index + 1}T12:00:00Z", "spec"
        ))
    for item in history:
        assert validate_history_entry(item) == []

    # A plain run at the spec-lane coverage level regresses against
    # the plain median — the slow spec entries cannot mask it.
    plain_now = entry(200, False, "2026-08-09T00:00:00Z", "current")
    assert "spec" not in plain_now["source"]
    findings = _by_metric(analyze(history, plain_now))
    assert findings["fuzz.coverage.instruction_pairs"].status == (
        "regression"
    )
    assert findings["fuzz.coverage.instruction_pairs"].median == 500

    # The same numbers from a spec-enabled run are on-trend for the
    # spec lane — the fast plain entries cannot fail it.
    spec_now = entry(200, True, "2026-08-09T00:00:00Z", "current")
    assert spec_now["source"]["spec"] is True
    findings = _by_metric(analyze(history, spec_now))
    assert findings["fuzz.coverage.instruction_pairs"].status == "ok"
    assert findings["fuzz.coverage.instruction_pairs"].median == 200
    # Bench metrics inherit the lane split too: the bench report is
    # identical but the run as a whole was spec-enabled.
    assert findings["kernel_boot.fast.ips"].window == 5


def test_fuzz_metrics_compare_only_matching_campaign_shape():
    history = _history(5)
    current = make_entry(
        _bench_report(),
        _fuzz_report(pairs=10, budget=80_000, shards=4),
        timestamp="2026-08-09T00:00:00Z", label="current",
    )
    findings = analyze(history, current)
    assert _by_metric(findings)["fuzz.coverage.instruction_pairs"].status \
        == "insufficient-history"


# -- gate + CLI wiring ---------------------------------------------------------


@pytest.fixture
def history_dir(tmp_path):
    directory = tmp_path / "BENCH_history"
    for entry in _history():
        save_entry(entry, directory)
    return directory


def test_gate_passes_on_current_numbers(history_dir, tmp_path, capsys):
    from repro.perf.gate import main

    bench = tmp_path / "bench.json"
    fuzz = tmp_path / "fuzz.json"
    bench.write_text(json.dumps(_bench_report()))
    fuzz.write_text(json.dumps(_fuzz_report()))
    code = main([
        str(bench), "--history", str(history_dir),
        "--fuzz-report", str(fuzz),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "trend" in out
    assert "passed" in out


def test_gate_fails_on_synthetic_regression(history_dir, tmp_path, capsys):
    from repro.perf.gate import main

    bench = tmp_path / "bench.json"
    fuzz = tmp_path / "fuzz.json"
    bench.write_text(json.dumps(_bench_report(ips=100_000.0)))
    fuzz.write_text(json.dumps(_fuzz_report(pairs=100)))
    code = main([
        str(bench), "--history", str(history_dir),
        "--fuzz-report", str(fuzz),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in out
    assert "instruction_pairs" in out


def test_trend_cli_record_then_check(history_dir, tmp_path, capsys):
    from repro.perf.trend import main

    bench = tmp_path / "bench.json"
    fuzz = tmp_path / "fuzz.json"
    bench.write_text(json.dumps(_bench_report()))
    fuzz.write_text(json.dumps(_fuzz_report()))

    assert main([
        "record", str(bench), "--history", str(history_dir),
        "--fuzz-report", str(fuzz), "--label", "test",
        "--timestamp", "2026-08-09T01:00:00Z",
    ]) == 0
    assert len(load_history(history_dir)) == 6

    assert main([
        "check", str(bench), "--history", str(history_dir),
        "--fuzz-report", str(fuzz),
    ]) == 0
    capsys.readouterr()

    # The CI self-test path: an injected regression must turn the
    # check red.
    assert main([
        "check", str(bench), "--history", str(history_dir),
        "--fuzz-report", str(fuzz), "--inject-regression", "0.2",
    ]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_trend_cli_handles_fleet_only_reports(tmp_path, capsys):
    from repro.perf.trend import main

    directory = tmp_path / "BENCH_history"
    fleet = tmp_path / "BENCH_fleet.json"
    fleet.write_text(json.dumps(_fleet_report()))
    for day in range(3):
        assert main([
            "record", "--history", str(directory),
            "--fleet-report", str(fleet), "--label", "seed-fleet",
            "--timestamp", f"2026-08-0{day + 1}T04:00:00Z",
        ]) == 0
    assert main([
        "check", "--history", str(directory), "--fleet-report", str(fleet),
    ]) == 0
    capsys.readouterr()
    assert main([
        "check", "--history", str(directory), "--fleet-report", str(fleet),
        "--inject-regression", "0.2",
    ]) == 1
    assert "fleet.jobs_per_second" in capsys.readouterr().out


# -- validators ----------------------------------------------------------------


def test_validate_bench_accepts_real_shape_and_rejects_broken():
    good = _bench_report()
    assert validate_bench(good) == []
    bad = json.loads(json.dumps(good))
    bad["workloads"]["kernel_boot"]["equivalent"] = False
    del bad["workloads"]["qarma_throughput"]["operations_per_second"]
    problems = validate_bench(bad)
    assert any("equivalent" in p for p in problems)
    assert any("operations_per_second" in p for p in problems)


def test_validate_history_entry_rejects_untracked_metric():
    entry = make_entry(
        _bench_report(), timestamp="2026-08-09T00:00:00Z", label="x"
    )
    entry["metrics"]["made.up.metric"] = 1.0
    assert any(
        "not a tracked metric" in p for p in validate_history_entry(entry)
    )


def test_checked_in_history_entries_validate():
    # The trend window CI gates against must stay loadable: an entry
    # naming a metric that is no longer tracked fails validation.
    paths = sorted(
        (Path(__file__).parents[2] / "BENCH_history").glob("*.json")
    )
    assert paths
    for path in paths:
        entry = json.loads(path.read_text())
        assert validate_history_entry(entry) == [], path.name
