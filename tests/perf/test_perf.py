"""Perf-harness tests: schema, determinism hooks, CLI plumbing."""

from __future__ import annotations

import json

import pytest

from repro.machine.machine import Machine
from repro.perf.report import format_report
from repro.perf.runner import SCHEMA, run_perf, write_report
from repro.perf.workloads import WORKLOADS, run_attack_replay


def test_workload_names_are_unique_and_stable():
    assert len(WORKLOADS) == len(set(WORKLOADS))
    # BENCH_interp.json consumers key off these names; renames are
    # schema changes and must bump SCHEMA.
    for expected in ("kernel_boot", "syscall_storm", "qarma_throughput",
                     "clb_sweep", "attack_replay"):
        assert expected in WORKLOADS


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workloads"):
        run_perf(quick=True, only=["nope"])


class TestQuickRun:
    @pytest.fixture(scope="class")
    def report(self):
        return run_perf(
            quick=True, only=["kernel_boot", "qarma_throughput"]
        )

    def test_schema_envelope(self, report):
        assert report["schema"] == SCHEMA
        assert report["quick"] is True
        assert set(report["workloads"]) == {
            "kernel_boot", "qarma_throughput"
        }

    def test_interpreter_workload_shape(self, report):
        data = report["workloads"]["kernel_boot"]
        assert data["kind"] == "interpreter"
        assert data["equivalent"] is True
        assert data["instructions"] > 0
        for mode in ("baseline", "fast"):
            metrics = data[mode]
            assert metrics["wall_seconds"] > 0
            assert metrics["instructions_per_second"] > 0
            assert metrics["simulated_cycles_per_second"] > 0
        assert data["speedup"] > 0
        # The fast path retires real blocks; the baseline translates none.
        assert data["fast"]["block_translations"] > 0
        assert data["baseline"]["block_translations"] == 0

    def test_engine_workload_shape(self, report):
        data = report["workloads"]["qarma_throughput"]
        assert data["kind"] == "engine"
        assert data["operations"] > 0
        assert data["operations_per_second"] > 0
        assert data["stats"]["engine"]["operations"] == data["operations"]

    def test_default_fast_path_restored(self, report):
        assert Machine.DEFAULT_FAST_PATH is True

    def test_report_renders_and_serializes(self, report, tmp_path):
        text = format_report(report)
        assert "kernel_boot" in text
        assert "speedup" in text
        out = tmp_path / "bench.json"
        write_report(report, str(out))
        assert json.loads(out.read_text())["schema"] == SCHEMA


def test_clb_sweep_locality_contrast():
    report = run_perf(quick=True, only=["clb_sweep"])
    stats = report["workloads"]["clb_sweep"]["stats"]
    assert stats["high_locality"]["hit_ratio"] > 0.9
    assert stats["low_locality"]["hit_ratio"] == 0.0


def test_attack_replay_fingerprint_is_deterministic():
    first = run_attack_replay(quick=True)
    second = run_attack_replay(quick=True)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["results"] > 0


def test_cli_quick_subset(tmp_path, capsys):
    from repro.perf.__main__ import main

    out = tmp_path / "BENCH_interp.json"
    code = main([
        "--quick", "--workloads", "qarma_throughput",
        "--output", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["quick"] is True
    captured = capsys.readouterr()
    assert "qarma_throughput" in captured.out


class TestPerfGate:
    @pytest.fixture(scope="class")
    def report(self):
        return run_perf(quick=True, only=["kernel_boot"])

    def test_quick_run_passes_gate(self, report):
        from repro.perf.gate import check_report

        assert check_report(report) == []

    def test_gate_catches_regression(self, report):
        from repro.perf.gate import check_report

        bad = json.loads(json.dumps(report))
        bad["workloads"]["kernel_boot"]["compiled_speedup_over_block"] = 0.5
        failures = check_report(bad)
        assert any("compiled_speedup_over_block" in f for f in failures)

    def test_gate_catches_lost_equivalence(self, report):
        from repro.perf.gate import check_report

        bad = json.loads(json.dumps(report))
        bad["workloads"]["kernel_boot"]["equivalent"] = False
        assert any("equivalent" in f for f in check_report(bad))

    def test_gate_catches_disabled_tier(self, report):
        from repro.perf.gate import check_report

        bad = json.loads(json.dumps(report))
        bad["workloads"]["kernel_boot"]["fast"]["blocks_compiled"] = 0
        assert any("zero blocks" in f for f in check_report(bad))

    def test_gate_catches_missing_workload(self):
        from repro.perf.gate import check_report

        failures = check_report({"workloads": {}})
        assert any("missing" in f for f in failures)

    def test_gate_cli(self, report, tmp_path, capsys):
        from repro.perf.gate import main

        path = tmp_path / "BENCH_interp.json"
        path.write_text(json.dumps(report))
        assert main([str(path)]) == 0
        assert "passed" in capsys.readouterr().out

        bad = json.loads(json.dumps(report))
        bad["workloads"]["kernel_boot"]["speedup"] = 0.1
        path.write_text(json.dumps(bad))
        assert main([str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out
