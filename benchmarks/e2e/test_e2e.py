"""Tests for the end-to-end benchmark (smoke sizes; seconds, not minutes).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def metric_lines(stdout: str) -> dict:
    """``{workload: {metric: unit}}`` from the printed metric lines."""
    printed: dict = {}
    for line in stdout.splitlines()[:-1]:
        if line.startswith("#"):
            continue
        workload, metric, value, unit = line.split()
        float(value)
        printed.setdefault(workload, {})[metric] = unit
    return printed


def final_line(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_smoke_run_prints_every_end_to_end_metric(tmp_path):
    report = tmp_path / "report.json"
    done = run_bench("--smoke", "--seconds", "1", "--json", str(report))
    assert done.returncode == 0, done.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = metric_lines(done.stdout)
    assert set(printed) == {w["name"] for w in SPEC["workloads"]}
    for units in printed.values():
        assert units == expected
    result = final_line(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    saved = json.loads(report.read_text())["workloads"]
    for entry in saved.values():
        assert all(value > 0 for value in entry["metrics"].values())


def test_single_workload_form_prints_its_metrics():
    done = run_bench(
        "--workload", "unprotected_compute", "--seed", "3",
        "--seconds", "1", "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = final_line(done.stdout)
    assert result["correct"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def copy_benchmark(root: Path) -> Path:
    """The benchmark and BENCHMARK.json under ``root``; returns run.py."""
    (root / "benchmarks").mkdir()
    shutil.copytree(HERE, root / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root / "benchmarks" / "e2e" / "run.py"


def test_tampered_expected_digest_fails(tmp_path):
    script = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = script.parent / "expected.json"
    expected = json.loads(path.read_text())
    expected["unprotected_compute"]["smoke"]["0"]["console_sha256"] = "0" * 64
    path.write_text(json.dumps(expected))
    done = run_bench(
        "--workload", "unprotected_compute", "--seed", "0", "--smoke",
        "--seconds", "1", cwd=tmp_path, script=script,
    )
    assert done.returncode == 1
    result = final_line(done.stdout)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_traced_smoke_keeps_the_compiled_tiers_on():
    done = run_bench(
        "--workload", "protected_kernel", "--smoke", "--seconds", "1",
        "--trace",
    )
    assert done.returncode == 0, done.stderr
    metrics = final_line(done.stdout)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["machine.compile.calls"]["value"] > 0
    assert metrics["crypto.ops"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    script = copy_benchmark(tmp_path)
    done = run_bench(
        "--workload", "fleet_mix", "--seed", "0", "--seconds", "1",
        cwd=tmp_path, script=script,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize(
    ("change", "expected"),
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], "no change"),
        ([8.0, 8.1, 7.9, 8.0, 8.05], "REGRESSION"),
        ([12.0, 12.1, 11.9, 12.0, 12.05], "gain"),
        ([9.5, 12.0, 8.0, 10.5, 11.5], "unresolved"),
    ],
)
def test_compare_verdicts(change, expected):
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    _, outcome = compare.verdict(base, change, "higher", 0.1)
    assert outcome == expected
