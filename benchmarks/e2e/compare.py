"""Compare two sets of benchmark runs, workload by workload.

    python benchmarks/e2e/compare.py A/*.json B/*.json

The inputs are reports written by ``run.py --json``.  Files are grouped
by directory: the first directory is the base (A), the second the
change (B); runs pair up in file-name order.  For every (workload,
metric) both sides get a row with their median and quartiles, and the
B row carries the share of pairs B won (ties count for neither side)
and a verdict for end-to-end metrics, using the bound in
``BENCHMARK.json``:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's quartile spread is wider than the
  bound, unless every B run reads better than every A run;
* ``gain`` — B won at least 90% of the pairs and the medians differ by
  more than A's own quartile spread;
* ``no change`` — otherwise.

Per-layer metrics have no bound; they get rows but no verdict.  The
exit status is 1 when any metric regressed.

Given reports from one directory only, it prints each end-to-end
metric's spread instead — the distance between the quartiles as a
share of the median — next to its bound: the steadiness check for a
set of runs, such as one run per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_side(paths: list[Path]) -> dict:
    """``{workload: {metric: [value per run]}}`` in file order."""
    side: dict = {}
    for path in sorted(paths):
        report = json.loads(path.read_text())
        for workload, entry in report["workloads"].items():
            metrics = side.setdefault(workload, {})
            for metric, value in entry["metrics"].items():
                metrics.setdefault(metric, []).append(value)
    return side


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list, change: list, better: str, bound: float | None):
    """``(won share, verdict or None)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    won = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return won, None
    a_q1, a_med, a_q3 = quartiles(base)
    b_q1, b_med, b_q3 = quartiles(change)
    if a_med == 0:
        return won, "unresolved"
    worse = sign * (a_med - b_med) / abs(a_med)
    every_better = all(sign * (b - a) > 0 for a in base for b in change)
    spread_a = (a_q3 - a_q1) / abs(a_med)
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    if worse > bound:
        return won, "REGRESSION"
    if (spread_a > bound or spread_b > bound) and not every_better:
        return won, "unresolved"
    if won >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1) and worse < 0:
        return won, "gain"
    return won, "no change"


def compare(base: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    directions = {}
    bounds = {}
    for entry in spec["end_to_end"]:
        directions[entry["name"]] = entry["better"]
        bounds[entry["name"]] = entry["bound"]
    for entry in spec["per_layer"]:
        directions[entry["name"]] = entry["better"]
    lines = [
        f"{'workload':20s} {'metric':28s} {'side':4s} {'n':>3s} "
        f"{'median':>13s} {'q1':>13s} {'q3':>13s} {'B won':>6s}  verdict"
    ]
    regressed = False
    for workload in base:
        if workload not in change:
            continue
        for metric, a_values in base[workload].items():
            b_values = change[workload].get(metric)
            if b_values is None or metric not in directions:
                continue
            won, outcome = verdict(
                a_values, b_values, directions[metric], bounds.get(metric)
            )
            regressed |= outcome == "REGRESSION"
            for side, values in (("A", a_values), ("B", b_values)):
                q1, median, q3 = quartiles(values)
                row = (
                    f"{workload:20s} {metric:28s} {side:4s} {len(values):3d} "
                    f"{median:13.6g} {q1:13.6g} {q3:13.6g}"
                )
                if side == "B":
                    a_median = quartiles(a_values)[1]
                    delta = (
                        f"{100.0 * (median - a_median) / abs(a_median):+.1f}%"
                        if a_median else "n/a"
                    )
                    row += f" {won:6.2f}  {outcome or '-'} (B vs A {delta})"
                lines.append(row)
    return lines, regressed


def spreads(runs: dict, spec: dict) -> tuple[list[str], bool]:
    """Per (workload, end-to-end metric): median, spread and bound."""
    lines = [
        f"{'workload':20s} {'metric':16s} {'n':>3s} {'median':>13s} "
        f"{'spread':>7s} {'bound':>6s}"
    ]
    steady = True
    for workload, metrics in runs.items():
        for entry in spec["end_to_end"]:
            values = metrics.get(entry["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            inside = spread <= entry["bound"]
            steady &= inside or entry["name"] == "setup_s"
            lines.append(
                f"{workload:20s} {entry['name']:16s} {len(values):3d} "
                f"{median:13.6g} {spread:7.3f} {entry['bound']:6.2f}"
                + ("" if inside else "  WIDER THAN BOUND")
            )
    return lines, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("reports", nargs="+", type=Path)
    args = parser.parse_args(argv)
    groups: dict[Path, list[Path]] = {}
    for path in args.reports:
        groups.setdefault(path.resolve().parent, []).append(path)
    spec = json.loads(SPEC_PATH.read_text())
    if len(groups) == 1:
        lines, steady = spreads(load_side(args.reports), spec)
        print("\n".join(lines))
        return 0 if steady else 1
    if len(groups) != 2:
        parser.error(
            f"need reports from one or two directories, got {len(groups)}"
        )
    (base_paths, change_paths) = groups.values()
    lines, regressed = compare(
        load_side(base_paths), load_side(change_paths), spec
    )
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
