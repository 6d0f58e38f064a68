"""Human-readable rendering of a perf report dict."""

from __future__ import annotations


def format_report(report: dict) -> str:
    lines = [
        f"repro.perf — schema {report['schema']}  "
        f"(python {report['python']}, quick={report['quick']}, "
        f"repeats={report['repeats']})",
        "",
    ]
    header = (
        f"{'workload':24s} {'instr':>10s} {'base ips':>12s} "
        f"{'fast ips':>12s} {'speedup':>8s}  equiv"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, data in report["workloads"].items():
        if data["kind"] == "interpreter":
            base = data["baseline"]
            fast = data["fast"]
            instr = data.get("instructions")
            base_ips = base.get("instructions_per_second")
            fast_ips = fast.get("instructions_per_second")
            lines.append(
                f"{name:24s} "
                f"{instr if instr is not None else '-':>10} "
                f"{_rate(base_ips):>12s} {_rate(fast_ips):>12s} "
                f"{data['speedup']:>7.2f}x  "
                f"{'yes' if data['equivalent'] else 'NO'}"
            )
        elif data["kind"] == "snapshot":
            # Columns repurposed: capture rate, fork rate, and the
            # cold-vs-warm attack-suite wall-clock speedup.
            suite = data["suite"]
            lines.append(
                f"{name:24s} {data['pages']:>10} "
                f"{_rate(data['capture_per_second']):>12s} "
                f"{_rate(data['fork_per_second']):>12s} "
                f"{suite['speedup']:>7.2f}x  "
                f"{'yes' if data['equivalent'] else 'NO'}"
            )
        else:
            lines.append(
                f"{name:24s} {data['operations']:>10} "
                f"{'-':>12s} {_rate(data['operations_per_second']):>12s} "
                f"{'-':>8s}  -"
            )
    lines.append("")
    for name, data in report["workloads"].items():
        if data["kind"] == "engine" and "stats" in data:
            lines.append(f"{name}: {_engine_summary(data['stats'])}")
    return "\n".join(line.rstrip() for line in lines)


def _rate(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M/s"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k/s"
    return f"{value:.0f}/s"


def _engine_summary(stats: dict) -> str:
    parts = []
    for key, value in stats.items():
        if isinstance(value, dict) and "hit_ratio" in value:
            parts.append(f"{key} hit ratio {value['hit_ratio']:.1%}")
        elif isinstance(value, dict) and "operations" in value:
            parts.append(f"{key} ops {value['operations']}")
    return ", ".join(parts) if parts else "(no stats)"
