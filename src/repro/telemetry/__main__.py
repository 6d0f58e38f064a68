"""CLI: ``python -m repro.telemetry run <workload> [options]``.

Runs one of the perf workloads with telemetry attached and writes the
selected exports:

* ``metrics.json``  — hierarchical counters/gauges/histograms;
* ``events.json``   — the structured event stream;
* ``trace.json``    — Chrome trace-event JSON (load at ui.perfetto.dev);
* ``profile.txt`` / ``profile.json`` — symbolized flat profile.

With no plane flags, all three planes are enabled.  ``--validate``
checks every written document against its schema and fails the run on
any problem, which is how CI keeps the export formats honest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Trace, profile and meter a simulated kernel run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a workload with telemetry")
    run.add_argument("workload", help="workload name (see 'list')")
    run.add_argument(
        "--quick", action="store_true", help="scaled-down workload variant"
    )
    run.add_argument(
        "--trace", action="store_true", help="record the event stream"
    )
    run.add_argument(
        "--profile", action="store_true", help="collect a pc profile"
    )
    run.add_argument(
        "--metrics", action="store_true", help="collect the metrics registry"
    )
    run.add_argument(
        "--out-dir",
        type=Path,
        default=Path("telemetry-out"),
        help="directory for the export files (default: telemetry-out)",
    )
    run.add_argument(
        "--max-steps", type=int, default=None, help="step budget override"
    )
    run.add_argument(
        "--top", type=int, default=30, help="flat-profile row count"
    )
    run.add_argument(
        "--validate",
        action="store_true",
        help="validate every export against its schema; fail on problems",
    )

    sub.add_parser("list", help="list the available workloads")

    om = sub.add_parser(
        "openmetrics",
        help="render a metrics-1 JSON document as OpenMetrics text",
    )
    om.add_argument("metrics", type=Path, help="metrics.json to render")
    om.add_argument(
        "--output", type=Path, default=None,
        help="write the exposition text here (default: stdout)",
    )
    om.add_argument(
        "--check", action="store_true",
        help="also grammar-check the rendered text; fail on problems",
    )
    return parser


def _dump(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.telemetry.runner import run_workload, workload_names

    if args.command == "list":
        for name in workload_names():
            print(name)
        return 0

    if args.command == "openmetrics":
        from repro.telemetry.openmetrics import (
            render_openmetrics,
            validate_openmetrics_text,
        )
        from repro.telemetry.schema import validate_metrics

        document = json.loads(args.metrics.read_text())
        problems = [f"{args.metrics}: {p}" for p in validate_metrics(document)]
        text = render_openmetrics(document)
        if args.check:
            problems += [
                f"{args.metrics} (rendered): {p}"
                for p in validate_openmetrics_text(text)
            ]
        if problems:
            for problem in problems:
                print(f"SCHEMA PROBLEM: {problem}", file=sys.stderr)
            return 1
        if args.output is not None:
            args.output.write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    # No plane flags means "everything" — the common interactive case.
    if not (args.trace or args.profile or args.metrics):
        args.trace = args.profile = args.metrics = True

    run = run_workload(
        args.workload,
        quick=args.quick,
        trace=args.trace,
        profile=args.profile,
        metrics=args.metrics,
        max_steps=args.max_steps,
    )
    telemetry = run.telemetry

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, dict] = {}

    if args.metrics:
        written["metrics.json"] = telemetry.metrics_json()
    if args.trace:
        written["events.json"] = telemetry.events_json()
        written["trace.json"] = telemetry.chrome_trace()
    if args.profile:
        written["profile.json"] = telemetry.profile_json(top=args.top)
        (out_dir / "profile.txt").write_text(
            telemetry.flat_profile(top=args.top) + "\n"
        )
    for filename, document in written.items():
        _dump(out_dir / filename, document)

    for line in (
        f"workload:     {run.workload}",
        f"halt:         {run.halt_reason} (exit code {run.exit_code})",
        f"cycles:       {run.cycles}",
        f"instructions: {run.instructions}",
        f"outputs:      {out_dir}/"
        + ", ".join(sorted(written) + (["profile.txt"] if args.profile else [])),
    ):
        print(line)
    if args.profile:
        print()
        print(telemetry.flat_profile(top=min(args.top, 10)))

    if args.validate:
        from repro.validate import validate_document

        problems: list[str] = []
        for filename, document in written.items():
            # Report the on-disk path of the failing document so the
            # offending artifact can be opened straight from CI logs.
            problems += [
                f"{out_dir / filename}: {p}"
                for p in validate_document(document)[1]
            ]
        if problems:
            for problem in problems:
                print(f"SCHEMA PROBLEM: {problem}", file=sys.stderr)
            return 1
        print(f"schema validation: OK ({', '.join(sorted(written))})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
