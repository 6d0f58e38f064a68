"""``python -m repro.validate file-or-dir ...`` — validate JSON artifacts.

One entry point for every schema the repo ships: each document is
dispatched on its ``schema`` id (Chrome traces, which carry
``traceEvents``, are recognized by shape) to the matching validator
from :mod:`repro.fuzz.schema`, :mod:`repro.perf.schema` or
:mod:`repro.telemetry.schema`.  Directories are walked for ``*.json``.

CI runs this over every uploaded artifact — campaign reports, BENCH
json, history entries, telemetry exports — so a malformed report fails
the job instead of shipping.  Exit status: 0 if every document
validated, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["check_count", "is_int", "is_number", "validate_document", "main"]


def is_int(value) -> bool:
    """A JSON integer.  ``True``/``False`` are Python ints but not
    integers in any of these schemas."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number (integer or float), booleans excluded."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_count(document, key, problems, where="") -> None:
    """Append a problem unless ``document[key]`` is a non-negative
    integer."""
    value = document.get(key)
    if not is_int(value) or value < 0:
        problems.append(
            f"{where}{key!r} is not a non-negative integer: {value!r}"
        )


def _validators() -> dict:
    from repro.attacks.schema import MATRIX_SCHEMA, validate_matrix
    from repro.fleet.schema import (
        BENCH_FLEET_SCHEMA,
        JOB_SCHEMA,
        RESULT_SCHEMA,
        validate_bench_fleet,
        validate_job,
        validate_result,
    )
    from repro.fuzz.campaign import REPORT_SCHEMA
    from repro.fuzz.dist import DIST_REPORT_SCHEMA
    from repro.fuzz.schema import validate_dist_report, validate_report
    from repro.perf.runner import SCHEMA as BENCH_SCHEMA
    from repro.perf.schema import validate_bench, validate_history_entry
    from repro.perf.trend import HISTORY_SCHEMA
    from repro.telemetry.flightrec import FLIGHTREC_SCHEMA
    from repro.telemetry.metrics import METRICS_SCHEMA
    from repro.telemetry.leakage import LEAKAGE_SCHEMA
    from repro.telemetry.schema import (
        validate_chrome_trace,
        validate_events,
        validate_flightrec,
        validate_leakage,
        validate_metrics,
        validate_profile,
        validate_spans,
    )
    from repro.telemetry.spans import SPANS_SCHEMA

    return {
        MATRIX_SCHEMA: validate_matrix,
        LEAKAGE_SCHEMA: validate_leakage,
        REPORT_SCHEMA: validate_report,
        DIST_REPORT_SCHEMA: validate_dist_report,
        BENCH_SCHEMA: validate_bench,
        HISTORY_SCHEMA: validate_history_entry,
        METRICS_SCHEMA: validate_metrics,
        JOB_SCHEMA: validate_job,
        RESULT_SCHEMA: validate_result,
        BENCH_FLEET_SCHEMA: validate_bench_fleet,
        SPANS_SCHEMA: validate_spans,
        FLIGHTREC_SCHEMA: validate_flightrec,
        "repro.telemetry/events-1": validate_events,
        "repro.telemetry/chrome-trace-1": validate_chrome_trace,
        "repro.telemetry/profile-1": validate_profile,
    }


def validate_document(document) -> tuple[str, list[str]]:
    """Dispatch one parsed JSON document; return (kind, problems)."""
    if not isinstance(document, dict):
        return "unknown", ["top-level JSON value is not an object"]
    schema = document.get("schema")
    validators = _validators()
    if schema in validators:
        return schema, validators[schema](document)
    if "traceEvents" in document:
        from repro.telemetry.schema import validate_chrome_trace

        return "chrome-trace", validate_chrome_trace(document)
    return "unknown", [f"unrecognized document schema {schema!r}"]


def _iter_paths(arguments) -> list[Path]:
    paths: list[Path] = []
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.json")))
        else:
            paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Schema-validate repo JSON artifacts "
        "(fuzz reports, BENCH json, history entries, telemetry exports).",
    )
    parser.add_argument("paths", nargs="+",
                        help="JSON files or directories of *.json")
    args = parser.parse_args(argv)

    paths = _iter_paths(args.paths)
    if not paths:
        print("no JSON documents found")
        return 1
    bad = 0
    for path in paths:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            print(f"FAIL  {path}: unreadable: {error}")
            bad += 1
            continue
        kind, problems = validate_document(document)
        if problems:
            bad += 1
            print(f"FAIL  {path} [{kind}]:")
            for problem in problems[:20]:
                print(f"        {problem}")
            if len(problems) > 20:
                print(f"        ... and {len(problems) - 20} more")
        else:
            print(f"ok    {path} [{kind}]")
    print(f"{len(paths) - bad}/{len(paths)} documents valid")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
