"""Validators for the fuzz report formats.

Mirrors :mod:`repro.telemetry.schema`: each validator returns a list of
problem strings — empty means valid.  CI runs these over the uploaded
campaign reports so a malformed artifact fails the job instead of
shipping.
"""

from __future__ import annotations

from repro.fuzz.campaign import REPORT_SCHEMA
from repro.fuzz.dist import DIST_REPORT_SCHEMA
from repro.validate import check_count, is_int

__all__ = ["validate_report", "validate_dist_report"]

_ORACLE_NAMES = ("step_vs_block", "snapshot", "compiler")
_COVERAGE_COUNTS = (
    "instruction_pairs",
    "instructions_executed",
    "trap_edges",
    "traps_taken",
    "clb_events",
)
_SHARD_STATUSES = ("ok", "timeout", "crashed")


def _check_coverage(coverage, problems, where="coverage",
                    tables=True) -> None:
    if not isinstance(coverage, dict):
        problems.append(f"'{where}' is not an object")
        return
    for key in _COVERAGE_COUNTS:
        check_count(coverage, key, problems, where=f"{where}.")
    if not tables:
        # Per-shard summaries carry the counts only.
        return
    for table in ("pairs", "traps", "clb"):
        if not isinstance(coverage.get(table), dict):
            problems.append(f"{where}.{table} is not an object")


def _check_oracles(oracles, problems) -> None:
    if not isinstance(oracles, dict):
        problems.append("'oracles' is not an object")
        return
    for name in _ORACLE_NAMES:
        stats = oracles.get(name)
        if not isinstance(stats, dict):
            problems.append(f"oracles.{name} missing or not an object")
            continue
        for key in ("cases", "divergences"):
            check_count(stats, key, problems, where=f"oracles.{name}.")


def _check_spec(document, problems) -> None:
    """The ``spec`` marker and the ``spec_convergence`` oracle block
    travel together — one without the other is a malformed report."""
    oracles = document.get("oracles")
    stats = oracles.get("spec_convergence") if isinstance(oracles, dict) \
        else None
    if not document.get("spec"):
        if stats is not None:
            problems.append(
                "oracles.spec_convergence present without 'spec': true"
            )
        return
    if document.get("spec") is not True:
        problems.append(f"'spec' is not true: {document.get('spec')!r}")
    if not isinstance(stats, dict):
        problems.append(
            "'spec': true but oracles.spec_convergence missing"
        )
        return
    for key in ("cases", "divergences", "windows",
                "transient_instructions"):
        check_count(stats, key, problems, where="oracles.spec_convergence.")


def _check_failures(failures, problems) -> None:
    if not isinstance(failures, list):
        problems.append("'failures' is not a list")
        return
    for index, failure in enumerate(failures):
        where = f"failures[{index}]"
        if not isinstance(failure, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "oracle", "detail"):
            if not isinstance(failure.get(key), str):
                problems.append(f"{where}: missing string {key!r}")


def validate_report(document: dict) -> list[str]:
    """Validate a single-process campaign report."""
    problems: list[str] = []
    if document.get("schema") != REPORT_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    check_count(document, "schema_version", problems)
    for key in ("seed", "budget", "divergences"):
        check_count(document, key, problems)
    _check_oracles(document.get("oracles"), problems)
    _check_spec(document, problems)
    _check_coverage(document.get("coverage"), problems)
    _check_failures(document.get("failures"), problems)
    return problems


def validate_dist_report(document: dict) -> list[str]:
    """Validate a merged sharded-campaign report."""
    problems: list[str] = []
    if document.get("schema") != DIST_REPORT_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    check_count(document, "schema_version", problems)
    for key in ("seed", "budget", "shards", "rounds", "divergences",
                "shards_ok", "shards_failed"):
        check_count(document, key, problems)
    _check_oracles(document.get("oracles"), problems)
    _check_spec(document, problems)
    _check_coverage(document.get("coverage"), problems)
    _check_failures(document.get("failures"), problems)

    shard_reports = document.get("shard_reports")
    if not isinstance(shard_reports, list) or not shard_reports:
        problems.append("'shard_reports' missing or empty")
        return problems
    expected = None
    shards = document.get("shards")
    rounds = document.get("rounds")
    if is_int(shards) and is_int(rounds):
        expected = shards * rounds
        if len(shard_reports) != expected:
            problems.append(
                f"shard_reports has {len(shard_reports)} entries, "
                f"expected shards*rounds = {expected}"
            )
    for index, row in enumerate(shard_reports):
        where = f"shard_reports[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("round", "shard_id", "shard_seed", "budget"):
            check_count(row, key, problems, where=f"{where}.")
        status = row.get("status")
        if status not in _SHARD_STATUSES:
            problems.append(f"{where}: unknown status {status!r}")
        elif status == "ok":
            _check_coverage(
                row.get("coverage"), problems,
                where=f"{where}.coverage", tables=False,
            )
    if all(
        isinstance(row, dict) and row.get("status") != "ok"
        for row in shard_reports
    ):
        problems.append("every shard failed: no results were merged")
    return problems
