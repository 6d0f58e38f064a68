"""Envelope formats for the fleet: jobs, results, BENCH_fleet.

Three schemas travel through the serving layer:

* **job envelope** (:data:`JOB_SCHEMA`) — one request submitted to the
  fleet: a kind (``workload`` | ``attack`` | ``fuzz``), a tenant, a
  priority, an optional deadline and kind-specific parameters;
* **result envelope** (:data:`RESULT_SCHEMA`) — one answer: status,
  deterministic payload, plus scheduling facts (worker, attempts) and a
  ``timing`` section that is stripped from canonical output;
* **BENCH_fleet** (:data:`BENCH_FLEET_SCHEMA`) — the load-generator
  report: deterministic result counts + digest, with every wall-clock
  derived number (throughput, latency percentiles, cold/warm ratio,
  rolled-up fleet metrics) confined to ``timing``.

Validators follow the repo convention (:mod:`repro.fuzz.schema`):
return a list of problem strings, empty meaning valid.  They are wired
into ``python -m repro.validate`` so CI checks every uploaded
``BENCH_fleet.json`` and any serialized envelope stream.
"""

from __future__ import annotations

from repro.validate import check_count, is_int, is_number

__all__ = [
    "BENCH_FLEET_SCHEMA",
    "JOB_KINDS",
    "JOB_SCHEMA",
    "RESULT_SCHEMA",
    "RESULT_STATUSES",
    "deterministic_view",
    "make_job",
    "make_result",
    "validate_bench_fleet",
    "validate_job",
    "validate_result",
]

JOB_SCHEMA = "repro.fleet/job-1"
RESULT_SCHEMA = "repro.fleet/result-1"
BENCH_FLEET_SCHEMA = "repro.fleet/bench-1"
SCHEMA_VERSION = 1

JOB_KINDS = ("workload", "attack", "fuzz")

#: ``ok`` ran to completion; ``error`` raised (or exhausted its crash
#: retries); ``expired`` missed its deadline while queued and was never
#: run.
RESULT_STATUSES = ("ok", "error", "expired")


def make_job(
    job_id: str,
    kind: str,
    params: dict,
    *,
    tenant: str = "default",
    priority: int = 1,
    deadline_s: float | None = None,
) -> dict:
    """Build one job envelope (validated by :func:`validate_job`)."""
    return {
        "schema": JOB_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "id": job_id,
        "tenant": tenant,
        "kind": kind,
        "priority": priority,
        "deadline_s": deadline_s,
        "params": dict(params),
    }


def make_result(
    job: dict,
    status: str,
    payload: dict | None,
    *,
    error: str | None = None,
    worker: int | None = None,
    attempts: int = 1,
    timing: dict | None = None,
) -> dict:
    """Build the result envelope answering ``job``."""
    return {
        "schema": RESULT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "id": job["id"],
        "tenant": job["tenant"],
        "kind": job["kind"],
        "status": status,
        "payload": payload,
        "error": error,
        "worker": worker,
        "attempts": attempts,
        "timing": timing or {},
    }


def deterministic_view(result: dict) -> dict:
    """The part of a result that must not depend on scheduling.

    Which worker served a job, how many attempts it took after an
    injected crash, and every wall-clock number are scheduling facts;
    everything else — including the payload — is a pure function of the
    job and must be bit-identical across runs.
    """
    return {
        "id": result["id"],
        "tenant": result["tenant"],
        "kind": result["kind"],
        "status": result["status"],
        "payload": result["payload"],
        "error": result["error"],
    }


# -- validators -------------------------------------------------------------------


def validate_job(document: dict) -> list[str]:
    """Validate one job envelope."""
    problems: list[str] = []
    if document.get("schema") != JOB_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    if not isinstance(document.get("id"), str) or not document.get("id"):
        problems.append("missing non-empty string 'id'")
    if not isinstance(document.get("tenant"), str):
        problems.append("missing string 'tenant'")
    if document.get("kind") not in JOB_KINDS:
        problems.append(f"unknown kind {document.get('kind')!r}")
    priority = document.get("priority")
    if not is_int(priority):
        problems.append(f"'priority' is not an integer: {priority!r}")
    deadline = document.get("deadline_s")
    if deadline is not None and (not is_number(deadline) or deadline <= 0):
        problems.append(f"'deadline_s' is not a positive number: {deadline!r}")
    if not isinstance(document.get("params"), dict):
        problems.append("'params' is not an object")
    return problems


def validate_result(document: dict) -> list[str]:
    """Validate one result envelope."""
    problems: list[str] = []
    if document.get("schema") != RESULT_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    if not isinstance(document.get("id"), str) or not document.get("id"):
        problems.append("missing non-empty string 'id'")
    if not isinstance(document.get("tenant"), str):
        problems.append("missing string 'tenant'")
    if document.get("kind") not in JOB_KINDS:
        problems.append(f"unknown kind {document.get('kind')!r}")
    status = document.get("status")
    if status not in RESULT_STATUSES:
        problems.append(f"unknown status {status!r}")
    payload = document.get("payload")
    if status == "ok" and not isinstance(payload, dict):
        problems.append("'payload' missing for an ok result")
    if status == "error" and not isinstance(document.get("error"), str):
        problems.append("'error' missing for an error result")
    check_count(document, "attempts", problems)
    return problems


#: Deterministic result-count keys; they must sum to ``jobs``.
_RESULT_COUNTS = ("ok", "error", "expired", "lost")


def validate_bench_fleet(document: dict) -> list[str]:
    """Validate a ``BENCH_fleet.json`` load-generator report."""
    problems: list[str] = []
    if document.get("schema") != BENCH_FLEET_SCHEMA:
        problems.append(f"bad schema id {document.get('schema')!r}")
    check_count(document, "schema_version", problems)
    for key in ("seed", "jobs", "workers", "batch_size",
                "crashes_injected"):
        check_count(document, key, problems)
    digest = document.get("results_digest")
    if not isinstance(digest, str) or len(digest) != 64:
        problems.append(f"'results_digest' is not a sha256 hex: {digest!r}")
    results = document.get("results")
    if not isinstance(results, dict):
        problems.append("'results' is not an object")
    else:
        for key in _RESULT_COUNTS:
            check_count(results, key, problems, where="results.")
        counts = [results.get(key) for key in _RESULT_COUNTS]
        jobs = document.get("jobs")
        if all(is_int(c) for c in counts) and is_int(jobs):
            if sum(counts) != jobs:
                problems.append(
                    f"results counts sum to {sum(counts)}, "
                    f"expected jobs = {jobs}"
                )
    for key in ("per_kind", "per_tenant", "mix"):
        section = document.get(key)
        if not isinstance(section, dict):
            problems.append(f"'{key}' is not an object")
            continue
        for name, value in section.items():
            check_count({name: value}, name, problems, where=f"{key}.")
    timing = document.get("timing")
    if timing is not None:
        if not isinstance(timing, dict):
            problems.append("'timing' is not an object")
        else:
            for key in ("wall_seconds", "jobs_per_second"):
                if not is_number(timing.get(key)):
                    problems.append(f"timing.{key} is not a number")
    return problems
