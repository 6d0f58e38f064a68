"""Sharded multi-process fuzz campaigns: partition, run, merge.

A distributed campaign splits one ``(seed, budget)`` across ``shards``
worker processes (optionally over several ``rounds``).  Each shard runs
an ordinary :class:`~repro.fuzz.campaign.Campaign` whose seed is a pure
function of ``(campaign seed, round, shard_id)`` — so any shard can be
re-run alone, bit-identically, without the rest of the fleet
(:func:`run_shard`).

After every round the driver merges the shard results:

* **coverage** — the per-shard :class:`CoverageMap`\\ s (fed from the
  telemetry trace bus during each shard's differential cases) are folded
  into one campaign-wide map;
* **corpus** — each shard's interesting cases are deduplicated on their
  content digests (:func:`~repro.fuzz.corpus.case_digest`) before
  joining the merged corpus;
* **scheduling** — the next round's shards are seeded coverage-guided:
  merged cases are ranked by how many new coverage keys they earned and
  the top :data:`SCHEDULE_CAP` become extra seeds for every shard.

A crashed or hung worker never loses the campaign: each shard has a
wall-clock timeout, and the driver marks the shard ``timeout`` or
``crashed`` in the merged report and carries on with a partial merge.
With ``DistConfig.flightrec`` each worker additionally keeps a bounded
:class:`~repro.telemetry.flightrec.FlightRecorder` of its recent events
and dumps it — on crash, or via the SIGTERM handler when the driver
terminates a hung shard — so the failed shard's row carries a
``repro.telemetry/flightrec-1`` post-mortem under ``flightrec``.

Everything in the merged report except the ``timing`` section is a pure
function of ``(seed, budget, shards, rounds, corpus)``;
:func:`canonical_json` strips ``timing`` so two runs of the same
campaign serialize bit-identically.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

from repro.fuzz.campaign import Campaign, FuzzConfig
from repro.fuzz.corpus import case_digest
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.oracles import CASE_STEP_BUDGET

__all__ = [
    "DIST_REPORT_SCHEMA",
    "MAX_SHARDS",
    "DistConfig",
    "canonical_json",
    "resolve_shards",
    "run_distributed",
    "run_shard",
    "shard_budgets",
    "shard_seed",
]

DIST_REPORT_SCHEMA = "repro.fuzz/dist-report-1"
DIST_REPORT_SCHEMA_VERSION = 1

#: Upper bound on worker shards: beyond this the per-shard budgets get
#: too small to be useful and process overhead dominates.
MAX_SHARDS = 64


def resolve_shards(requested: int | None) -> int:
    """Worker count for a campaign, clamped to ``[1, MAX_SHARDS]``.

    ``requested`` of ``None`` or ``<= 0`` auto-detects from
    ``os.cpu_count()`` — which may legitimately return ``None`` (the
    platform cannot tell), in which case one shard is used.
    """
    if requested is None or requested <= 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, MAX_SHARDS))

#: How many merged interesting cases (ranked by new coverage keys) seed
#: the next round's shards on top of the base corpus.
SCHEDULE_CAP = 64

#: Test hook: comma-separated shard ids whose workers hang forever,
#: exercising the timeout + partial-merge path without a real deadlock.
HANG_ENV = "REPRO_FUZZ_TEST_HANG_SHARDS"

_SHARD_SUMMARY_KEYS = (
    "instruction_pairs",
    "instructions_executed",
    "trap_edges",
    "traps_taken",
    "clb_events",
)


@dataclass
class DistConfig:
    """Knobs for one distributed campaign."""

    seed: int = 0
    #: Total case budget, split across every shard of every round.
    budget: int = 2000
    shards: int = 2
    rounds: int = 1
    max_steps: int = CASE_STEP_BUDGET
    emit_dir: str | None = "fuzz-failures"
    telemetry: bool = False
    #: Run the ``spec_convergence`` oracle in every shard (see
    #: :class:`repro.fuzz.campaign.FuzzConfig`).
    spec: bool = False
    #: Per-round wall-clock limit (seconds) a shard may take before it
    #: is terminated and merged as ``timeout``.  ``None``: wait forever.
    shard_timeout: float | None = 600.0
    #: ``False`` runs every shard sequentially in this process (useful
    #: for debugging and tests); merged results are identical.
    parallel: bool = True
    #: Attach a flight recorder to every worker shard; a crashed or
    #: terminated shard's dump is merged into its failed report row.
    #: Only meaningful with ``parallel`` (in-process shards cannot die).
    flightrec: bool = False


def shard_seed(seed: int, round_index: int, shard_id: int) -> int:
    """The worker campaign seed: pure function of (seed, round, shard)."""
    blob = f"repro.fuzz.shard:{seed}:{round_index}:{shard_id}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def shard_budgets(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal deterministic slices."""
    if parts <= 0:
        raise ValueError(f"need at least one part, got {parts}")
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


def run_shard(
    config: DistConfig,
    round_index: int,
    shard_id: int,
    budget: int,
    corpus,
) -> dict:
    """Run one shard in-process.

    The result — report, coverage map, interesting cases — is
    reproducible from ``(config.seed, round_index, shard_id)`` alone
    (plus the corpus, itself deterministic), which is what makes the
    multi-process campaign's merged report deterministic.
    """
    emit_dir = None
    if config.emit_dir:
        emit_dir = os.path.join(
            config.emit_dir, f"round{round_index}-shard{shard_id}"
        )
    fuzz_config = FuzzConfig(
        seed=shard_seed(config.seed, round_index, shard_id),
        budget=budget,
        max_steps=config.max_steps,
        emit_dir=emit_dir,
        telemetry=config.telemetry,
        spec=config.spec,
    )
    campaign = Campaign(fuzz_config, corpus=list(corpus))
    start = time.perf_counter()
    report = campaign.run()
    return {
        "round": round_index,
        "shard_id": shard_id,
        "shard_seed": fuzz_config.seed,
        "budget": budget,
        "status": "ok",
        "wall_seconds": time.perf_counter() - start,
        "report": report,
        "coverage": campaign.coverage,
        "interesting": campaign.interesting_cases,
    }


def _worker(conn, config, round_index, shard_id, budget, corpus,
            flight_path=None):
    """Child-process entry: run one shard, ship the result, exit."""
    recorder = None
    if flight_path is not None:
        from repro.telemetry.flightrec import (
            FlightRecorder,
            install_sigterm_dump,
        )

        recorder = FlightRecorder(f"fuzz-shard-{round_index}-{shard_id}")
        # The driver terminates a hung shard with SIGTERM; the handler
        # turns that kill into a post-mortem before the process dies.
        install_sigterm_dump(recorder, flight_path)
        recorder.note(
            "shard.start",
            round=round_index,
            shard=shard_id,
            budget=budget,
            corpus=len(corpus),
        )
    hang = os.environ.get(HANG_ENV, "")
    if str(shard_id) in [part for part in hang.split(",") if part]:
        time.sleep(3600)
    try:
        try:
            result = run_shard(config, round_index, shard_id, budget, corpus)
        except BaseException as error:
            if recorder is not None:
                # Disarm the SIGTERM handler first, then die on the
                # spot: the driver terminates a worker as soon as its
                # pipe closes, and that signal must not overwrite the
                # crash dump with a generic sigterm one.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                recorder.note(
                    "shard.error",
                    error=f"{type(error).__name__}: {error}",
                )
                recorder.write(flight_path, "crash")
                conn.close()
                os._exit(1)
            raise
        conn.send(result)
    finally:
        conn.close()


def _failed_shard(config, round_index, shard_id, budget, status, wall,
                  flightrec=None):
    return {
        "round": round_index,
        "shard_id": shard_id,
        "shard_seed": shard_seed(config.seed, round_index, shard_id),
        "budget": budget,
        "status": status,
        "wall_seconds": wall,
        "report": None,
        "coverage": None,
        "interesting": [],
        "flightrec": flightrec,
    }


def _run_round_parallel(config, round_index, budgets, corpus) -> list[dict]:
    """One round of worker processes; hung/crashed shards degrade
    to ``timeout``/``crashed`` placeholder results instead of wedging
    or losing the campaign."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    flight_dir = None
    if config.flightrec:
        import tempfile

        flight_dir = tempfile.mkdtemp(prefix="repro-fuzz-flightrec-")

    def flight_path(shard_id):
        if flight_dir is None:
            return None
        return os.path.join(
            flight_dir, f"round{round_index}-shard{shard_id}.json"
        )

    try:
        workers = []
        for shard_id, budget in enumerate(budgets):
            recv_end, send_end = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker,
                args=(send_end, config, round_index, shard_id, budget,
                      corpus, flight_path(shard_id)),
                name=f"fuzz-shard-{round_index}-{shard_id}",
            )
            process.start()
            # The parent must drop its copy of the send end so a dead
            # child reads as EOF rather than a pipe that might still be
            # written.
            send_end.close()
            workers.append((process, recv_end, budget))

        start = time.monotonic()
        deadline = (
            start + config.shard_timeout
            if config.shard_timeout is not None else None
        )
        results = []
        for shard_id, (process, recv_end, budget) in enumerate(workers):
            result = None
            status = "ok"
            try:
                timeout = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if recv_end.poll(timeout):
                    result = recv_end.recv()
                else:
                    status = "timeout"
            except (EOFError, OSError):
                status = "crashed"
            recv_end.close()
            if result is None:
                if process.is_alive():
                    process.terminate()
                process.join(10)
                dump = None
                if flight_dir is not None:
                    from repro.telemetry.flightrec import read_dump

                    # SIGTERM (timeout) or the crash handler wrote the
                    # post-mortem just before the worker died; a hard
                    # kill may leave nothing, and that is fine too.
                    dump = read_dump(flight_path(shard_id))
                results.append(_failed_shard(
                    config, round_index, shard_id, budget, status,
                    time.monotonic() - start,
                    flightrec=dump,
                ))
            else:
                process.join()
                results.append(result)
        return results
    finally:
        if flight_dir is not None:
            import shutil

            shutil.rmtree(flight_dir, ignore_errors=True)


def _merge_oracles(totals: dict, stats: dict) -> None:
    for name, counters in stats.items():
        bucket = totals.setdefault(name, {})
        for key, value in counters.items():
            bucket[key] = bucket.get(key, 0) + value


def run_distributed(config: DistConfig, corpus=None) -> dict:
    """Run the whole sharded campaign; return the merged report."""
    if config.shards <= 0:
        raise ValueError(f"need at least one shard, got {config.shards}")
    if config.rounds <= 0:
        raise ValueError(f"need at least one round, got {config.rounds}")
    base_corpus = list(corpus or [])

    coverage = CoverageMap()
    oracle_totals: dict = {}
    telemetry_totals: dict = {}
    shard_rows: list[dict] = []
    timing_rows: list[dict] = []
    failures: list[dict] = []
    #: (new_keys, digest, case) for every unique interesting case seen.
    merged_cases: list[tuple[int, str, object]] = []
    seen_digests = {case_digest(case) for case in base_corpus}
    duplicates_dropped = 0
    scheduled_per_round: list[int] = []
    divergences = 0

    wall_start = time.perf_counter()
    extra_seeds: list = []
    for round_index, round_budget in enumerate(
        shard_budgets(config.budget, config.rounds)
    ):
        budgets = shard_budgets(round_budget, config.shards)
        round_corpus = base_corpus + extra_seeds
        scheduled_per_round.append(len(extra_seeds))
        if config.parallel:
            results = _run_round_parallel(
                config, round_index, budgets, round_corpus
            )
        else:
            results = [
                run_shard(config, round_index, shard_id, budget, round_corpus)
                for shard_id, budget in enumerate(budgets)
            ]

        for result in results:
            row = {
                "round": result["round"],
                "shard_id": result["shard_id"],
                "shard_seed": result["shard_seed"],
                "budget": result["budget"],
                "status": result["status"],
            }
            timing_rows.append({
                "round": result["round"],
                "shard_id": result["shard_id"],
                "wall_seconds": result["wall_seconds"],
            })
            report = result["report"]
            if report is None:
                row.update({
                    "divergences": None,
                    "coverage": None,
                    "interesting": 0,
                    "new_coverage_keys": 0,
                })
                if result.get("flightrec") is not None:
                    row["flightrec"] = result["flightrec"]
                shard_rows.append(row)
                continue
            row["new_coverage_keys"] = coverage.merge(result["coverage"])
            row["divergences"] = report["divergences"]
            row["coverage"] = {
                key: report["coverage"][key] for key in _SHARD_SUMMARY_KEYS
            }
            row["interesting"] = report["corpus"]["interesting"]
            shard_rows.append(row)
            divergences += report["divergences"]
            _merge_oracles(oracle_totals, report["oracles"])
            for key, value in report.get("telemetry", {}).items():
                telemetry_totals[key] = telemetry_totals.get(key, 0) + value
            for failure in report["failures"]:
                failures.append({
                    **failure,
                    "round": result["round"],
                    "shard": result["shard_id"],
                })
            for case, gained in result["interesting"]:
                digest = case_digest(case)
                if digest in seen_digests:
                    duplicates_dropped += 1
                    continue
                seen_digests.add(digest)
                merged_cases.append((gained, digest, case))

        # Coverage-guided scheduling: the merged cases that earned the
        # most new keys (digest breaks ties, for determinism) seed every
        # shard of the next round.
        ranked = sorted(merged_cases, key=lambda item: (-item[0], item[1]))
        extra_seeds = [case for _, _, case in ranked[:SCHEDULE_CAP]]

    shards_failed = sum(
        1 for row in shard_rows if row["status"] != "ok"
    )
    report = {
        "schema": DIST_REPORT_SCHEMA,
        "schema_version": DIST_REPORT_SCHEMA_VERSION,
        "seed": config.seed,
        "budget": config.budget,
        "shards": config.shards,
        "rounds": config.rounds,
        "max_steps": config.max_steps,
        "shard_reports": shard_rows,
        "shards_ok": len(shard_rows) - shards_failed,
        "shards_failed": shards_failed,
        "oracles": oracle_totals,
        "coverage": coverage.report(),
        "corpus": {
            "seeds": len(base_corpus),
            "interesting": len(merged_cases),
            "duplicates_dropped": duplicates_dropped,
            "scheduled": scheduled_per_round,
        },
        "divergences": divergences,
        "failures": failures,
        "timing": {
            "wall_seconds": time.perf_counter() - wall_start,
            "shards": timing_rows,
        },
    }
    if config.telemetry:
        report["telemetry"] = telemetry_totals
    if config.spec:
        report["spec"] = True
    return report


def canonical_json(report: dict, include_timing: bool = False) -> str:
    """Deterministic serialized form: sorted keys, timing stripped.

    Wall-clock numbers are the only non-deterministic values in a
    merged report, so dropping the ``timing`` section makes two runs of
    the same campaign bit-identical.
    """
    import json

    document = report if include_timing else {
        key: value for key, value in report.items() if key != "timing"
    }
    return json.dumps(document, indent=2, sort_keys=True)
