"""Deterministic open-loop load generator → ``BENCH_fleet.json``.

``python -m repro.fleet loadgen --seed 0`` builds a seeded mix of
short jobs (mostly workload runs, a slice of attack sessions, a few
fuzz batches across several tenants and priorities), prewarms the
serving state — every distinct kernel image built once, every kernel
configuration booted once — and then drives the whole mix through a
:class:`~repro.fleet.scheduler.Fleet`, by default with one injected
worker crash to prove the requeue path on every run.

The emitted report separates what must be deterministic from what
cannot be: job outcomes (digested over every result payload), result
counts and the mix are pure functions of the seed; throughput,
latency percentiles, the cold/warm comparison and the rolled-up fleet
metrics live under ``timing`` and are stripped by
:func:`canonical_json` — so two runs of the same seed compare
bit-identically, exactly like a :mod:`repro.fuzz.dist` campaign
report.

The cold/warm comparison replays one probe session two ways — warm
(the fleet's serving path: image-cache hit, COW fork of the booted
template) and cold (no warm state: build the user program, link the
image, boot from reset) — and reports the throughput ratio; it
isolates exactly the per-request cost the boot-once/fork-per-job
design removes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from random import Random

from repro.fleet import worker as fleet_worker
from repro.fleet.jobs import JobContext
from repro.fleet.schema import (
    BENCH_FLEET_SCHEMA,
    SCHEMA_VERSION,
    deterministic_view,
    make_job,
)
from repro.fleet.scheduler import Fleet, FleetOptions, default_worker_count

__all__ = [
    "LoadgenOptions",
    "canonical_json",
    "generate_jobs",
    "run_loadgen",
]


@dataclass
class LoadgenOptions:
    """Knobs for one load-generator run."""

    seed: int = 0
    jobs: int = 120
    workers: int | None = None
    batch_size: int = 8
    queue_limit: int = 4096
    recycle_after: int | None = None
    #: Worker crashes injected mid-run (0 disables fault injection).
    inject_crash: int = 1
    sequential: bool = False
    #: Probe sessions replayed warm and cold for the fork/boot ratio.
    cold_sample: int = 8
    tenants: int = 4
    #: Record distributed spans and run the span-overhead probe.
    spans: bool = False
    #: Attach crash flight recorders to workers.
    flightrec: bool = False

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return min(default_worker_count(), 4)


#: The request mix: mostly short workload sessions, a slice of attack
#: sessions, a few fuzz batches — weights picked per job by the seeded
#: RNG, so the mix is a pure function of ``(seed, jobs, tenants)``.
_KIND_WEIGHTS = (("workload", 80), ("attack", 12), ("fuzz", 8))
_CONFIG_WEIGHTS = (("baseline", 65), ("full", 35))
_WORKLOAD_WEIGHTS = (("exit", 50), ("alu", 30), ("storm", 20))
_ATTACKS = ("rop", "jop")


def _weighted(rng: Random, table) -> str:
    total = sum(weight for _, weight in table)
    pick = rng.randrange(total)
    for name, weight in table:
        if pick < weight:
            return name
        pick -= weight
    raise AssertionError("unreachable")


def generate_jobs(seed: int, count: int, tenants: int = 4) -> list[dict]:
    """The seeded open-loop job mix, in submission order."""
    rng = Random(f"repro.fleet.loadgen:{seed}")
    jobs = []
    for index in range(count):
        kind = _weighted(rng, _KIND_WEIGHTS)
        if kind == "workload":
            workload = _weighted(rng, _WORKLOAD_WEIGHTS)
            params = {
                "config": _weighted(rng, _CONFIG_WEIGHTS),
                "workload": workload,
            }
            if workload == "exit":
                params["code"] = rng.randrange(100)
            elif workload == "alu":
                params["iterations"] = rng.choice((16, 32, 64))
            else:
                params["iterations"] = rng.choice((4, 8))
        elif kind == "attack":
            params = {
                "attack": rng.choice(_ATTACKS),
                "config": _weighted(rng, _CONFIG_WEIGHTS),
            }
        else:
            params = {
                "seed": rng.getrandbits(32),
                "budget": rng.choice((3, 4)),
            }
        jobs.append(make_job(
            f"job-{index:06d}",
            kind,
            params,
            tenant=f"tenant-{rng.randrange(tenants)}",
            priority=rng.choice((0, 1, 1, 1, 2)),
        ))
    return jobs


def _prewarm(jobs: list[dict]) -> tuple[JobContext, float]:
    """Boot-once warm state: every image built, every config booted."""
    from repro.kernel.api import DEFAULT_MASTER_KEY

    context = JobContext()
    start = time.perf_counter()
    booted = set()
    for job in jobs:
        if job["kind"] != "workload":
            continue
        image = context.image_for(job["params"])
        config = job["params"].get("config", "full")
        if config not in booted:
            booted.add(config)
            context.boot_cache.machine_for(image, DEFAULT_MASTER_KEY)
    return context, time.perf_counter() - start


#: The fork-vs-boot probe: the shortest session on the fully protected
#: kernel, where boot pays the most (key generation, register state
#: encryption) and the run itself costs almost nothing — isolating
#: exactly the per-session cost the boot-once/fork-per-job design
#: removes.
_PROBE_PARAMS = {"config": "full", "workload": "exit", "code": 42}


def _fork_vs_boot(sample: int, context: JobContext) -> dict:
    """Replay the probe session warm and cold.

    Warm is the fleet's serving path: image-cache hit, COW fork of the
    booted template, run.  Cold is what answering the same request with
    no warm state costs: build the user program, link the image (the
    kernel side stays cached — it is process-global either way), boot
    from reset, run.  The ratio is taken over best-of-N per-session
    times so an ill-timed scheduler or allocator hiccup cannot skew it.
    """
    import gc

    from repro.fleet.jobs import (
        CONFIGS,
        JOB_STEP_BUDGET,
        WORKLOAD_BUILDERS,
    )
    from repro.kernel import KernelSession
    from repro.kernel.api import DEFAULT_MASTER_KEY
    from repro.kernel.build import build_kernel

    image = context.image_for(_PROBE_PARAMS)
    # Template boot happens outside the timed window: the warm replay
    # measures fork cost, not the amortized one-time boot.
    context.boot_cache.machine_for(image, DEFAULT_MASTER_KEY)

    def warm_session():
        return KernelSession(
            image.config, image=image, boot_cache=context.boot_cache
        )

    def cold_session():
        module = WORKLOAD_BUILDERS["exit"](_PROBE_PARAMS)
        cold_image = build_kernel(
            CONFIGS[_PROBE_PARAMS["config"]](), module
        )
        return KernelSession(cold_image.config, image=cold_image)

    def replay(make_session) -> dict:
        times = []
        for _ in range(sample):
            start = time.perf_counter()
            make_session().run(JOB_STEP_BUDGET)
            times.append(time.perf_counter() - start)
        wall = sum(times)
        return {
            "sessions": sample,
            "wall_seconds": wall,
            "sessions_per_second": sample / wall if wall else 0.0,
            "best_ms": min(times) * 1e3 if times else 0.0,
        }

    # Pause the collector so a GC pass over the prewarm phase's garbage
    # cannot land inside either timed window.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        warm = replay(warm_session)
        cold = replay(cold_session)
    finally:
        if enabled:
            gc.enable()
    return {
        "probe": dict(_PROBE_PARAMS),
        "warm": warm,
        "cold": cold,
        "cold_vs_warm": (
            cold["best_ms"] / warm["best_ms"] if warm["best_ms"] else 0.0
        ),
    }


def _span_overhead(sample: int, context: JobContext) -> dict:
    """Measure what spans-on costs the probe session, as a percentage.

    Per served job the decoration adds a fixed set of operations — an
    execute span, nested fork and run spans, two flight-recorder
    notes, the per-batch drain share — and nothing else touches the
    job path.  Comparing full traced-vs-bare session replays drowns
    that microsecond-scale cost in milliseconds of scheduler noise, so
    the probe measures the two terms separately where each is stable:
    the decoration in a tight loop (thousands of repetitions), the
    session as a best-of-N replay (the :func:`_fork_vs_boot`
    discipline).  Their ratio is ``span_overhead_pct`` — the number
    the documented ≤5% budget test and the ``fleet.span_overhead_pct``
    trend lane watch.
    """
    import gc

    from repro.fleet.jobs import JOB_STEP_BUDGET
    from repro.kernel import KernelSession
    from repro.kernel.api import DEFAULT_MASTER_KEY
    from repro.telemetry.flightrec import FlightRecorder
    from repro.telemetry.spans import SpanRecorder, mint_trace_id

    image = context.image_for(_PROBE_PARAMS)
    context.boot_cache.machine_for(image, DEFAULT_MASTER_KEY)
    recorder = SpanRecorder("probe")
    flight = FlightRecorder("probe")
    trace_id = mint_trace_id("span-probe")

    def session_replay() -> None:
        KernelSession(
            image.config, image=image, boot_cache=context.boot_cache
        ).run(JOB_STEP_BUDGET)

    def decorate_once() -> None:
        with recorder.span(
            "execute", trace_id=trace_id, job="span-probe",
            job_kind="workload",
        ):
            flight.note("job.start", job="span-probe", job_kind="workload")
            with recorder.span("fork"):
                pass
            with recorder.span("run"):
                pass
            flight.note("job.done", job="span-probe", status="ok")
        recorder.drain()

    reps = max(256, sample * 256)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        session_times = []
        for _ in range(max(1, sample)):
            start = time.perf_counter()
            session_replay()
            session_times.append(time.perf_counter() - start)
        decorate_once()  # warm the recorder paths outside the window
        start = time.perf_counter()
        for _ in range(reps):
            decorate_once()
        decoration_s = (time.perf_counter() - start) / reps
    finally:
        if enabled:
            gc.enable()
    session_best = min(session_times)
    overhead = (
        decoration_s / session_best * 100.0 if session_best else 0.0
    )
    return {
        "sessions": len(session_times),
        "decoration_reps": reps,
        "session_best_ms": session_best * 1e3,
        "decoration_us": decoration_s * 1e6,
        "span_overhead_pct": overhead,
    }


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _results_digest(results: dict[str, dict]) -> str:
    views = [deterministic_view(results[key]) for key in sorted(results)]
    blob = json.dumps(views, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_loadgen(
    options: LoadgenOptions | None = None, extras: dict | None = None
) -> dict:
    """Drive the seeded mix through a fleet; return the bench report.

    Pass an ``extras`` dict to also receive the observability
    artifacts: the merged span export, harvested flight-recorder
    dumps, the metrics rollup and the health report.  They live
    outside the report because they are wall-clock data — the report's
    canonical form must stay a pure function of the seed.
    """
    options = options or LoadgenOptions()
    jobs = generate_jobs(options.seed, options.jobs, options.tenants)
    workers = options.resolved_workers()

    context, warmup_seconds = _prewarm(jobs)
    comparison = _fork_vs_boot(options.cold_sample, context)
    overhead = (
        _span_overhead(options.cold_sample, context)
        if options.spans else None
    )

    fleet = Fleet(
        FleetOptions(
            workers=workers,
            batch_size=options.batch_size,
            queue_limit=options.queue_limit,
            recycle_after=options.recycle_after,
            parallel=not options.sequential,
            spans=options.spans,
            flightrec=options.flightrec,
        ),
        context=context if options.sequential else None,
    )
    # Deterministically spaced crash victims: the workers serving these
    # jobs die mid-batch and the batches must come back requeued.
    for index in range(options.inject_crash):
        victim = options.jobs * (index + 1) // (options.inject_crash + 1)
        fleet.inject_crash_on(f"job-{victim:06d}")

    if not options.sequential:
        fleet_worker.prewarm(context)
    try:
        start = time.perf_counter()
        results = fleet.run_jobs(jobs)
        wall = time.perf_counter() - start
    finally:
        fleet_worker.prewarm(None)

    by_status: dict[str, int] = {"ok": 0, "error": 0, "expired": 0}
    per_kind: dict[str, int] = {}
    per_tenant: dict[str, int] = {}
    mix: dict[str, int] = {}
    latencies = []
    for job in jobs:
        mix[job["kind"]] = mix.get(job["kind"], 0) + 1
        per_tenant[job["tenant"]] = per_tenant.get(job["tenant"], 0) + 1
    for result in results.values():
        by_status[result["status"]] = by_status.get(result["status"], 0) + 1
        if result["status"] == "ok":
            per_kind[result["kind"]] = per_kind.get(result["kind"], 0) + 1
        latencies.append(result["timing"]["total_ms"])

    lost = options.jobs - len(results)
    jobs_per_second = len(results) / wall if wall else 0.0
    fleet_metrics = fleet.metrics_snapshot()
    counters = fleet_metrics.get("counters", {})

    report = {
        "schema": BENCH_FLEET_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "seed": options.seed,
        "jobs": options.jobs,
        "workers": workers,
        "batch_size": options.batch_size,
        "tenants": options.tenants,
        "sequential": options.sequential,
        "crashes_injected": options.inject_crash,
        "mix": dict(sorted(mix.items())),
        "per_kind": dict(sorted(per_kind.items())),
        "per_tenant": dict(sorted(per_tenant.items())),
        "results": {
            "ok": by_status.get("ok", 0),
            "error": by_status.get("error", 0),
            "expired": by_status.get("expired", 0),
            "lost": lost,
        },
        "results_digest": _results_digest(results),
        "timing": {
            "warmup_seconds": warmup_seconds,
            "wall_seconds": wall,
            "jobs_per_second": jobs_per_second,
            "sessions_per_minute": jobs_per_second * 60.0,
            "warm": comparison["warm"],
            "cold": comparison["cold"],
            "cold_vs_warm": comparison["cold_vs_warm"],
            "latency_ms": {
                "mean": (
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
                "p50": _percentile(latencies, 0.50),
                "p90": _percentile(latencies, 0.90),
                "p99": _percentile(latencies, 0.99),
                "max": max(latencies) if latencies else 0.0,
            },
            "jobs_requeued": counters.get("fleet.jobs.requeued", 0),
            "workers_crashed": counters.get("fleet.workers.crashed", 0),
            "workers_recycled": counters.get("fleet.workers.recycled", 0),
            "queue_peak": fleet.queue.peak_depth,
            "fleet_metrics": fleet_metrics,
        },
    }
    # Lane markers: present only when the plane is on, so reports from
    # undecorated runs keep their exact historical shape (the trend
    # gate compares sources by equality).
    if options.spans:
        report["spans"] = True
        report["timing"]["span_probe"] = overhead
        report["timing"]["span_overhead_pct"] = (
            overhead["span_overhead_pct"]
        )
    if options.flightrec:
        report["flightrec"] = True
    if extras is not None:
        extras["span_export"] = fleet.span_export()
        extras["flight_dumps"] = list(fleet.flight_dumps)
        extras["rollup"] = fleet_metrics
        extras["health"] = fleet.health_snapshot()
    return report


def canonical_json(report: dict, include_timing: bool = False) -> str:
    """Deterministic serialized form: sorted keys, timing stripped."""
    document = report if include_timing else {
        key: value for key, value in report.items() if key != "timing"
    }
    return json.dumps(document, indent=2, sort_keys=True)
