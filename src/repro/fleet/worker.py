"""Fleet worker process: boot once, fork per job.

A worker is a long-lived child process holding warm state — a bounded
:class:`~repro.kernel.BootCache` of booted kernel templates, a build
cache of kernel images, a private metrics registry.  It speaks a tiny
pipe protocol with the scheduler:

* ``{"type": "batch", ...}`` — a list of job envelopes sharing one
  batch key.  The worker executes them in order (every one a COW fork
  of the same warm template) and replies with the result envelopes,
  its cumulative metrics snapshot, and whether it is about to recycle.
* ``{"type": "stop"}`` — drain and exit.

Fault injection rides the protocol: a batch flagged ``crash`` makes
the worker die via ``os._exit`` before executing anything, exactly as
an OOM-killed or segfaulted worker would look from the parent's end of
the pipe.  Recycling is the graceful counterpart — after serving
``recycle_after`` jobs the worker finishes its current batch, says so
in the reply, and exits; the scheduler replaces it.  Both paths reuse
the discipline proven in :mod:`repro.fuzz.dist`: the parent treats an
EOF/broken pipe as a dead worker and requeues whatever that worker had
in flight, so a crash costs latency, never jobs.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.fleet.jobs import JobContext, execute_job
from repro.fleet.schema import make_result
from repro.telemetry.flightrec import DEFAULT_FLIGHT_LIMIT

__all__ = ["WorkerOptions", "prewarm", "worker_main"]

#: Exit status a crash-injected worker dies with (recognizable in
#: scheduler logs; any abnormal death is handled the same way).
CRASH_EXIT = 17


@dataclass
class WorkerOptions:
    """Per-worker knobs, picklable for spawn-style start methods."""

    #: Gracefully exit after serving this many jobs (None: serve forever).
    recycle_after: int | None = None
    #: Record per-job execute/fork/run spans, shipped on each reply.
    spans: bool = False
    #: Spool directory for crash flight-recorder dumps (None: off).
    flightrec_dir: str | None = None
    flightrec_limit: int = DEFAULT_FLIGHT_LIMIT


#: Warm state installed by :func:`prewarm` before workers are spawned.
_PREWARMED: JobContext | None = None


def prewarm(context: JobContext | None) -> None:
    """Install a pre-booted :class:`JobContext` for future workers.

    With the ``fork`` start method every worker inherits the context's
    booted templates and built images through the OS fork — the fleet
    boots once, *then* forks the pool, then forks again per request.
    Under ``spawn`` the global does not carry over and each worker
    warms itself on first use; results are identical either way.
    """
    global _PREWARMED
    _PREWARMED = context


def _adopt_context(worker_id: int) -> JobContext:
    context = _PREWARMED
    if context is None:
        return JobContext()
    # The prewarm work (boots, builds) happened in the parent; zero the
    # inherited counters so rollups attribute to this worker only what
    # it actually serves.
    from repro.telemetry.metrics import MetricsRegistry

    context.metrics = MetricsRegistry()
    context.spans = None
    context.flightrec = None
    cache = context.boot_cache
    cache.boots = cache.forks = cache.fallbacks = cache.evictions = 0
    return context


def serve_batch(
    message: dict, context: JobContext, worker_id: int
) -> list[dict]:
    """Execute one batch message; return the result envelopes."""
    results = []
    for job, attempts in zip(message["jobs"], message["attempts"]):
        trace = job.get("trace") or {}
        execute_span = (
            context.spans.span(
                "execute",
                trace_id=trace.get("trace_id"),
                parent_id=trace.get("parent_span"),
                job=job["id"],
                job_kind=job["kind"],
                attempt=attempts,
            )
            if context.spans is not None
            else nullcontext()
        )
        start = time.perf_counter()
        with execute_span:
            status, payload, error = execute_job(job, context)
        run_ms = (time.perf_counter() - start) * 1e3
        context.metrics.observe("fleet.run_ms", run_ms)
        results.append(make_result(
            job, status, payload,
            error=error,
            worker=worker_id,
            attempts=attempts,
            timing={"run_ms": run_ms},
        ))
    return results


def worker_main(conn, worker_id: int, options: WorkerOptions) -> None:
    """Child-process entry: serve batches until stopped or recycled."""
    context = _adopt_context(worker_id)
    dump_path = None
    if options.flightrec_dir:
        from repro.telemetry.flightrec import (
            FlightRecorder,
            install_sigterm_dump,
        )

        context.flightrec = FlightRecorder(
            f"worker-{worker_id}", options.flightrec_limit
        )
        dump_path = os.path.join(
            options.flightrec_dir, f"worker-{worker_id}.json"
        )
        # The scheduler kills a silent worker with SIGTERM; the handler
        # turns that kill into a post-mortem before the process dies.
        install_sigterm_dump(context.flightrec, dump_path)
    if options.spans:
        from repro.telemetry.spans import SpanRecorder

        context.spans = SpanRecorder(f"worker-{worker_id}")
    served = 0
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message.get("type") == "stop":
                break
            if context.flightrec is not None:
                context.flightrec.note(
                    "batch.recv",
                    batch_id=message.get("batch_id", 0),
                    jobs=len(message.get("jobs", ())),
                    crash=bool(message.get("crash")),
                )
            if message.get("crash"):
                # Injected fault: die the way a real crash does — no
                # reply, no cleanup, just a broken pipe for the parent.
                # The flight dump is the one artifact a crash handler
                # would salvage, so write it first.
                if context.flightrec is not None and dump_path is not None:
                    context.flightrec.note("crash.injected")
                    context.flightrec.write(dump_path, "crash")
                os._exit(CRASH_EXIT)
            results = serve_batch(message, context, worker_id)
            served += len(results)
            recycling = (
                options.recycle_after is not None
                and served >= options.recycle_after
            )
            context.boot_cache.publish_metrics(context.metrics)
            context.metrics.set("fleet.worker.served", served)
            reply = {
                "type": "results",
                "batch_id": message["batch_id"],
                "worker": worker_id,
                "results": results,
                "metrics": context.metrics.to_json(),
                "served": served,
                "recycling": recycling,
            }
            if context.spans is not None:
                reply["spans"] = context.spans.drain()
            conn.send(reply)
            if recycling:
                break
    finally:
        conn.close()
