"""The fleet orchestrator: queue in front, warm workers behind.

:class:`Fleet` accepts concurrent job requests (workload runs, attack
sessions, fuzz batches), schedules them over a pool of long-lived
worker processes, and answers from warm state:

* jobs wait in a bounded priority queue (:mod:`repro.fleet.queue`) and
  leave it in template-affine batches (:mod:`repro.fleet.batching`) —
  every job of a batch forks the same booted kernel template inside
  one worker;
* each worker boots a configuration at most once
  (:class:`~repro.kernel.BootCache`) and serves every assigned job
  from a copy-on-write fork of that warm snapshot;
* a worker that crashes mid-batch (or goes silent past
  ``worker_timeout``) is replaced and its in-flight jobs are requeued
  with their original priority, deadline and latency clock — up to
  ``max_attempts`` dispatches, after which a job degrades to an
  ``error`` result instead of crash-looping the pool;
* a worker that has served ``recycle_after`` jobs finishes its batch,
  announces it is recycling, and is gracefully replaced (bounded
  memory growth without dropping anything);
* per-worker metrics snapshots ride home on every reply and are rolled
  up (:mod:`repro.fleet.rollup`) with the scheduler's own registry
  into one fleet-wide metrics document.

``parallel=False`` runs the identical scheduling logic against one
in-process :class:`~repro.fleet.jobs.JobContext` — same batches, same
results, no processes — which is what makes the serving layer's
determinism testable in-suite.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.fleet.jobs import JobContext
from repro.fleet.queue import JobQueue, PendingJob
from repro.fleet.rollup import merge_metrics
from repro.fleet.schema import make_result, validate_job
from repro.fleet.worker import WorkerOptions, serve_batch, worker_main
from repro.telemetry.flightrec import DEFAULT_FLIGHT_LIMIT, read_dump
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import (
    SPANS_SCHEMA,
    SpanRecorder,
    merge_span_logs,
    mint_trace_id,
)

__all__ = ["Fleet", "FleetError", "FleetOptions", "default_worker_count"]

#: Upper bound on the worker pool; past this, process overhead beats
#: any batching win for the short sessions the fleet serves.
MAX_WORKERS = 32


def default_worker_count() -> int:
    """Pool size when the caller does not choose: one worker per core,
    clamped to ``[1, MAX_WORKERS]`` (``os.cpu_count()`` may be None)."""
    return max(1, min(os.cpu_count() or 1, MAX_WORKERS))


class FleetError(Exception):
    """A request the fleet could not accept."""


@dataclass
class FleetOptions:
    """Knobs for one fleet instance."""

    workers: int = field(default_factory=default_worker_count)
    #: Most jobs shipped to a worker in one message (template reuse
    #: amortizes over the batch; latency caps it).
    batch_size: int = 8
    queue_limit: int = 4096
    #: Gracefully replace a worker after this many jobs (None: never).
    recycle_after: int | None = None
    #: Dispatches a job may consume before degrading to an error.
    max_attempts: int = 3
    #: Seconds a worker may sit on one batch before it is declared dead.
    worker_timeout: float | None = 300.0
    #: False: run every batch in-process (deterministic test mode).
    parallel: bool = True
    #: Record distributed spans: a trace per job (queue wait, batch,
    #: execute with fork/run children) stitched across processes.
    spans: bool = False
    #: Attach a crash flight recorder to every worker; dumps from dead
    #: workers are harvested and attached to degraded results.
    flightrec: bool = False
    flightrec_limit: int = DEFAULT_FLIGHT_LIMIT


class _WorkerHandle:
    """Parent-side state for one live worker incarnation."""

    def __init__(self, incarnation: int, process, conn):
        self.incarnation = incarnation
        self.process = process
        self.conn = conn
        #: The batch currently on the worker (None: idle).
        self.inflight: list[PendingJob] | None = None
        self.sent_at: float = 0.0
        #: Open "batch" span covering dispatch → reply (spans mode).
        self.batch_span = None

    @property
    def busy(self) -> bool:
        return self.inflight is not None


class Fleet:
    """One serving instance: submit jobs, drain, read the rollup."""

    def __init__(
        self,
        options: FleetOptions | None = None,
        context: JobContext | None = None,
    ):
        self.options = options or FleetOptions()
        if self.options.workers < 1:
            raise FleetError(
                f"need at least one worker, got {self.options.workers}"
            )
        if self.options.batch_size < 1:
            raise FleetError(
                f"need a positive batch size, got {self.options.batch_size}"
            )
        self.queue = JobQueue(limit=self.options.queue_limit)
        self.metrics = MetricsRegistry()
        self.results: dict[str, dict] = {}
        #: Latest metrics snapshot per worker incarnation (a crashed
        #: worker's last snapshot still counts what it served).
        self.worker_snapshots: dict[int, dict] = {}
        self._workers: list[_WorkerHandle] = []
        self._incarnations = 0
        self._batch_ids = 0
        self._crash_ids: set[str] = set()
        self._seen_ids: set[str] = set()
        #: Sequential-mode execution context (ignored when parallel).
        self._context = context
        #: Scheduler-side span log (None: spans off).
        self.spans = SpanRecorder("scheduler") if self.options.spans else None
        #: Flight-recorder dumps harvested from dead workers.
        self.flight_dumps: list[dict] = []
        self._flight_dir: str | None = None
        self._harvested: set[str] = set()
        #: Span dicts shipped home on worker replies, pending export.
        self._remote_spans: list[dict] = []
        self._trace_ids: dict[str, str] = {}
        self._root_spans: dict[str, object] = {}
        self._wait_spans: dict[str, object] = {}

    # -- submission --------------------------------------------------------------

    def submit(self, job: dict) -> None:
        """Validate and enqueue one job envelope.

        Raises :class:`FleetError` on a malformed or duplicate-id job
        and :class:`~repro.fleet.queue.QueueFull` when the bounded
        queue pushes back.
        """
        problems = validate_job(job)
        if problems:
            raise FleetError(
                f"invalid job envelope: {'; '.join(problems[:3])}"
            )
        if job["id"] in self._seen_ids:
            raise FleetError(f"duplicate job id {job['id']!r}")
        self._seen_ids.add(job["id"])
        self.queue.push(job)
        self.metrics.inc("fleet.jobs.submitted")
        if self.spans is not None:
            trace_id = mint_trace_id(job["id"])
            self._trace_ids[job["id"]] = trace_id
            # Attr named job_kind, not kind: the chrome-trace validator
            # reserves args.kind for structured telemetry events.
            root = self.spans.start(
                "job",
                trace_id=trace_id,
                job=job["id"],
                job_kind=job["kind"],
                tenant=job["tenant"],
            )
            self._root_spans[job["id"]] = root
            self._wait_spans[job["id"]] = self.spans.start(
                "queue.wait", trace_id=trace_id, parent_id=root.span_id
            )
            # The trace context travels on the envelope itself, so the
            # worker's execute span parents under this root span.
            job["trace"] = {
                "trace_id": trace_id,
                "parent_span": root.span_id,
            }

    def inject_crash_on(self, job_id: str) -> None:
        """Fault injection: kill the worker that next receives this job.

        The marker is consumed at dispatch, so the requeued batch runs
        normally on the replacement worker — the injected fault models
        one crash, not a poisoned job.
        """
        self._crash_ids.add(job_id)

    # -- lifecycle ---------------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        incarnation = self._incarnations
        self._incarnations += 1
        process = ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                incarnation,
                WorkerOptions(
                    recycle_after=self.options.recycle_after,
                    spans=self.options.spans,
                    flightrec_dir=self._flight_dir,
                    flightrec_limit=self.options.flightrec_limit,
                ),
            ),
            name=f"fleet-worker-{incarnation}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(incarnation, process, parent_conn)
        self._workers.append(handle)
        self.metrics.inc("fleet.workers.spawned")
        return handle

    def start(self) -> None:
        if (
            self.options.parallel
            and self.options.flightrec
            and self._flight_dir is None
        ):
            self._flight_dir = tempfile.mkdtemp(prefix="repro-flightrec-")
        if self.options.parallel and not self._workers:
            for _ in range(self.options.workers):
                self._spawn_worker()

    def stop(self) -> None:
        for handle in self._workers:
            try:
                handle.conn.send({"type": "stop"})
            except (BrokenPipeError, OSError):
                pass
            handle.conn.close()
        for handle in self._workers:
            handle.process.join(10)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(10)
        self._workers = []
        self._harvest_all_flight_dumps()
        if self._flight_dir is not None:
            shutil.rmtree(self._flight_dir, ignore_errors=True)
            self._flight_dir = None

    # -- span bookkeeping --------------------------------------------------------

    def _end_wait(self, job_id: str, **attrs) -> None:
        span = self._wait_spans.pop(job_id, None)
        if span is not None:
            span.end(**attrs)

    def _restart_wait(self, pending: PendingJob) -> None:
        """A requeued job waits again: open a fresh queue.wait span."""
        if self.spans is None:
            return
        job_id = pending.job["id"]
        root = self._root_spans.get(job_id)
        self._wait_spans[job_id] = self.spans.start(
            "queue.wait",
            trace_id=self._trace_ids.get(job_id),
            parent_id=root.span_id if root is not None else None,
            requeue=True,
        )

    # -- flight-dump harvesting --------------------------------------------------

    def _harvest_flight_dump(self, incarnation: int) -> dict | None:
        """Best-effort read of one dead worker's spooled dump."""
        if self._flight_dir is None:
            return None
        path = os.path.join(self._flight_dir, f"worker-{incarnation}.json")
        if path in self._harvested:
            return None
        dump = read_dump(path)
        if dump is not None:
            self._harvested.add(path)
            self.flight_dumps.append(dump)
            self.metrics.inc("fleet.flight_dumps")
        return dump

    def _harvest_all_flight_dumps(self) -> None:
        if self._flight_dir is None:
            return
        try:
            names = sorted(os.listdir(self._flight_dir))
        except OSError:
            return
        for name in names:
            if name.startswith("worker-") and name.endswith(".json"):
                try:
                    self._harvest_flight_dump(int(name[7:-5]))
                except ValueError:
                    continue

    # -- result bookkeeping ------------------------------------------------------

    def _finish(self, pending: PendingJob, result: dict) -> None:
        total_ms = (time.monotonic() - pending.enqueued_at) * 1e3
        result.setdefault("timing", {})["total_ms"] = total_ms
        self.metrics.observe("fleet.latency_ms", total_ms)
        self.metrics.inc("fleet.jobs.completed")
        self.metrics.inc(f"fleet.status.{result['status']}")
        self.results[result["id"]] = result
        if self.spans is not None:
            self._end_wait(result["id"])
            root = self._root_spans.pop(result["id"], None)
            if root is not None:
                root.end(
                    status=result["status"],
                    attempts=result.get("attempts", 1),
                )

    def _expire(self, pending: PendingJob) -> None:
        self._finish(pending, make_result(
            pending.job, "expired", None,
            error="deadline passed before dispatch",
            attempts=pending.attempts,
        ))

    def _fail(
        self, pending: PendingJob, reason: str, flightrec: dict | None = None
    ) -> None:
        result = make_result(
            pending.job, "error", None,
            error=reason,
            attempts=pending.attempts,
        )
        if flightrec is not None:
            # The dead worker's post-mortem rides on the degraded
            # result; deterministic_view ignores it, so digests hold.
            result["flightrec"] = flightrec
        self._finish(pending, result)

    def _requeue_inflight(
        self,
        handle: _WorkerHandle,
        reason: str,
        flightrec: dict | None = None,
    ) -> None:
        for pending in handle.inflight or []:
            if pending.attempts >= self.options.max_attempts:
                self._fail(
                    pending,
                    f"gave up after {pending.attempts} attempts: {reason}",
                    flightrec=flightrec,
                )
            else:
                self.queue.requeue(pending)
                self.metrics.inc("fleet.jobs.requeued")
                self._restart_wait(pending)
        handle.inflight = None

    # -- parallel drain ----------------------------------------------------------

    def _dispatch(self, handle: _WorkerHandle) -> bool:
        expired, batch = self.queue.pop_batch(self.options.batch_size)
        for pending in expired:
            self._expire(pending)
        if not batch:
            return False
        crash = False
        for pending in batch:
            pending.attempts += 1
            if pending.job["id"] in self._crash_ids:
                self._crash_ids.discard(pending.job["id"])
                crash = True
        self._batch_ids += 1
        self.metrics.observe("fleet.queue.depth", len(self.queue))
        if self.spans is not None:
            for pending in batch:
                self._end_wait(pending.job["id"], attempt=pending.attempts)
            handle.batch_span = self.spans.start(
                "batch",
                batch_id=self._batch_ids,
                worker=handle.incarnation,
                jobs=len(batch),
                trace_ids=[
                    self._trace_ids.get(p.job["id"]) for p in batch
                ],
            )
        try:
            handle.conn.send({
                "type": "batch",
                "batch_id": self._batch_ids,
                "jobs": [pending.job for pending in batch],
                "attempts": [pending.attempts for pending in batch],
                "crash": crash,
            })
        except (BrokenPipeError, OSError):
            handle.inflight = batch
            self._on_worker_death(handle, "send failed (worker dead)")
            return True
        handle.inflight = batch
        handle.sent_at = time.monotonic()
        return True

    def _on_worker_death(self, handle: _WorkerHandle, reason: str) -> None:
        self.metrics.inc("fleet.workers.crashed")
        if handle.process.is_alive():
            # SIGTERM: the worker's flight-recorder handler (if any)
            # writes its dump before dying, so harvest after the join.
            handle.process.terminate()
        handle.process.join(10)
        handle.conn.close()
        self._workers.remove(handle)
        dump = self._harvest_flight_dump(handle.incarnation)
        if handle.batch_span is not None:
            handle.batch_span.end(outcome=reason)
            handle.batch_span = None
        self._requeue_inflight(handle, reason, flightrec=dump)
        self._spawn_worker()

    def _on_reply(self, handle: _WorkerHandle, message: dict) -> None:
        inflight = handle.inflight or []
        by_id = {pending.job["id"]: pending for pending in inflight}
        handle.inflight = None
        self.worker_snapshots[message["worker"]] = message["metrics"]
        self._remote_spans.extend(message.get("spans") or [])
        if handle.batch_span is not None:
            handle.batch_span.end(results=len(message["results"]))
            handle.batch_span = None
        for result in message["results"]:
            pending = by_id.pop(result["id"])
            self._finish(pending, result)
        # Anything the worker did not answer (should not happen with a
        # well-behaved worker) goes back on the queue.
        for pending in by_id.values():
            self.queue.requeue(pending)
            self.metrics.inc("fleet.jobs.requeued")
            self._restart_wait(pending)
        if message.get("recycling"):
            self.metrics.inc("fleet.workers.recycled")
            handle.conn.close()
            handle.process.join(10)
            self._workers.remove(handle)
            self._spawn_worker()

    def _drain_parallel(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        self.start()
        while True:
            for handle in list(self._workers):
                if not handle.busy and len(self.queue):
                    self._dispatch(handle)
            busy = [handle for handle in self._workers if handle.busy]
            if not busy and not len(self.queue):
                break
            if not busy:
                # Only expired jobs were left; the loop above drained
                # them through pop_batch without dispatching.
                continue
            ready = conn_wait([handle.conn for handle in busy], timeout=0.2)
            now = time.monotonic()
            for handle in list(busy):
                if handle.conn in ready:
                    try:
                        message = handle.conn.recv()
                    except (EOFError, OSError):
                        self._on_worker_death(handle, "worker crashed")
                        continue
                    self._on_reply(handle, message)
                elif (
                    self.options.worker_timeout is not None
                    and now - handle.sent_at > self.options.worker_timeout
                ):
                    self._on_worker_death(handle, "worker timed out")

    # -- sequential drain --------------------------------------------------------

    def _drain_sequential(self) -> None:
        context = self._context or JobContext()
        self._context = context
        if self.spans is not None:
            # One process, one recorder: scheduler and "worker" spans
            # share the lane, and nesting still parents fork/run under
            # execute through the recorder's context stack.
            context.spans = self.spans
        if self.options.flightrec and context.flightrec is None:
            from repro.telemetry.flightrec import FlightRecorder

            context.flightrec = FlightRecorder(
                "worker-0", self.options.flightrec_limit
            )
        while len(self.queue):
            expired, batch = self.queue.pop_batch(self.options.batch_size)
            for pending in expired:
                self._expire(pending)
            if not batch:
                continue
            crash = False
            for pending in batch:
                pending.attempts += 1
                if pending.job["id"] in self._crash_ids:
                    self._crash_ids.discard(pending.job["id"])
                    crash = True
            self._batch_ids += 1
            self.metrics.observe("fleet.queue.depth", len(self.queue))
            if self.spans is not None:
                for pending in batch:
                    self._end_wait(
                        pending.job["id"], attempt=pending.attempts
                    )
            if context.flightrec is not None:
                context.flightrec.note(
                    "batch.recv",
                    batch_id=self._batch_ids,
                    jobs=len(batch),
                    crash=crash,
                )
            if crash:
                # Simulated crash: the batch dies undone, exactly as a
                # parallel worker taking CRASH_EXIT would leave it —
                # including the post-mortem the real worker writes.
                self.metrics.inc("fleet.workers.crashed")
                dump = None
                if context.flightrec is not None:
                    context.flightrec.note("crash.injected")
                    dump = context.flightrec.dump("crash")
                    self.flight_dumps.append(dump)
                    self.metrics.inc("fleet.flight_dumps")
                handle = _WorkerHandle(0, None, None)
                handle.inflight = batch
                self._requeue_inflight(
                    handle, "worker crashed (injected)", flightrec=dump
                )
                continue
            batch_span = None
            if self.spans is not None:
                batch_span = self.spans.start(
                    "batch",
                    batch_id=self._batch_ids,
                    worker=0,
                    jobs=len(batch),
                    trace_ids=[
                        self._trace_ids.get(p.job["id"]) for p in batch
                    ],
                )
            message = {
                "batch_id": self._batch_ids,
                "jobs": [pending.job for pending in batch],
                "attempts": [pending.attempts for pending in batch],
            }
            for pending, result in zip(
                batch, serve_batch(message, context, worker_id=0)
            ):
                self._finish(pending, result)
            if batch_span is not None:
                batch_span.end(results=len(batch))
        context.boot_cache.publish_metrics(context.metrics)
        self.worker_snapshots[0] = context.metrics.to_json()

    # -- public driving ----------------------------------------------------------

    def drain(self) -> dict[str, dict]:
        """Serve until the queue is empty and nothing is in flight."""
        if self.options.parallel:
            self._drain_parallel()
        else:
            self._drain_sequential()
        self.metrics.set("fleet.queue.peak", self.queue.peak_depth)
        return self.results

    def run_jobs(self, jobs: list[dict]) -> dict[str, dict]:
        """Convenience: submit everything, drain, stop workers."""
        try:
            for job in jobs:
                self.submit(job)
            return self.drain()
        finally:
            self.stop()

    def metrics_snapshot(self) -> dict:
        """Fleet-wide rollup: every worker's registry + the scheduler's."""
        snapshots = (
            list(self.worker_snapshots.values()) + [self.metrics.to_json()]
        )
        if self.spans is not None:
            with self.spans.span("rollup", registries=len(snapshots)):
                return merge_metrics(snapshots)
        return merge_metrics(snapshots)

    def span_export(self) -> dict:
        """The merged ``spans-1`` document: scheduler + all workers.

        Scheduler spans still open (unfinished jobs) are excluded; the
        worker spans arrived pre-serialized on batch replies, grouped
        back into per-process logs so the merge records lane order.
        """
        if self.spans is None:
            return merge_span_logs([])
        documents = [{
            "schema": SPANS_SCHEMA,
            "process": self.spans.process,
            "dropped": self.spans.dropped,
            "spans": [
                span.to_json() for span in self.spans.spans if span.finished
            ],
        }]
        by_process: dict[str, list[dict]] = {}
        for span in self._remote_spans:
            by_process.setdefault(
                span.get("process", "worker"), []
            ).append(span)
        for process in sorted(by_process):
            documents.append({
                "schema": SPANS_SCHEMA,
                "process": process,
                "dropped": 0,
                "spans": by_process[process],
            })
        return merge_span_logs(documents)

    def health_snapshot(self) -> dict:
        """Liveness/readiness report for the metrics endpoint."""
        counters = self.metrics.to_json().get("counters", {})
        alive = sum(
            1 for handle in self._workers
            if handle.process is None or handle.process.is_alive()
        )
        busy = sum(1 for handle in self._workers if handle.busy)
        return {
            "ready": (not self.options.parallel) or alive > 0,
            "queue_depth": len(self.queue),
            "queue_peak": self.queue.peak_depth,
            "workers": {
                "configured": self.options.workers,
                "alive": alive,
                "busy": busy,
                "crashed": counters.get("fleet.workers.crashed", 0),
                "recycled": counters.get("fleet.workers.recycled", 0),
            },
            "jobs": {
                "submitted": counters.get("fleet.jobs.submitted", 0),
                "completed": counters.get("fleet.jobs.completed", 0),
                "requeued": counters.get("fleet.jobs.requeued", 0),
            },
            "flight_dumps": len(self.flight_dumps),
        }
