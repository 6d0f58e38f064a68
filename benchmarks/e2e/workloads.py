"""The four end-to-end workloads: seeded inputs, set-up, timed phase, checks.

Each workload object is built from ``(seed, profile, traced_shape)``
alone.  ``traced_shape`` selects the fixed amount of work a traced run
and its untraced references do, so their phases compare.  ``setup()``
does everything that must happen before the first timed operation,
``run(seconds, tracer)`` is the timed phase and returns an
:class:`Outcome`, ``check(outcome)`` adds the untimed checks and
``close()`` stops anything ``setup()`` started.  Nothing here reads the
clock to decide what the guest computes: the inputs, and therefore
every guest-side number, are a pure function of the seed and the
profile.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from random import Random

from repro.bench import runner
from repro.bench.overhead import PAPER_FULL_AVERAGE, averages, overhead_table
from repro.bench.workloads import lmbench, spec, unixbench
from repro.bench.workloads.base import make_user_module
from repro.compiler.ir import Const
from repro.errors import ReproError
from repro.fleet import worker as fleet_worker
from repro.fleet.jobs import JobContext
from repro.fleet.loadgen import generate_jobs
from repro.fleet.schema import deterministic_view
from repro.fleet.scheduler import Fleet, FleetOptions
from repro.kernel import BootCache, KernelConfig, KernelSession
from repro.kernel.api import DEFAULT_MASTER_KEY
from repro.kernel.build import build_kernel
from repro.kernel.structs import (
    SYS_GETPPID,
    SYS_MAP_PAGE,
    SYS_NOP,
    SYS_SELINUX_CHECK,
    SYS_TRANSLATE,
    SYS_WRITE,
    SYS_YIELD,
)
from repro.machine import HaltReason

#: Unit sizes per profile.  ``full`` is the benchmark; ``smoke`` only
#: proves the plumbing in a few seconds.
PROFILES = {
    "full": {
        "protected_loops": 50,
        "compute_iterations": 500_000,
        "figure5_scale": 1.0,
        # Traced shape: half the guest work, the same builds, boots and
        # forks, so three traced/untraced pairs fit in three minutes.
        "figure5_traced_scale": 0.5,
        "figure5_workloads": None,
        # ~8 s, so a host slowdown of a few seconds moves it less.
        "fleet_saturated": 2000,
        # 1000 samples: 10 lie beyond the printed p99, which falls among
        # the fuzz jobs (8% of the mix).
        "fleet_closed": 1000,
        # Traced shape: served in-process, so kept small enough for
        # three traced/untraced pairs.
        "fleet_traced": (400, 400),
    },
    "smoke": {
        "protected_loops": 2,
        "compute_iterations": 2_000,
        "figure5_scale": 0.05,
        "figure5_traced_scale": 0.05,
        "figure5_workloads": 2,
        "fleet_saturated": 24,
        "fleet_closed": 24,
        "fleet_traced": (24, 24),
    },
}

#: Guest step budget per session: far above any unit, so hitting it
#: means the guest ran away.
MAX_STEPS = 200_000_000

#: Sessions per traced-shape run of a steady-state workload: one cold
#: (it compiles), the rest warm (they bind the compiled code).
TRACED_SESSIONS = 4


@dataclass
class Outcome:
    """What one timed phase produced.

    ``metrics`` are end-to-end values, ``guest`` the exact simulated
    numbers, ``fingerprint`` the data compared against ``expected.json``
    and ``layers`` the workload's own per-layer values (traced run).
    """

    metrics: dict = field(default_factory=dict)
    guest: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (and its reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        peak = max(peak, children.ru_maxrss)
    return peak / 1024.0


def p99(values) -> float:
    """The 99th percentile (inclusive interpolation) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def sha256_json(document) -> str:
    blob = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """Hooks every workload has; the defaults do nothing."""

    name = ""

    def __init__(self, seed: int, profile: str, traced_shape: bool = False):
        self.sizes = PROFILES[profile]
        self.traced_shape = traced_shape
        #: The key of this run's fingerprint in ``expected.json``.
        self.shape = profile

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def check(self, outcome: Outcome) -> None:
        """Untimed checks, run after the timed phase."""

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


# -- steady-state kernel sessions --------------------------------------------------


class _SessionWorkload(Workload):
    """Repeated forks of one booted template, each run to shutdown.

    Every session forks the template parked at the first user
    instruction, so timing starts there; the first session compiles the
    hot blocks and later forks bind them from the template's shared
    code, as every fork of a warm template does.

    A machine is a reference cycle (its hart's handlers close over it),
    so a finished session is freed by the cyclic collector.  The
    collector runs between sessions, off the clock: otherwise when it
    happens to run decides how many dead machines sit in memory at the
    peak, and which session pays the pause.
    """

    config: KernelConfig

    def __init__(self, seed: int, profile: str, traced_shape: bool = False):
        super().__init__(seed, profile, traced_shape)
        self.cache = BootCache()
        self.image = None

    def module(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.image = build_kernel(self.config, self.module())
        self.cache.machine_for(self.image, DEFAULT_MASTER_KEY)

    def boot_caches(self) -> list:
        return [self.cache]

    def session(self) -> dict:
        """Fork, run to shutdown; return the session's record."""
        started = time.perf_counter()
        session = KernelSession(
            self.config, image=self.image, boot_cache=self.cache
        )
        hart = session.machine.hart
        session.machine.engine.reset_stats()
        instret, cycles = hart.instret, hart.cycles
        run_started = time.perf_counter()
        result = session.run(MAX_STEPS)
        finished = time.perf_counter()
        return {
            "wall_s": finished - started,
            "run_s": finished - run_started,
            "compiled_blocks": hart.compiled_blocks,
            "fingerprint": {
                "halt": getattr(result.halt_reason, "value", None),
                "exit_code": result.exit_code,
                "panicked": result.panicked,
                "instret": result.instructions - instret,
                "cycles": result.cycles - cycles,
                "console_sha256": hashlib.sha256(
                    result.console.encode("utf-8")
                ).hexdigest(),
                "engine": session.stats.snapshot(),
                "clb": session.clb_stats.snapshot(),
            },
        }

    def run(self, seconds: float, tracer=None) -> Outcome:
        """Sessions back to back until ``seconds`` would be exceeded.

        The traced shape does a fixed number instead, so per-layer
        totals describe the same work on every commit.
        """
        session = self.session
        if tracer is not None:
            def session():
                return tracer.call("bench.session", "session", self.session)

        records = []
        started = time.perf_counter()
        while True:
            gc.collect()
            records.append(session())
            if self.traced_shape:
                if len(records) == TRACED_SESSIONS:
                    break
            elif time.perf_counter() - started + records[-1]["wall_s"] > seconds:
                break
        outcome = Outcome()
        first = records[0]["fingerprint"]
        for index, record in enumerate(records):
            fp = record["fingerprint"]
            outcome.check(
                fp["halt"] == HaltReason.SHUTDOWN.value and not fp["panicked"],
                f"session {index} ended {fp['halt']} exit {fp['exit_code']}",
            )
            outcome.check(
                fp == first, f"session {index} differs from session 0"
            )
        walls = [record["wall_s"] for record in records]
        rates = [
            record["fingerprint"]["instret"] / record["run_s"] / 1e6
            for record in records
        ]
        outcome.metrics = {
            # Best of the run's sessions: the speed of the simulator when
            # no other tenant slows the host, which the median is not.
            "sim_mips": max(rates),
            "jobs_per_s": len(records) / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.fingerprint = first
        outcome.guest = {
            "instret": first["instret"],
            "cycles": first["cycles"],
            "crypto_ops": first["engine"]["operations"],
        }
        outcome.info = {
            "sessions": len(records),
            "cold_session_ms": walls[0] * 1e3,
            "compiled_blocks": sum(r["compiled_blocks"] for r in records),
            "clb_hit_ratio": first["clb"]["hit_ratio"],
        }
        return outcome


#: The protected syscall mix: 16 ops per loop with pinned weights; the
#: seed only orders them.  Pinning the counts keeps the instruction mix,
#: and so the host cost, the same for every seed while the order still
#: changes which CLB entries and key reloads collide.
PROTECTED_MIX = (
    ("getppid", 4),
    ("write", 3),
    ("selinux_check", 3),
    ("translate", 3),
    ("yield", 2),
    ("nop", 1),
)
_TRANSLATE_VA = 0x4000_0000
_TRANSLATE_PA = 0x0900_8000


def protected_pattern(seed: int) -> list[str]:
    ops = [name for name, weight in PROTECTED_MIX for _ in range(weight)]
    Random(f"e2e.protected_kernel:{seed}").shuffle(ops)
    return ops


class ProtectedKernel(_SessionWorkload):
    """Full-config kernel, two threads, a seeded protected syscall mix."""

    name = "protected_kernel"
    config = KernelConfig.full(num_threads=2)

    def __init__(self, seed: int, profile: str, traced_shape: bool = False):
        super().__init__(seed, profile, traced_shape)
        self.pattern = protected_pattern(seed)
        self.loops = self.sizes["protected_loops"]

    def module(self, loops: int | None = None):
        pattern = self.pattern
        loops = self.loops if loops is None else loops

        def op(lb, name, i, acc):
            b = lb.b
            if name == "getppid":
                lb.add_into(acc, lb.syscall(SYS_GETPPID))
            elif name == "write":
                lb.syscall(SYS_WRITE, Const(ord("w")))
            elif name == "selinux_check":
                lb.add_into(acc, lb.syscall(SYS_SELINUX_CHECK, 2))
            elif name == "translate":
                va = b.add(Const(_TRANSLATE_VA), b.and_(i, 0xFFF))
                lb.add_into(acc, lb.syscall(SYS_TRANSLATE, va))
            elif name == "yield":
                lb.syscall(SYS_YIELD)
            else:
                lb.syscall(SYS_NOP)

        def body(lb):
            acc = lb.accumulate()

            def iteration(lb2, i):
                for name in pattern:
                    op(lb2, name, i, acc)

            lb.syscall(SYS_MAP_PAGE, Const(_TRANSLATE_VA), Const(_TRANSLATE_PA))
            lb.loop(loops, iteration)
            lb.exit(Const(0))

        return make_user_module(body)

    def expected_console(self, loops: int) -> str:
        writes = self.pattern.count("write")
        return "w" * (writes * loops * self.config.num_threads)

    def check(self, outcome: Outcome) -> None:
        fp = outcome.fingerprint
        console = self.expected_console(self.loops).encode("utf-8")
        outcome.check(
            fp["console_sha256"] == hashlib.sha256(console).hexdigest(),
            "console does not hold writes x loops x threads 'w' bytes",
        )
        outcome.check(fp["exit_code"] == 0, f"exit code {fp['exit_code']}")
        # Untimed tier cross-check on a 2-loop prefix: single-step and
        # the fast path (tiers 2-4) must agree on everything.
        image = build_kernel(self.config, self.module(loops=2))
        prints = []
        for fast in (False, True):
            session = KernelSession(self.config, image=image)
            session.machine.fast_path = fast
            result = session.run(MAX_STEPS)
            prints.append({
                "halt": getattr(result.halt_reason, "value", None),
                "exit_code": result.exit_code,
                "instret": result.instructions,
                "cycles": result.cycles,
                "console": result.console,
                "engine": session.stats.snapshot(),
                "clb": session.clb_stats.snapshot(),
            })
        outcome.check(
            prints[0] == prints[1],
            "2-loop prefix differs between tier 1 and the fast path",
        )
        outcome.check(
            prints[0]["console"] == self.expected_console(2),
            "2-loop prefix console is wrong",
        )


def compute_constants(seed: int) -> tuple[int, int, int]:
    """Seeded (multiplier, shift, xor) for the ALU loop.

    Every constant fits a 12-bit immediate, so each seed compiles to the
    same instruction count and only the values differ.
    """
    rng = Random(f"e2e.unprotected_compute:{seed}")
    return rng.randrange(3, 2048) | 1, rng.randrange(1, 8), rng.randrange(1, 2048)


class UnprotectedCompute(_SessionWorkload):
    """Baseline-config kernel, one thread, a seeded ALU loop."""

    name = "unprotected_compute"
    config = KernelConfig.baseline()

    def __init__(self, seed: int, profile: str, traced_shape: bool = False):
        super().__init__(seed, profile, traced_shape)
        self.constants = compute_constants(seed)
        self.iterations = self.sizes["compute_iterations"]

    def module(self):
        multiplier, shift, mask = self.constants

        def step(lb, i, acc):
            b = lb.b
            mixed = b.xor(b.mul(i, Const(multiplier)), b.shl(i, Const(shift)))
            lb.add_into(acc, b.and_(b.xor(mixed, Const(mask)), Const(0xFFFF)))

        def body(lb):
            acc = lb.accumulate()
            lb.loop(self.iterations, lambda lb2, i: step(lb2, i, acc))
            lb.exit(lb.b.and_(acc, Const(0xFFFF)))

        return make_user_module(body)

    def expected_exit(self) -> int:
        multiplier, shift, mask = self.constants
        acc = 0
        for i in range(self.iterations):
            acc += ((i * multiplier) ^ (i << shift) ^ mask) & 0xFFFF
        return acc & 0xFFFF

    def check(self, outcome: Outcome) -> None:
        fp = outcome.fingerprint
        expected = self.expected_exit()
        outcome.check(
            fp["exit_code"] == expected,
            f"exit {fp['exit_code']} != Python accumulator {expected}",
        )
        outcome.check(
            fp["engine"]["operations"] == 0,
            "the baseline build issued crypto operations",
        )


# -- the Figure-5 matrix ------------------------------------------------------------


class Figure5Suite(Workload):
    """LMbench, UnixBench and SPEC x the five Figure-5 builds, cold.

    The seed is ignored: the inputs are the paper's fixed suites.  The
    timed phase is one pass in a fresh process — kernel builds, template
    boots and forks included — because a researcher pays all of it on
    every run of the suite.
    """

    name = "figure5_suite"

    def __init__(self, seed: int, profile: str, traced_shape: bool = False):
        super().__init__(seed, profile, traced_shape)
        sizes = self.sizes
        if traced_shape:
            self.scale = sizes["figure5_traced_scale"]
            self.shape = f"{profile}-traced"
        else:
            self.scale = sizes["figure5_scale"]
        self.suites = {
            "lmbench": lmbench.SUITE,
            "unixbench": unixbench.SUITE,
            "spec": spec.SUITE,
        }
        limit = sizes["figure5_workloads"]
        if limit is not None:
            self.suites = {
                name: suite[:limit] for name, suite in self.suites.items()
            }
        self.configs = KernelConfig.figure5_matrix()
        self.cache = BootCache()

    def boot_caches(self) -> list:
        return [self.cache]

    def run(self, seconds: float, tracer=None) -> Outcome:
        """``runner.measure_matrix``'s loop, timing every cell."""
        workloads = [w for suite in self.suites.values() for w in suite]
        outcome = Outcome()
        matrix = {}
        cells = []
        started = time.perf_counter()
        try:
            for workload in workloads:
                for config in self.configs:
                    cell_started = time.perf_counter()
                    matrix[(workload.name, config.name)] = runner.run_workload(
                        workload, config, self.scale, self.cache
                    )
                    cells.append(time.perf_counter() - cell_started)
        except ReproError as error:
            outcome.check(False, f"matrix failed: {error}")
            return outcome
        finally:
            outcome.attempted += len(cells)
        wall = time.perf_counter() - started

        for workload in workloads:
            codes = {
                matrix[(workload.name, config.name)].exit_code
                for config in self.configs
            }
            outcome.check(
                len(codes) == 1,
                f"{workload.name}: exit codes differ across configs {codes}",
            )
        instructions = sum(m.instructions for m in matrix.values())
        overhead = {}
        for suite, members in self.suites.items():
            names = {w.name for w in members}
            rows = overhead_table({
                key: value for key, value in matrix.items() if key[0] in names
            })
            overhead[suite] = averages(rows)
        full = [overhead[suite]["full"] for suite in self.suites]
        outcome.metrics = {
            "sim_mips": instructions / wall / 1e6,
            "jobs_per_s": len(cells) / wall,
            "latency_p50_ms": statistics.median(cells) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.guest = {
            "instret": instructions,
            "cycles": sum(m.cycles for m in matrix.values()),
            "crypto_ops": sum(m.crypto_ops for m in matrix.values()),
        }
        outcome.fingerprint = {
            "overhead_pct": overhead,
            "matrix_sha256": sha256_json(sorted(
                [w, c, m.cycles, m.instructions, m.crypto_ops, m.exit_code]
                for (w, c), m in matrix.items()
            )),
        }
        outcome.info = {
            "suite_s": wall,
            "sessions": len(cells),
            "guest_full_overhead_pct": sum(full) / len(full),
            **{
                f"guest_full_overhead_pct.{suite}": overhead[suite]["full"]
                for suite in self.suites
            },
            **{
                f"paper_full_overhead_pct.{suite}": PAPER_FULL_AVERAGE[suite]
                for suite in self.suites
            },
        }
        return outcome


# -- the fleet ------------------------------------------------------------------------

#: The loadgen stream every run serves; a run's seed only orders it.
#: Streams drawn from the run's seed differ in cost: a fuzz job costs
#: ~25 workload jobs, and across seeds 0-9 the saturated phase's guest
#: work ranged from 1.28M to 1.34M instructions.  Host time would move
#: with the seed by more than the bounds allow for noise.
FLEET_STREAM_SEED = 0


def fleet_phases(seed: int, saturated: int, closed: int) -> list[dict]:
    """The first ``saturated`` and the next ``closed`` jobs of the fixed
    loadgen stream, each group shuffled by ``seed``."""
    jobs = generate_jobs(FLEET_STREAM_SEED, saturated + closed)
    first, rest = jobs[:saturated], jobs[saturated:]
    rng = Random(f"e2e.fleet_mix:{seed}")
    rng.shuffle(first)
    rng.shuffle(rest)
    return first + rest


def results_digest(results: list[dict]) -> str:
    return sha256_json([
        deterministic_view(result)
        for result in sorted(results, key=lambda r: r["id"])
    ])


class FleetMix(Workload):
    """The loadgen job mix served by ``Fleet(workers=2, batch_size=8)``.

    Saturated phase: every job submitted at once, then drained
    (throughput).  Closed-loop phase: two clients, each wave two jobs
    submitted then drained (latency).  The traced shape serves fewer
    jobs in-process, so per-job layers are observable.
    """

    name = "fleet_mix"

    def __init__(self, seed: int, profile: str, traced_shape: bool = False):
        super().__init__(seed, profile, traced_shape)
        if traced_shape:
            self.saturated, self.closed = self.sizes["fleet_traced"]
            self.shape = f"{profile}-traced"
        else:
            self.saturated = self.sizes["fleet_saturated"]
            self.closed = self.sizes["fleet_closed"]
        self.jobs = fleet_phases(seed, self.saturated, self.closed)
        self.context = None
        self.fleet = None

    def boot_caches(self) -> list:
        return [self.context.boot_cache]

    def setup(self) -> None:
        # Boot-once warm state, as the loadgen prewarms it: every image
        # built, every config booted; workers fork from it.
        context = JobContext()
        booted = set()
        for job in self.jobs:
            if job["kind"] != "workload":
                continue
            image = context.image_for(job["params"])
            config = job["params"].get("config", "full")
            if config not in booted:
                booted.add(config)
                context.boot_cache.machine_for(image, DEFAULT_MASTER_KEY)
        self.context = context
        options = FleetOptions(
            workers=2, batch_size=8, parallel=not self.traced_shape
        )
        if self.traced_shape:
            self.fleet = Fleet(options, context=context)
        else:
            fleet_worker.prewarm(context)
            self.fleet = Fleet(options)
            self.fleet.start()

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
        fleet_worker.prewarm(None)

    def run(self, seconds: float, tracer=None) -> Outcome:
        fleet = self.fleet
        saturated = self.jobs[:self.saturated]
        closed = self.jobs[self.saturated:]
        outcome = Outcome()

        started = time.perf_counter()
        for job in saturated:
            fleet.submit(job)
        results = fleet.drain()
        saturated_wall = time.perf_counter() - started
        saturated_results = [results.get(job["id"]) for job in saturated]
        batches = tracer.calls("fleet.batch") if tracer is not None else 0

        closed_started = time.perf_counter()
        for wave in range(0, len(closed), 2):
            for job in closed[wave:wave + 2]:
                fleet.submit(job)
            fleet.drain()
        closed_wall = time.perf_counter() - closed_started
        closed_results = [fleet.results.get(job["id"]) for job in closed]
        # Reap the workers now: a child's peak RSS is only reported once
        # it has been waited for.
        self.close()

        every = saturated_results + closed_results
        for job, result in zip(self.jobs, every):
            outcome.check(
                result is not None and result["status"] == "ok",
                f"{job['id']} ({job['kind']}): "
                + ("lost" if result is None else result["status"]),
            )
        if any(result is None for result in every):
            return outcome

        payloads = [
            r["payload"] for r in saturated_results if r["kind"] == "workload"
        ]
        instructions = sum(p["instructions"] for p in payloads)
        cycles = sum(p["cycles"] for p in payloads)
        latencies = [r["timing"]["total_ms"] for r in closed_results]
        outcome.metrics = {
            "sim_mips": instructions / saturated_wall / 1e6,
            "jobs_per_s": len(saturated) / saturated_wall,
            "latency_p50_ms": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb(include_children=True),
        }
        outcome.guest = {
            "instret": instructions,
            "cycles": cycles,
            # Fleet payloads report no engine statistics.
            "crypto_ops": 0,
        }
        outcome.fingerprint = {
            "saturated_sha256": results_digest(saturated_results),
            "closed_sha256": results_digest(closed_results),
        }
        run_ms = [r["timing"]["run_ms"] for r in every]
        overhead_ms = [
            r["timing"]["total_ms"] - r["timing"]["run_ms"]
            for r in closed_results
        ]

        def kind_p50(kind):
            values = [r["timing"]["run_ms"] for r in every if r["kind"] == kind]
            return statistics.median(values) if values else 0.0

        counters = fleet.metrics.to_json().get("counters", {})
        outcome.layers = {
            "fleet.overhead_ms.p50": statistics.median(overhead_ms),
            "fleet.overhead_ms.p99": p99(overhead_ms),
            "fleet.run_ms.p50": statistics.median(run_ms),
            "fleet.run_ms.p99": p99(run_ms),
            "fleet.run_ms.workload.p50": kind_p50("workload"),
            "fleet.run_ms.attack.p50": kind_p50("attack"),
            "fleet.run_ms.fuzz.p50": kind_p50("fuzz"),
            "fleet.batch.jobs_mean": (
                len(saturated) / batches if batches else 0.0
            ),
            "fleet.requeued": counters.get("fleet.jobs.requeued", 0),
        }
        outcome.info = {
            "latency_p99_ms": p99(latencies),
            "saturated_s": saturated_wall,
            "closed_s": closed_wall,
            "jobs": len(every),
        }
        return outcome


WORKLOADS = {
    cls.name: cls
    for cls in (ProtectedKernel, UnprotectedCompute, Figure5Suite, FleetMix)
}
