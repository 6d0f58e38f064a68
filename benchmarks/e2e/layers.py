"""Per-layer accounting for the traced run, with the compiled tiers on.

``Hart.attach_tracer`` makes tiers 3 and 4 stand down, so the traced
run never attaches one.  Instead :class:`LayerTracer` replaces public
entry points of each layer — class methods and the module-level names
callers look up — *before the workload builds any Machine*: compiled
blocks bind ``engine.encrypt`` and ``bus.read_*`` when they are
generated, so they bind the wrappers too and keep running compiled.

Hot leaf calls (bus, CSR, crypto, dispatch) only count and time.  The
child time and child calls of the running call turn each layer's
inclusive time into self time; a call keeps its caller's totals in
locals, so a wrapped call allocates nothing beyond its arguments.  The
per-call cost of a wrapper is measured at start-up in two parts: what
falls inside the call's own timing window is taken out of that layer's
self time, the rest out of its caller's.  Coarse calls (session,
build, boot, fork, compile, run) also record a span in a
:class:`~repro.telemetry.spans.SpanRecorder` for the Chrome trace.
"""

from __future__ import annotations

import statistics
import time

from repro.telemetry.spans import (
    SpanRecorder,
    merge_span_logs,
    spans_to_chrome_trace,
)

_clock = time.perf_counter_ns


class _Stat:
    __slots__ = ("calls", "total_ns", "child_ns", "child_calls")

    def __init__(self):
        self.calls = self.total_ns = self.child_ns = self.child_calls = 0

    def self_s(self, inside_ns: float, outside_ns: float) -> float:
        own = (
            self.total_ns - self.child_ns
            - inside_ns * self.calls - outside_ns * self.child_calls
        )
        return max(0.0, own) / 1e9


def _timed(fn, stat: _Stat, frame: list):
    """Count and time ``fn``; charge its time to the caller.

    ``frame`` is ``[child ns, child calls]`` of the call running now.
    """

    def wrapper(*args, **kwargs):
        outer_ns, outer_calls = frame
        frame[0] = frame[1] = 0
        started = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - started
            stat.calls += 1
            stat.total_ns += elapsed
            stat.child_ns += frame[0]
            stat.child_calls += frame[1]
            frame[0] = outer_ns + elapsed
            frame[1] = outer_calls + 1

    return wrapper


def _calibrate(rounds: int = 7, calls: int = 30_000) -> tuple[float, float]:
    """Wrapper cost per call in ns: ``(inside, outside)`` the timed window.

    Measured on the hottest wrapped call, made the way compiled code
    makes it: ``SystemBus.read_u64`` of RAM through a method bound once.
    ``inside`` is what a wrapped call records beyond a bare call;
    ``outside`` is the rest of the wrapped call's extra cost, paid by
    the caller.  Each is the median over rounds of bare and wrapped
    calls taken alternately.
    """
    from repro.machine.machine import STACK_BASE, Machine, SystemBus

    class Bus(SystemBus):
        pass

    stat = _Stat()
    Bus.read_u64 = _timed(SystemBus.read_u64, stat, [0, 0])
    machine = Machine()
    machine.memory.map_region("stack", STACK_BASE, 0x1000)
    bare = machine.bus.read_u64
    wrapped = Bus(machine.memory, machine.bus.devices).read_u64
    insides, outsides = [], []
    for _ in range(rounds):
        stat.total_ns = 0
        started = _clock()
        for _ in range(calls):
            bare(STACK_BASE)
        bare_ns = (_clock() - started) / calls
        started = _clock()
        for _ in range(calls):
            wrapped(STACK_BASE)
        total = (_clock() - started) / calls - bare_ns
        recorded = stat.total_ns / calls - bare_ns
        insides.append(recorded)
        outsides.append(total - recorded)
    return (
        max(0.0, statistics.median(insides)),
        max(0.0, statistics.median(outsides)),
    )


class LayerTracer:
    """Wraps the layers' public entry points; reports per-layer metrics."""

    def __init__(self):
        self.inside_ns, self.outside_ns = _calibrate()
        self._stats: dict[str, _Stat] = {}
        #: ``[child ns, child calls]`` of the running call; at the top
        #: level, what the wrapped layers took in all.
        self._frame: list = [0, 0]
        self._undo: list = []
        self.spans = SpanRecorder("benchmark")
        self._started_ns = 0
        self._stopped_ns = 0
        #: Hart-counter deltas gathered around Machine.run/run_until.
        self.deltas: dict[str, int] = {}
        self._caches: list = []
        self._cache_base: list = []
        self._cache_end: list = []

    # -- wrapping --------------------------------------------------------------

    def _stat(self, layer: str) -> _Stat:
        return self._stats.setdefault(layer, _Stat())

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, layer: str, span: str | None = None,
             observe=None) -> None:
        """Route ``owner.attr`` through layer ``layer``.

        ``span`` also records a span per call; ``observe(args)`` returns
        a callback run after the call (hart-counter deltas).
        """
        timed = _timed(owner.__dict__[attr], self._stat(layer), self._frame)
        if span is None and observe is None:
            self._patch(owner, attr, timed)
            return

        def wrapper(*args, **kwargs):
            after = observe(args) if observe is not None else None
            try:
                if span is None:
                    return timed(*args, **kwargs)
                with self.spans.span(span):
                    return timed(*args, **kwargs)
            finally:
                if after is not None:
                    after()

        self._patch(owner, attr, wrapper)

    def call(self, layer: str, span: str, fn, *args):
        """Run benchmark code ``fn(*args)`` as one call of ``layer``."""
        timed = _timed(fn, self._stat(layer), self._frame)
        with self.spans.span(span):
            return timed(*args)

    def install(self) -> None:
        """Wrap every layer.  Call before the workload builds a Machine."""
        import repro.bench.runner as runner
        import repro.fleet.jobs as fleet_jobs
        import repro.fleet.scheduler as scheduler
        import repro.fleet.worker as fleet_worker
        import repro.kernel.api as kernel_api
        import repro.kernel.bootcache as bootcache
        import repro.machine.hart as hart_module
        from repro.crypto.engine import CryptoEngine
        from repro.crypto.qarma import Qarma64
        from repro.machine.csr import CSRFile
        from repro.machine.hart import Hart
        from repro.machine.machine import Machine, SystemBus

        self.wrap(Machine, "run", "machine.run", "run", self._observe_run)
        self.wrap(Machine, "run_until", "kernel.boot", "boot",
                  self._observe_run)
        self.wrap(Hart, "run_block", "machine.dispatch")
        self.wrap(Hart, "step", "machine.step")
        self.wrap(hart_module, "predecode", "machine.translate")
        self.wrap(hart_module, "compile_block", "machine.compile", "compile")
        for size in (8, 16, 32, 64):
            self.wrap(SystemBus, f"read_u{size}", "machine.bus.read")
            self.wrap(SystemBus, f"write_u{size}", "machine.bus.write")
        self.wrap(CSRFile, "read", "machine.csr")
        self.wrap(CSRFile, "write", "machine.csr")
        self.wrap(CryptoEngine, "encrypt", "crypto.engine")
        self.wrap(CryptoEngine, "decrypt", "crypto.engine")
        self.wrap(Qarma64, "encrypt", "crypto.cipher")
        self.wrap(Qarma64, "decrypt", "crypto.cipher")
        self.wrap(kernel_api, "build_kernel", "compiler.build", "build")
        self.wrap(fleet_jobs, "build_kernel", "compiler.build", "build")
        self.wrap(bootcache, "fork", "snapshot.fork", "fork")
        self.wrap(runner, "run_workload", "bench.session", "session")
        self.wrap(fleet_worker, "execute_job", "bench.session", "session")
        self.wrap(scheduler, "serve_batch", "fleet.batch")
        self.wrap(scheduler.Fleet, "submit", "fleet.submit")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _observe_run(self, args):
        """Hart and engine counter deltas over one run/run_until call."""
        machine = args[0]
        hart = machine.hart
        engine = machine.engine
        clb = engine.clb.stats
        memo = engine.memo
        stats = engine.stats

        def counters():
            return (
                hart.instret, hart.blocks.hits, hart.blocks.misses,
                hart.layout_hits, clb.hits, clb.accesses, clb.invalidations,
                memo.hits, memo.hits + memo.misses, stats.integrity_faults,
            )

        before = counters()

        def after():
            names = (
                "retired", "block_hits", "block_misses", "layout_hits",
                "clb_hits", "clb_accesses", "clb_invalidations",
                "memo_hits", "memo_lookups", "integrity_faults",
            )
            for name, old, new in zip(names, before, counters()):
                self.deltas[name] = self.deltas.get(name, 0) + new - old

        return after

    # -- phases ----------------------------------------------------------------

    def start(self, boot_caches) -> None:
        """Begin the timed phase: zero every counter and span."""
        for stat in self._stats.values():
            stat.calls = stat.total_ns = stat.child_ns = stat.child_calls = 0
        self._frame[:] = [0, 0]
        self.deltas = {}
        self.spans = SpanRecorder("benchmark")
        self._caches = list(boot_caches)
        self._cache_base = [cache.stats() for cache in self._caches]
        self._started_ns = _clock()

    def stop(self) -> None:
        """End the timed phase and unwrap, so later work goes uncounted."""
        self._stopped_ns = _clock()
        self._cache_end = [cache.stats() for cache in self._caches]
        self.uninstall()

    def corrected_s(self) -> float:
        """The traced phase less the calibrated cost of every wrapped call:
        what it would have taken untraced, if the calibration holds."""
        calls = sum(stat.calls for stat in self._stats.values())
        wall_ns = self._stopped_ns - self._started_ns
        return (wall_ns - (self.inside_ns + self.outside_ns) * calls) / 1e9

    def calls(self, layer: str) -> int:
        stat = self._stats.get(layer)
        return stat.calls if stat is not None else 0

    # -- reporting -------------------------------------------------------------

    def _cache_delta(self, key: str) -> int:
        return sum(
            end[key] - base[key]
            for base, end in zip(self._cache_base, self._cache_end)
        )

    def metrics(self) -> dict:
        """Every per-layer metric this tracer measures (0 when unused)."""
        wall_ns = self._stopped_ns - self._started_ns
        inside, outside = self.inside_ns, self.outside_ns
        calls = self.calls

        def self_s(layer):
            s = self._stats.get(layer)
            return s.self_s(inside, outside) if s is not None else 0.0

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        d = self.deltas.get
        layers_ns, layer_calls = self._frame
        unattributed_ns = max(0.0, wall_ns - layers_ns - outside * layer_calls)
        return {
            "machine.run.s": self_s("machine.run"),
            "machine.dispatch.calls": calls("machine.dispatch"),
            "machine.dispatch.self_s": self_s("machine.dispatch"),
            "machine.step.calls": calls("machine.step"),
            "machine.step.s": self_s("machine.step"),
            "machine.tier1_frac": ratio(
                calls("machine.step"), d("retired", 0)
            ),
            "machine.translate.calls": calls("machine.translate"),
            "machine.translate.s": self_s("machine.translate"),
            "machine.compile.calls": calls("machine.compile"),
            "machine.compile.s": self_s("machine.compile"),
            "machine.block.hit_ratio": ratio(
                d("block_hits", 0),
                d("block_hits", 0) + d("block_misses", 0),
            ),
            "machine.layout.adoptions": d("layout_hits", 0),
            "machine.shared_code.binds": self._cache_delta(
                "shared_code_binds"
            ),
            "machine.bus.reads": calls("machine.bus.read"),
            "machine.bus.writes": calls("machine.bus.write"),
            "machine.bus.s": (
                self_s("machine.bus.read") + self_s("machine.bus.write")
            ),
            "machine.csr.calls": calls("machine.csr"),
            "machine.csr.s": self_s("machine.csr"),
            "crypto.ops": calls("crypto.engine"),
            "crypto.engine.self_s": self_s("crypto.engine"),
            "crypto.clb.hit_ratio": ratio(
                d("clb_hits", 0), d("clb_accesses", 0)
            ),
            "crypto.clb.invalidations": d("clb_invalidations", 0),
            "crypto.memo.hit_ratio": ratio(
                d("memo_hits", 0), d("memo_lookups", 0)
            ),
            "crypto.cipher.calls": calls("crypto.cipher"),
            "crypto.cipher.s": self_s("crypto.cipher"),
            "crypto.integrity_faults": d("integrity_faults", 0),
            "compiler.build.calls": calls("compiler.build"),
            "compiler.build.s": self_s("compiler.build"),
            "kernel.boot.calls": self._cache_delta("boots"),
            "kernel.boot.s": self_s("kernel.boot"),
            "kernel.bootcache.evictions": self._cache_delta("evictions"),
            "snapshot.fork.calls": calls("snapshot.fork"),
            "snapshot.fork.s": self_s("snapshot.fork"),
            "bench.session.calls": calls("bench.session"),
            "bench.session.s": self_s("bench.session"),
            "fleet.submit.s": self_s("fleet.submit"),
            "trace.unattributed_pct": 100.0 * ratio(unattributed_ns, wall_ns),
            "trace.wrapper_ns": inside + outside,
        }

    def chrome_trace(self) -> dict:
        return spans_to_chrome_trace(merge_span_logs([self.spans.to_json()]))
