"""The :class:`Telemetry` facade: attach/detach one machine's telemetry.

One object owns the three layers of the subsystem for one machine:

* the **trace bus** plus a bounded :class:`TraceRecorder` (``trace``);
* the **metrics registry**, fed live from bus events (trap/syscall
  cycle histograms, compile-time histograms) and backfilled from the
  machine's own statistics blocks at collection time (``metrics``);
* the **profiler** on the raw instruction plane (``profile``).

``attach`` installs one bus hook as the ``trace_hook`` of every
producer whose events the bus wants — hart (traps, snapshots of its
machine), block cache, CLB, crypto engine, key CSRs, speculative
engine — adds the kernel probe when a kernel image is supplied, and
wraps the hart's dispatch table only for the ``insn.retire`` plane.
``detach`` gives every hook back the value ``attach`` found and
unwraps the dispatch table.  Attachment never mutates architectural
state, and only the ``insn.retire`` plane keeps the compiled tier from
running: its dispatch wrapper (and the block-cache flush that makes
translated blocks pick it up) is architecture-neutral by the fast
path's equivalence contract.
"""

from __future__ import annotations

from repro.telemetry import events as ev
from repro.telemetry.bus import DEFAULT_RECORD_LIMIT, TraceBus, TraceRecorder
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profile import Profiler

__all__ = ["Telemetry"]

_CLB_KINDS = (
    ev.CLB_ENC_HIT,
    ev.CLB_ENC_MISS,
    ev.CLB_DEC_HIT,
    ev.CLB_DEC_MISS,
    ev.CLB_EVICT,
    ev.CLB_INVALIDATE,
)
_ENGINE_KINDS = (ev.CRYPTO_OP, ev.CRYPTO_FAULT)
_BLOCK_KINDS = (
    ev.BLOCK_COMPILE,
    ev.BLOCK_HIT,
    ev.BLOCK_INVALIDATE,
    ev.BLOCK_FLUSH,
    ev.BLOCK_EVICT,
    ev.BLOCK_JIT,
)
_HART_KINDS = (
    ev.TRAP_ENTER,
    ev.TRAP_EXIT,
    ev.SNAPSHOT_CAPTURE,
    ev.SNAPSHOT_FORK,
)


class Telemetry:
    """Tracing, metrics and profiling for one attached machine."""

    def __init__(
        self,
        trace: bool = True,
        profile: bool = True,
        metrics: bool = True,
        record_limit: int = DEFAULT_RECORD_LIMIT,
    ):
        self.bus = TraceBus()
        self.recorder = TraceRecorder(record_limit) if trace else None
        self.registry = MetricsRegistry() if metrics else None
        self.profiler = Profiler() if profile else None
        self.probe = None
        self._machine = None
        self._image = None
        #: ``(producer, trace_hook it had)`` for every hook ``attach``
        #: installed; ``detach`` puts each one back.
        self._replaced: list = []
        #: Did ``attach`` wrap the dispatch table (``insn.retire``)?
        self._wrapped = False
        self._open_traps: list = []

    @property
    def attached(self) -> bool:
        return self._machine is not None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, machine, image=None) -> "Telemetry":
        if self.attached:
            raise RuntimeError("telemetry is already attached to a machine")
        self._machine = machine
        self._image = image
        bus = self.bus
        hart = machine.hart

        # All subscriptions first: the wiring below inspects
        # bus.wants(...) to decide what to instrument.
        if self.registry is not None:
            bus.subscribe(ev.TRAP_ENTER, self._metric_trap_enter)
            bus.subscribe(ev.TRAP_EXIT, self._metric_trap_exit)
            bus.subscribe(ev.SYSCALL_ENTER, self._metric_syscall_enter)
            bus.subscribe(ev.SYSCALL_EXIT, self._metric_syscall_exit)
            bus.subscribe(ev.BLOCK_COMPILE, self._metric_block_compile)
            for kind in ev.STRUCTURED_KINDS:
                bus.subscribe(kind, self._metric_any)
        if self.recorder is not None:
            for kind in ev.STRUCTURED_KINDS:
                bus.subscribe(kind, self.recorder)
        if self.profiler is not None:
            bus.subscribe(ev.INSN_RETIRE, self.profiler.on_insn)
        if image is not None and bus.wants_any(
            (ev.TRAP_ENTER, ev.TRAP_EXIT)
        ):
            from repro.telemetry.kernelprobe import KernelProbe

            self.probe = KernelProbe(bus, machine, image)

        # Only producers whose kinds the bus wants get the hook; the
        # rest keep theirs.
        hook = bus.make_hook(lambda: hart.cycles)
        for producer, kinds in (
            (machine.engine.clb, _CLB_KINDS),
            (machine.engine, _ENGINE_KINDS),
            (hart.blocks, _BLOCK_KINDS),
            (hart.csrs, (ev.KEY_WRITE,)),
            (hart, _HART_KINDS),
            # A speculative engine attached after telemetry installs
            # its own hook (see repro.machine.spec).
            (hart.spec, ev.SPEC_KINDS),
        ):
            if producer is not None and bus.wants_any(kinds):
                self._replaced.append((producer, producer.trace_hook))
                producer.trace_hook = hook
        self._wrapped = hart.attach_tracer(bus)
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        if self._wrapped:
            self._machine.hart.detach_tracer()
            self._wrapped = False
        for producer, previous in reversed(self._replaced):
            producer.trace_hook = previous
        self._replaced.clear()
        if self.registry is not None:
            self.collect()
        self._machine = None

    # -- live metric feeders ----------------------------------------------

    @staticmethod
    def _trap_key(data: dict) -> str:
        suffix = "i" if data["interrupt"] else ""
        return f"{data['cause']}{suffix}"

    def _metric_any(self, event) -> None:
        self.registry.inc(f"events.{event.kind}")

    def _metric_trap_enter(self, event) -> None:
        key = self._trap_key(event.data)
        self.registry.inc(f"trap.cause.{key}.count")
        self._open_traps.append((key, event.cycle))

    def _metric_trap_exit(self, event) -> None:
        if self._open_traps:
            key, enter_cycle = self._open_traps.pop()
            self.registry.observe(
                f"trap.cause.{key}.cycles", event.cycle - enter_cycle
            )

    def _metric_syscall_enter(self, event) -> None:
        self.registry.inc(f"syscall.{event.data['name']}.count")

    def _metric_syscall_exit(self, event) -> None:
        self.registry.observe(
            f"syscall.{event.data['name']}.cycles", event.data["cycles"]
        )

    def _metric_block_compile(self, event) -> None:
        self.registry.observe("block.compile_ns", event.data["ns"])

    # -- collection --------------------------------------------------------

    def collect(self) -> None:
        """Backfill stats-derived metrics from the attached machine.

        Idempotent: counters mirrored from component statistics are
        *set*, not incremented, so repeated collection cannot double
        count.
        """
        registry = self.registry
        machine = self._machine
        if registry is None or machine is None:
            return
        hart = machine.hart
        clb = machine.engine.clb.stats
        engine = machine.engine.stats
        blocks = hart.blocks

        def mirror(name: str, value: int) -> None:
            registry.counter(name).value = value

        mirror("clb.enc.hits", clb.enc_hits)
        mirror("clb.enc.misses", clb.enc_misses)
        mirror("clb.dec.hits", clb.dec_hits)
        mirror("clb.dec.misses", clb.dec_misses)
        mirror("clb.invalidations", clb.invalidations)
        mirror("clb.evictions", clb.evictions)
        registry.set("clb.hit_ratio", clb.hit_ratio)
        mirror("crypto.encryptions", engine.encryptions)
        mirror("crypto.decryptions", engine.decryptions)
        mirror("crypto.integrity_faults", engine.integrity_faults)
        mirror("crypto.cycles", engine.cycles)
        for ksel, count in engine.per_key.items():
            letter = getattr(ksel, "letter", str(ksel))
            mirror(f"crypto.per_key.{letter}", count)
        mirror("block.hits", blocks.hits)
        mirror("block.misses", blocks.misses)
        mirror("block.translations", blocks.translations)
        mirror("block.invalidated", blocks.invalidated_blocks)
        mirror("block.flushes", blocks.flushes)
        mirror("block.evictions", blocks.evictions)
        mirror("block.compiled", hart.compiled_blocks)
        memo = machine.engine.memo
        mirror("crypto.memo.hits", memo.hits)
        mirror("crypto.memo.misses", memo.misses)
        registry.set("hart.cycles", hart.cycles)
        registry.set("hart.instret", hart.instret)
        if self.recorder is not None:
            registry.set("telemetry.events.recorded", len(self.recorder))
            registry.set("telemetry.events.dropped", self.recorder.dropped)
        if self.profiler is not None:
            registry.set("telemetry.profile.samples", self.profiler.total)

    # -- exports -----------------------------------------------------------

    def metrics_json(self) -> dict:
        if self.registry is None:
            raise RuntimeError("metrics plane is disabled")
        if self.attached:
            self.collect()
        return self.registry.to_json()

    def events_json(self) -> dict:
        if self.recorder is None:
            raise RuntimeError("trace plane is disabled")
        return self.recorder.to_json()

    def chrome_trace(self) -> dict:
        from repro.telemetry.chrometrace import chrome_trace

        if self.recorder is None:
            raise RuntimeError("trace plane is disabled")
        return chrome_trace(self.recorder.events)

    def symbol_table(self):
        """Symbols of the attached image (kernel + user), or None."""
        if self._image is None:
            return None
        from repro.machine.debug import SymbolTable

        table = SymbolTable()
        table.add_all(self._image.kernel_program.symbols)
        table.add_all(self._image.user_program.symbols)
        return table

    def flat_profile(self, top: int = 30) -> str:
        if self.profiler is None:
            raise RuntimeError("profile plane is disabled")
        return self.profiler.format_flat(self.symbol_table(), top=top)

    def profile_json(self, top: int | None = None) -> dict:
        if self.profiler is None:
            raise RuntimeError("profile plane is disabled")
        return self.profiler.to_json(self.symbol_table(), top=top)
