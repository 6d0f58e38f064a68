"""The trace bus: publish/subscribe fabric for telemetry events.

Design constraints (see ``docs/telemetry.md``):

* **one seam, zero overhead when disabled** — every structured event
  comes from a producer's ``trace_hook(kind, **fields)`` attribute
  (see :meth:`TraceBus.make_hook`), which is ``None`` by default and
  guarded with a single attribute test; the hart's per-instruction
  plane only exists while ``Hart.attach_tracer`` wraps the dispatch
  table for ``insn.retire`` subscribers, and that wrapper (like the
  speculative engine's) is all that stands the compiled tier down;
* **observation only** — subscribers receive events but nothing they
  do can flow back into architectural state; the bus never raises into
  the emitting component;
* **cheap when enabled** — ``emit`` allocates one :class:`Event` and
  fans out to a list; the raw instruction plane skips even that.
"""

from __future__ import annotations

from repro.telemetry.events import Event

__all__ = ["TraceBus", "TraceRecorder"]

#: Default cap on recorded events before the recorder starts dropping.
DEFAULT_RECORD_LIMIT = 250_000


class TraceBus:
    """Dispatches events by kind to subscriber callables.

    Structured subscribers are called as ``fn(event)``; subscribers of
    the raw :data:`~repro.telemetry.events.INSN_RETIRE` plane are called
    positionally as ``fn(ins, pc)`` by the hart (the bus only stores
    them — see :meth:`subscribers`).
    """

    def __init__(self):
        self._subs: dict[str, list] = {}

    def subscribe(self, kind: str, fn) -> None:
        self._subs.setdefault(kind, []).append(fn)

    def unsubscribe(self, kind: str, fn) -> None:
        subs = self._subs.get(kind)
        if subs and fn in subs:
            subs.remove(fn)
            if not subs:
                del self._subs[kind]

    def wants(self, kind: str) -> bool:
        """Does anyone listen for ``kind``?  Producers may skip work."""
        return bool(self._subs.get(kind))

    def wants_any(self, kinds) -> bool:
        subs = self._subs
        return any(subs.get(kind) for kind in kinds)

    def subscribers(self, kind: str) -> list:
        """Snapshot of the subscriber list (for producer specialization)."""
        return list(self._subs.get(kind, ()))

    def emit(self, kind: str, cycle: int, **data) -> None:
        """Deliver a structured event; no-op without subscribers."""
        subs = self._subs.get(kind)
        if not subs:
            return
        event = Event(kind, cycle, data)
        for fn in subs:
            fn(event)

    def make_hook(self, cycle_source):
        """A component-side ``trace_hook(kind, **fields)`` adapter.

        ``cycle_source`` is a zero-argument callable returning the
        current cycle count (the attached hart's counter).
        """
        emit = self.emit

        def hook(kind: str, **fields) -> None:
            emit(kind, cycle_source(), **fields)

        return hook


class TraceRecorder:
    """Bounded in-memory event sink.

    Appends every delivered event up to ``limit``, then counts drops —
    tracing a long run must degrade to truncation, never to unbounded
    memory growth.
    """

    def __init__(self, limit: int = DEFAULT_RECORD_LIMIT):
        self.limit = limit
        self.events: list[Event] = []
        self.dropped = 0

    def __call__(self, event: Event) -> None:
        if len(self.events) < self.limit:
            self.events.append(event)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> list[Event]:
        return [event for event in self.events if event.kind == kind]

    def counts(self) -> dict[str, int]:
        """Recorded event count per kind, sorted by kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> dict:
        return {
            "schema": "repro.telemetry/events-1",
            "dropped": self.dropped,
            "events": [event.to_json() for event in self.events],
        }
