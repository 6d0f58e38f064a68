"""Chrome trace-event (Perfetto-loadable) export.

Converts a recorded event stream into the Trace Event Format JSON that
``ui.perfetto.dev`` and ``chrome://tracing`` load directly.  The time
axis is the simulated cycle counter mapped 1 cycle = 1 µs, so a span of
3000 cycles renders as 3 ms — durations read directly in cycles.

Track layout (single process, pid 0):

* ``traps``     — one ``X`` span per trap-enter/trap-exit pair;
* ``syscalls``  — one ``X`` span per completed syscall (from the kernel
  probe's ``syscall.exit`` events, which carry the cycle delta);
* ``sched``     — an instant per context switch;
* ``blocks``    — instants for block compile/invalidate/flush (per-hit
  events are summarized by the ``clb+blocks`` counter track instead);
* ``crypto``    — instants for key-CSR writes and integrity faults;
* ``snapshot``  — instants for capture/fork;
* counter samples (``ph: "C"``) for cumulative CLB hits/misses, emitted
  at trap boundaries so the series stays bounded.

Every emitted trace event carries ``args.kind`` naming the source event
kind, which is what the schema validator cross-checks.
"""

from __future__ import annotations

from repro.machine.trap import Cause
from repro.telemetry import events as ev

__all__ = ["chrome_trace"]

_TRACKS = {
    "traps": 1,
    "syscalls": 2,
    "sched": 3,
    "blocks": 4,
    "crypto": 5,
    "snapshot": 6,
    "counters": 7,
}

_INSTANT_TRACKS = {
    ev.BLOCK_COMPILE: "blocks",
    ev.BLOCK_INVALIDATE: "blocks",
    ev.BLOCK_FLUSH: "blocks",
    ev.KEY_WRITE: "crypto",
    ev.CRYPTO_FAULT: "crypto",
    ev.CLB_INVALIDATE: "crypto",
    ev.SCHED_SWITCH: "sched",
    ev.SNAPSHOT_CAPTURE: "snapshot",
    ev.SNAPSHOT_FORK: "snapshot",
}


def _cause_name(cause: int, interrupt: bool) -> str:
    try:
        name = Cause(cause).name.lower()
    except ValueError:
        name = f"cause_{cause}"
    return f"irq:{name}" if interrupt else name


def _meta(name: str, tid: int) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": tid,
        "args": {"name": name},
    }


def chrome_trace(events, process_name: str = "repro machine") -> dict:
    """Build a Trace Event Format document from recorded events."""
    trace: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    trace.extend(_meta(name, tid) for name, tid in _TRACKS.items())

    open_traps: list = []
    open_syscalls: list = []
    clb_hits = 0
    clb_misses = 0
    clb_dirty = False

    def counter_sample(cycle: int) -> None:
        trace.append({
            "name": "clb",
            "ph": "C",
            "ts": cycle,
            "pid": 0,
            "tid": _TRACKS["counters"],
            "args": {"kind": "counter.clb", "hits": clb_hits,
                     "misses": clb_misses},
        })

    def instant(event, track: str) -> None:
        trace.append({
            "name": event.kind,
            "cat": track,
            "ph": "i",
            "s": "t",
            "ts": event.cycle,
            "pid": 0,
            "tid": _TRACKS[track],
            "args": {"kind": event.kind, **event.data},
        })

    last_cycle = 0
    for event in events:
        kind = event.kind
        last_cycle = max(last_cycle, event.cycle)
        if kind in (ev.CLB_ENC_HIT, ev.CLB_DEC_HIT):
            clb_hits += 1
            clb_dirty = True
        elif kind in (ev.CLB_ENC_MISS, ev.CLB_DEC_MISS):
            clb_misses += 1
            clb_dirty = True
        elif kind == ev.TRAP_ENTER:
            open_traps.append(event)
            if clb_dirty:
                counter_sample(event.cycle)
                clb_dirty = False
        elif kind == ev.TRAP_EXIT:
            if open_traps:
                enter = open_traps.pop()
                trace.append({
                    "name": _cause_name(
                        enter.data["cause"], enter.data["interrupt"]
                    ),
                    "cat": "traps",
                    "ph": "X",
                    "ts": enter.cycle,
                    "dur": max(event.cycle - enter.cycle, 0),
                    "pid": 0,
                    "tid": _TRACKS["traps"],
                    "args": {"kind": ev.TRAP_ENTER, **enter.data},
                })
        elif kind == ev.SYSCALL_ENTER:
            open_syscalls.append(event)
        elif kind == ev.SYSCALL_EXIT:
            if open_syscalls:
                open_syscalls.pop()
            trace.append({
                "name": event.data["name"],
                "cat": "syscalls",
                "ph": "X",
                "ts": event.cycle - event.data["cycles"],
                "dur": event.data["cycles"],
                "pid": 0,
                "tid": _TRACKS["syscalls"],
                "args": {"kind": kind, **event.data},
            })
        elif kind in _INSTANT_TRACKS:
            instant(event, _INSTANT_TRACKS[kind])
        # Remaining kinds (block.hit, clb hit/miss, crypto.op) are too
        # frequent for per-event rendering; the counter track and the
        # metrics export carry their aggregate story.

    # Anything still open at end-of-trace (e.g. the shutdown ecall never
    # mrets) renders as an instant so it is not silently lost.
    for event in open_traps + open_syscalls:
        name = (
            event.data["name"]
            if event.kind == ev.SYSCALL_ENTER
            else _cause_name(event.data["cause"], event.data["interrupt"])
        )
        track = "syscalls" if event.kind == ev.SYSCALL_ENTER else "traps"
        trace.append({
            "name": f"{name} (unterminated)",
            "cat": track,
            "ph": "i",
            "s": "t",
            "ts": event.cycle,
            "pid": 0,
            "tid": _TRACKS[track],
            "args": {"kind": event.kind, **event.data},
        })
    if clb_dirty:
        counter_sample(last_cycle)

    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro.telemetry/chrome-trace-1",
            "time_unit": "1 cycle = 1 us",
        },
    }
