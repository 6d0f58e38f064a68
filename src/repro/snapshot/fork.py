"""Cheap copy-on-write machine forking.

``fork(machine)`` produces an independent child machine whose memory
shares every current page with the parent copy-on-write
(:meth:`repro.machine.memory.Memory.fork`): N children of one booted
kernel share all boot-time pages and only copy the pages they actually
write.  Scalar state (hart, CSRs, devices, engine, CLB) is copied
eagerly — it is a few hundred machine words.

The child starts with an empty block-translation cache and its own
code-write hook, so self-modifying-code tracking is re-armed per child;
the stateless cipher object is shared with the parent.
"""

from __future__ import annotations

from repro.machine.machine import Machine
from repro.machine.timing import CostModel
from repro.snapshot.capture import capture
from repro.snapshot.restore import apply_scalar_state, build_engine
from repro.telemetry.events import SNAPSHOT_FORK


def fork(machine: Machine) -> Machine:
    """Return an independent copy of ``machine`` sharing pages COW."""
    hook = machine.hart.trace_hook
    if hook is not None:
        hook(SNAPSHOT_FORK, pages=len(machine.memory._pages))
    snapshot = capture(machine, include_pages=False)
    memory = machine.memory.fork()
    engine = build_engine(snapshot.engine, cipher=machine.engine.cipher)
    child = Machine(
        memory=memory,
        engine=engine,
        cost_model=CostModel(**snapshot.cost),
    )
    apply_scalar_state(child, snapshot)
    return child
