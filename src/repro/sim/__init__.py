"""repro.sim: the unified discrete-event simulation kernel.

One :class:`SimKernel` (simulated time + event heap + trace bus + seeded
RNG) replaces the five ad-hoc clocks the subsystems used to keep privately:
the scheduler's completion heap, the power manager's heap surgery, the
MPI simulator's per-rank floats, gmetad's hand-threaded timestamps, and
the mirror/GridFTP transfer accounting.  Any subsystem can publish typed
events to the :class:`TraceBus` and the whole co-simulated run exports as
one JSONL trace.

See ``docs/SIM.md`` for the kernel contract, the trace event schema, and
the migration pattern for porting a subsystem.
"""

from .clock import Timeline
from .kernel import EventHandle, PeriodicEvent, SimKernel
from .trace import (
    EVENT_SCHEMA,
    TraceBus,
    TraceEvent,
    audit_events,
    validate_event,
    validate_jsonl,
)

__all__ = [
    "Timeline",
    "EventHandle",
    "PeriodicEvent",
    "SimKernel",
    "TraceBus",
    "TraceEvent",
    "EVENT_SCHEMA",
    "validate_event",
    "validate_jsonl",
    "audit_events",
]
