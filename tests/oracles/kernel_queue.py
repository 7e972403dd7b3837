"""The kernel as three objects, kept as a reference oracle.

``repro.sim.SimKernel`` holds simulated time, the ``(time_s, seq,
handle)`` heap, the next serial and the live count itself.  Before that
it forwarded to a :class:`SimClock` wrapping one float and an
:class:`EventQueue` that pruned dead entries on every ``schedule``.  That
code lives here unchanged, so ``tests/test_sim_kernel.py`` can drive both
kernels with the same random scripts and require the same firing order,
clock readings, ``state_dict()`` and errors.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable

from repro.errors import SimulationError
from repro.sim import Timeline, TraceBus

__all__ = ["SimClock", "EventHandle", "EventQueue", "PeriodicEvent", "SimKernel"]

_INF = float("inf")


def _check_time(time_s: float) -> float:
    time_s = float(time_s)
    if math.isnan(time_s):
        raise SimulationError("time is NaN")
    return time_s


class SimClock:
    """The monotonic simulation clock.

    ``advance_to`` enforces the single kernel invariant every consumer
    relies on: simulated time never decreases.
    """

    __slots__ = ("_now_s", "start_s")

    def __init__(self, start_s: float = 0.0) -> None:
        self.start_s = _check_time(start_s)
        self._now_s = self.start_s

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance_to(self, time_s: float) -> float:
        """Move the clock forward to ``time_s`` (equal is a no-op)."""
        time_s = _check_time(time_s)
        if time_s < self._now_s:
            raise SimulationError(
                f"time went backwards: advance_to({time_s}) at t={self._now_s}"
            )
        self._now_s = time_s
        return self._now_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_s={self._now_s})"


class EventHandle:
    """One scheduled event; compare by ``(time_s, seq)`` for heap order."""

    __slots__ = ("time_s", "seq", "callback", "label", "_dead")

    def __init__(
        self, time_s: float, seq: int, callback: Callable[[], object], label: str
    ) -> None:
        self.time_s = time_s
        self.seq = seq
        self.callback = callback
        self.label = label
        self._dead = False  # cancelled or already fired

    @property
    def active(self) -> bool:
        """True while the event is still pending."""
        return not self._dead

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time_s, self.seq) < (other.time_s, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.active else "dead"
        return f"EventHandle({self.label!r}, t={self.time_s}, seq={self.seq}, {state})"


#: Dead entries tolerated before compaction kicks in (keeps tiny queues
#: from compacting on every churn cycle).
_COMPACT_FLOOR = 64


class EventQueue:
    """The kernel's pending-event heap."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return self._live

    @property
    def next_seq(self) -> int:
        """The serial the next scheduled event will take (snapshot probe)."""
        return self._next_seq

    def snapshot_entries(self) -> list[tuple[float, int, str]]:
        """Live entries as ``(time_s, seq, label)``, heap-order-free.

        Callbacks are closures and cannot be serialized — this is the
        declarative shadow of the queue that checkpoints digest to verify
        a replayed run rebuilt the exact same pending-event set.
        """
        return sorted(
            (h.time_s, h.seq, h.label) for _, _, h in self._heap if h.active
        )

    @property
    def heap_size(self) -> int:
        """Physical heap entries, live + not-yet-purged dead (leak probe)."""
        return len(self._heap)

    def compact(self) -> int:
        """Drop every dead entry from the heap; returns how many went."""
        dead = len(self._heap) - self._live
        if dead:
            self._heap = [entry for entry in self._heap if entry[2].active]
            heapq.heapify(self._heap)
        return dead

    def _maybe_compact(self) -> None:
        self._prune()
        dead = len(self._heap) - self._live
        if dead > _COMPACT_FLOOR and dead > self._live:
            self.compact()

    def schedule(
        self,
        time_s: float,
        callback: Callable[[], object],
        *,
        label: str = "event",
    ) -> EventHandle:
        """Enqueue ``callback`` to fire at ``time_s``; returns its handle."""
        time_s = float(time_s)
        # One chained comparison rejects NaN (all comparisons false) and
        # both infinities without separate math.isnan/isinf calls.
        if not -_INF < time_s < _INF:
            raise SimulationError(f"cannot schedule an event at t={time_s}")
        self._maybe_compact()
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time_s, seq, callback, label)
        heapq.heappush(self._heap, (time_s, seq, handle))
        self._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event (lazy deletion)."""
        if not handle.active:
            raise SimulationError(
                f"event {handle.label!r} already fired or was cancelled"
            )
        handle._dead = True
        self._live -= 1

    def reschedule(self, handle: EventHandle, time_s: float) -> EventHandle:
        """Move a pending event to a new time; returns the new handle.

        The event re-enters the queue as if newly submitted (it takes a
        fresh serial, so it fires after events already scheduled for the
        same instant) — the first-class API that replaces mutating the
        heap representation in place.
        """
        callback, label = handle.callback, handle.label
        self.cancel(handle)
        return self.schedule(time_s, callback, label=label)

    def _prune(self) -> None:
        heap = self._heap
        while heap and heap[0][2]._dead:
            heapq.heappop(heap)

    def peek(self) -> EventHandle | None:
        """The earliest pending event, or None when empty."""
        self._prune()
        return self._heap[0][2] if self._heap else None

    def peek_time_s(self) -> float | None:
        """The earliest pending event's time, or None when empty."""
        self._prune()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> EventHandle | None:
        """Remove and return the earliest pending event (None when empty)."""
        self._prune()
        if not self._heap:
            return None
        handle = heapq.heappop(self._heap)[2]
        handle._dead = True  # fired: the handle can no longer be cancelled
        self._live -= 1
        return handle
class PeriodicEvent:
    """A self-rescheduling event (gmond polls, heartbeat timers).

    Each firing schedules the next occurrence *before* running the
    callback, so the callback may cancel the series from inside itself.
    """

    __slots__ = ("kernel", "period_s", "callback", "label", "active", "_handle")

    def __init__(
        self,
        kernel: "SimKernel",
        period_s: float,
        callback: Callable[[], object],
        first_at_s: float,
        label: str,
    ) -> None:
        if period_s <= 0:
            raise SimulationError(f"period must be positive, got {period_s}")
        self.kernel = kernel
        self.period_s = period_s
        self.callback = callback
        self.label = label
        self.active = True
        kernel._periodic_count += 1
        self._handle = kernel.at(first_at_s, self._fire, label=label)

    def _fire(self) -> None:
        if not self.active:
            return
        self._handle = self.kernel.at(
            self.kernel.now_s + self.period_s, self._fire, label=self.label
        )
        self.callback()

    def cancel(self) -> None:
        """Stop the series (idempotent)."""
        if not self.active:
            return
        self.active = False
        self.kernel._periodic_count -= 1
        if self._handle.active:
            self.kernel.queue.cancel(self._handle)


class SimKernel:
    """Clock + event queue + trace bus + seeded RNG, as one object."""

    def __init__(
        self,
        *,
        seed: int = 0,
        start_s: float = 0.0,
        trace: TraceBus | None = None,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = SimClock(start_s)
        self.queue = EventQueue()
        self.trace = trace if trace is not None else TraceBus()
        self.events_processed = 0
        self._timelines: dict[str, Timeline] = {}
        self._periodic_count = 0

    # -- time --------------------------------------------------------------------

    @property
    def now_s(self) -> float:
        """The current simulated time."""
        return self.clock.now_s

    @property
    def periodic_count(self) -> int:
        """Active periodic series (drivers use this to detect quiescence:
        once only periodic events remain, no one-shot work is pending)."""
        return self._periodic_count

    def timeline(self, name: str, *, start_s: float | None = None) -> Timeline:
        """Create and register a per-entity :class:`Timeline`.

        Names are made unique automatically (``name~2``, ``name~3``, ...)
        so several worlds can register rank timelines on one kernel.
        """
        unique = name
        serial = 1
        while unique in self._timelines:
            serial += 1
            unique = f"{name}~{serial}"
        timeline = Timeline(
            unique, start_s=self.now_s if start_s is None else start_s
        )
        self._timelines[unique] = timeline
        return timeline

    def timelines(self) -> list[Timeline]:
        """All registered timelines (registration order)."""
        return list(self._timelines.values())

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of kernel state (checkpoint participation).

        Event callbacks are closures and cannot leave the process; the
        queue is captured as its declarative ``(time, seq, label)`` shadow
        plus the next submission serial.  Together with the RNG state and
        clock this pins the kernel's behaviour exactly: a replayed run
        that reaches the same ``state_dict`` will fire the same events at
        the same times in the same order from here on.
        """
        rng_state = self.rng.getstate()
        return {
            "seed": self.seed,
            "now_s": self.now_s,
            "events_processed": self.events_processed,
            # random.Random.getstate() -> (version, tuple-of-ints, gauss);
            # listify for JSON round-tripping.
            "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
            "queue": {
                "next_seq": self.queue.next_seq,
                "entries": [list(e) for e in self.queue.snapshot_entries()],
            },
            "periodic_count": self._periodic_count,
            "timelines": {
                name: tl.now_s for name, tl in self._timelines.items()
            },
        }

    # -- scheduling --------------------------------------------------------------

    def at(
        self, time_s: float, callback: Callable[[], object], *, label: str = "event"
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute time (>= now)."""
        if time_s < self.now_s:
            raise SimulationError(
                f"cannot schedule {label!r} at {time_s} (now is {self.now_s})"
            )
        return self.queue.schedule(time_s, callback, label=label)

    def after(
        self, delay_s: float, callback: Callable[[], object], *, label: str = "event"
    ) -> EventHandle:
        """Schedule ``callback`` after a non-negative delay."""
        if delay_s < 0:
            raise SimulationError(f"negative delay {delay_s} for {label!r}")
        return self.queue.schedule(self.now_s + delay_s, callback, label=label)

    def every(
        self,
        period_s: float,
        callback: Callable[[], object],
        *,
        first_at_s: float | None = None,
        label: str = "periodic",
    ) -> PeriodicEvent:
        """Schedule a repeating event (first firing at ``now + period``
        unless ``first_at_s`` says otherwise)."""
        first = self.now_s + period_s if first_at_s is None else first_at_s
        return PeriodicEvent(self, period_s, callback, first, label)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event."""
        self.queue.cancel(handle)

    def reschedule(self, handle: EventHandle, time_s: float) -> EventHandle:
        """Move a pending event to a new time (>= now); returns the new
        handle — the API that replaces subsystem-private heap surgery."""
        if time_s < self.now_s:
            raise SimulationError(
                f"cannot reschedule {handle.label!r} to {time_s} "
                f"(now is {self.now_s})"
            )
        return self.queue.reschedule(handle, time_s)

    # -- execution ---------------------------------------------------------------

    def peek_time_s(self) -> float | None:
        """When the next event fires, or None when idle."""
        return self.queue.peek_time_s()

    def step(self) -> bool:
        """Fire the earliest pending event; returns False when idle."""
        handle = self.queue.pop()
        if handle is None:
            return False
        self.clock.advance_to(handle.time_s)
        self.events_processed += 1
        handle.callback()
        return True

    def run_until(self, time_s: float) -> int:
        """Fire every event due at or before ``time_s``, then land the
        clock there (or leave it later, if a callback spent past
        ``time_s``); returns the number of events fired.

        This is how a subsystem "spends" a modelled duration (a mirror
        sync, a file transfer) on the shared timeline: everything else
        scheduled inside the window gets its turn.
        """
        if time_s < self.now_s:
            raise SimulationError(
                f"run_until({time_s}) would move time backwards from {self.now_s}"
            )
        return self.run(until_s=time_s)

    def run(
        self, *, until_s: float | None = None, max_events: int | None = None
    ) -> int:
        """Drain the queue (bounded by ``until_s`` and/or ``max_events``).

        With a :class:`PeriodicEvent` registered the queue never empties —
        pass a bound, or drive the run from the subsystem side (the way
        :meth:`BaseScheduler.run_to_completion` does).
        """
        if until_s is None and max_events is None and self._periodic_count > 0:
            raise SimulationError(
                "run() needs until_s or max_events while periodic events "
                "are registered"
            )
        fired = 0
        while max_events is None or fired < max_events:
            head = self.queue.peek_time_s()
            if head is None:
                break
            if until_s is not None and head > until_s:
                break
            self.step()
            fired += 1
        if until_s is not None:
            self.clock.advance_to(max(self.now_s, until_s))
        return fired
