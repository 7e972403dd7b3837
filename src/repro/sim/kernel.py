"""The discrete-event simulation kernel.

One :class:`SimKernel` owns simulated time, the pending-event heap, the
trace bus, and a seeded RNG — the four things every time-bearing subsystem
used to carry privately.  Subsystems schedule callbacks (:meth:`at` /
:meth:`after` / :meth:`every`), the kernel fires them in ``(time,
submission)`` order, and everything that happens is published on
:attr:`trace`.

``now_s`` is a plain attribute that only :meth:`step` and :meth:`run`
move, and only forward.  The heap holds ``(time_s, seq, handle)`` tuples,
so sift comparisons run on C-level float/int pairs; ``seq`` is the
kernel's submission serial, the stable FIFO tie-break within an instant.
Cancellation is lazy: a cancelled handle stays in the heap and is skipped
when it reaches the top, and :meth:`cancel` compacts the heap once dead
entries outnumber live ones past a small floor, so cancel/reschedule churn
keeps the heap within a constant factor of the live event count.

Determinism contract: given the same seed and the same sequence of
schedule calls, two kernels fire the same events at the same times in the
same order and produce byte-identical JSONL traces.  The determinism gate
checks it by rerunning every flow under distinct hash seeds and comparing
bytes (docs/SIM.md).  simlint checks every path, also those no flow runs,
for wall-clock reads (SL101), process-global randomness (SL102),
environment reads (SL103) and same-time callbacks racing on shared state
(SL301) (docs/ANALYZE.md).
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Callable

from ..errors import SimulationError
from .clock import Timeline
from .trace import TraceBus

__all__ = ["EventHandle", "SimKernel", "PeriodicEvent"]

_INF = float("inf")

#: Dead heap entries tolerated before :meth:`SimKernel.cancel` compacts
#: (keeps tiny queues from compacting on every churn cycle).
_COMPACT_FLOOR = 64


class EventHandle:
    """One scheduled event, as :meth:`SimKernel.at` returns it."""

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.active else "dead"
        return f"EventHandle({self.label!r}, t={self.time_s}, seq={self.seq}, {state})"


def _gone(handle: EventHandle) -> SimulationError:
    return SimulationError(f"event {handle.label!r} already fired or was cancelled")


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
        if not 0 < period_s < _INF:
            raise SimulationError(
                f"period must be positive and finite, got {period_s}"
            )
        self.kernel = kernel
        self.period_s = period_s
        self.callback = callback
        self.label = label
        self.active = True
        self._handle = kernel.at(first_at_s, self._fire, label=label)
        # Counted only once the first firing is queued: a refused series
        # must not leave run() waiting for a bound.
        kernel._periodic_count += 1

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
            self.kernel.cancel(self._handle)


class SimKernel:
    """Simulated time + pending-event heap + trace bus + seeded RNG."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.trace = TraceBus()
        #: The current simulated time; only moves forward.
        self.now_s = 0.0
        self.events_processed = 0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._next_seq = 0
        self._live = 0
        self._timelines: dict[str, Timeline] = {}
        self._periodic_count = 0

    # -- time --------------------------------------------------------------------

    @property
    def periodic_count(self) -> int:
        """Active periodic series (drivers use this to detect quiescence:
        once only periodic events remain, no one-shot work is pending)."""
        return self._periodic_count

    @property
    def pending_count(self) -> int:
        """Pending (scheduled, not cancelled, not yet fired) events."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap entries, live + not-yet-dropped dead (leak probe)."""
        return len(self._heap)

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
        entries = sorted(
            (h.time_s, h.seq, h.label) for _, _, h in self._heap if not h._dead
        )
        return {
            "seed": self.seed,
            "now_s": self.now_s,
            "events_processed": self.events_processed,
            # random.Random.getstate() -> (version, tuple-of-ints, gauss);
            # listify for JSON round-tripping.
            "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
            "queue": {
                "next_seq": self._next_seq,
                "entries": [list(e) for e in entries],
            },
            "periodic_count": self._periodic_count,
            "timelines": {
                name: tl.now_s for name, tl in self._timelines.items()
            },
        }

    # -- scheduling --------------------------------------------------------------

    def _push(
        self, time_s: float, callback: Callable[[], object], label: str
    ) -> EventHandle:
        time_s = float(time_s)
        # One chained comparison rejects the past, NaN (every comparison
        # is false) and +inf.
        if not self.now_s <= time_s < _INF:
            raise SimulationError(
                f"cannot schedule {label!r} at {time_s} (now is {self.now_s})"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time_s, seq, callback, label)
        heappush(self._heap, (time_s, seq, handle))
        self._live += 1
        return handle

    def at(
        self, time_s: float, callback: Callable[[], object], *, label: str = "event"
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute, finite time (>= now)."""
        return self._push(time_s, callback, label)

    def after(
        self, delay_s: float, callback: Callable[[], object], *, label: str = "event"
    ) -> EventHandle:
        """Schedule ``callback`` after a non-negative, finite delay."""
        return self._push(self.now_s + delay_s, callback, label)

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
        """Cancel a pending event (lazy deletion)."""
        if handle._dead:
            raise _gone(handle)
        handle._dead = True
        self._live -= 1
        heap = self._heap
        dead = len(heap) - self._live
        if dead > _COMPACT_FLOOR and dead > self._live:
            # In place: a run() loop further up the stack holds this list.
            heap[:] = [entry for entry in heap if not entry[2]._dead]
            heapify(heap)

    def reschedule(self, handle: EventHandle, time_s: float) -> EventHandle:
        """Move a pending event to a new time (>= now); returns the new
        handle.

        The event re-enters the queue as if newly submitted (it takes a
        fresh serial, so it fires after events already scheduled for the
        same instant) — the API that replaces subsystem-private heap
        surgery.  A refused time leaves the old handle pending.
        """
        if handle._dead:
            raise _gone(handle)
        moved = self._push(time_s, handle.callback, handle.label)
        self.cancel(handle)
        return moved

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Fire the earliest pending event; returns False when idle (and
        then the heap holds no dead entries either)."""
        heap = self._heap
        while heap:
            time_s, _, handle = heappop(heap)
            if handle._dead:
                continue
            handle._dead = True  # fired: the handle can no longer be cancelled
            self._live -= 1
            self.now_s = time_s
            self.events_processed += 1
            handle.callback()
            return True
        return False

    def run_until(self, time_s: float) -> int:
        """Fire every event due at or before ``time_s``, then land the
        clock there (or leave it later, if a callback spent past
        ``time_s``); returns the number of events fired.

        This is how a subsystem "spends" a modelled duration (a mirror
        sync, a file transfer) on the shared timeline: everything else
        scheduled inside the window gets its turn.
        """
        return self.run(until_s=time_s)

    def run(self, *, until_s: float | None = None) -> int:
        """Fire events until the queue is empty or, given ``until_s``
        (finite, not in the past), until the next one is later than it.

        With a :class:`PeriodicEvent` registered the queue never empties —
        pass a bound, or drive the run from the subsystem side (the way
        :meth:`BaseScheduler.run_to_completion` does).
        """
        if until_s is None:
            if self._periodic_count > 0:
                raise SimulationError(
                    "run() needs until_s while periodic events are registered"
                )
            bound = _INF
        elif self.now_s <= until_s < _INF:
            bound = until_s
        else:
            raise SimulationError(
                f"cannot run until {until_s} (now is {self.now_s})"
            )
        fired = 0
        heap = self._heap
        while heap:
            time_s, _, handle = heap[0]
            if handle._dead:
                heappop(heap)
            elif time_s > bound:
                break
            else:
                self.step()
                fired += 1
        if until_s is not None and self.now_s < until_s:
            self.now_s = float(until_s)
        return fired
