"""The discrete-event simulation kernel.

One :class:`SimKernel` owns the clock, the event queue, the trace bus, and
a seeded RNG — the four things every time-bearing subsystem used to carry
privately.  Subsystems schedule callbacks (:meth:`at` / :meth:`after` /
:meth:`every`), the kernel fires them in ``(time, submission)`` order, and
everything that happens is published on :attr:`trace`.

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
from typing import Callable

from ..errors import SimulationError
from .clock import SimClock, Timeline
from .events import EventHandle, EventQueue
from .trace import TraceBus

__all__ = ["SimKernel", "PeriodicEvent"]


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
