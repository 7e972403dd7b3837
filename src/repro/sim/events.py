"""The event queue: a stable priority queue over simulated time.

Ordering is ``(time_s, seq)`` where ``seq`` is a per-queue submission
serial — events scheduled for the same instant fire in submission order
(stable FIFO tie-break), which is what makes whole-simulation runs
deterministic and traces byte-identical across runs.

The heap stores plain ``(time_s, seq, handle)`` tuples, so sift
comparisons run on C-level float/int pairs instead of calling back into
``EventHandle.__lt__`` — the single hottest line of the kernel before the
perf overhaul (see docs/PERF.md).

Cancellation is lazy: a cancelled handle stays in the heap and is skipped
at pop time, the standard O(log n) trick that avoids heap surgery.
:meth:`EventQueue.reschedule` is the first-class replacement for the "pull
the tuple out and heapify" pattern this module retired.

Lazy deletion must not turn into a leak: schedule/reschedule purge dead
entries that have reached the heap top, and once dead entries outnumber
live ones (past a small floor) the heap is compacted in O(n) — so heavy
cancel/reschedule churn (the fault injector's access pattern) keeps the
heap within a constant factor of the live event count.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..errors import SimulationError

__all__ = ["EventHandle", "EventQueue"]

_INF = float("inf")


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
