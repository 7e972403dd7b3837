"""Round-robin archives: Ganglia's fixed-size metric history.

An :class:`Rrd` stores the last N samples of one metric at a fixed step,
consolidating (averaging) finer samples into each slot — constant storage
regardless of how long the cluster runs, which is the whole point of RRD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import MonitoringError

__all__ = ["Rrd", "RrdPoint"]


@dataclass(frozen=True)
class RrdPoint:
    """One consolidated slot."""

    slot_start_s: float
    value: float
    samples: int


class Rrd:
    """One metric's ring buffer.

    ``step_s`` is the slot width; ``slots`` the ring size.  Samples may
    arrive slightly late as long as they land in the current slot (rrdtool
    tolerates sub-step jitter the same way): a late same-slot sample
    *overwrites* the slot — last write wins.  A sample from an already
    closed slot is out of order and rejected.  Querying returns
    consolidated points, oldest first.
    """

    def __init__(self, *, step_s: float = 15.0, slots: int = 240) -> None:
        if not (math.isfinite(step_s) and step_s > 0
                and isinstance(slots, int) and slots > 0):
            raise MonitoringError("step must be finite and positive, slots a positive int")
        self.step_s = step_s
        self.slots = slots
        self._ring: list[tuple[int, float, int] | None] = [None] * slots
        self._last_time: float = -math.inf

    def _slot_index(self, timestamp_s: float) -> int:
        return int(timestamp_s // self.step_s)

    def update(self, timestamp_s: float, value: float) -> None:
        """Record one sample, consolidating into its slot by averaging.

        A sample timestamped earlier than the last one is accepted if it
        still falls in the current slot (it overwrites the slot — last
        write wins, matching rrdtool's tolerance for sub-step jitter);
        one from an earlier slot is rejected as out of order.
        """
        if not math.isfinite(timestamp_s):
            raise MonitoringError(f"timestamp {timestamp_s} is not finite")
        absolute = self._slot_index(timestamp_s)
        late = timestamp_s < self._last_time
        if late and absolute < self._slot_index(self._last_time):
            raise MonitoringError(
                f"out-of-order sample: {timestamp_s} after {self._last_time}"
            )
        self._last_time = max(self._last_time, timestamp_s)
        position = absolute % self.slots
        held = self._ring[position]
        if not late and held is not None and held[0] == absolute:
            _abs, total, count = held
            self._ring[position] = (absolute, total + value, count + 1)
        else:
            self._ring[position] = (absolute, value, 1)

    def series(self) -> list[RrdPoint]:
        """Consolidated points currently held, oldest first."""
        points = [
            RrdPoint(
                slot_start_s=absolute * self.step_s,
                value=total / count,
                samples=count,
            )
            for entry in self._ring
            if entry is not None
            for absolute, total, count in [entry]
        ]
        return sorted(points, key=lambda p: p.slot_start_s)

    def latest(self) -> RrdPoint | None:
        """The most recent consolidated point, or None when empty."""
        series = self.series()
        return series[-1] if series else None

    def __len__(self) -> int:
        return sum(1 for entry in self._ring if entry is not None)

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the ring (checkpoint participation).

        ``last_time`` uses None for the never-updated sentinel (-inf is
        not representable in strict JSON).
        """
        return {
            "step_s": self.step_s,
            "slots": self.slots,
            "ring": [list(e) if e is not None else None for e in self._ring],
            "last_time": None if math.isinf(self._last_time) else self._last_time,
        }
