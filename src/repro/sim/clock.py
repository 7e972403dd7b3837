"""Per-entity timelines on the kernel's time base.

The kernel's own ``now_s`` is the single source of "now" for one
simulation.  A :class:`Timeline` is a named per-entity clock (an MPI rank,
a DMA engine) that shares the kernel's time base but may run ahead of the
global clock — the standard way discrete-event simulators model concurrent
actors whose local progress is reconciled at synchronisation points.
"""

from __future__ import annotations

import math

from ..errors import SimulationError

__all__ = ["Timeline"]


def _check_time(time_s: float) -> float:
    time_s = float(time_s)
    if math.isnan(time_s):
        raise SimulationError("time is NaN")
    return time_s


class Timeline:
    """A named per-entity clock on the kernel's time base.

    Timelines are created with :meth:`SimKernel.timeline` so the kernel
    knows every clock in the simulation.  They are monotonic like the
    kernel clock, with one documented exception: :meth:`reset` starts a
    new epoch (used between benchmark phases that reuse one entity).
    """

    __slots__ = ("name", "_now_s")

    def __init__(self, name: str, *, start_s: float = 0.0) -> None:
        self.name = name
        self._now_s = _check_time(start_s)

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance(self, seconds: float) -> float:
        """Advance by a non-negative duration (local work, a transfer)."""
        seconds = _check_time(seconds)
        if seconds < 0:
            raise SimulationError(
                f"timeline {self.name}: cannot advance by {seconds}"
            )
        self._now_s += seconds
        return self._now_s

    def advance_to(self, time_s: float) -> float:
        """Advance to an absolute time (equal is a no-op)."""
        time_s = _check_time(time_s)
        if time_s < self._now_s:
            raise SimulationError(
                f"timeline {self.name}: time went backwards "
                f"(advance_to({time_s}) at t={self._now_s})"
            )
        self._now_s = time_s
        return self._now_s

    def meet(self, time_s: float) -> float:
        """Advance to at least ``time_s`` (no-op if already past it).

        The receive-side clock rule: completion happens at
        ``max(local clock, event time)``.
        """
        time_s = _check_time(time_s)
        if time_s > self._now_s:
            self._now_s = time_s
        return self._now_s

    def reset(self, start_s: float = 0.0) -> None:
        """Start a new epoch at ``start_s`` (between benchmark phases)."""
        self._now_s = _check_time(start_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline({self.name!r}, now_s={self._now_s})"
