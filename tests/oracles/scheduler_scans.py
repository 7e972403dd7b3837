"""Column-scan ``ClusterResources`` queries, kept as reference oracles.

``ClusterResources`` keeps its answers current from the fleet table's
change feed (``FleetTable.watch``).  Before that, every query gathered whole
flag columns over the view (``_mask``) and every allocation sorted all free
nodes by ``(-free, name)``.  Those bodies live here (``self`` is the
resources view) with one change: a removed (tombstoned) row counts toward
no total and is never allocated — the fix the feed brought, since
``remove`` now reaches the view.  ``tests/test_fleet_feed.py`` asserts the
incremental answers equal these after every step.
"""

from __future__ import annotations

from repro.scheduler import ClusterResources

__all__ = [
    "scan_try_allocate",
    "scan_free_cores",
    "scan_usable_cores",
    "scan_draining_nodes",
    "scan_failed_nodes",
]


def _mask(self: ClusterResources, column: str) -> list[bool]:
    """One flag column gathered over this view's positions."""
    col = getattr(self._fleet, column)
    return [bool(col[i]) for i in self._fidx]


def scan_free_cores(self: ClusterResources) -> int:
    off = _mask(self, "offline")
    live = _mask(self, "alive")
    return sum(c for p, c in enumerate(self._freev) if live[p] and not off[p])


def scan_usable_cores(self: ClusterResources) -> int:
    bad_f = _mask(self, "failed")
    bad_d = _mask(self, "draining")
    live = _mask(self, "alive")
    return sum(
        c
        for p, c in enumerate(self._capv)
        if live[p] and not bad_f[p] and not bad_d[p]
    )


def scan_failed_nodes(self: ClusterResources) -> list[str]:
    mask = _mask(self, "failed")
    live = _mask(self, "alive")
    return [n for p, n in enumerate(self._names) if live[p] and mask[p]]


def scan_draining_nodes(self: ClusterResources) -> list[str]:
    mask = _mask(self, "draining")
    live = _mask(self, "alive")
    return [n for p, n in enumerate(self._names) if live[p] and mask[p]]


def scan_try_allocate(
    self: ClusterResources, cores: int
) -> tuple[tuple[str, int], ...] | None:
    """The first-fit-decreasing choice ``try_allocate`` makes, as
    ``Allocation.by_node``, or None; chooses only, allocates nothing."""
    free = self._freev
    off = _mask(self, "offline")
    drain = _mask(self, "draining")
    live = _mask(self, "alive")
    candidates = sorted(
        (
            p
            for p in range(len(self._names))
            if live[p] and not off[p] and not drain[p] and free[p] > 0
        ),
        key=lambda p: (-free[p], self._names[p]),
    )
    chunks: list[tuple[str, int]] = []
    remaining = cores
    for pos in candidates:
        take = min(free[pos], remaining)
        chunks.append((self._names[pos], take))
        remaining -= take
        if remaining == 0:
            break
    if remaining > 0:
        return None
    return tuple(chunks)

