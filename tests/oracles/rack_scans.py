"""A rack leaf that rescans its rows every cycle, kept as a reference oracle.

``FleetRack`` rescans only when the fleet table's change feed names one of
its rows or a heartbeat counter is mid-count.  :class:`RescanRack` is the
same summary with that fast path off, so its answers cannot depend on what
the feed reported; ``tests/test_fleet_feed.py`` asserts the two agree every
cycle.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fleet import FleetTable
from repro.monitoring.hierarchy import ClusterSummary, _count_miss

__all__ = ["RescanRack"]


class RescanRack:
    """``FleetRack.sample`` without the fast path."""

    def __init__(
        self, fleet: FleetTable, indices: list[int], *, dead_after_misses: int = 3
    ) -> None:
        self.fleet = fleet
        self.indices = list(indices)
        self.dead_after_misses = dead_after_misses
        self._missed: dict[int, int] = {}
        self._dead: set[int] = set()
        self._last: ClusterSummary | None = None

    def dead_hosts(self) -> list[str]:
        return sorted(self.fleet.names[i] for i in self._dead)

    def sample(self, timestamp_s: float, trace) -> tuple[ClusterSummary, bool]:
        fleet = self.fleet
        up = 0
        total = 0
        cores = 0
        load = 0.0
        mem_total = 0.0
        mem_free = 0.0
        for i in self.indices:
            if not fleet.alive[i]:
                continue
            total += 1
            if not fleet.responsive[i]:
                _count_miss(
                    self._missed, self._dead, i, fleet.names[i],
                    self.dead_after_misses, timestamp_s, trace,
                )
                continue
            self._missed[i] = 0
            self._dead.discard(i)
            if fleet.powered[i]:
                up += 1
                c = fleet.cores[i]
                busy = fleet.load[i]
                cores += c
                load += busy
                mt = fleet.mem_kb[i]
                mem_total += mt
                mem_free += mt * max(0.1, 1.0 - 0.8 * busy / max(c, 1))
        summary = ClusterSummary(
            timestamp_s=timestamp_s,
            hosts_total=total,
            hosts_up=up,
            total_cores=cores,
            load_total=load,
            mem_total_kb=mem_total,
            mem_free_kb=mem_free,
            failed_services=0,
            hosts_dead=len(self._dead),
        )
        last = self._last
        changed = last is None or replace(last, timestamp_s=timestamp_s) != summary
        self._last = summary
        return summary, changed
