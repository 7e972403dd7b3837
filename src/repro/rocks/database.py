"""The Rocks cluster database.

"Using an internal database, Rocks can manage many compute nodes" (Section
3).  The database tracks every appliance: name, MAC, IP, appliance type,
rack/rank position, and install state — the table ``rocks list host`` shows.

Storage is a columnar :class:`~repro.fleet.FleetTable` (ROADMAP item 1:
10k+ node fleets stop being viable with one Python object per row).
:class:`~repro.fleet.FleetRow` is the node record: ``add_host`` and every
lookup return proxies that are *live* — two lookups of one host return the
same proxy, and mutations land in the table columns the installer,
scheduler, and monitors read directly.
``compute-<rack>-<rank>`` naming is O(1) via an incremental per-rack
high-water mark instead of a full-table scan per discovery.
"""

from __future__ import annotations

from enum import Enum

from ..errors import RocksError
from ..fleet import FleetRow, FleetTable

__all__ = ["InstallState", "RocksDatabase"]


class InstallState(str, Enum):
    """Rocks' view of an appliance's lifecycle."""

    DISCOVERED = "discovered"   # seen by insert-ethers, not yet installed
    INSTALLING = "installing"   # kickstart in progress
    INSTALLED = "os-installed"  # ready for jobs
    FAILED = "install-failed"   # kickstart crashed; node needs attention


class RocksDatabase:
    """The frontend's cluster database (columnar)."""

    def __init__(self, fleet: FleetTable | None = None) -> None:
        #: the cluster's one fleet table; share it with the scheduler
        #: (``ClusterResources.from_fleet``) and the monitoring tree
        #: (``FleetRack``) so all layers read the same columns.
        self.fleet = (
            fleet
            if fleet is not None
            else FleetTable(state_values=tuple(InstallState))
        )
        #: rack -> highest compute rank registered (the next_compute_name
        #: fast path); racks land in ``_stale_racks`` on removal and are
        #: recomputed lazily, preserving the max+1 reuse semantics.
        self._max_rank: dict[int, int] = {}
        self._stale_racks: set[int] = set()

    def add_host(
        self,
        *,
        name: str,
        mac: str,
        ip: str,
        appliance: str,  # "frontend" | "compute"
        rack: int,
        rank: int,
        state: InstallState = InstallState.DISCOVERED,
    ) -> FleetRow:
        """Register an appliance (name and MAC must both be new).

        Returns the live row proxy for the new appliance.
        """
        if self.fleet.has(name):
            raise RocksError(f"host {name} already in database")
        if mac and self.fleet.has_mac(mac):
            raise RocksError(f"MAC {mac} already in database")
        row = self.fleet.add_row(
            name=name,
            mac=mac,
            ip=ip,
            appliance=appliance,
            rack=rack,
            rank=rank,
            state=state,
        )
        if appliance == "compute" and rack not in self._stale_racks:
            current = self._max_rank.get(rack)
            if current is None or rank > current:
                self._max_rank[rack] = rank
        return row

    def remove_host(self, name: str) -> None:
        """rocks remove host."""
        record = self.get(name)
        rack = record.rack
        was_compute = record.appliance == "compute"
        self.fleet.remove(name)
        if was_compute:
            self._stale_racks.add(rack)

    def get(self, name: str) -> FleetRow:
        if not self.fleet.has(name):
            raise RocksError(f"no host {name} in database")
        return self.fleet.by_name(name)

    def by_mac(self, mac: str) -> FleetRow:
        if not self.fleet.has_mac(mac):
            raise RocksError(f"no host with MAC {mac} in database")
        return self.fleet.by_mac(mac)

    def has_mac(self, mac: str) -> bool:
        return self.fleet.has_mac(mac)

    def hosts(self) -> list[FleetRow]:
        """All records, frontend first then compute by (rack, rank)."""
        return self.fleet.rows()

    def compute_hosts(self) -> list[FleetRow]:
        fleet = self.fleet
        return [fleet.row(i) for i in fleet.compute_indices()]

    def known_macs(self) -> set[str]:
        return self.fleet.known_macs()

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the hosts table (checkpointing)."""
        return {
            "hosts": [
                {
                    "name": r.name,
                    "mac": r.mac,
                    "ip": r.ip,
                    "appliance": r.appliance,
                    "rack": r.rack,
                    "rank": r.rank,
                    "state": r.state.value,
                }
                for r in self.hosts()
            ]
        }

    def next_compute_name(self, rack: int) -> str:
        """The compute-<rack>-<rank> naming Rocks uses (max rank + 1)."""
        if rack in self._stale_racks:
            fleet = self.fleet
            ranks = [
                fleet.ranks[i]
                for i in fleet.compute_indices()
                if fleet.racks[i] == rack
            ]
            if ranks:
                self._max_rank[rack] = max(ranks)
            else:
                self._max_rank.pop(rack, None)
            self._stale_racks.discard(rack)
        if rack in self._max_rank:
            rank = self._max_rank[rack] + 1
        else:
            rank = 0
        return f"compute-{rack}-{rank}"
