"""insert-ethers: Rocks' node-discovery tool.

The administrator runs ``insert-ethers`` on the frontend, powers compute
nodes on, and each unknown MAC seen by dhcpd gets registered as the next
``compute-<rack>-<rank>`` appliance and handed the install image.  This
module reproduces that loop against the simulated DHCP/PXE services.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RocksError
from ..network.dhcp import DhcpServer
from ..network.pxe import PxeServer
from .database import InstallState, RocksDatabase

__all__ = ["InsertEthers"]


@dataclass
class InsertEthers:
    """The discovery session.

    Parameters mirror the real tool: the appliance type being inserted
    (compute by default) and the rack the nodes are in.
    """

    db: RocksDatabase
    dhcp: DhcpServer
    pxe: PxeServer
    rack: int = 0
    appliance: str = "compute"
    #: live :class:`~repro.fleet.FleetRow` proxies, in discovery order
    discovered: list = field(default_factory=list)

    def _register(self, mac: str, ip: str):
        """Write one discovered MAC's database row; returns the live row."""
        name = self.db.next_compute_name(self.rack)
        rank = int(name.rsplit("-", 1)[1])
        row = self.db.add_host(
            name=name,
            mac=mac,
            ip=ip,
            appliance=self.appliance,
            rack=self.rack,
            rank=rank,
            state=InstallState.DISCOVERED,
        )
        self.discovered.append(row)
        return row

    def discover_boot(self, mac: str):
        """Drive one node's full discovery: a wave of one."""
        return self.discover_wave([mac])[0]

    def discover_wave(self, macs: list[str]) -> list:
        """Drive one install wave's discovery: boot and register a batch.

        PXE-boots the MACs in order, then registers each directly from its
        lease (no DHCP-log scan; :meth:`poll` is the log-tailing form), so
        names are assigned in the order given.  Raises :class:`RocksError`
        if a MAC is already known (re-running insert-ethers against an
        installed node is an operator error the real tool also refuses).
        """
        for mac in macs:
            if self.db.has_mac(mac):
                raise RocksError(f"MAC {mac} is already registered")
        self.pxe.boot_batch(macs)
        rows = []
        for mac in macs:
            # The PXE handshake already allocated this MAC's lease.
            lease = self.dhcp.lease_for(mac)
            rows.append(self._register(mac, lease.ip))
        return rows
