"""DHCP on the cluster's private segment.

Rocks' frontend runs dhcpd on the private interface; insert-ethers watches
the DHCP log for unknown MACs and registers them as compute nodes.  The
server hands out deterministic leases from a pool (Rocks uses 10.x space;
we default to ``10.1.1.0/24`` style addressing).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DhcpError

__all__ = ["DhcpLease", "DhcpPlan", "DhcpServer"]


@dataclass(frozen=True)
class DhcpLease:
    """One MAC -> IP binding."""

    mac: str
    ip: str
    hostname: str = ""


@dataclass(frozen=True)
class DhcpPlan:
    """The declarative shape of a private-segment DHCP pool.

    Unlike :class:`DhcpServer` (which refuses to start on a bad pool), a
    plan is pure data and never raises — so the pre-flight analyzer can lint
    an invalid range instead of crashing on it.
    """

    network_prefix: str = "10.1.1"
    pool_start: int = 10
    pool_end: int = 254

    @property
    def server_ip(self) -> str:
        """The frontend's own address on the segment (always ``.1``)."""
        return f"{self.network_prefix}.1"

    @property
    def is_valid(self) -> bool:
        """The pool rule :class:`DhcpServer` enforces and NET404 reports."""
        return 0 < self.pool_start <= self.pool_end <= 254

    @property
    def capacity(self) -> int:
        """Number of dynamic leases the pool can hand out."""
        if not self.is_valid:
            return 0
        return self.pool_end - self.pool_start + 1

    def covers_host(self, last_octet: int) -> bool:
        """True if the dynamic pool includes ``prefix.last_octet``."""
        return self.pool_start <= last_octet <= self.pool_end


class DhcpServer:
    """The frontend's DHCP daemon on the private segment.

    One subnet (the default) allocates ``prefix.pool_start`` through
    ``prefix.pool_end`` — at most 245 leases with the defaults, which caps
    the fleet well short of 10k nodes.  ``subnets > 1`` widens the pool
    across consecutive third octets (``10.1.1.x``, ``10.1.2.x``, ...), the
    way a real frontend adds dhcpd subnet declarations per rack segment;
    allocation order stays deterministic (fill one subnet, roll to the
    next).
    """

    def __init__(
        self,
        *,
        network_prefix: str = "10.1.1",
        pool_start: int = 10,
        pool_end: int = 254,
        subnets: int = 1,
    ):
        if not DhcpPlan(network_prefix, pool_start, pool_end).is_valid:
            raise DhcpError(
                f"invalid pool {pool_start}..{pool_end} (must be within 1..254)"
            )
        if subnets < 1:
            raise DhcpError(f"subnet count must be positive, got {subnets}")
        self.network_prefix = network_prefix
        self.pool_start = pool_start
        self.pool_end = pool_end
        self.subnets = subnets
        self._by_mac: dict[str, DhcpLease] = {}
        self._next = pool_start
        self._subnet = 0
        #: every DISCOVER seen, known or not (insert-ethers tails this)
        self.request_log: list[str] = []

    @property
    def server_ip(self) -> str:
        """The frontend's own address on the segment."""
        return f"{self.network_prefix}.1"

    def _prefix_for(self, subnet: int) -> str:
        """The /24 prefix of one subnet (subnet 0 is ``network_prefix``)."""
        if subnet == 0:
            return self.network_prefix
        head, _, third = self.network_prefix.rpartition(".")
        return f"{head}.{int(third) + subnet}"

    def offer(self, mac: str, *, hostname: str = "") -> DhcpLease:
        """Handle a DISCOVER: return the existing lease or allocate one."""
        if not mac:
            raise DhcpError("empty MAC address")
        self.request_log.append(mac)
        existing = self._by_mac.get(mac)
        if existing is not None:
            return existing
        if self._next > self.pool_end:
            if self._subnet + 1 < self.subnets:
                self._subnet += 1
                self._next = self.pool_start
            else:
                suffix = (
                    f" (and {self.subnets - 1} overflow subnet(s))"
                    if self.subnets > 1
                    else ""
                )
                raise DhcpError(
                    f"address pool {self.network_prefix}.{self.pool_start}-"
                    f"{self.pool_end}{suffix} exhausted"
                )
        lease = DhcpLease(
            mac=mac,
            ip=f"{self._prefix_for(self._subnet)}.{self._next}",
            hostname=hostname,
        )
        self._next += 1
        self._by_mac[mac] = lease
        return lease

    def offer_batch(
        self, macs: list[str], *, hostnames: list[str] | None = None
    ) -> list[DhcpLease]:
        """Handle a burst of DISCOVERs in order (one install wave booting).

        ``hostnames``, when given, pairs with ``macs`` positionally.
        """
        if hostnames is not None and len(hostnames) != len(macs):
            raise DhcpError(
                f"{len(macs)} MAC(s) but {len(hostnames)} hostname(s)"
            )
        return [
            self.offer(mac, hostname=hostnames[i] if hostnames else "")
            for i, mac in enumerate(macs)
        ]

    def lease_for(self, mac: str) -> DhcpLease:
        """Look up an existing lease."""
        try:
            return self._by_mac[mac]
        except KeyError:
            raise DhcpError(
                f"no lease for MAC {mac} "
                f"({len(self._by_mac)} active lease(s) on this segment)"
            ) from None

    def leases(self) -> list[DhcpLease]:
        """All active leases sorted by IP."""
        return sorted(self._by_mac.values(), key=lambda l: [int(x) for x in l.ip.split(".")])
