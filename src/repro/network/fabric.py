"""Links, switches, and the cluster fabric cost model.

Both paper machines interconnect over gigabit Ethernet through a single
switch; campus deployments may add more switch tiers.  The fabric answers
two questions:

* topology — which hosts can reach which (Rocks' insert-ethers discovers
  compute nodes on the frontend's private segment);
* cost — point-to-point latency/bandwidth between any two endpoints, used
  by the simulated-MPI layer and hence by the HPL efficiency model.

The model is the classic alpha-beta (latency + size/bandwidth) with one
alpha per switch hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetworkError
from ..hardware.nic import NicModel

__all__ = ["Endpoint", "Switch", "Fabric", "PathCost"]

#: Ethernet + IP + TCP framing overhead applied to NIC line rate.
PROTOCOL_EFFICIENCY = 0.94


@dataclass(frozen=True)
class Endpoint:
    """One NIC of one named host attached to the fabric."""

    host: str
    nic: NicModel
    interface: str = "eth0"

    @property
    def key(self) -> tuple[str, str]:
        return (self.host, self.interface)


@dataclass
class Switch:
    """A store-and-forward switch."""

    name: str
    ports: int
    latency_us: float = 5.0
    _attached: list[Endpoint] = field(default_factory=list)

    def attach(self, endpoint: Endpoint) -> None:
        if len(self._attached) >= self.ports:
            raise NetworkError(f"switch {self.name}: all {self.ports} ports in use")
        if any(e.key == endpoint.key for e in self._attached):
            raise NetworkError(
                f"switch {self.name}: {endpoint.host}/{endpoint.interface} "
                f"already attached"
            )
        self._attached.append(endpoint)

    def attached_hosts(self) -> list[str]:
        return sorted({e.host for e in self._attached})

    def endpoint_for(self, host: str) -> Endpoint | None:
        for e in self._attached:
            if e.host == host:
                return e
        return None


@dataclass(frozen=True)
class PathCost:
    """Cost of moving a message between two endpoints."""

    latency_s: float
    bandwidth_bytes_s: float
    hops: int

    def transfer_time_s(self, nbytes: int) -> float:
        """alpha + n*beta for one message of ``nbytes``."""
        if nbytes < 0:
            raise NetworkError(f"negative message size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_s


class Fabric:
    """A set of switches plus inter-switch uplinks.

    Hosts attach to switches; uplinks connect switches.  Paths are resolved
    by BFS over the switch graph (the fabrics modelled here are small).
    """

    def __init__(self) -> None:
        self._switches: dict[str, Switch] = {}
        self._uplinks: dict[str, set[str]] = {}

    def add_switch(self, switch: Switch) -> Switch:
        if switch.name in self._switches:
            raise NetworkError(f"duplicate switch {switch.name}")
        self._switches[switch.name] = switch
        self._uplinks[switch.name] = set()
        return switch

    def connect_switches(self, a: str, b: str) -> None:
        """Add a bidirectional uplink between two switches."""
        if a not in self._switches or b not in self._switches:
            raise NetworkError(f"unknown switch in uplink {a}<->{b}")
        if a == b:
            raise NetworkError("cannot uplink a switch to itself")
        self._uplinks[a].add(b)
        self._uplinks[b].add(a)

    def attach(self, switch_name: str, endpoint: Endpoint) -> None:
        """Attach a host NIC to a switch port."""
        switch = self._switches.get(switch_name)
        if switch is None:
            raise NetworkError(f"unknown switch {switch_name}")
        switch.attach(endpoint)

    def switch_names(self) -> list[str]:
        """Names of every switch in the fabric."""
        return sorted(self._switches)

    def get_switch(self, name: str) -> Switch:
        """Fetch a switch by name."""
        try:
            return self._switches[name]
        except KeyError:
            raise NetworkError(f"unknown switch {name}") from None

    def hosts(self) -> list[str]:
        """Every attached host name."""
        names: set[str] = set()
        for switch in self._switches.values():
            names.update(switch.attached_hosts())
        return sorted(names)

    def _locate_all(self, host: str) -> list[tuple[Switch, Endpoint]]:
        """All (switch, endpoint) attachments of a host (dual-homed hosts
        have several; path selection picks the cheapest reachable one)."""
        found = []
        for name in sorted(self._switches):
            switch = self._switches[name]
            ep = switch.endpoint_for(host)
            if ep is not None:
                found.append((switch, ep))
        if not found:
            raise NetworkError(f"host {host} is not attached to the fabric")
        return found

    def _switch_path(self, start: str, goal: str) -> list[str]:
        """BFS shortest switch path (list of switch names, inclusive)."""
        if start == goal:
            return [start]
        frontier = [[start]]
        visited = {start}
        while frontier:
            path = frontier.pop(0)
            for neighbour in sorted(self._uplinks[path[-1]]):
                if neighbour in visited:
                    continue
                if neighbour == goal:
                    return path + [neighbour]
                visited.add(neighbour)
                frontier.append(path + [neighbour])
        raise NetworkError(f"no path between switches {start} and {goal}")

    def path_cost(self, src_host: str, dst_host: str) -> PathCost:
        """Latency/bandwidth between two hosts.

        Latency: NIC latencies at both ends plus one switch latency per
        switch on the path.  Bandwidth: the minimum NIC line rate times the
        protocol efficiency (uplinks are assumed at least as fast as edges).
        """
        if src_host == dst_host:
            # loopback: fast, but not free (model memcpy through the stack)
            return PathCost(latency_s=1e-6, bandwidth_bytes_s=5e9, hops=0)
        best: PathCost | None = None
        for src_switch, src_ep in self._locate_all(src_host):
            for dst_switch, dst_ep in self._locate_all(dst_host):
                try:
                    switch_path = self._switch_path(src_switch.name, dst_switch.name)
                except NetworkError:
                    continue
                latency_us = src_ep.nic.latency_us + dst_ep.nic.latency_us
                latency_us += sum(self._switches[s].latency_us for s in switch_path)
                bandwidth = (
                    min(src_ep.nic.bandwidth_bytes_s, dst_ep.nic.bandwidth_bytes_s)
                    * PROTOCOL_EFFICIENCY
                )
                cost = PathCost(
                    latency_s=latency_us * 1e-6,
                    bandwidth_bytes_s=bandwidth,
                    hops=len(switch_path),
                )
                if best is None or cost.latency_s < best.latency_s:
                    best = cost
        if best is None:
            raise NetworkError(f"no path between {src_host} and {dst_host}")
        return best

