"""Topology builders: the standard cluster network shapes.

The canonical paper topology is a dual-homed head node (Section 5.1): eth0
on the campus/public network, eth1 on the private cluster segment with every
compute node behind one switch.  :func:`build_cluster_network` wires a
:class:`~repro.hardware.chassis.Machine` that way and returns the pieces the
provisioner needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NetworkError
from ..hardware.chassis import Machine
from .dhcp import DhcpServer
from .fabric import Endpoint, Fabric, Switch

__all__ = ["ClusterNetwork", "build_cluster_network"]

#: Ports on every switch the builder places (a 24-port edge switch).
SWITCH_PORTS = 24
#: Per-hop latency of those switches, in microseconds.
SWITCH_LATENCY_US = 5.0


@dataclass
class ClusterNetwork:
    """A wired cluster: fabric + the frontend's DHCP on the private side."""

    fabric: Fabric
    private_switch: Switch
    public_switch: Switch
    dhcp: DhcpServer
    machine: Machine

    def private_hosts(self) -> list[str]:
        """Hosts on the cluster segment (everything, incl. the frontend).

        With a leaf/spine private side, hosts sit on the leaves; gather from
        every private-side switch.
        """
        names: set[str] = set()
        for switch_name in self.fabric.switch_names():
            if switch_name.startswith("private"):
                names.update(self.fabric.get_switch(switch_name).attached_hosts())
        return sorted(names)


def build_cluster_network(machine: Machine) -> ClusterNetwork:
    """Wire a machine into the standard dual-homed topology.

    The frontend's first NIC goes to the public switch, its second to the
    private side; every compute node's first NIC goes to the private side
    ("only one of the two network interfaces will be used on compute
    nodes", Section 5.1).  A frontend with fewer than two NICs is rejected.

    Small clusters fit behind one private switch.  When the node count
    exceeds one switch's :data:`SWITCH_PORTS`, the private side becomes a
    leaf/spine: leaf switches hold the nodes (one uplink port reserved per
    leaf) and a spine joins them — campus-scale sites like Kansas's 220
    nodes wire this way.
    """
    head = machine.head
    if len(head.nics) < 2:
        raise NetworkError(
            f"{head.name}: dual-homed frontend needs 2 NICs, has {len(head.nics)}"
        )
    fabric = Fabric()
    public = fabric.add_switch(
        Switch("public", ports=SWITCH_PORTS, latency_us=SWITCH_LATENCY_US)
    )
    fabric.attach("public", Endpoint(head.name, head.nics[0], "eth0"))

    endpoints_needed = 1 + len(machine.compute_nodes)  # head eth1 + computes
    if endpoints_needed <= SWITCH_PORTS:
        private = fabric.add_switch(
            Switch("private", ports=SWITCH_PORTS, latency_us=SWITCH_LATENCY_US)
        )
        fabric.attach("private", Endpoint(head.name, head.nics[1], "eth1"))
        for node in machine.compute_nodes:
            fabric.attach("private", Endpoint(node.name, node.nics[0], "eth0"))
    else:
        per_leaf = SWITCH_PORTS - 1  # one port per leaf reserved for uplink
        leaf_count = -(-endpoints_needed // per_leaf)
        spine = fabric.add_switch(
            Switch(
                "private",  # the spine carries the canonical name
                ports=max(SWITCH_PORTS, leaf_count),
                latency_us=SWITCH_LATENCY_US,
            )
        )
        leaves = []
        for i in range(leaf_count):
            leaf = fabric.add_switch(
                Switch(f"private-leaf{i}", ports=SWITCH_PORTS,
                       latency_us=SWITCH_LATENCY_US)
            )
            fabric.connect_switches("private", leaf.name)
            leaves.append(leaf)
        attach_points = [
            Endpoint(head.name, head.nics[1], "eth1")
        ] + [
            Endpoint(node.name, node.nics[0], "eth0")
            for node in machine.compute_nodes
        ]
        for index, endpoint in enumerate(attach_points):
            fabric.attach(leaves[index // per_leaf].name, endpoint)
        private = spine

    # One /24 pool (245 leases) covers classic sites; a 10k-node fleet
    # needs the pool widened across overflow subnets.  Sizing from the
    # machine keeps small clusters byte-identical (subnets=1).
    single = DhcpServer()
    per_subnet = single.pool_end - single.pool_start + 1
    needed = len(machine.compute_nodes)
    if needed > per_subnet:
        single = DhcpServer(subnets=-(-needed // per_subnet))

    return ClusterNetwork(
        fabric=fabric,
        private_switch=private,
        public_switch=public,
        dhcp=single,
        machine=machine,
    )
