"""What the analyzer analyzes: a declarative bundle of cluster artefacts.

A :class:`ClusterDefinition` collects the layers a cluster recipe is made of
— kickstart graph, rolls, repo configuration, package universe, hardware
plan, DHCP plan, scheduler queues — *without* requiring any of them to have
been deployed.  Every field is optional; passes simply skip layers the
definition does not carry, so a definition can be as small as "these .repo
stanzas" or as large as a fully provisioned cluster
(:meth:`ClusterDefinition.from_cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.chassis import ChassisModel, Machine
from ..hardware.node import Node
from ..hardware.power import PsuModel
from ..network.dhcp import DhcpPlan
from ..rocks.kickstart import KickstartGraph, Profile
from ..rocks.roll import Roll
from ..rpm.package import Package
from ..scheduler.queues import QueueConfig
from ..yum.repoconfig import RepoStanza
from ..yum.repository import Repository

__all__ = ["HardwarePlan", "ClusterDefinition"]


@dataclass(frozen=True)
class HardwarePlan:
    """A chassis plus the nodes intended for it, *before* population.

    :func:`repro.hardware.chassis.populate` raises on the first violation;
    the plan form lets the analyzer report every violation at once, as lint.
    ``shared_psu`` overrides the chassis supply (the historical-LittleFe
    arrangement).
    """

    chassis: ChassisModel
    nodes: tuple[Node, ...]
    shared_psu: PsuModel | None = None

    @property
    def effective_shared_psu(self) -> PsuModel | None:
        return self.shared_psu or self.chassis.shared_psu

    @classmethod
    def from_machine(cls, machine: Machine) -> "HardwarePlan":
        return cls(
            chassis=machine.chassis,
            nodes=tuple(machine.nodes),
            shared_psu=machine.shared_psu,
        )


@dataclass
class ClusterDefinition:
    """Everything the pre-flight analyzer can inspect about one cluster.

    Fields default to "absent"; each analyzer pass checks only the layers
    that are present.  ``packages`` carries universe members that no roll
    owns (the OS base set); ``repositories`` carry content (NEVRAs) while
    ``repo_stanzas`` carry configuration (``.repo`` files) — both are
    checked, against different rules.
    """

    name: str
    #: kickstart layer
    graph: KickstartGraph | None = None
    profiles: tuple[str, ...] = (Profile.FRONTEND, Profile.COMPUTE)
    rolls: tuple[Roll, ...] = ()
    #: package universe beyond the rolls (OS base set, extra RPMs)
    packages: tuple[Package, ...] = ()
    #: yum layer
    repo_stanzas: tuple[RepoStanza, ...] = ()
    repositories: tuple[Repository, ...] = ()
    #: repo ids the recipe depends on (install sources); must exist + be enabled
    required_repo_ids: tuple[str, ...] = ()
    #: hardware layer (either a validated machine or a raw plan)
    machine: Machine | None = None
    hardware_plan: HardwarePlan | None = None
    #: network layer
    dhcp_plan: DhcpPlan | None = None
    #: MACs that will be fed to insert-ethers (compute nodes, in power-on order)
    macs: tuple[str, ...] = ()
    #: scheduler layer
    queues: tuple[QueueConfig, ...] = ()

    # -- derived views ------------------------------------------------------

    def package_universe(self) -> list[Package]:
        """Every package the definition knows about, deduped by NEVRA."""
        seen: set[str] = set()
        universe: list[Package] = []

        def take(pkg: Package) -> None:
            if pkg.nevra not in seen:
                seen.add(pkg.nevra)
                universe.append(pkg)

        for pkg in self.packages:
            take(pkg)
        for roll in self.rolls:
            for pkg in roll.packages:
                take(pkg)
        for repo in self.repositories:
            for pkg in repo.all_packages():
                take(pkg)
        return universe

    def effective_hardware_plan(self) -> HardwarePlan | None:
        """The hardware to lint: the explicit plan, else the machine's."""
        if self.hardware_plan is not None:
            return self.hardware_plan
        if self.machine is not None:
            return HardwarePlan.from_machine(self.machine)
        return None

    def effective_macs(self) -> tuple[str, ...]:
        """MACs insert-ethers will see: explicit list, else compute nodes'."""
        if self.macs:
            return self.macs
        plan = self.effective_hardware_plan()
        if plan is None:
            return ()
        from ..hardware.node import NodeRole

        return tuple(
            n.mac_address for n in plan.nodes if n.role == NodeRole.COMPUTE
        )

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_cluster(cls, cluster, *, name: str | None = None) -> "ClusterDefinition":
        """Lint a provisioned cluster's recipe (post-hoc pre-flight).

        Accepts a :class:`~repro.rocks.installer.ProvisionedCluster`; pulls
        the graph, rolls, distribution repository, machine, and the private
        segment's DHCP pool out of it, and derives a default queue config
        from the hardware.
        """
        from ..scheduler.queues import default_queue_for

        machine = cluster.machine
        dhcp = cluster.network.dhcp
        return cls(
            name=name or machine.name,
            graph=cluster.graph,
            rolls=tuple(cluster.rolls.values()),
            repositories=(cluster.distribution,),
            required_repo_ids=(cluster.distribution.repo_id,),
            machine=machine,
            dhcp_plan=DhcpPlan(
                network_prefix=dhcp.network_prefix,
                pool_start=dhcp.pool_start,
                pool_end=dhcp.pool_end,
            ),
            macs=tuple(n.mac_address for n in machine.compute_nodes),
            queues=(default_queue_for(machine),),
        )
