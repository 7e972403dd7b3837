"""Existing (non-Rocks) clusters: the machines XNIT retrofits.

The Limulus HPC200 "is delivered with software cluster management utilities
off the shelf, so one has only to add RPMs from the XSEDE Yum repository to
get the desired XCBC capabilities" (Section 5.2).  Its compute nodes are
diskless — they network-boot a shared image — which is exactly why the
Rocks/XCBC path is unavailable and the XNIT path matters.

:class:`ExistingCluster` is the generic shape: hosts with a vendor-chosen
OS, a vendor management stack, and per-host yum clients ready to take a
repository.  :func:`build_limulus_cluster` produces the paper's machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..distro.distribution import SCIENTIFIC_LINUX_6_5, DistroRelease
from ..distro.host import Host
from ..errors import ReproError
from ..hardware.builder import build_limulus_hpc200
from ..hardware.chassis import Machine
from ..network.topology import ClusterNetwork, build_cluster_network
from ..rocks.rolls_catalog import base_os_packages
from ..rpm.database import RpmDatabase
from ..rpm.package import Package
from ..rpm.transaction import Transaction
from ..yum.client import YumClient

__all__ = ["ExistingCluster", "build_existing_cluster", "build_limulus_cluster", "LIMULUS_VENDOR_PACKAGES"]

#: The Basement Supercomputing management stack the HPC200 ships with:
#: warewulf-style image management, the power scheduler of Section 5.2, and
#: a vendor build of Grid Engine.
LIMULUS_VENDOR_PACKAGES = (
    Package(
        name="limulus-manage",
        version="2.1",
        category="vendor",
        summary="Limulus cluster management utilities",
        commands=("limulus-power", "limulus-image"),
        services=("limulus-powerd",),
    ),
    Package(
        name="warewulf-provision",
        version="3.5",
        category="vendor",
        summary="Diskless image provisioning",
        commands=("wwsh",),
        services=("wwprovisiond",),
    ),
    Package(
        name="sge",
        version="8.1.6",
        category="vendor",
        summary="Vendor Grid Engine build",
        commands=("qsub", "qstat", "qdel", "qconf"),
        services=("sge_qmaster", "sge_execd"),
    ),
)


@dataclass
class ExistingCluster:
    """A running cluster that was NOT built with Rocks/XCBC."""

    machine: Machine
    network: ClusterNetwork
    release: DistroRelease
    frontend: Host
    compute: dict[str, Host] = field(default_factory=dict)
    clients: dict[str, YumClient] = field(default_factory=dict)
    vendor_stack: tuple[str, ...] = ()

    def hosts(self) -> list[Host]:
        return [self.frontend] + [self.compute[n] for n in sorted(self.compute)]

    def client_for(self, host: Host) -> YumClient:
        try:
            return self.clients[host.name]
        except KeyError:
            raise ReproError(f"no yum client for host {host.name}") from None

    def db_for(self, host: Host) -> RpmDatabase:
        """The RPM database of any cluster host."""
        return self.client_for(host).db

    def all_clients(self) -> list[YumClient]:
        return [self.client_for(h) for h in self.hosts()]


def build_existing_cluster(
    machine: Machine,
    *,
    release: DistroRelease = SCIENTIFIC_LINUX_6_5,
    vendor_packages: tuple[Package, ...] = (),
) -> ExistingCluster:
    """Stand up a generic pre-existing cluster on a machine.

    Every host gets the OS base plus the vendor stack; diskless compute
    nodes boot the shared image (``diskless_image=True``) — no Rocks
    involved anywhere.
    """
    network = build_cluster_network(machine)
    base = base_os_packages(release)

    def provision(host: Host) -> YumClient:
        db = RpmDatabase(host)
        txn = Transaction(db)
        for pkg in base:
            txn.install(pkg)
        for pkg in vendor_packages:
            txn.install(pkg)
        txn.commit()
        for pkg in vendor_packages:
            for service in pkg.services:
                host.services.enable(service)
        host.services.boot()
        return YumClient(host, db)

    head = machine.head
    frontend = Host(head, release)
    cluster = ExistingCluster(
        machine=machine,
        network=network,
        release=release,
        frontend=frontend,
        vendor_stack=tuple(p.name for p in vendor_packages),
    )
    cluster.clients[frontend.name] = provision(frontend)
    for node in machine.compute_nodes:
        host = Host(node, release, diskless_image=node.diskless)
        cluster.compute[host.name] = host
        cluster.clients[host.name] = provision(host)
    return cluster


def build_limulus_cluster(name: str = "limulus-hpc200") -> ExistingCluster:
    """The Limulus HPC200 as delivered: Scientific Linux, vendor management
    stack, one head plus three diskless compute blades."""
    quote = build_limulus_hpc200(name)
    return build_existing_cluster(
        quote.machine,
        release=SCIENTIFIC_LINUX_6_5,
        vendor_packages=LIMULUS_VENDOR_PACKAGES,
    )
