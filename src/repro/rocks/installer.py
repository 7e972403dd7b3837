"""The Rocks cluster installer: frontend first, then PXE'd compute nodes.

This is the "all at once, from scratch" path (Abstract): pick rolls at
install time, build the frontend, then power compute nodes on under
insert-ethers.  Two paper-critical behaviours live here:

* **Rocks does not support diskless installation** (Section 5.1) — the
  installer refuses any node without a local drive, which is exactly why
  the modified LittleFe adds an mSATA drive per node and why the diskless
  Limulus compute nodes cannot take the XCBC-from-scratch path (they use
  XNIT instead, Section 5.2);
* the kickstart graph decides what lands on each appliance, so adding the
  XSEDE roll changes every node built afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..distro.distribution import CENTOS_6_5, DistroRelease
from ..distro.host import Host, base_os_layer
from ..errors import HeadnodeCrashError, ProvisionError, ReproError, RocksError
from ..fleet import fold_names
from ..hardware.chassis import Machine
from ..network.pxe import BootImage, PxeServer
from ..network.topology import ClusterNetwork, build_cluster_network
from ..rpm.database import RpmDatabase
from ..rpm.transaction import Transaction, TransactionPlan
from ..yum.depsolver import resolve_install
from ..yum.repository import Repository, RepoSet
from .database import InstallState, RocksDatabase
from .insert_ethers import InsertEthers
from .kickstart import GraphNode, KickstartGraph, Profile
from .roll import Roll
from .rolls_catalog import all_standard_rolls, base_os_packages

__all__ = [
    "ProvisionedCluster",
    "RocksInstaller",
    "install_cluster",
    "recover_install",
]


@dataclass
class ProvisionedCluster:
    """A fully installed Rocks cluster."""

    machine: Machine
    network: ClusterNetwork
    release: DistroRelease
    graph: KickstartGraph
    distribution: Repository
    rocksdb: RocksDatabase
    frontend: Host
    frontend_db: RpmDatabase
    compute: dict[str, tuple[Host, RpmDatabase]] = field(default_factory=dict)
    rolls: dict[str, Roll] = field(default_factory=dict)
    scheduler_choice: str = "torque"
    #: the template compute (host, db) when installed golden-image style
    #: (``materialize=False``); per-node state lives in the fleet table.
    golden_image: tuple[Host, RpmDatabase] | None = None
    #: lazy per-node builder ``(cluster, mac, hostname)`` wired up by
    #: golden-image installs
    _materializer: Callable[..., tuple[Host, RpmDatabase]] | None = None

    def host_for(self, name: str) -> Host:
        """The live :class:`Host` of any installed cluster member.

        Materialized installs find it in :attr:`compute`; golden-image
        installs build the node's host lazily on first access (and cache
        it), so a 10k-node cluster only pays per-node object cost for the
        nodes something actually touches.
        """
        if name in self.compute:
            return self.compute[name][0]
        record = self.rocksdb.get(name)
        if record.appliance == "frontend":
            return self.frontend
        if (
            self._materializer is None
            or record.state is not InstallState.INSTALLED
        ):
            raise RocksError(f"host {name} is not part of this cluster")
        self.compute[name] = self._materializer(self, record.mac, name)
        return self.compute[name][0]

    def hosts(self) -> list[Host]:
        """Frontend first, then compute nodes in database order."""
        out = [self.frontend]
        for record in self.rocksdb.compute_hosts():
            if record.name in self.compute:
                out.append(self.compute[record.name][0])
        return out

    def db_for(self, host: Host) -> RpmDatabase:
        """The RPM database of any cluster host."""
        if host is self.frontend:
            return self.frontend_db
        cand, db = self.compute.get(host.name, (None, None))
        if cand is not host:
            raise RocksError(f"host {host.name} is not part of this cluster")
        return db

    def installed_everywhere(self) -> set[str]:
        """Package names present on every node (the cluster's uniform
        software environment — the consistency XCBC is about)."""
        common = set(self.frontend_db.names())
        for _host, db in self.compute.values():
            common &= db.names()
        return common

    def roll_names(self) -> list[str]:
        return sorted(self.rolls)


@dataclass(frozen=True)
class _Kickstart:
    """One profile's kickstart, resolved once: its validated plan (which
    holds the install queue), the services to enable and the post-install
    log files (path, text) to write, in order."""

    plan: TransactionPlan
    services: tuple[str, ...]
    post_files: tuple[tuple[str, str], ...]


class RocksInstaller:
    """Drives one from-scratch installation."""

    def __init__(
        self,
        machine: Machine,
        *,
        rolls: list[Roll] | None = None,
        scheduler: str = "torque",
        release: DistroRelease = CENTOS_6_5,
        journal=None,
        delivery=None,
    ) -> None:
        standard = all_standard_rolls()
        if scheduler not in ("torque", "slurm", "sge"):
            raise RocksError(f"unknown job-management roll {scheduler!r}")
        self.machine = machine
        self.release = release
        self.scheduler = scheduler
        selected: dict[str, Roll] = {"base": standard["base"], scheduler: standard[scheduler]}
        for roll in rolls or []:
            if roll.name in selected:
                raise RocksError(f"roll {roll.name} selected twice")
            selected[roll.name] = roll
        self.rolls = selected
        #: optional write-ahead :class:`~repro.recovery.Journal`: each
        #: compute node's discovery + kickstart becomes a ``rocks.install``
        #: transaction, so a frontend crash mid-provision leaves an open
        #: entry instead of a silently half-registered host —
        #: :func:`recover_install` rolls the phantom record back.
        self.journal = journal
        #: optional :class:`~repro.cas.LazyDelivery`: every kickstart
        #: transaction pulls package chunks through the site cache on
        #: first reference instead of assuming a pre-populated mirror.
        self.delivery = delivery
        self._crash_macs: set[str] = set()
        #: MAC -> compute board, kept in step by :meth:`replace_node`
        self._nodes = {n.mac_address: n for n in machine.compute_nodes}
        #: the plan cache, reset per run: a :class:`_Kickstart` per
        #: identical-kickstart key and the release's base-OS layer
        self._plans: dict = {}

    def inject_kickstart_crash(self, mac: str) -> None:
        """The next kickstart of this MAC dies mid-install (lost power,
        dead disk).  The install transaction aborts — nothing half-lands
        on the node — and :meth:`run` either raises or, with
        ``continue_on_error``, records the node as FAILED and moves on."""
        self._crash_macs.add(mac)

    # -- validation ---------------------------------------------------------------

    def _check_disks(self) -> None:
        """Rocks refuses diskless nodes (Section 5.1)."""
        diskless = [n.name for n in self.machine.nodes if n.diskless]
        if diskless:
            raise ProvisionError(
                f"Rocks does not support diskless installation; nodes "
                f"without drives: {diskless} (add a disk per node, as the "
                f"modified LittleFe does, or integrate via XNIT instead)"
            )

    # -- build steps -----------------------------------------------------------------

    def build_graph(self) -> KickstartGraph:
        """The kickstart graph this installation would use.

        Side-effect free — nothing is installed — which makes it the
        pre-flight entry point: the analyzer lints this graph before
        :meth:`run` ever touches a node.
        """
        graph = KickstartGraph()
        graph.add_node(GraphNode(name=Profile.FRONTEND, roll="base"))
        graph.add_node(GraphNode(name=Profile.COMPUTE, roll="base"))
        os_node = GraphNode(
            name="os-base",
            packages=[p.name for p in base_os_packages(self.release)],
            enable_services=["sshd", "crond"],
            roll="os",
        )
        graph.add_node(os_node)
        graph.add_edge(Profile.FRONTEND, "os-base")
        graph.add_edge(Profile.COMPUTE, "os-base")
        for roll in self.rolls.values():
            roll.apply_to_graph(graph)
        return graph

    def build_distribution(self) -> Repository:
        """The frontend's local distribution: OS packages + roll packages
        (side-effect free, for pre-flight analysis)."""
        dist = Repository(
            "rocks-dist",
            name=f"Rocks {self.release.release_string} distribution",
            priority=10,
        )
        dist.add_all(base_os_packages(self.release))
        for roll in self.rolls.values():
            for pkg in roll.packages:
                if not any(
                    existing.nevra == pkg.nevra
                    for existing in dist.versions_of(pkg.name)
                ):
                    dist.add(pkg)
        return dist

    def _new_host(self, node, hostname: str | None = None) -> Host:
        """A fresh host on ``node`` named ``hostname`` (the node's name by
        default), sharing the run's base-OS layer (one per release, kept
        in the plan cache)."""
        layer = self._plans.get(self.release)
        if layer is None:
            layer = self._plans[self.release] = base_os_layer(self.release)
        return Host(node, self.release, base_os=layer, hostname=hostname)

    def _kickstart_host(
        self,
        host: Host,
        graph: KickstartGraph,
        distribution: Repository,
        profile: str,
    ) -> RpmDatabase:
        """Install a profile's package closure onto a host and enable its
        services — one node's kickstart.

        Identical kickstarts (same profile, architecture, DB fingerprint,
        distribution content and graph revision) resolve, validate and
        order once: the first walks the graph, depsolves and builds a
        :class:`~repro.rpm.transaction.TransactionPlan` into a
        :class:`_Kickstart` record, the rest queue the plan's install queue
        in one step and commit through its plan — across waves and later
        replace/reinstall/lazy installs.  A roll applied since (a new graph
        revision or distribution checksum) makes a new record.
        """
        db = RpmDatabase(host)
        txn = Transaction(db, delivery=self.delivery)
        key = (
            profile,
            host.arch,
            db.fingerprint(),
            distribution.repomd_checksum(),
            graph,
            graph.revision,
        )
        kickstart = self._plans.get(key)
        if kickstart is None:
            wanted = graph.resolve_packages(profile)
            resolution = resolve_install(wanted, RepoSet([distribution]), db)
            for pkg in resolution.to_install:
                txn.install(pkg)
            kickstart = self._plans[key] = _Kickstart(
                plan=txn.plan(),
                services=tuple(graph.resolve_services(profile)),
                post_files=tuple(
                    (
                        f"/var/log/rocks-post/{action.replace(' ', '-')}",
                        f"executed: {action}\n",
                    )
                    for action in graph.resolve_actions(profile)
                ),
            )
        else:
            txn._install_all(kickstart.plan.installs)
        txn.commit_planned(kickstart.plan)
        for service in kickstart.services:
            host.services.enable(service)
        host.services.boot()
        for path, text in kickstart.post_files:
            host.fs.write(path, text)
        return db

    def _kickstart_compute(
        self, cluster: ProvisionedCluster, mac: str, hostname: str
    ) -> tuple[Host, RpmDatabase]:
        """Kickstart the compute board with ``mac`` as ``hostname``."""
        host = self._new_host(self._nodes[mac], hostname)
        db = self._kickstart_host(
            host, cluster.graph, cluster.distribution, Profile.COMPUTE
        )
        return host, db

    def _install_compute(
        self, cluster: ProvisionedCluster, row, *, materialize: bool = True
    ) -> None:
        """Install the compute node behind a hosts-table ``row``: kickstart
        its board (unless the golden image stands in for it), then fill the
        fleet columns monitoring and the scheduler read off the table."""
        if row.mac in self._crash_macs:
            # Injected mid-kickstart crash: the transaction never commits,
            # so the node holds no packages — there is no half-installed
            # state to reconcile, only a FAILED record.
            self._crash_macs.discard(row.mac)
            raise ProvisionError(
                f"{row.name}: node lost power mid-kickstart; "
                f"install transaction aborted"
            )
        if materialize:
            cluster.compute[row.name] = self._kickstart_compute(
                cluster, row.mac, row.name
            )
        node = self._nodes[row.mac]
        row.cores = node.cores
        row.mem_kb = node.memory_bytes / 1024
        row.state = InstallState.INSTALLED

    # -- the install ------------------------------------------------------------------

    def run(
        self,
        *,
        continue_on_error: bool = False,
        wave_size: int = 32,
        kernel=None,
        materialize: bool = True,
    ) -> ProvisionedCluster:
        """Perform the full installation and return the live cluster.

        With ``continue_on_error``, a compute node whose kickstart crashes
        is recorded as :attr:`InstallState.FAILED`, powered off, and left
        out of the cluster's compute map (and hence out of any scheduler
        resources built from it); the install proceeds to the next node.
        Without it, the first crash raises :class:`ProvisionError`.

        Compute nodes install in waves of ``wave_size`` — one insert-ethers
        discovery pass per wave; the resulting cluster does not depend on
        the size.  Pass a ``kernel`` to emit one ``install.wave`` trace
        event per wave (nodes as a folded NodeSet string — MAC-free, so
        same-seed traces stay byte-identical).

        ``materialize=False`` installs golden-image style: one template
        compute host is kickstarted, per-node state (install state, cores,
        memory) lands in the fleet table columns only, and
        :meth:`ProvisionedCluster.host_for` materializes individual hosts
        lazily.  This is what makes a 10k-node install tractable.
        """
        if wave_size < 1:
            raise RocksError(f"wave size must be positive, got {wave_size}")
        self._check_disks()
        self._plans = {}
        graph = self.build_graph()
        distribution = self.build_distribution()
        network = build_cluster_network(self.machine)

        # 1. Frontend install (from the install media, no PXE involved).
        head = self.machine.head
        frontend = self._new_host(head)
        frontend_db = self._kickstart_host(
            frontend, graph, distribution, Profile.FRONTEND
        )
        rocksdb = RocksDatabase()
        head_row = rocksdb.add_host(
            name=head.name,
            mac=head.mac_address,
            ip="10.1.1.1",
            appliance="frontend",
            rack=0,
            rank=0,
            state=InstallState.INSTALLED,
        )
        head_row.cores = head.cores
        head_row.mem_kb = head.memory_bytes / 1024

        # 2. PXE infrastructure served by the frontend.
        pxe = PxeServer(network.dhcp)
        pxe.set_default_image(
            BootImage(name="rocks-kickstart", kickstart_profile=Profile.COMPUTE)
        )
        inserter = InsertEthers(db=rocksdb, dhcp=network.dhcp, pxe=pxe)

        cluster = ProvisionedCluster(
            machine=self.machine,
            network=network,
            release=self.release,
            graph=graph,
            distribution=distribution,
            rocksdb=rocksdb,
            frontend=frontend,
            frontend_db=frontend_db,
            rolls=dict(self.rolls),
            scheduler_choice=self.scheduler,
        )

        # 3. Power compute nodes on under insert-ethers, a wave at a time.
        macs = [n.mac_address for n in self.machine.compute_nodes]
        if not materialize and macs:
            cluster.golden_image = self._kickstart_compute(
                cluster, macs[0], "compute-image"
            )
            cluster._materializer = self._kickstart_compute
        for wave_index, start in enumerate(range(0, len(macs), wave_size)):
            installed = self._install_wave(
                cluster,
                inserter,
                macs[start : start + wave_size],
                continue_on_error=continue_on_error,
                materialize=materialize,
            )
            if kernel is not None and installed:
                _host, db = cluster.golden_image or cluster.compute[installed[-1]]
                kernel.trace.emit(
                    "install.wave",
                    t_s=kernel.now_s,
                    subsystem="rocks",
                    wave=wave_index,
                    nodes=fold_names(installed),
                    count=len(installed),
                    pkgs=len(db.names()),
                )
        return cluster

    def _install_wave(
        self,
        cluster: ProvisionedCluster,
        inserter: InsertEthers,
        macs: list[str],
        *,
        continue_on_error: bool,
        materialize: bool,
    ) -> list[str]:
        """Discover and install one wave; returns the names installed.

        Each node is one journaled ``rocks.install`` transaction: register
        (the database row insert-ethers writes) then install.  Only a
        frontend crash leaves it open, for :func:`recover_install` to
        remove the half-registered row; a kickstart failure is a clean
        abort (a FAILED record is deliberate state, not a phantom).
        """
        journal, rocksdb = self.journal, cluster.rocksdb
        # Write-ahead: every register intent reaches the journal before
        # insert-ethers writes any of the wave's rows.  A row with no open
        # transaction is invisible to recovery and would block that MAC's
        # next discovery forever.
        txns: list = [None] * len(macs)
        if journal is not None:
            txns = [journal.begin("rocks.install", mac=mac) for mac in macs]
            registers = [
                journal.intent(txn, "register", mac=mac)
                for txn, mac in zip(txns, macs)
            ]
        installed: list[str] = []
        try:
            rows = inserter.discover_wave(macs)
            if journal is not None:
                for txn, register in zip(txns, registers):
                    journal.applied(txn, register)
            for row, txn in zip(rows, txns):
                row.state = InstallState.INSTALLING
                if txn is not None:
                    install_op = journal.intent(txn, "install", name=row.name)
                try:
                    self._install_compute(cluster, row, materialize=materialize)
                except ProvisionError:
                    if not continue_on_error:
                        raise
                    row.state = InstallState.FAILED
                    self._nodes[row.mac].powered_on = False
                    if txn is not None:
                        journal.abort(
                            txn, note="kickstart failed; node recorded FAILED"
                        )
                else:
                    if txn is not None:
                        journal.applied(txn, install_op)
                        journal.commit(txn)
                    installed.append(row.name)
        except HeadnodeCrashError:
            raise  # a dead frontend runs no cleanup; recover_install() does
        except ReproError:
            for txn in txns:
                if txn is not None and txn.open:
                    journal.abort(txn, note="kickstart failed")
            for row in rocksdb.compute_hosts():
                if row.state is InstallState.DISCOVERED:
                    rocksdb.remove_host(row.name)
            raise
        return installed

    def replace_node(
        self, cluster: ProvisionedCluster, name: str, *, new_mac: str
    ) -> Host:
        """Swap a dead node's board: new MAC, rediscovery, fresh install.

        The Rocks workflow for failed hardware: ``rocks remove host``, run
        insert-ethers, power the replacement on.  The record keeps the same
        compute-<rack>-<rank> name only if it is re-discovered first, so we
        remove and re-register explicitly at the same rack/rank.
        """
        record = cluster.rocksdb.get(name)
        if record.appliance != "compute":
            raise RocksError("only compute nodes can be replaced")
        node = self._nodes.pop(record.mac)
        cluster.rocksdb.remove_host(name)
        node.mac_address = new_mac  # the replacement board's NIC
        node.powered_on = True
        self._nodes[new_mac] = node
        row = cluster.rocksdb.add_host(
            name=name,
            mac=new_mac,
            ip=record.ip,
            appliance="compute",
            rack=record.rack,
            rank=record.rank,
            state=InstallState.INSTALLING,
        )
        self._install_compute(cluster, row)
        return cluster.compute[name][0]

    def reinstall_node(self, cluster: ProvisionedCluster, name: str) -> Host:
        """Re-kickstart one compute node (Rocks' usual fix for drift)."""
        row = cluster.rocksdb.get(name)
        if row.appliance != "compute":
            raise RocksError("only compute nodes can be reinstalled in place")
        row.state = InstallState.INSTALLING
        self._install_compute(cluster, row)
        return cluster.compute[name][0]


def recover_install(journal, rocksdb: RocksDatabase) -> list:
    """Resolve open ``rocks.install`` journal transactions after a crash.

    A frontend that died between registering a node (insert-ethers wrote
    the database row) and finishing its kickstart leaves the row pointing
    at a node with no OS — a half-registered host that would poison every
    tool reading the hosts table.  Recovery removes those rows, found by
    the MAC each register intent recorded, through
    :meth:`~repro.recovery.journal.Journal.roll_back`; the node
    re-registers cleanly on the next insert-ethers run.  Returns the
    transactions rolled back.
    """
    def undo(op) -> None:
        # A register whose row never landed has nothing to remove.
        if op.op == "register" and rocksdb.has_mac(op.payload["mac"]):
            rocksdb.remove_host(rocksdb.by_mac(op.payload["mac"]).name)

    resolved = journal.open_txns("rocks.install")
    for txn in resolved:
        journal.roll_back(txn, undo)
    return resolved


def install_cluster(
    machine: Machine,
    *,
    rolls: list[Roll] | None = None,
    scheduler: str = "torque",
    release: DistroRelease = CENTOS_6_5,
) -> ProvisionedCluster:
    """Convenience wrapper: build and run a :class:`RocksInstaller`."""
    return RocksInstaller(
        machine, rolls=rolls, scheduler=scheduler, release=release
    ).run()
