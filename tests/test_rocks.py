"""Rocks provisioner tests: graph, rolls, database, insert-ethers, install,
reinstall, and update rolls."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    KickstartError,
    ProvisionError,
    RocksError,
    RollError,
)
from repro.network import DhcpServer, PxeServer, BootImage
from repro.rocks import (
    GraphNode,
    InsertEthers,
    InstallState,
    KickstartGraph,
    Profile,
    Roll,
    RollGraphFragment,
    RocksDatabase,
    all_standard_rolls,
    apply_update_roll,
    create_update_roll,
    install_cluster,
    optional_rolls,
)
from repro.rocks.installer import RocksInstaller
from repro.rpm import Package


class TestKickstartGraph:
    def build(self):
        g = KickstartGraph()
        g.add_node(GraphNode(Profile.FRONTEND))
        g.add_node(GraphNode(Profile.COMPUTE))
        g.add_node(GraphNode("common", packages=["rocks"], enable_services=["sshd"]))
        g.add_edge(Profile.FRONTEND, "common")
        g.add_edge(Profile.COMPUTE, "common")
        return g

    def test_resolve_packages_via_edges(self):
        g = self.build()
        assert g.resolve_packages(Profile.FRONTEND) == ["rocks"]

    def test_merge_on_readd(self):
        g = self.build()
        g.add_node(GraphNode("common", packages=["modules"]))
        assert g.resolve_packages(Profile.COMPUTE) == ["rocks", "modules"]

    def test_cycle_detected(self):
        g = self.build()
        g.add_node(GraphNode("a"))
        g.add_node(GraphNode("b"))
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        g.add_edge(Profile.FRONTEND, "a")
        with pytest.raises(KickstartError, match="cycle"):
            g.resolve_packages(Profile.FRONTEND)

    def test_edge_to_unknown_node_rejected(self):
        g = self.build()
        with pytest.raises(KickstartError, match="unknown"):
            g.add_edge(Profile.FRONTEND, "ghost")

    def test_self_edge_rejected(self):
        g = self.build()
        with pytest.raises(KickstartError, match="self-edge"):
            g.add_edge("common", "common")

    def test_unknown_profile_rejected(self):
        with pytest.raises(KickstartError):
            self.build().resolve_packages("gpu-appliance")

    def test_services_resolved(self):
        assert self.build().resolve_services(Profile.COMPUTE) == ["sshd"]

    def test_post_actions_merge_without_duplication(self):
        # Regression: re-adding a node (a roll re-extending a shared node)
        # must not queue its post-install actions twice.
        g = self.build()
        g.add_node(GraphNode("common", post_actions=["sync users", "fix ssh"]))
        g.add_node(GraphNode("common", post_actions=["sync users"]))
        assert g.node("common").post_actions == ["sync users", "fix ssh"]
        assert g.resolve_actions(Profile.FRONTEND) == ["sync users", "fix ssh"]

    def test_has_node_and_edges(self):
        g = self.build()
        assert g.has_node("common") and not g.has_node("ghost")
        assert (Profile.FRONTEND, "common") in g.edges()
        assert len(g.edges()) == 2

    def test_find_cycle_reports_path_without_raising(self):
        g = self.build()
        g.add_node(GraphNode("a"))
        g.add_node(GraphNode("b"))
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        cycle = g.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert {"a", "b"} <= set(cycle)
        assert self.build().find_cycle() is None

    def test_reachable_from_profiles(self):
        g = self.build()
        g.add_node(GraphNode("orphan"))
        reachable = g.reachable_from([Profile.FRONTEND, Profile.COMPUTE])
        assert "common" in reachable
        assert "orphan" not in reachable
        # unknown roots are skipped, not fatal — pre-flight must not raise
        assert g.reachable_from(["ghost"]) == set()


class TestRolls:
    def test_roll_validates_fragment_packages(self):
        with pytest.raises(RollError, match="does not carry"):
            Roll(
                name="broken",
                version="1",
                summary="",
                packages=(Package(name="a", version="1"),),
                fragments=(
                    RollGraphFragment(node_name="n", packages=("a", "ghost")),
                ),
            )

    def test_standard_rolls_catalogue_is_table1(self):
        rolls = all_standard_rolls()
        for name in (
            "area51", "bio", "fingerprint", "htcondor", "ganglia", "hpc",
            "kvm", "perl", "python", "web-server", "zfs-linux",
        ):
            assert name in rolls, name
        assert {"torque", "slurm", "sge"} <= set(rolls)
        assert not rolls["base"].optional

    def test_apply_roll_extends_graph(self):
        g = KickstartGraph()
        g.add_node(GraphNode(Profile.FRONTEND))
        g.add_node(GraphNode(Profile.COMPUTE))
        optional_rolls()["hpc"].apply_to_graph(g)
        assert "rocks-openmpi" in g.resolve_packages(Profile.COMPUTE)
        assert "hpc" in g.rolls_in(Profile.FRONTEND)


def _add_host(db, name, mac, *, ip="ip", appliance="compute", rank=0):
    return db.add_host(
        name=name, mac=mac, ip=ip, appliance=appliance, rack=0, rank=rank
    )


class TestRocksDatabase:
    def test_add_and_lookup(self):
        db = RocksDatabase()
        _add_host(db, "frontend-0", "02:aa", ip="10.1.1.1", appliance="frontend")
        _add_host(db, "compute-0-0", "02:bb", ip="10.1.1.10")
        assert db.get("compute-0-0").mac == "02:bb"
        assert db.by_mac("02:aa").name == "frontend-0"
        assert [r.name for r in db.hosts()] == ["frontend-0", "compute-0-0"]

    def test_duplicate_name_and_mac_rejected(self):
        db = RocksDatabase()
        _add_host(db, "n", "02:aa")
        with pytest.raises(RocksError):
            _add_host(db, "n", "02:bb", rank=1)
        with pytest.raises(RocksError):
            _add_host(db, "m", "02:aa", rank=1)

    def test_next_compute_name_sequence(self):
        db = RocksDatabase()
        assert db.next_compute_name(0) == "compute-0-0"
        _add_host(db, "compute-0-0", "02:aa")
        assert db.next_compute_name(0) == "compute-0-1"
        assert db.next_compute_name(1) == "compute-1-0"

    def test_remove_host_frees_mac(self):
        db = RocksDatabase()
        _add_host(db, "n", "02:aa")
        db.remove_host("n")
        _add_host(db, "m", "02:aa")


class TestInsertEthers:
    def make(self):
        db = RocksDatabase()
        dhcp = DhcpServer()
        pxe = PxeServer(dhcp)
        pxe.set_default_image(BootImage("ks", kickstart_profile=Profile.COMPUTE))
        return InsertEthers(db=db, dhcp=dhcp, pxe=pxe), db, dhcp

    def test_discovery_assigns_rocks_names(self):
        inserter, db, dhcp = self.make()
        r1 = inserter.discover_boot("02:aa")
        r2 = inserter.discover_boot("02:bb")
        assert r1.name == "compute-0-0" and r2.name == "compute-0-1"
        assert r1.ip == "10.1.1.10"

    def test_known_mac_rejected(self):
        inserter, _db, _dhcp = self.make()
        inserter.discover_boot("02:aa")
        with pytest.raises(RocksError, match="already registered"):
            inserter.discover_boot("02:aa")


class TestInstaller:
    def test_full_install(self, littlefe_machine):
        cluster = install_cluster(littlefe_machine, rolls=[optional_rolls()["hpc"]])
        assert len(cluster.hosts()) == 6
        assert cluster.frontend.has_command("rocks")
        assert cluster.frontend.services.is_running("rocks-dhcpd")
        compute = cluster.compute["compute-0-0"][0]
        assert compute.has_command("mpirun-rocks")
        assert compute.services.is_running("pbs_mom")
        assert not compute.services.is_running("pbs_server")

    def test_diskless_machine_refused(self, original_littlefe_quote):
        with pytest.raises(ProvisionError, match="diskless"):
            install_cluster(original_littlefe_quote.machine)

    def test_scheduler_choice_slurm(self, littlefe_machine):
        cluster = install_cluster(littlefe_machine, scheduler="slurm")
        assert cluster.frontend.has_command("sbatch")
        assert not cluster.frontend.has_command("qsub")
        compute = cluster.compute["compute-0-0"][0]
        assert compute.services.is_running("slurmd")

    def test_unknown_scheduler_rejected(self, littlefe_machine):
        with pytest.raises(RocksError, match="job-management"):
            RocksInstaller(littlefe_machine, scheduler="lsf")

    def test_duplicate_roll_rejected(self, littlefe_machine):
        hpc = optional_rolls()["hpc"]
        with pytest.raises(RocksError, match="twice"):
            RocksInstaller(littlefe_machine, rolls=[hpc, hpc])

    def test_cluster_db_names_match_hosts(self, littlefe_machine):
        cluster = install_cluster(littlefe_machine)
        names = {r.name for r in cluster.rocksdb.hosts()}
        assert names == {h.name for h in cluster.hosts()}
        assert all(
            r.state is InstallState.INSTALLED for r in cluster.rocksdb.hosts()
        )

    def test_installed_everywhere_uniform(self, littlefe_machine):
        cluster = install_cluster(littlefe_machine)
        common = cluster.installed_everywhere()
        assert "rocks" in common and "modules" in common and "torque" in common

    def test_reinstall_node_restores_uniformity(self, littlefe_machine):
        installer = RocksInstaller(littlefe_machine)
        cluster = installer.run()
        # drift: someone hand-erased a package on one node
        _host, db = cluster.compute["compute-0-1"]
        from repro.rpm import Transaction

        Transaction(db).erase("modules").commit()
        assert "modules" not in cluster.installed_everywhere()
        installer.reinstall_node(cluster, "compute-0-1")
        assert "modules" in cluster.installed_everywhere()

    def test_reinstall_frontend_refused(self, littlefe_machine):
        installer = RocksInstaller(littlefe_machine)
        cluster = installer.run()
        with pytest.raises(RocksError, match="compute"):
            installer.reinstall_node(cluster, littlefe_machine.head.name)

    def test_db_for_unknown_host_rejected(self, littlefe_machine, frontend_host):
        cluster = install_cluster(littlefe_machine)
        with pytest.raises(RocksError):
            cluster.db_for(frontend_host)
        # Looked up by name, checked by identity: a stranger carrying a
        # member's hostname is still not part of this cluster.
        frontend_host.hostname = "compute-0-0"
        with pytest.raises(RocksError, match="not part of this cluster"):
            cluster.db_for(frontend_host)


class TestUpdateRoll:
    def test_create_and_apply(self, littlefe_machine):
        from repro.yum import Repository

        cluster = install_cluster(littlefe_machine)
        upstream = Repository("xsede")
        upstream.add(Package(name="torque", version="4.2.11",
                             commands=("qsub", "qstat", "qdel", "pbsnodes"),
                             services=("pbs_server", "pbs_mom")))
        roll = create_update_roll(cluster, upstream, name="updates-2015-03")
        assert [p.version for p in roll.packages] == ["4.2.11"]
        counts = apply_update_roll(cluster, roll)
        assert all(count == 1 for count in counts.values())
        for host in cluster.hosts():
            assert cluster.db_for(host).get("torque").version == "4.2.11"

    def test_empty_update_roll_rejected(self, littlefe_machine):
        from repro.yum import Repository

        cluster = install_cluster(littlefe_machine)
        with pytest.raises(RollError, match="already current"):
            create_update_roll(cluster, Repository("xsede"))

    def test_future_reinstalls_pick_up_update(self, littlefe_machine):
        from repro.yum import Repository

        installer = RocksInstaller(littlefe_machine)
        cluster = installer.run()
        upstream = Repository("xsede")
        upstream.add(Package(name="modules", version="3.2.11", commands=("module", "modulecmd")))
        roll = create_update_roll(cluster, upstream)
        apply_update_roll(cluster, roll)
        host = installer.reinstall_node(cluster, "compute-0-2")
        db = cluster.db_for(host)
        assert db.get("modules").version == "3.2.11"


# -- the plan cache: one resolved kickstart and one base OS per run --------------


def _host_state(host, db):
    return (
        [(n.path, n.kind, n.owner_package, n.content, n.mode)
         for n in host.fs.walk()],
        db.fingerprint(),
        [(s.name, s.package, s.state, s.enabled)
         for s in host.services.all_services()],
        host.modules.avail(),
    )


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the type and message are compared
        return "error", type(exc), str(exc)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_property_cached_kickstart_equals_a_fresh_walk(data):
    """A compute node reinstalled through the installer's plan cache ends —
    tree, RPM fingerprint, services and their state, modules — exactly as
    a host with its own base OS kickstarted by walking the graph afresh
    (``tests/oracles/kickstart_walk.py``).  Between reinstalls the graph
    grows (packages, services or post actions on a node the compute
    profile includes, a new include edge) and the distribution gains
    newer builds, so a stale record would show as a difference."""
    from dataclasses import replace

    from repro.hardware import build_littlefe_modified

    from .oracles.kickstart_walk import fresh_host, kickstart_host

    installer = RocksInstaller(build_littlefe_modified().machine)
    cluster = installer.run()
    graph, dist = cluster.graph, cluster.distribution
    names = sorted(cluster.compute)
    packages = sorted(dist.names())
    services = ["crond", "httpd", "pbs_mom", "pbs_server", "rocks-dhcpd", "sshd"]
    for step in range(data.draw(st.integers(1, 6), label="steps")):
        kind = data.draw(st.sampled_from(("node", "edge", "build", "none")))
        if kind == "node":
            graph.add_node(GraphNode(
                name=data.draw(st.sampled_from(
                    sorted(graph.reachable_from([Profile.COMPUTE])))),
                packages=data.draw(st.lists(st.sampled_from(packages), max_size=2)),
                enable_services=data.draw(st.lists(st.sampled_from(services), max_size=2)),
                post_actions=data.draw(st.lists(
                    st.sampled_from(("tune kernel", f"step {step}")), max_size=2)),
            ))
        elif kind == "edge":
            graph.add_edge(Profile.COMPUTE, data.draw(st.sampled_from(
                ("base-frontend-services", "torque-server", "os-base"))))
        elif kind == "build":
            old = dist.latest(data.draw(st.sampled_from(packages)))
            dist.add(replace(old, version=f"99.{step}"))
        name = data.draw(st.sampled_from(names), label="reinstall")
        node = installer._nodes[cluster.rocksdb.get(name).mac]
        cached = _outcome(lambda: installer.reinstall_node(cluster, name))
        fresh = fresh_host(node, cluster.release, name)
        walked = _outcome(
            lambda: kickstart_host(fresh, graph, dist, Profile.COMPUTE))
        assert cached[0] == walked[0]
        if cached[0] == "error":
            assert cached[1:] == walked[1:]
            continue
        host = cached[1]
        assert _host_state(host, cluster.db_for(host)) == _host_state(fresh, walked[1])


def test_a_run_resolves_each_profile_once_and_shares_one_base_os(monkeypatch):
    """The count guard for the plan cache: one ``run()`` of a machine with
    50 compute nodes walks the graph for packages and depsolves once per
    profile; every host shares the base-OS records (``/etc``,
    ``/bin/bash``), and each host's tree is that of a host built alone,
    ``/etc/hostname`` apart."""
    from collections import Counter

    from repro.core.deployments import build_synthetic_fleet
    from repro.rocks import installer as installer_module

    from .oracles.kickstart_walk import fresh_host, kickstart_host

    walks, resolves = Counter(), []
    real_walk = KickstartGraph.resolve_packages
    real_resolve = installer_module.resolve_install

    def walk(graph, profile):
        walks[profile] += 1
        return real_walk(graph, profile)

    def resolve(wanted, repos, db):
        resolves.append(db.host.name)
        return real_resolve(wanted, repos, db)

    monkeypatch.setattr(KickstartGraph, "resolve_packages", walk)
    monkeypatch.setattr(installer_module, "resolve_install", resolve)
    machine = build_synthetic_fleet(51)
    cluster = RocksInstaller(machine).run()
    monkeypatch.undo()
    assert len(cluster.compute) == 50
    assert walks == {Profile.FRONTEND: 1, Profile.COMPUTE: 1}
    assert len(resolves) == 2
    hosts = cluster.hosts()
    for path in ("/etc", "/bin/bash"):
        assert len({id(h.fs.lookup(path)) for h in hosts}) == 1

    def tree(host):
        return [(n.path, n.kind, n.owner_package, n.content, n.mode)
                for n in host.fs.walk() if n.path != "/etc/hostname"]

    for name, (host, _db) in cluster.compute.items():
        alone = fresh_host(host.node, cluster.release, host.node.name)
        kickstart_host(alone, cluster.graph, cluster.distribution, Profile.COMPUTE)
        assert tree(host) == tree(alone), name


def test_etc_hostname_is_the_hostname_on_every_installed_host(littlefe_machine):
    """``/etc/hostname`` follows every rename: the frontend keeps its
    board's name, compute nodes carry their Rocks names, a reinstalled or
    replaced node too."""
    installer = RocksInstaller(littlefe_machine)
    cluster = installer.run()
    installer.reinstall_node(cluster, "compute-0-1")
    installer.replace_node(cluster, "compute-0-2", new_mac="02:00:00:00:aa:01")
    hosts = cluster.hosts()
    assert hosts[0] is cluster.frontend
    assert cluster.frontend.hostname == littlefe_machine.head.name
    assert {h.hostname for h in hosts[1:]} == set(cluster.compute)
    for host in hosts:
        assert host.fs.read("/etc/hostname") == host.hostname + "\n"


def test_each_installed_host_writes_etc_hostname_once(littlefe_machine, monkeypatch):
    """A compute host is created under its Rocks name, so its
    ``/etc/hostname`` is written once — not with its board's name first
    and again on a rename."""
    from collections import Counter

    from repro.distro import Filesystem

    writers = Counter()
    real = Filesystem.write

    def counting(fs, path, *args, **kwargs):
        if path == "/etc/hostname":
            writers[id(fs)] += 1
        return real(fs, path, *args, **kwargs)

    monkeypatch.setattr(Filesystem, "write", counting)
    cluster = RocksInstaller(littlefe_machine).run()
    assert writers == Counter({id(host.fs): 1 for host in cluster.hosts()})
