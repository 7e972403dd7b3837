"""Failure-injection tests across the stack.

Clusters fail in pieces; the substrate must fail the way the real pieces
do: loudly, locally, and recoverably.  Each scenario injects one fault and
asserts both the failure shape and the recovery path.
"""

from types import SimpleNamespace

import pytest

from repro.errors import (
    DhcpError,
    FilesystemError,
    MonitoringError,
    PxeError,
    ServiceError,
    TransactionError,
)
from repro.hardware import build_littlefe_modified
from repro.network import BootImage, DhcpServer, PxeServer
from repro.rocks import InsertEthers, Profile, RocksDatabase, install_cluster
from repro.rocks.installer import RocksInstaller
from repro.rpm import Package, Transaction


class TestPxeDhcpFailures:
    def test_pxe_without_image_fails_then_recovers(self):
        dhcp = DhcpServer()
        pxe = PxeServer(dhcp)
        inserter = InsertEthers(db=RocksDatabase(), dhcp=dhcp, pxe=pxe)
        with pytest.raises(PxeError, match="no boot image"):
            inserter.discover_boot("02:aa")
        # the admin fixes the tftp config and retries the same node
        pxe.set_default_image(BootImage("ks", kickstart_profile=Profile.COMPUTE))
        record = inserter.discover_boot("02:aa")
        assert record.name == "compute-0-0"

    def test_dhcp_pool_exhaustion_mid_discovery(self):
        dhcp = DhcpServer(pool_start=10, pool_end=11)
        pxe = PxeServer(dhcp)
        pxe.set_default_image(BootImage("ks", kickstart_profile=Profile.COMPUTE))
        inserter = InsertEthers(db=RocksDatabase(), dhcp=dhcp, pxe=pxe)
        inserter.discover_boot("02:aa")
        inserter.discover_boot("02:bb")
        with pytest.raises(DhcpError, match="exhausted"):
            inserter.discover_boot("02:cc")
        # nodes discovered before the exhaustion are intact
        assert len(inserter.db.compute_hosts()) == 2


class TestKickstartTransactionFailure:
    def test_failed_node_install_leaves_host_out_of_cluster(self, monkeypatch):
        """If a compute node's kickstart transaction dies, the cluster
        build aborts with the node unprovisioned — no half-installed hosts
        in the cluster map."""
        machine = build_littlefe_modified().machine
        installer = RocksInstaller(machine)
        original = installer._kickstart_host
        calls = {"n": 0}

        def flaky(host, graph, distribution, profile):
            calls["n"] += 1
            if calls["n"] == 4:  # the third compute node's kickstart
                raise TransactionError("disk died mid-install")
            return original(host, graph, distribution, profile)

        monkeypatch.setattr(installer, "_kickstart_host", flaky)
        with pytest.raises(TransactionError, match="disk died"):
            installer.run()

    def test_node_reinstall_recovers_from_drift_and_breakage(self):
        machine = build_littlefe_modified().machine
        installer = RocksInstaller(machine)
        cluster = installer.run()
        host, db = cluster.compute["compute-0-0"]
        # breakage: a critical service fails and packages get erased
        host.services.fail("pbs_mom")
        Transaction(db).erase("modules").commit()
        assert "modules" not in cluster.installed_everywhere()
        fresh = installer.reinstall_node(cluster, "compute-0-0")
        assert fresh.services.is_running("pbs_mom")
        assert "modules" in cluster.installed_everywhere()


class TestRollbackUnderInjectedFaults:
    def test_transaction_rollback_keeps_command_surface_consistent(
        self, frontend_host, monkeypatch
    ):
        """A mid-commit crash must not leave half a package's commands."""
        from repro.rpm import RpmDatabase

        db = RpmDatabase(frontend_host)
        good = Package(name="good", version="1", commands=("goodcmd",))
        bad = Package(name="zbad", version="1", commands=("badcmd",))
        txn = Transaction(db)
        txn.install(good)
        txn.install(bad)
        real = db._install_unchecked

        def explode(pkg):
            if pkg.name == "zbad":
                raise OSError("payload write failed")
            real(pkg)

        monkeypatch.setattr(db, "_install_unchecked", explode)
        with pytest.raises(TransactionError, match="rolled back"):
            txn.commit()
        monkeypatch.undo()
        assert not frontend_host.has_command("goodcmd")
        assert not frontend_host.has_command("badcmd")
        assert len(db) == 0

    def test_cluster_survives_one_bad_update_with_staging(self):
        """End-to-end: a broken upstream package reaches the test node only."""
        from repro.core import (
            build_limulus_cluster,
            build_xnit_repository,
            integrate_host,
            setup_via_manual_repo_file,
        )
        from repro.yum import StagedRollout

        cluster = build_limulus_cluster()
        repo = build_xnit_repository()
        for client in cluster.all_clients():
            setup_via_manual_repo_file(client, repo)
            integrate_host(client, packages=["torque", "maui"])
            client.host.services.enable("pbs_mom")
            client.host.services.boot()
        bad = Package(
            name="torque", version="4.2.11", services=("pbs_mom",),
            commands=("qsub", "qstat", "qdel", "pbsnodes"),
        )
        repo.add(bad)
        blades = cluster.hosts()[1:]
        rollout = StagedRollout(
            test_client=cluster.client_for(blades[0]),
            production_clients=[cluster.client_for(h) for h in blades[1:]],
            broken_nevras={bad.nevra},
        )
        outcome = rollout.run_cycle()
        assert not outcome["promoted"]
        # production blades still run the good version and a live mom
        for host in blades[1:]:
            assert cluster.client_for(host).db.get("torque").version == "4.2.10"
            assert host.services.is_running("pbs_mom")


class TestMonitoringSeesFailures:
    def test_dashboard_surfaces_failed_service_and_down_node(self):
        from repro.monitoring import monitor_cluster
        from repro.rocks import optional_rolls

        machine = build_littlefe_modified().machine
        cluster = install_cluster(machine, rolls=[optional_rolls()["ganglia"]])
        gmetad = monitor_cluster(cluster)
        gmetad.poll_cycle()
        host = cluster.compute["compute-0-1"][0]
        host.services.fail("gmond")
        machine.compute_nodes[-1].powered_on = False
        try:
            summary = gmetad.poll_cycle()
            assert summary.failed_services == 1
            assert summary.hosts_down == 1
            dashboard = gmetad.render_dashboard()
            assert " NO" in dashboard  # the down row
        finally:
            machine.compute_nodes[-1].powered_on = True


# --- a swallowed callee error is the typed one, never a programming error ---


def _raiser(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


def _verify_unregistered_service(monkeypatch, exc, machine):
    from repro.distro import CENTOS_6_5, Host
    from repro.rpm import RpmDatabase

    db = RpmDatabase(Host(machine.head, CENTOS_6_5))
    Transaction(db).install(
        Package("torque", "4.2.10", services=("pbs_mom",))
    ).commit()
    monkeypatch.setattr(db.host.services, "get", _raiser(exc))
    return db.verify("torque")


def _commands_through_symlink(monkeypatch, exc, machine):
    from repro.distro import CENTOS_6_5, Host

    host = Host(machine.head, CENTOS_6_5)
    host.fs.write("/usr/libexec/qsub-real", "#!ELF", mode=0o755)
    host.fs.symlink("/usr/bin/qsub", "/usr/libexec/qsub-real")
    get = host.fs.get
    monkeypatch.setattr(
        host.fs, "get",
        lambda path: _raiser(exc)() if path == "/usr/libexec/qsub-real" else get(path),
    )
    return "qsub" in host.commands()


class _Scheduler:
    def crash_node(self, name, *, reason):
        pass

    def recover_node(self, name):
        pass


def _injector_heartbeat(handler):
    def run(monkeypatch, exc, machine):
        from repro.faults import FaultInjector, FaultKind, FaultSpec

        gmetad = SimpleNamespace(gmond_for=_raiser(exc))
        injector = FaultInjector(None, scheduler=_Scheduler(), gmetad=gmetad)
        spec = FaultSpec(FaultKind.NODE_CRASH, "compute-0-0", at_s=0.0)
        return getattr(injector, handler)(spec)

    return run


@pytest.mark.parametrize(
    "site,typed,skipped",
    [
        (_verify_unregistered_service, ServiceError, ["unregistered service pbs_mom"]),
        (_commands_through_symlink, FilesystemError, False),
        (_injector_heartbeat("_crash_node"), MonitoringError, None),
        (_injector_heartbeat("_recover_node"), MonitoringError, None),
    ],
    ids=["RpmDatabase.verify", "Host.commands", "_crash_node", "_recover_node"],
)
def test_catch_names_the_typed_error(monkeypatch, littlefe_machine, site, typed, skipped):
    """The typed error the callee raises is skipped; anything else (here an
    AttributeError, a programming error) propagates."""
    assert site(monkeypatch, typed("absent"), littlefe_machine) == skipped
    with pytest.raises(AttributeError):
        site(monkeypatch, AttributeError("bug"), littlefe_machine)
