"""rpm -V, yum history undo, cluster-wide audit, and module swap/whatis."""

import pytest

from repro.distro import ModuleFile, ModuleSession, ModuleSystem
from repro.errors import DependencyError, ModuleEnvError, YumError
from repro.rpm import Package, Requirement, RpmDatabase, Transaction
from repro.yum import Repository, XSEDE_REPO_STANZA, YumClient


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


class TestRpmVerify:
    def test_intact_package_verifies_clean(self, frontend_host):
        db = RpmDatabase(frontend_host)
        Transaction(db).install(
            mk("tool", commands=("tool",), libraries=("libtool.so.1",))
        ).commit()
        assert db.verify("tool") == []
        assert db.verify_all() == {}

    def test_missing_file_detected(self, frontend_host):
        db = RpmDatabase(frontend_host)
        Transaction(db).install(mk("tool", commands=("tool",))).commit()
        frontend_host.fs.remove("/usr/bin/tool")
        problems = db.verify("tool")
        assert problems == ["missing   /usr/bin/tool"]
        assert "tool" in db.verify_all()

    def test_replaced_file_detected(self, frontend_host):
        db = RpmDatabase(frontend_host)
        Transaction(db).install(mk("tool", commands=("tool",))).commit()
        # another actor overwrites the binary
        frontend_host.fs.write("/usr/bin/tool", "trojan", owner="intruder", mode=0o755)
        problems = db.verify("tool")
        assert any("replaced" in p and "intruder" in p for p in problems)

    def test_service_reowning_detected(self, frontend_host):
        db = RpmDatabase(frontend_host)
        Transaction(db).install(mk("daemon", services=("thing",))).commit()
        frontend_host.services.unregister_package("daemon")
        frontend_host.services.register("thing", package="other")
        problems = db.verify("daemon")
        assert any("re-owned" in p for p in problems)


class TestYumHistoryUndo:
    def make_client(self, host):
        repo = Repository("xsede", priority=50)
        repo.add(mk("fftw", "3.3.3", libraries=("libfftw3.so.3",)))
        repo.add(mk("gromacs", "4.6.5", requires=(Requirement("fftw"),),
                    commands=("mdrun",)))
        client = YumClient(host)
        client.configure_repo_file(
            "xsede.repo", XSEDE_REPO_STANZA.render(), available={"xsede": repo}
        )
        return client, repo

    def test_undo_install(self, frontend_host):
        client, _repo = self.make_client(frontend_host)
        client.install("gromacs")
        assert frontend_host.has_command("mdrun")
        client.history_undo()
        assert not client.db.has("gromacs")
        assert not client.db.has("fftw")
        assert not frontend_host.has_command("mdrun")

    def test_undo_update_downgrades(self, frontend_host):
        client, repo = self.make_client(frontend_host)
        client.install("fftw")
        repo.add(mk("fftw", "3.3.4", libraries=("libfftw3.so.3",)))
        client.update()
        assert client.db.get("fftw").version == "3.3.4"
        client.history_undo()
        assert client.db.get("fftw").version == "3.3.3"

    def test_undo_erase_reinstalls(self, frontend_host):
        client, _repo = self.make_client(frontend_host)
        client.install("fftw")
        client.erase("fftw")
        client.history_undo()
        assert client.db.has("fftw")

    def test_undo_of_undo(self, frontend_host):
        client, _repo = self.make_client(frontend_host)
        client.install("fftw")
        client.history_undo()
        assert not client.db.has("fftw")
        client.history_undo()  # undo the undo
        assert client.db.has("fftw")

    def test_undo_blocked_by_dependants(self, frontend_host):
        client, _repo = self.make_client(frontend_host)
        client.install("fftw")       # history[0]
        client.install("gromacs")    # history[1], depends on fftw
        with pytest.raises(DependencyError):
            client.history_undo(0)   # cannot rip fftw out from under gromacs
        assert client.db.has("fftw")

    def test_undo_empty_history(self, frontend_host):
        client, _repo = self.make_client(frontend_host)
        with pytest.raises(YumError, match="no transactions"):
            client.history_undo()

    def test_undo_bad_index(self, frontend_host):
        client, _repo = self.make_client(frontend_host)
        client.install("fftw")
        with pytest.raises(YumError, match="history index"):
            client.history_undo(7)


class TestAuditCluster:
    def test_every_host_audited(self, xcbc_littlefe):
        from repro.core import audit_cluster

        reports = audit_cluster(xcbc_littlefe.cluster)
        assert len(reports) == 6
        # compute nodes miss only the frontend-only grid tools
        for name, report in reports.items():
            coverage = report.dimension("package coverage")
            if name.startswith("compute"):
                # frontend-only software: the grid endpoints and the Maui
                # scheduler daemon (pbs_mom comes with torque on computes)
                assert set(coverage.missing) == {
                    "maui", "globus-connect-server", "genesis2", "gffs",
                }
                assert report.overall > 0.95
            else:
                assert report.overall == pytest.approx(1.0)

    def test_rejects_unknown_shape(self):
        from repro.core import audit_cluster

        with pytest.raises(TypeError):
            audit_cluster(42)

    @pytest.mark.parametrize("shape", ["provisioned", "existing"])
    def test_both_cluster_shapes_answer_db_for(
        self, shape, xcbc_littlefe, xnit_limulus
    ):
        """One way from a cluster to a host's package database: the audit,
        the manifest and the monitoring mesh all go through ``db_for``."""
        from repro.core import audit_cluster
        from repro.core.manifest import manifest_of_cluster
        from repro.monitoring import monitor_cluster

        cluster = xcbc_littlefe.cluster if shape == "provisioned" else xnit_limulus
        dbs = {host.name: cluster.db_for(host) for host in cluster.hosts()}
        assert all(db.host.name == name for name, db in dbs.items())
        assert set(audit_cluster(cluster)) == set(dbs)
        manifest = manifest_of_cluster(cluster)
        for name, db in dbs.items():
            assert manifest.host(name).packages == tuple(
                sorted(p.nevra for p in db.installed())
            )
        assert monitor_cluster(cluster).run_cycles(2).hosts_up == len(dbs)


class TestModuleExtensions:
    def make_system(self):
        system = ModuleSystem()
        system.install(ModuleFile("openmpi", "1.6.4", whatis="MPI implementation"))
        system.install(ModuleFile("openmpi", "1.8.1", whatis="MPI implementation"))
        system.install(ModuleFile("fftw3", "3.3.3", whatis="fast Fourier transforms"))
        return system

    def test_set_default(self):
        system = self.make_system()
        assert system.resolve("openmpi").version == "1.6.4"
        system.set_default("openmpi", "1.8.1")
        assert system.resolve("openmpi").version == "1.8.1"
        with pytest.raises(ModuleEnvError):
            system.set_default("openmpi", "9.9")

    def test_whatis_search(self):
        system = self.make_system()
        hits = system.whatis("fourier")
        assert hits == ["fftw3/3.3.3: fast Fourier transforms"]
        assert len(system.whatis("mpi")) >= 2

    def test_swap(self):
        session = ModuleSession(self.make_system())
        session.load("openmpi/1.6.4")
        session.swap("openmpi", "openmpi/1.8.1")
        assert session.loaded() == ["openmpi/1.8.1"]

    def test_swap_restores_on_failure(self):
        session = ModuleSession(self.make_system())
        session.load("openmpi/1.6.4")
        with pytest.raises(ModuleEnvError):
            session.swap("openmpi", "nonexistent/1.0")
        assert session.loaded() == ["openmpi/1.6.4"]

    def test_swap_requires_loaded(self):
        session = ModuleSession(self.make_system())
        with pytest.raises(ModuleEnvError, match="not loaded"):
            session.swap("openmpi", "openmpi/1.8.1")


class TestFileConflictReporting:
    def test_scheduler_change_reports_replaced_commands(self):
        """XNIT torque over the vendor Grid Engine: the qsub/qstat/qdel
        takeover is recorded on the transaction, never silent."""
        from repro.core import (
            build_limulus_cluster,
            build_xnit_repository,
            setup_via_repo_rpm,
        )

        cluster = build_limulus_cluster()
        client = cluster.client_for(cluster.frontend)
        setup_via_repo_rpm(client, build_xnit_repository())
        result = client.install("torque")
        assert "/usr/bin/qsub (sge -> torque)" in result.file_conflicts
        assert len(result.file_conflicts) == 3

    def test_clean_install_reports_none(self, frontend_host):
        db = RpmDatabase(frontend_host)
        result = Transaction(db).install(mk("solo", commands=("solo",))).commit()
        assert result.file_conflicts == []

    def test_upgrade_does_not_self_conflict(self, frontend_host):
        db = RpmDatabase(frontend_host)
        Transaction(db).install(mk("x", "1.0", commands=("x",))).commit()
        result = Transaction(db).upgrade(mk("x", "2.0", commands=("x",))).commit()
        assert result.file_conflicts == []
