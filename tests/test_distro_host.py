"""Host, services, users, and environment-modules tests."""

import pytest

from repro.distro import (
    CENTOS_6_5,
    SCIENTIFIC_LINUX_6_5,
    Host,
    ModuleFile,
    ModuleSession,
    ModuleSystem,
    ServiceState,
    UserDatabase,
)
from repro.errors import (
    CommandError,
    DistroError,
    ModuleEnvError,
    ServiceError,
    UserError,
)


class TestDistroReleases:
    def test_release_strings(self):
        assert CENTOS_6_5.release_string == "CentOS 6.5"
        assert SCIENTIFIC_LINUX_6_5.release_string == "Scientific Linux 6.5"


class TestHost:
    def test_fresh_host_has_base_tree(self, frontend_host):
        assert frontend_host.fs.is_dir("/etc/yum.repos.d")
        assert frontend_host.release_string() == "CentOS 6.5"

    def test_diskless_node_needs_image(self, limulus_machine):
        blade = limulus_machine.compute_nodes[0]
        with pytest.raises(DistroError, match="diskless"):
            Host(blade, SCIENTIFIC_LINUX_6_5)
        host = Host(blade, SCIENTIFIC_LINUX_6_5, diskless_image=True)
        assert host.diskless_image

    def test_which_finds_executables_only(self, frontend_host):
        frontend_host.fs.write("/usr/bin/mdrun", "x", mode=0o755)
        frontend_host.fs.write("/usr/bin/readme.txt", "docs", mode=0o644)
        assert frontend_host.which("mdrun") == "/usr/bin/mdrun"
        with pytest.raises(CommandError):
            frontend_host.which("readme.txt")

    @pytest.mark.parametrize("name", ["", "qsub/", "bin/qsub", "../bin/ls"])
    def test_which_searches_bare_names_only(self, frontend_host, name):
        frontend_host.fs.write("/usr/bin/mdrun", "x", mode=0o755)
        frontend_host.fs.write("/usr/bin/qsub", "x", mode=0o755)
        frontend_host.fs.write("/usr/local/bin/bin/qsub", "x", mode=0o755)
        assert frontend_host.which("mdrun") == "/usr/bin/mdrun"
        with pytest.raises(CommandError, match="command not found"):
            frontend_host.which(name)

    def test_which_path_order(self, frontend_host):
        frontend_host.fs.write("/usr/bin/python", "usr", mode=0o755)
        frontend_host.fs.write("/usr/local/bin/python", "local", mode=0o755)
        assert frontend_host.which("python") == "/usr/local/bin/python"


class TestServices:
    def test_lifecycle(self, frontend_host):
        svc = frontend_host.services
        svc.register("pbs_server", package="torque")
        assert not svc.is_running("pbs_server")
        svc.start("pbs_server")
        assert svc.is_running("pbs_server")

    def test_boot_starts_enabled_only(self, frontend_host):
        svc = frontend_host.services
        svc.register("sshd", package="openssh-server")
        svc.register("httpd", package="rocks")
        svc.enable("sshd")
        started = svc.boot()
        assert started == ["sshd"]
        assert not svc.is_running("httpd")

    def test_reregistration_by_other_package_rejected(self, frontend_host):
        svc = frontend_host.services
        svc.register("qmaster", package="sge")
        with pytest.raises(ServiceError, match="already registered"):
            svc.register("qmaster", package="slurm")

    def test_unregister_package_stops_tracking(self, frontend_host):
        svc = frontend_host.services
        svc.register("gmond", package="ganglia-gmond")
        dropped = svc.unregister_package("ganglia-gmond")
        assert dropped == ["gmond"]
        with pytest.raises(ServiceError):
            svc.get("gmond")

    def test_fail_marks_failed(self, frontend_host):
        svc = frontend_host.services
        svc.register("pbs_mom", package="torque")
        svc.start("pbs_mom")
        svc.fail("pbs_mom")
        assert svc.get("pbs_mom").state is ServiceState.FAILED


class TestUsers:
    def test_root_exists(self):
        db = UserDatabase()
        root = db.users()[0]
        assert root.name == "root" and root.uid == 0

    def test_useradd_allocates_from_500(self):
        db = UserDatabase()
        alice = db.add_user("alice")
        bob = db.add_user("bob")
        assert alice.uid == 500 and bob.uid == 501
        assert alice.home == "/home/alice"

    def test_system_users_below_500(self):
        db = UserDatabase()
        daemon = db.add_user("pbs", system=True)
        assert daemon.uid < 500

    def test_duplicate_rejected(self):
        db = UserDatabase()
        db.add_user("alice")
        with pytest.raises(UserError):
            db.add_user("alice")


class TestModules:
    def make_system(self):
        system = ModuleSystem()
        system.install(
            ModuleFile(
                "openmpi", "1.6.4", prepend_path=(("PATH", "/opt/openmpi/bin"),)
            )
        )
        system.install(
            ModuleFile(
                "gromacs",
                "4.6.5",
                prepend_path=(("PATH", "/opt/gromacs/bin"),),
                prerequisites=("openmpi",),
            )
        )
        system.install(ModuleFile("mpich2", "1.9", conflicts=("openmpi",)))
        return system

    def test_avail_marks_default(self):
        system = self.make_system()
        assert "openmpi/1.6.4(default)" in system.avail()

    def test_load_prepends_path(self):
        system = self.make_system()
        session = ModuleSession(system)
        session.load("openmpi")
        assert session.env["PATH"].startswith("/opt/openmpi/bin:")

    def test_prerequisite_enforced(self):
        session = ModuleSession(self.make_system())
        with pytest.raises(ModuleEnvError, match="requires module"):
            session.load("gromacs")
        session.load("openmpi")
        session.load("gromacs")
        assert session.loaded() == ["openmpi/1.6.4", "gromacs/4.6.5"]

    def test_conflict_enforced_both_directions(self):
        session = ModuleSession(self.make_system())
        session.load("openmpi")
        with pytest.raises(ModuleEnvError, match="conflicts"):
            session.load("mpich2")
        session2 = ModuleSession(self.make_system())
        session2.load("mpich2")
        with pytest.raises(ModuleEnvError, match="conflicts"):
            session2.load("openmpi")

    def test_unload_restores_path(self):
        session = ModuleSession(self.make_system())
        before = session.env["PATH"]
        session.load("openmpi")
        session.unload("openmpi")
        assert session.env["PATH"] == before

    def test_unload_blocked_by_dependant(self):
        session = ModuleSession(self.make_system())
        session.load("openmpi")
        session.load("gromacs")
        with pytest.raises(ModuleEnvError, match="required by"):
            session.unload("openmpi")

    def test_purge_unloads_in_safe_order(self):
        session = ModuleSession(self.make_system())
        session.load("openmpi")
        session.load("gromacs")
        session.purge()
        assert session.loaded() == []

    def test_two_versions_cannot_coload(self):
        system = self.make_system()
        system.install(ModuleFile("openmpi", "1.8.1"))
        session = ModuleSession(system)
        session.load("openmpi/1.6.4")
        with pytest.raises(ModuleEnvError, match="already loaded"):
            session.load("openmpi/1.8.1")

    def test_remove_version_promotes_new_default(self):
        system = self.make_system()
        system.install(ModuleFile("openmpi", "1.8.1"))
        system.remove("openmpi", "1.6.4")
        assert system.resolve("openmpi").version == "1.8.1"

    def test_resolve_unknown_raises(self):
        with pytest.raises(ModuleEnvError):
            self.make_system().resolve("lammps")
