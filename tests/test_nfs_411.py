"""NFS mounts, exports, and Rocks 411 account-sync tests."""

import pytest

from repro.distro import CENTOS_6_5, Filesystem, Host, ServiceState
from repro.distro.nfs import NfsServer, nfs_mount
from repro.errors import DistroError, FilesystemError, RocksError
from repro.rocks import install_cluster
from repro.rocks.sync411 import Sync411, make_cluster_uniform


class TestFilesystemMounts:
    def make_pair(self):
        server, client = Filesystem(), Filesystem()
        server.mkdir("/export/home", exist_ok=True)
        server.write("/export/home/alice/notes.txt", "hello")
        client.mkdir("/home", exist_ok=True)
        return server, client

    def test_mount_routes_reads(self):
        server, client = self.make_pair()
        client.mount("/home", server, "/export/home")
        assert client.read("/home/alice/notes.txt") == "hello"
        assert client.listdir("/home") == ["alice"]

    def test_writes_land_on_server(self):
        server, client = self.make_pair()
        client.mount("/home", server, "/export/home")
        client.write("/home/alice/new.txt", "from client")
        assert server.read("/export/home/alice/new.txt") == "from client"

    def test_mount_point_must_be_empty_dir(self):
        server, client = self.make_pair()
        client.write("/home/existing", "x")
        with pytest.raises(FilesystemError, match="not empty"):
            client.mount("/home", server, "/export/home")

    def test_overlapping_mounts_rejected(self):
        server, client = self.make_pair()
        client.mount("/home", server, "/export/home")
        client.mkdir("/home2", exist_ok=True)
        with pytest.raises(FilesystemError, match="overlaps"):
            client.mount("/home/alice", server, "/export/home")

    def test_self_mount_rejected(self):
        fs = Filesystem()
        fs.mkdir("/a", exist_ok=True)
        with pytest.raises(FilesystemError, match="itself"):
            fs.mount("/a", fs, "/")

    def test_unmount_restores_local_view(self):
        server, client = self.make_pair()
        client.mount("/home", server, "/export/home")
        assert client.exists("/home/alice/notes.txt")
        client.unmount("/home")
        assert not client.exists("/home/alice/notes.txt")
        assert client.is_dir("/home")  # the local empty dir is back

    def test_mount_table(self):
        server, client = self.make_pair()
        client.mount("/home", server, "/export/home")
        assert client.mounts() == {"/home": "/export/home"}

    def test_remove_owned_stays_local(self):
        server, client = self.make_pair()
        server.write("/export/home/alice/pkgfile", "x", owner="pkg")
        client.mount("/home", server, "/export/home")
        client.remove_owned("pkg")  # local scan: must not touch the server
        assert server.exists("/export/home/alice/pkgfile")


class TestNfsServer:
    def make_hosts(self, littlefe_machine):
        fe = Host(littlefe_machine.head, CENTOS_6_5)
        comp = Host(littlefe_machine.compute_nodes[0], CENTOS_6_5)
        return fe, comp

    def test_export_and_mount(self, littlefe_machine):
        fe, comp = self.make_hosts(littlefe_machine)
        nfs = NfsServer(fe)
        nfs.export("/home")
        fe.fs.write("/home/alice/data.txt", "payload")
        nfs_mount(comp, nfs, "/home", "/home")
        assert comp.fs.read("/home/alice/data.txt") == "payload"
        assert "nfs" in comp.fs.read("/etc/mtab")

    def test_unexported_path_refused(self, littlefe_machine):
        fe, comp = self.make_hosts(littlefe_machine)
        nfs = NfsServer(fe)
        with pytest.raises(DistroError, match="not exported"):
            nfs_mount(comp, nfs, "/home", "/home")

    def test_stopped_nfsd_refused(self, littlefe_machine):
        fe, comp = self.make_hosts(littlefe_machine)
        nfs = NfsServer(fe)
        nfs.export("/home")
        fe.services.get("nfsd").state = ServiceState.STOPPED
        with pytest.raises(DistroError, match="nfsd not running"):
            nfs_mount(comp, nfs, "/home", "/home")

    def test_exports_file_written(self, littlefe_machine):
        fe, _comp = self.make_hosts(littlefe_machine)
        nfs = NfsServer(fe)
        nfs.export("/home")
        text = fe.fs.read("/etc/exports")
        assert "/home 10.1.1.0/24(rw" in text

    def test_export_missing_dir_refused(self, littlefe_machine):
        fe, _comp = self.make_hosts(littlefe_machine)
        with pytest.raises(DistroError, match="non-directory"):
            NfsServer(fe).export("/no/such/dir")


class TestSync411:
    @pytest.fixture
    def cluster(self, littlefe_machine):
        return install_cluster(littlefe_machine)

    def test_requires_411_service(self, littlefe_machine):
        bare = Host(littlefe_machine.head, CENTOS_6_5)
        with pytest.raises(RocksError, match="411"):
            Sync411(bare)

    def test_push_replicates_accounts(self, cluster):
        sync, _nfs = make_cluster_uniform(cluster)
        cluster.frontend.users.add_user("alice")
        cluster.frontend.users.add_user("bob")
        created = sync.push()
        assert created == 10  # 2 users x 5 compute nodes
        master = {u.name for u in cluster.frontend.users.users()}
        for comp, _db in cluster.compute.values():
            assert {u.name for u in comp.users.users()} == master
        comp = cluster.compute["compute-0-3"][0]
        assert comp.users.has_user("alice") and comp.users.has_user("bob")

    def test_push_is_idempotent(self, cluster):
        sync, _nfs = make_cluster_uniform(cluster)
        cluster.frontend.users.add_user("alice")
        sync.push()
        assert sync.push() == 0

    def test_home_shared_cluster_wide(self, cluster):
        _sync, _nfs = make_cluster_uniform(cluster)
        cluster.frontend.users.add_user("alice")
        cluster.frontend.fs.write("/home/alice/.bashrc", "module load R")
        comp = cluster.compute["compute-0-1"][0]
        assert comp.fs.read("/home/alice/.bashrc") == "module load R"
        comp.fs.write("/home/alice/out.log", "job output")
        assert cluster.frontend.fs.read("/home/alice/out.log") == "job output"

    def test_master_not_registered_as_listener(self, cluster):
        sync, _nfs = make_cluster_uniform(cluster)
        with pytest.raises(RocksError):
            sync.register(cluster.frontend)

    def test_double_register_rejected(self, cluster):
        sync, _nfs = make_cluster_uniform(cluster)
        comp = cluster.compute["compute-0-0"][0]
        with pytest.raises(RocksError, match="already registered"):
            sync.register(comp)

    def test_profile_modules_travel(self, cluster):
        sync, _nfs = make_cluster_uniform(cluster)
        alice = cluster.frontend.users.add_user("alice")
        alice.profile_modules = ["gromacs/4.6.5"]
        sync.push()
        comp = cluster.compute["compute-0-0"][0]
        alice = next(u for u in comp.users.users() if u.name == "alice")
        assert alice.profile_modules == ["gromacs/4.6.5"]
