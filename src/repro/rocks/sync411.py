"""The Rocks 411 information service: cluster-wide account sync.

Rocks keeps /etc/passwd (and friends) uniform by pushing them from the
frontend to every compute node through the 411 service (the base roll's
``rocks-411`` package registers it).  Combined with the NFS-exported /home,
this is what makes an account created on the frontend *work* everywhere.

:func:`make_cluster_uniform` is the convenience that wires both: export and
mount /home, then start a :class:`Sync411` session.
"""

from __future__ import annotations

from ..distro.host import Host
from ..distro.nfs import NfsServer, nfs_mount
from ..errors import RocksError
from .installer import ProvisionedCluster

__all__ = ["Sync411", "make_cluster_uniform"]


class Sync411:
    """A 411 master (the frontend) and its listeners (compute nodes)."""

    def __init__(self, master: Host) -> None:
        if not master.services.is_running("411"):
            raise RocksError(
                f"{master.name}: the 411 service is not running "
                f"(is the Rocks base roll installed?)"
            )
        self.master = master
        self._listeners: list[Host] = []
        self.push_count = 0

    def register(self, listener: Host) -> None:
        """Attach a compute node as a 411 listener."""
        if listener is self.master:
            raise RocksError("the master does not listen to itself")
        if listener in self._listeners:
            raise RocksError(f"{listener.name} is already registered")
        self._listeners.append(listener)

    def push(self) -> int:
        """Replicate the master's accounts to every listener.

        Returns the number of accounts created across the cluster.  Existing
        same-named accounts are left alone (411 files are replaced wholesale
        in reality; the observable effect — same account set everywhere — is
        identical, and skipping avoids clobbering uids tests rely on).
        """
        created = 0
        for listener in self._listeners:
            for user in self.master.users.users():
                if user.name == "root" or listener.users.has_user(user.name):
                    continue
                clone = listener.users.add_user(
                    user.name,
                    system=user.system,
                    home=user.home,
                    shell=user.shell,
                )
                clone.profile_modules = list(user.profile_modules)
                created += 1
        self.push_count += 1
        return created


def make_cluster_uniform(cluster: ProvisionedCluster) -> tuple[Sync411, NfsServer]:
    """Wire the standard Rocks account/home uniformity onto a cluster.

    * exports the frontend's /home over NFS and mounts it on every compute
      node;
    * starts a 411 session with every compute node registered and performs
      the initial push.
    """
    frontend = cluster.frontend
    nfs = NfsServer(frontend)
    frontend.fs.mkdir("/home", exist_ok=True)
    nfs.export("/home")
    sync = Sync411(frontend)
    for host in cluster.hosts()[1:]:
        nfs_mount(host, nfs, "/home", "/home")
        sync.register(host)
    sync.push()
    return sync, nfs
