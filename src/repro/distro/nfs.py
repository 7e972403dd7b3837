"""NFS: exported directories and client mounts.

Rocks clusters export the frontend's ``/home`` (and often ``/share/apps``)
to every compute node — that is what makes a user's files and a cluster-wide
application tree appear identical everywhere, half of the "uniform
environment" story XCBC banks on.

:class:`NfsServer` wraps a host's exports table; :func:`nfs_mount` attaches
an export to a client host using the filesystem's mount machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DistroError
from .host import Host

__all__ = ["NfsExport", "NfsServer", "nfs_mount"]


@dataclass(frozen=True)
class NfsExport:
    """One line of /etc/exports."""

    path: str
    network: str = "10.1.1.0/24"  # the cluster's private segment
    read_only: bool = False

    def render(self) -> str:
        flags = "ro" if self.read_only else "rw"
        return f"{self.path} {self.network}({flags},sync,no_root_squash)"


class NfsServer:
    """The NFS daemon of one host (the frontend, normally)."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._exports: dict[str, NfsExport] = {}

    def export(self, path: str, *, read_only: bool = False) -> NfsExport:
        """Add an export; the directory must exist."""
        if not self.host.fs.is_dir(path):
            raise DistroError(f"{self.host.name}: cannot export non-directory {path}")
        entry = NfsExport(path=path, read_only=read_only)
        self._exports[path] = entry
        self._write_exports_file()
        self.host.services.register("nfsd", package="nfs-utils")
        self.host.services.enable("nfsd")
        self.host.services.start("nfsd")
        return entry

    def exports(self) -> list[NfsExport]:
        return [self._exports[p] for p in sorted(self._exports)]

    def is_exported(self, path: str) -> bool:
        return path in self._exports

    def _write_exports_file(self) -> None:
        text = "\n".join(e.render() for e in self.exports())
        self.host.fs.write("/etc/exports", text + "\n" if text else "")


def nfs_mount(client: Host, server: NfsServer, remote_path: str, mount_point: str) -> None:
    """Mount ``server:remote_path`` at ``mount_point`` on ``client``.

    The export must exist and the server's nfsd must be running — the two
    failure modes every cluster admin has debugged at least once.
    """
    if not server.is_exported(remote_path):
        raise DistroError(
            f"mount {server.host.name}:{remote_path} failed: not exported"
        )
    if not server.host.services.is_running("nfsd"):
        raise DistroError(
            f"mount {server.host.name}:{remote_path} failed: nfsd not running"
        )
    client.fs.mkdir(mount_point, exist_ok=True)
    client.fs.mount(mount_point, server.host.fs, remote_path)
    # record it the way /etc/mtab would
    line = f"{server.host.name}:{remote_path} {mount_point} nfs rw 0 0\n"
    existing = (
        client.fs.read("/etc/mtab") if client.fs.exists("/etc/mtab") else ""
    )
    client.fs.write("/etc/mtab", existing + line)
