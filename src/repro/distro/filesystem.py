"""A simulated POSIX-ish filesystem tree.

The RPM engine tracks the files each package owns; XSEDE "run-alike"
compatibility (Table 2) is partly about *where* libraries and binaries land
("libraries are in the same place as on XSEDE clusters").  The tree is a
plain dict of normalised absolute paths to :class:`FsNode` records — no real
I/O is ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from ..errors import FilesystemError

__all__ = ["FileKind", "FsNode", "Filesystem", "normpath", "parent_dirs"]


class FileKind(str, Enum):
    """Node type in the simulated tree."""

    FILE = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"


def normpath(path: str) -> str:
    """Normalise an absolute path: collapse ``//``, ``.`` and trailing ``/``.

    Rejects relative paths and any ``..`` component — the simulation has no
    working directory, so a relative path is always a caller bug, and ``..``
    would complicate ownership tracking for no modelling benefit.
    """
    if not path.startswith("/"):
        raise FilesystemError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p not in ("", ".")]
    if ".." in parts:
        raise FilesystemError(f"'..' components are not supported: {path!r}")
    return "/" + "/".join(parts)


def parent_dirs(path: str) -> Iterator[str]:
    """Yield every ancestor directory of ``path``, root first (excluding /)."""
    parts = [p for p in path.split("/") if p]
    acc = ""
    for part in parts[:-1]:
        acc += "/" + part
        yield acc


@dataclass
class FsNode:
    """One entry in the tree."""

    path: str
    kind: FileKind
    owner_package: str | None = None  # RPM that owns this node, if any
    content: str = ""
    mode: int = 0o644
    target: str = ""  # symlink target

    @property
    def executable(self) -> bool:
        return bool(self.mode & 0o111)


class Filesystem:
    """The simulated filesystem of one host.

    Invariants (enforced, and property-tested):

    * every stored key is a normalised absolute path;
    * every file's ancestors exist and are directories;
    * removing a package's files never leaves orphan children.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, FsNode] = {}
        #: network mounts: mount point -> (remote filesystem, remote path).
        #: Paths at/under a mount point are served by the remote tree —
        #: this is how the cluster's NFS /home works (see repro.distro.nfs).
        self._mounts: dict[str, tuple["Filesystem", str]] = {}
        self.mkdir("/", exist_ok=True)

    # -- mounts ---------------------------------------------------------------

    def mount(self, mount_point: str, source_fs: "Filesystem", source_path: str) -> None:
        """Attach a remote subtree at ``mount_point`` (NFS-style).

        The mount point must be an existing, empty local directory; the
        source path must be a directory on the remote filesystem.  Nested
        mounts are rejected for simplicity.
        """
        key = normpath(mount_point)
        src = normpath(source_path)
        if source_fs is self:
            raise FilesystemError("cannot mount a filesystem on itself")
        for existing in self._mounts:
            if key == existing or key.startswith(existing + "/") or existing.startswith(key + "/"):
                raise FilesystemError(
                    f"mount at {key} overlaps existing mount at {existing}"
                )
        if not self.is_dir(key):
            raise FilesystemError(f"mount point is not a directory: {key}")
        if self.listdir(key):
            raise FilesystemError(f"mount point is not empty: {key}")
        if not source_fs.is_dir(src):
            raise FilesystemError(f"remote export is not a directory: {src}")
        self._mounts[key] = (source_fs, src)

    def unmount(self, mount_point: str) -> None:
        """Detach a mount."""
        key = normpath(mount_point)
        if key not in self._mounts:
            raise FilesystemError(f"not a mount point: {key}")
        del self._mounts[key]

    def mounts(self) -> dict[str, str]:
        """The mount table: mount point -> remote path (for /etc/mtab views)."""
        return {mp: src for mp, (_fs, src) in sorted(self._mounts.items())}

    def _route(self, path: str) -> tuple["Filesystem", str]:
        """Translate a path through the mount table."""
        key = normpath(path)
        for mount_point, (remote, remote_root) in self._mounts.items():
            if key == mount_point:
                return remote, remote_root
            if key.startswith(mount_point + "/"):
                return remote, remote_root + key[len(mount_point):]
        return self, key

    # -- queries -----------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True if ``path`` exists (any kind)."""
        fs, key = self._route(path)
        return key in fs._nodes

    def get(self, path: str) -> FsNode:
        """Fetch a node, raising :class:`FilesystemError` if absent."""
        fs, key = self._route(path)
        try:
            return fs._nodes[key]
        except KeyError:
            raise FilesystemError(f"no such file or directory: {key}") from None

    def lookup(self, path: str) -> FsNode | None:
        """The node at ``path``, or None if absent (one mount-table route)."""
        fs, key = self._route(path)
        return fs._nodes.get(key)

    def is_dir(self, path: str) -> bool:
        """True if ``path`` exists and is a directory."""
        node = self.lookup(path)
        return node is not None and node.kind is FileKind.DIRECTORY

    def listdir(self, path: str) -> list[str]:
        """Immediate children names of a directory, sorted."""
        fs, key = self._route(path)
        if not fs.is_dir(key):
            raise FilesystemError(f"not a directory: {key}")
        prefix = key.rstrip("/") + "/"
        names = set()
        for other in fs._nodes:
            if other != key and other.startswith(prefix):
                rest = other[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)

    def walk(self) -> Iterator[FsNode]:
        """All nodes in path order."""
        for key in sorted(self._nodes):
            yield self._nodes[key]

    def owned_by(self, package: str) -> list[str]:
        """Paths owned by an RPM, sorted."""
        return sorted(
            p for p, n in self._nodes.items() if n.owner_package == package
        )

    def read(self, path: str) -> str:
        """Content of a regular file (symlinks are followed one hop)."""
        node = self.get(path)
        if node.kind is FileKind.SYMLINK:
            node = self.get(node.target)
        if node.kind is not FileKind.FILE:
            raise FilesystemError(f"not a regular file: {node.path}")
        return node.content

    # -- mutations ----------------------------------------------------------

    def _make_parents(self, key: str) -> None:
        """Create the missing ancestors of ``key`` (``mkdir -p``); one that
        exists must be a directory."""
        for ancestor in parent_dirs(key):
            node = self._nodes.get(ancestor)
            if node is None:
                self._nodes[ancestor] = FsNode(ancestor, FileKind.DIRECTORY)
            elif node.kind is not FileKind.DIRECTORY:
                raise FilesystemError(f"ancestor is not a directory: {ancestor}")

    def mkdir(self, path: str, *, exist_ok: bool = False, owner: str | None = None) -> FsNode:
        """Create a directory (and its ancestors, like ``mkdir -p``)."""
        fs, key = self._route(path)
        if fs is not self:
            return fs.mkdir(key, exist_ok=exist_ok, owner=owner)
        existing = self._nodes.get(key)
        if existing is not None:
            if existing.kind is not FileKind.DIRECTORY:
                raise FilesystemError(f"exists and is not a directory: {key}")
            if not exist_ok:
                raise FilesystemError(f"directory exists: {key}")
            return existing
        self._make_parents(key)
        node = FsNode(key, FileKind.DIRECTORY, owner_package=owner)
        self._nodes[key] = node
        return node

    def write(
        self,
        path: str,
        content: str = "",
        *,
        owner: str | None = None,
        mode: int = 0o644,
    ) -> FsNode:
        """Create or replace a regular file, creating ancestors as needed."""
        fs, key = self._route(path)
        if fs is not self:
            return fs.write(key, content, owner=owner, mode=mode)
        if key == "/":
            raise FilesystemError("cannot write to /")
        existing = self._nodes.get(key)
        if existing is not None and existing.kind is FileKind.DIRECTORY:
            raise FilesystemError(f"is a directory: {key}")
        self._make_parents(key)
        node = FsNode(key, FileKind.FILE, owner_package=owner, content=content, mode=mode)
        self._nodes[key] = node
        return node

    def symlink(self, path: str, target: str, *, owner: str | None = None) -> FsNode:
        """Create a symlink at ``path`` pointing at ``target``."""
        fs, key = self._route(path)
        if fs is not self:
            return fs.symlink(key, target, owner=owner)
        tgt = normpath(target)
        if key in self._nodes:
            raise FilesystemError(f"file exists: {key}")
        self._make_parents(key)
        node = FsNode(key, FileKind.SYMLINK, owner_package=owner, target=tgt)
        self._nodes[key] = node
        return node

    def remove(self, path: str) -> None:
        """Remove a file/symlink, or an *empty* directory."""
        fs, key = self._route(path)
        if fs is not self:
            fs.remove(key)
            return
        node = self.get(key)
        if node.kind is FileKind.DIRECTORY and self.listdir(key):
            raise FilesystemError(f"directory not empty: {key}")
        if key == "/":
            raise FilesystemError("cannot remove /")
        del self._nodes[key]

    def remove_owned(self, package: str) -> int:
        """Remove every LOCAL node owned by ``package``; returns the count.

        Package payloads are always local (RPMs never install onto NFS), so
        mounts are intentionally not traversed here, nor by :meth:`walk` /
        :meth:`owned_by`.

        Directories owned by the package are removed only if they end up
        empty (other packages may still have files there) — mirroring RPM's
        shared-directory semantics.
        """
        owned = self.owned_by(package)
        removed = 0
        # Files and symlinks first, then directories deepest-first.
        files = [p for p in owned if self._nodes[p].kind is not FileKind.DIRECTORY]
        dirs = sorted(
            (p for p in owned if self._nodes[p].kind is FileKind.DIRECTORY),
            key=lambda p: -p.count("/"),
        )
        for p in files:
            del self._nodes[p]
            removed += 1
        for p in dirs:
            if not self.listdir(p):
                del self._nodes[p]
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(self._nodes)
