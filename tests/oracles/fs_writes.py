"""A package's payload written one routed, normalised path at a time, kept
as a reference oracle.

``Package.payload`` normalises each path once, when the package is first
used, and the install path hands the normal keys and their ancestors to
``Filesystem._write_normal``.  Before that, every host re-normalised and
re-routed every path: the transaction's conflict scan looked each raw path
up (so a relative path or a ``..`` component raised before anything was
written), then the install loop wrote each one through ``Filesystem.write``.
:func:`write_payload` is that sequence, from the package's fields.  It
keeps its own copy of the old ``write`` and mount-table route, so it shares
no code with the writer it checks beyond ``normpath`` and ``parent_dirs``;
``tests/test_distro_filesystem.py`` holds the two equal.

:func:`install_per_file` is ``RpmDatabase._install_unchecked`` before a
package's payload went down as its shared node table: the same refusals
and database entry, :func:`write_payload`, then the package's services
and modulefile.  ``tests/test_rpm_transaction.py`` installs through it on
the twin host its properties compare against.
"""

from __future__ import annotations

from repro.distro import FileKind, Filesystem, FsNode, normpath, parent_dirs
from repro.errors import FilesystemError, RpmError
from repro.rpm import Package, RpmDatabase

__all__ = ["raw_payload", "write_payload", "install_per_file"]


def raw_payload(pkg: Package) -> list[tuple[str, str, int]]:
    """Every ``(path, content, mode)`` installing ``pkg`` writes, each path
    as the package spells it."""
    nevra = pkg.nevra
    out = [(path, f"payload of {nevra}", 0o644) for path in pkg.files]
    out += [
        (f"/usr/bin/{c}", f"#!ELF {c} from {nevra}", 0o755)
        for c in pkg.commands
    ]
    out += [
        (f"/usr/lib64/{lib}", f"shared object from {nevra}", 0o644)
        for lib in pkg.libraries
    ]
    if pkg.module:
        out.append((
            f"/etc/modulefiles/{pkg.module.fullname}",
            f"#%Module for {nevra}",
            0o644,
        ))
    return out


def _route(fs: Filesystem, path: str) -> tuple[Filesystem, str]:
    """Normalise ``path``, then translate it through the mount table."""
    key = normpath(path)
    for mount_point, (remote, remote_root) in fs._mounts.items():
        if key == mount_point:
            return remote, remote_root
        if key.startswith(mount_point + "/"):
            return remote, remote_root + key[len(mount_point):]
    return fs, key


def _write(fs: Filesystem, path: str, content: str, owner: str, mode: int) -> None:
    """Create or replace a regular file, creating ancestors as needed."""
    target, key = _route(fs, path)
    if target is not fs:
        _write(target, key, content, owner, mode)
        return
    if key == "/":
        raise FilesystemError("cannot write to /")
    existing = fs._nodes.get(key)
    if existing is not None and existing.kind is FileKind.DIRECTORY:
        raise FilesystemError(f"is a directory: {key}")
    for ancestor in parent_dirs(key):
        node = fs._nodes.get(ancestor)
        if node is None:
            fs._nodes[ancestor] = FsNode(ancestor, FileKind.DIRECTORY)
        elif node.kind is not FileKind.DIRECTORY:
            raise FilesystemError(f"ancestor is not a directory: {ancestor}")
    fs._nodes[key] = FsNode(
        key, FileKind.FILE, owner_package=owner, content=content, mode=mode
    )


def write_payload(fs: Filesystem, pkg: Package) -> None:
    """Route every payload path (the conflict scan), then write each."""
    entries = raw_payload(pkg)
    for path, _content, _mode in entries:
        _route(fs, path)
    for path, content, mode in entries:
        _write(fs, path, content, pkg.name, mode)


def install_per_file(db: RpmDatabase, pkg: Package) -> None:
    """Install ``pkg`` on ``db``'s host one payload path at a time."""
    host = db.host
    if pkg.name in db._by_name:
        raise RpmError(
            f"{host.name}: package {pkg.name} is already installed "
            f"({db._by_name[pkg.name].nevra})"
        )
    if pkg.module and host.modules.has(pkg.module.fullname):
        raise RpmError(
            f"{host.name}: cannot install {pkg.nevra}: modulefile "
            f"exists: {pkg.module.fullname}"
        )
    db._by_name[pkg.name] = pkg
    if db._provides_index is not None:
        db._provides_index.add(pkg)
    db._fingerprint = None
    write_payload(host.fs, pkg)
    for service in pkg.services:
        host.services.register(service, package=pkg.name)
    if pkg.module:
        host.modules.install(pkg.module)
