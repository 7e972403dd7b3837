"""The installed-package database (``/var/lib/rpm`` of a host).

Tracks which :class:`~repro.rpm.package.Package` objects are installed on a
host and answers capability queries.  Mutation goes through
:mod:`repro.rpm.transaction` — the DB's own ``_install_unchecked`` /
``_erase_unchecked`` are the primitive operations transactions build on.

Capability queries (``providers_of`` / ``is_satisfied`` — the depsolver's
innermost loop) are served from an inverted provides-name → packages index.
Every mutation bumps a monotonic :attr:`epoch`; the index is kept current
incrementally once built, and downstream caches (the depsolver's resolution
cache) key on ``(host, epoch)`` or on :meth:`fingerprint` to stay sound.
The pre-index scans survive as oracles in ``tests/oracles/rpm_scans.py``.

The bump discipline is machine-checked: simlint's SL201 walks every
method of this class path-sensitively and flags any route that mutates
indexed state without bumping :attr:`epoch` (or syncing a validity
marker, or raising).  See docs/ANALYZE.md.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..distro.host import Host
from ..errors import PackageNotFoundError, RpmError
from .package import Package, ProvidesIndex, Requirement

__all__ = ["RpmDatabase"]


class RpmDatabase:
    """Installed packages of one host, with payload materialisation."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._by_name: dict[str, Package] = {}
        self._epoch = 0
        self._index_epoch = -1
        self._provides_index = ProvidesIndex()
        self._fingerprint_epoch = -1
        self._fingerprint = ""

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter: bumped by every install/erase."""
        return self._epoch

    def fingerprint(self) -> str:
        """Content digest of the installed set (memoised per epoch).

        Two databases with equal fingerprints hold the same NEVRAs, so
        resolution results computed against one are valid for the other —
        the XCBC "same stack on every node" cache key (docs/PERF.md).
        """
        if self._fingerprint_epoch != self._epoch:
            digest = hashlib.sha256()
            for nevra in sorted(p.nevra for p in self._by_name.values()):
                digest.update(nevra.encode())
            self._fingerprint = digest.hexdigest()
            self._fingerprint_epoch = self._epoch
        return self._fingerprint

    # -- capability index ----------------------------------------------------

    def _ensure_index(self) -> None:
        if self._index_epoch != self._epoch:
            self._provides_index = ProvidesIndex(self._by_name.values())
            self._index_epoch = self._epoch

    # -- queries ------------------------------------------------------------

    def installed(self) -> list[Package]:
        """All installed packages sorted by name."""
        return [self._by_name[n] for n in sorted(self._by_name)]

    def names(self) -> set[str]:
        """Installed package names."""
        return set(self._by_name)

    def has(self, name: str) -> bool:
        """rpm -q: is a package with this name installed?"""
        return name in self._by_name

    def get(self, name: str) -> Package:
        """Fetch an installed package by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise PackageNotFoundError(
                f"{self.host.name}: package {name} is not installed"
            ) from None

    def providers_of(self, req: Requirement) -> list[Package]:
        """Installed packages satisfying ``req`` (index lookup)."""
        self._ensure_index()
        return sorted(self._provides_index.providers(req), key=lambda p: p.name)

    def is_satisfied(self, req: Requirement) -> bool:
        """True if some installed package satisfies ``req``."""
        self._ensure_index()
        return self._provides_index.is_satisfied(req)

    def unsatisfied_requirements(self) -> list[tuple[Package, Requirement]]:
        """Integrity check: every requirement of every installed package that
        no installed package satisfies.  A healthy DB returns ``[]``."""
        broken = []
        for pkg in self.installed():
            for req in pkg.requires:
                if not self.is_satisfied(req):
                    broken.append((pkg, req))
        return broken

    def verify(self, name: str) -> list[str]:
        """``rpm -V``: check a package's payload against the filesystem.

        Returns a list of discrepancies (missing paths, replaced content —
        detected via ownership changes), empty when the package is intact.
        Drift found here is what :meth:`RocksInstaller.reinstall_node` is
        for.
        """
        pkg = self.get(name)
        problems: list[str] = []
        for path in pkg.default_paths():
            node = self.host.fs.lookup(path)
            if node is None:
                problems.append(f"missing   {path}")
            elif node.owner_package != pkg.name:
                problems.append(
                    f"replaced  {path} (now owned by {node.owner_package})"
                )
        for service in pkg.services:
            try:
                record = self.host.services.get(service)
            except Exception:
                problems.append(f"unregistered service {service}")
                continue
            if record.package != pkg.name:
                problems.append(
                    f"service {service} re-owned by {record.package}"
                )
        return problems

    def verify_all(self) -> dict[str, list[str]]:
        """``rpm -Va``: verify every installed package; only packages with
        discrepancies appear in the result."""
        out: dict[str, list[str]] = {}
        for pkg in self.installed():
            problems = self.verify(pkg.name)
            if problems:
                out[pkg.name] = problems
        return out

    def whatrequires(self, name: str) -> list[Package]:
        """Installed packages whose requirements are satisfied *only* through
        capabilities of ``name`` (i.e. erasing ``name`` would break them)."""
        target = self._by_name.get(name)
        if target is None:
            return []
        dependants = []
        others = [p for p in self._by_name.values() if p.name != name]
        for pkg in others:
            for req in pkg.requires:
                if target.satisfies(req) and not any(
                    o.satisfies(req) for o in others if o.name != pkg.name
                ):
                    dependants.append(pkg)
                    break
        return sorted(dependants, key=lambda p: p.name)

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the installed set (checkpointing)."""
        return {
            "host": self.host.name,
            "installed": sorted(p.nevra for p in self._by_name.values()),
        }

    # -- primitive mutations (used by the transaction layer) ---------------------

    def _install_unchecked(self, pkg: Package) -> None:
        """Install a package and materialise its payload (no dep checking).

        Refuses before its first mutation when the name is installed or
        the modulefile present, so whatever the host holds under
        ``pkg.name`` (and that modulefile) after a failure part-way is this
        call's own writes, and :meth:`_erase_unchecked` undoes exactly those.
        """
        host = self.host
        if pkg.name in self._by_name:
            raise RpmError(
                f"{host.name}: package {pkg.name} is already installed "
                f"({self._by_name[pkg.name].nevra})"
            )
        if pkg.module and host.modules.has(pkg.module.fullname):
            raise RpmError(
                f"{host.name}: cannot install {pkg.nevra}: modulefile "
                f"exists: {pkg.module.fullname}"
            )
        self._by_name[pkg.name] = pkg
        if self._index_epoch == self._epoch:
            self._provides_index.add(pkg)
            self._index_epoch += 1
        self._epoch += 1
        for path, content, mode in pkg.payload:
            host.fs.write(path, content, owner=pkg.name, mode=mode)
        for service in pkg.services:
            host.services.register(service, package=pkg.name)
        if pkg.module:
            host.modules.install(pkg.module)

    def _erase_unchecked(self, name: str) -> Package:
        """Erase a package and its payload (no dependant checking)."""
        pkg = self.get(name)
        del self._by_name[name]
        if self._index_epoch == self._epoch:
            self._provides_index.discard(pkg)
            self._index_epoch += 1
        self._epoch += 1
        self._drop_payload(pkg)
        return pkg

    def _drop_payload(self, pkg: Package) -> None:
        """Remove whatever of ``pkg``'s payload the host holds (idempotent:
        rollback also runs it to finish an erase that stopped half-way)."""
        self.host.fs.remove_owned(pkg.name)
        self.host.services.unregister_package(pkg.name)
        if pkg.module and self.host.modules.has(pkg.module.fullname):
            self.host.modules.remove(pkg.module.name, pkg.module.version)

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
