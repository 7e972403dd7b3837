"""The RPM package model: NEVRA identity, capabilities, and payload.

A :class:`Package` is a *built* RPM: identity (name-epoch:version-release.arch),
dependency metadata (provides / requires / conflicts / obsoletes over
versioned :class:`Capability` / :class:`Requirement` pairs), and a payload
description (files, commands, libraries, services, modulefile) that the
transaction layer materialises onto a host.

Capability matching follows RPM:

* every package implicitly provides its own ``name = EVR``;
* a :class:`Requirement` with no version matches any provider of the name;
* a versioned requirement matches if the provider's version satisfies the
  comparison (with RPM's "missing release matches any" rule, handled in
  :mod:`repro.rpm.version`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from ..distro.filesystem import FileKind, FsNode, normpath, parent_dirs
from ..distro.modules_env import ModuleFile
from ..errors import RpmError
from .version import EVR, parse_evr

__all__ = ["Flag", "Capability", "Requirement", "Package", "ProvidesIndex"]


class Flag(str, Enum):
    """Comparison flag on a versioned dependency."""

    ANY = ""  # unversioned
    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Capability:
    """Something a package provides: ``name`` optionally ``= version``."""

    name: str
    version: str = ""  # empty = unversioned provide

    def __str__(self) -> str:
        return f"{self.name} = {self.version}" if self.version else self.name


@dataclass(frozen=True)
class Requirement:
    """Something a package needs: ``name`` with an optional version range."""

    name: str
    flag: Flag = Flag.ANY
    version: str = ""

    def __post_init__(self) -> None:
        if (self.flag is Flag.ANY) != (not self.version):
            raise RpmError(
                f"requirement {self.name!r}: flag and version must both be "
                f"set or both be empty (flag={self.flag!r}, "
                f"version={self.version!r})"
            )

    def __str__(self) -> str:
        if self.flag is Flag.ANY:
            return self.name
        return f"{self.name} {self.flag.value} {self.version}"

    def matches(self, cap: Capability) -> bool:
        """True if ``cap`` satisfies this requirement."""
        if cap.name != self.name:
            return False
        if self.flag is Flag.ANY:
            return True
        if not cap.version:
            # Unversioned provide satisfies any versioned requirement (RPM).
            return True
        have = parse_evr(cap.version)
        want = parse_evr(self.version)
        if self.flag is Flag.EQ:
            return have == want
        if self.flag is Flag.LT:
            return have < want
        if self.flag is Flag.LE:
            return have <= want
        if self.flag is Flag.GT:
            return have > want
        if self.flag is Flag.GE:
            return have >= want
        raise AssertionError(f"unhandled flag {self.flag}")


@dataclass(frozen=True)
class Package:
    """A built RPM.

    Payload fields describe what installing the package does:

    * ``files`` — extra paths written verbatim;
    * ``commands`` — names that land as executables in ``/usr/bin``;
    * ``libraries`` — shared-object names that land in ``/usr/lib64``
      ("libraries are in the same place as on XSEDE clusters", Section 2);
    * ``services`` — daemons registered with the service manager;
    * ``modulefile`` — ``name/version`` installed into environment modules.
    """

    name: str
    version: str
    release: str = "1"
    epoch: int = 0
    arch: str = "x86_64"
    summary: str = ""
    category: str = ""  # Table 1/2 category this package belongs to
    size_bytes: int = 1024 * 1024
    provides: tuple[Capability, ...] = ()
    requires: tuple[Requirement, ...] = ()
    conflicts: tuple[Requirement, ...] = ()
    obsoletes: tuple[Requirement, ...] = ()
    files: tuple[str, ...] = ()
    commands: tuple[str, ...] = ()
    libraries: tuple[str, ...] = ()
    services: tuple[str, ...] = ()
    modulefile: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise RpmError("package name must be non-empty")
        if not self.version:
            raise RpmError(f"package {self.name}: version must be non-empty")
        if self.epoch < 0:
            raise RpmError(f"package {self.name}: negative epoch")
        if self.size_bytes < 0:
            raise RpmError(f"package {self.name}: negative size")

    # -- identity ----------------------------------------------------------
    # Derived from frozen fields, so computed once; ``cached_property`` keeps
    # them in ``__dict__``, outside the dataclass ``==``/``hash``/``repr``.

    @cached_property
    def evr(self) -> EVR:
        """The package's own epoch:version-release."""
        return EVR(self.epoch, self.version, self.release)

    @cached_property
    def evr_string(self) -> str:
        return str(self.evr)

    @cached_property
    def nevra(self) -> str:
        """Full ``name-[epoch:]version-release.arch`` identity."""
        e = f"{self.epoch}:" if self.epoch else ""
        return f"{self.name}-{e}{self.version}-{self.release}.{self.arch}"

    # -- capabilities -------------------------------------------------------

    @cached_property
    def _all_provides(self) -> tuple[Capability, ...]:
        return (Capability(self.name, self.evr_string),) + tuple(self.provides)

    @cached_property
    def _provided_names(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(cap.name for cap in self._all_provides))

    def satisfies(self, req: Requirement) -> bool:
        """True if this package satisfies ``req`` via any capability."""
        return any(req.matches(cap) for cap in self._all_provides)

    def conflicts_with(self, other: "Package") -> bool:
        """True if either package declares a conflict matched by the other."""
        return any(other.satisfies(c) for c in self.conflicts) or any(
            self.satisfies(c) for c in other.conflicts
        )

    def obsoletes_package(self, other: "Package") -> bool:
        """True if this package obsoletes ``other`` (by name match)."""
        return any(
            o.name == other.name
            and o.matches(Capability(other.name, other.evr_string))
            for o in self.obsoletes
        )

    def is_newer_than(self, other: "Package") -> bool:
        """EVR comparison between same-name packages."""
        if self.name != other.name:
            raise RpmError(
                f"cannot compare versions of different packages: "
                f"{self.name} vs {other.name}"
            )
        return self.evr > other.evr

    @cached_property
    def module(self) -> ModuleFile | None:
        """The environment module installing this package adds, if any (a
        bare ``name`` modulefile takes the package's version)."""
        if not self.modulefile:
            return None
        name, _, version = self.modulefile.partition("/")
        return ModuleFile(
            name=name,
            version=version or self.version,
            prepend_path=(("PATH", f"/opt/{name}/bin"),),
            whatis=self.summary or self.name,
        )

    @cached_property
    def payload(self) -> tuple[tuple[str, tuple[str, ...], str, int], ...]:
        """Every ``(key, ancestors, content, mode)`` installing this package
        writes — the one definition install, verify and the conflict scan
        share.  Each path is normalised here, once per package rather than
        once per host, and its ancestor directories listed root first; a
        relative path or a ``..`` component raises
        :class:`~repro.errors.FilesystemError` on first use."""
        nevra = self.nevra
        out = [(path, f"payload of {nevra}", 0o644) for path in self.files]
        out += [
            (f"/usr/bin/{c}", f"#!ELF {c} from {nevra}", 0o755)
            for c in self.commands
        ]
        out += [
            (f"/usr/lib64/{lib}", f"shared object from {nevra}", 0o644)
            for lib in self.libraries
        ]
        if self.module:
            out.append((
                f"/etc/modulefiles/{self.module.fullname}",
                f"#%Module for {nevra}",
                0o644,
            ))
        entries = []
        for path, content, mode in out:
            key = normpath(path)
            entries.append((key, tuple(parent_dirs(key)), content, mode))
        return tuple(entries)

    @cached_property
    def node_table(self) -> tuple[dict[str, FsNode], dict[str, FsNode]] | None:
        """The tree records writing :attr:`payload` onto free keys leaves:
        ``(dirs, files)`` — each ancestor directory as an unowned node, root
        first, and each key's file owned by this package (the last entry
        at a key wins) — or ``None`` when the payload collides with itself
        (a file at ``/``, at another entry's ancestor, or under another
        entry), so writing it raises on any host.  Built once per package;
        every host that installs it shares the records
        (:meth:`~repro.distro.filesystem.Filesystem._lay_down`)."""
        dirs: dict[str, FsNode] = {}
        files: dict[str, FsNode] = {}
        name = self.name
        for key, ancestors, content, mode in self.payload:
            if key == "/" or key in dirs:
                return None
            for ancestor in ancestors:
                if ancestor in files:
                    return None
                if ancestor not in dirs:
                    dirs[ancestor] = FsNode(ancestor, FileKind.DIRECTORY)
            files[key] = FsNode(key, FileKind.FILE, name, content, mode)
        return dirs, files

    def default_paths(self) -> list[str]:
        """Every path this package materialises (files, commands,
        libraries, modulefile), normalised."""
        return [key for key, _ancestors, _content, _mode in self.payload]

    def __str__(self) -> str:
        return self.nevra


class ProvidesIndex:
    """Inverted capability-name → providers map over a set of packages.

    :meth:`Requirement.matches` rejects a capability whose name differs from
    the requirement's, so the bucket for ``req.name`` holds every package
    that can satisfy ``req``; callers test those instead of the whole set.
    The bucket holds exactly the packages that provide the name, so an
    unversioned requirement is answered from it alone and only a versioned
    one reaches :meth:`Package.satisfies`.  Both queries take ``without``,
    package names to leave out: a transaction asks the installed set's
    index about the set it will leave, minus what it erases or replaces.
    """

    def __init__(self, pkgs: Iterable[Package] = ()) -> None:
        self._by_name: dict[str, list[Package]] = {}
        for pkg in pkgs:
            self.add(pkg)

    def add(self, pkg: Package) -> None:
        """Index ``pkg`` once under each capability name it provides."""
        for name in pkg._provided_names:
            self._by_name.setdefault(name, []).append(pkg)

    def discard(self, pkg: Package) -> None:
        """Drop ``pkg`` (by identity); emptied buckets are removed."""
        for name in pkg._provided_names:
            bucket = self._by_name.get(name, ())
            for i, held in enumerate(bucket):
                if held is pkg:
                    del bucket[i]
                    break
            if not bucket:
                self._by_name.pop(name, None)

    def providers(self, req: Requirement, without=()) -> list[Package]:
        """Indexed packages satisfying ``req``, in insertion order, bar
        those named in ``without``."""
        bucket = self._by_name.get(req.name, ())
        if not req.version:
            return [p for p in bucket if p.name not in without]
        return [p for p in bucket if p.name not in without and p.satisfies(req)]

    def is_satisfied(self, req: Requirement, without=()) -> bool:
        """True if some indexed package not named in ``without`` satisfies
        ``req``."""
        for pkg in self._by_name.get(req.name, ()):
            if pkg.name not in without and (not req.version or pkg.satisfies(req)):
                return True
        return False

