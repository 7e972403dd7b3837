"""Pre-index scan queries of the yum repository classes, kept verbatim.

Each function is the body of a former ``_scan_*`` method of
:class:`Repository` or :class:`RepoSet`, moved out of ``src/`` unchanged
(``self`` is the object the method used to live on).  They walk every
published NEVRA by design: ``tests/test_perf_indexes.py`` asserts the
indexed queries in ``src/repro/yum/repository.py`` return exactly what these
return after every random mutation.
"""

from __future__ import annotations

from repro.rpm import Package, Requirement
from repro.yum import RepoSet, Repository

__all__ = [
    "scan_versions_of",
    "scan_providers_of",
    "scan_obsoleters_of",
    "scan_reposet_providers_of",
]


def scan_versions_of(self: Repository, name: str) -> list[Package]:
    """Reference oracle for :meth:`Repository.versions_of`: full walk, no dict."""
    out = [
        p
        for versions in self._packages.values()
        for p in versions
        if p.name == name
    ]
    return sorted(out, key=lambda p: p.evr)


def scan_providers_of(self: Repository, req: Requirement) -> list[Package]:
    """Reference oracle for :meth:`Repository.providers_of`: the pre-index scan."""
    out = []
    for versions in self._packages.values():
        out.extend(p for p in versions if p.satisfies(req))
    return sorted(out, key=lambda p: (p.name, p.evr))


def scan_obsoleters_of(self: Repository, target: Package) -> list[Package]:
    """Reference oracle for :meth:`Repository.obsoleters_of`: full catalogue walk."""
    out = [
        p
        for p in self.all_packages()
        if p.name != target.name and p.obsoletes_package(target)
    ]
    return sorted(out, key=lambda p: (p.name, p.evr))


def scan_reposet_providers_of(self: RepoSet, req: Requirement) -> list[Package]:
    """Reference oracle for :meth:`RepoSet.providers_of`: scan-based."""
    names: set[str] = set()
    for repo in self.enabled_repos():
        for pkg in scan_providers_of(repo, req):
            names.add(pkg.name)
    out: list[Package] = []
    for name in sorted(names):
        out.extend(p for p in self.candidates_by_name(name) if p.satisfies(req))
    return out
