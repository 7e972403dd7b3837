"""Pre-index scan queries of the yum repository classes, kept verbatim.

Each ``scan_*`` query is the former body of a query of :class:`Repository`
or :class:`RepoSet` (most of them once ``_scan_*`` methods), moved out of
``src/`` unchanged (``self`` is the object the method used to live on).  The
two digest scans recompute, from the published packages alone, the values
the resolution cache is keyed on.  All of them walk or re-sort by design:
``tests/test_perf_indexes.py`` asserts the indexed queries and memoised
digests in ``src/repro/yum/repository.py`` return exactly what these
return after random mutation.

Two things changed since they moved: every sort by EVR takes the total
order :data:`repro.rpm.version.EVR_ORDER` (a missing release sorts before
every release of its version), as ``src/`` does, and the enabled order is
sorted from ``_repos`` on each call (:func:`scan_enabled_repos`) rather
than read from the set's memo.
"""

from __future__ import annotations

import hashlib

from repro.rpm import Package, Requirement
from repro.rpm.version import EVR_ORDER
from repro.yum import RepoSet, Repository

__all__ = [
    "scan_enabled_repos",
    "scan_versions_of",
    "scan_providers_of",
    "scan_obsoleters_of",
    "scan_candidates_by_name",
    "scan_reposet_providers_of",
    "scan_repomd_checksum",
    "scan_reposet_fingerprint",
]


def _evr(p: Package):
    return EVR_ORDER(p.evr)


def _name_evr(p: Package):
    return p.name, EVR_ORDER(p.evr)


def scan_enabled_repos(self: RepoSet) -> list[Repository]:
    """Oracle for :meth:`RepoSet.enabled_repos`: sorted from the members
    on every call."""
    return sorted(
        (r for r in self._repos.values() if r.enabled),
        key=lambda r: (r.priority, r.repo_id),
    )


def scan_versions_of(self: Repository, name: str) -> list[Package]:
    """Reference oracle for :meth:`Repository.versions_of`: full walk, no dict."""
    out = [
        p
        for versions in self._packages.values()
        for p in versions
        if p.name == name
    ]
    return sorted(out, key=_evr)


def scan_providers_of(self: Repository, req: Requirement) -> list[Package]:
    """Reference oracle for :meth:`Repository.providers_of`: the pre-index scan."""
    out = []
    for versions in self._packages.values():
        out.extend(p for p in versions if p.satisfies(req))
    return sorted(out, key=_name_evr)


def scan_obsoleters_of(self: Repository, target: Package) -> list[Package]:
    """Reference oracle for :meth:`Repository.obsoleters_of`: full catalogue walk."""
    out = [
        p
        for p in self.all_packages()
        if p.name != target.name and p.obsoletes_package(target)
    ]
    return sorted(out, key=_name_evr)


def scan_candidates_by_name(self: RepoSet, name: str) -> list[Package]:
    """Reference oracle for :meth:`RepoSet.candidates_by_name`: every
    contributing repository's versions merged, deduplicated and re-sorted."""
    offering = [r for r in scan_enabled_repos(self) if r.has(name)]
    if not offering:
        return []
    if self.use_priorities:
        best = min(r.priority for r in offering)
        offering = [r for r in offering if r.priority == best]
    out: list[Package] = []
    seen: set[str] = set()
    for repo in offering:
        for pkg in repo.versions_of(name):
            if pkg.nevra not in seen:
                seen.add(pkg.nevra)
                out.append(pkg)
    return sorted(out, key=_evr)


def scan_reposet_providers_of(self: RepoSet, req: Requirement) -> list[Package]:
    """Reference oracle for :meth:`RepoSet.providers_of`: scan-based."""
    names: set[str] = set()
    for repo in scan_enabled_repos(self):
        for pkg in scan_providers_of(repo, req):
            names.add(pkg.name)
    out: list[Package] = []
    for name in sorted(names):
        out.extend(
            p for p in scan_candidates_by_name(self, name) if p.satisfies(req)
        )
    return out


def scan_repomd_checksum(self: Repository) -> str:
    """Oracle for :meth:`Repository.repomd_checksum`: sha256 over every
    published NEVRA in (name, EVR) order, no memo."""
    published = [p for versions in self._packages.values() for p in versions]
    digest = hashlib.sha256()
    for pkg in sorted(published, key=_name_evr):
        digest.update(pkg.nevra.encode())
    return digest.hexdigest()


def scan_reposet_fingerprint(self: RepoSet) -> tuple:
    """Oracle for :meth:`RepoSet.fingerprint`, from the scanned checksums."""
    return (
        self.use_priorities,
        tuple(
            (rid, scan_repomd_checksum(r), r.enabled, r.priority)
            for rid, r in sorted(self._repos.items())
        ),
    )
