"""Yum repositories: package collections with metadata and priorities.

The XSEDE Yum repository (XNIT's distribution channel, refs [11, 13, 19])
is modelled as a :class:`Repository` holding multiple versions per package
name.  ``priority`` implements the semantics of ``yum-plugin-priorities``,
which the paper's setup instructions require installing (Section 3): when
several repositories offer a package name, only repositories with the best
(numerically lowest) priority for that name contribute candidates — this is
what stops the base OS from shadowing the XSEDE builds (and is ablated in
``repro.paper``'s ``ablation_priorities`` artefact).

Hot-path queries are served from *capability indexes* (the move yum itself
made when it swapped scan-based depsolving for libsolv): each repository
keeps inverted maps — provides-name → packages, obsoleted-name → packages —
built lazily and invalidated by a monotonic mutation epoch (``revision``),
so :meth:`Repository.providers_of` is a dict lookup instead of a walk over
every published NEVRA.  The pre-index scan implementations are retained as
reference oracles in ``tests/oracles/yum_scans.py``; the hypothesis suite in
``tests/test_perf_indexes.py`` checks they agree under random mutation.
See ``docs/PERF.md`` for the invalidation rules; simlint's SL201/SL202
(docs/ANALYZE.md) enforce them statically — every mutation path must
bump ``revision`` and every memo must carry an epoch key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import PackageNotFoundError, RepoPriorityError, YumError
from ..rpm.package import Package, ProvidesIndex, Requirement

__all__ = ["Repository", "RepoSet", "DEFAULT_PRIORITY"]

#: yum-plugin-priorities default when a repo declares none.
DEFAULT_PRIORITY = 99


class Repository:
    """One yum repository."""

    def __init__(
        self,
        repo_id: str,
        *,
        name: str = "",
        baseurl: str = "",
        priority: int = DEFAULT_PRIORITY,
        enabled: bool = True,
    ) -> None:
        if not repo_id:
            raise YumError("repository id must be non-empty")
        if not 1 <= priority <= 99:
            raise RepoPriorityError(
                f"repo {repo_id}: priority must be in 1..99, got {priority}"
            )
        self.repo_id = repo_id
        self.name = name or repo_id
        self.baseurl = baseurl or f"http://repo.example.org/{repo_id}/"
        self.priority = priority
        self.enabled = enabled
        self._packages: dict[str, list[Package]] = {}
        #: monotonic mutation epoch — bumped on every add/remove; all lazy
        #: indexes and downstream caches key their validity on it.
        self.revision = 0
        self._index_epoch = -1
        self._provides_index = ProvidesIndex()
        self._obsoletes_index: dict[str, list[Package]] = {}
        self._checksum_epoch = -1
        self._checksum = ""

    @property
    def epoch(self) -> int:
        """The mutation epoch (alias of ``revision``): changes iff content
        changed, so ``epoch`` equality proves every index/cache is fresh."""
        return self.revision

    # -- publishing ----------------------------------------------------------

    def add(self, pkg: Package) -> None:
        """Publish a package (a new NEVRA; re-publishing an identical NEVRA
        is rejected to keep repository history honest)."""
        versions = self._packages.setdefault(pkg.name, [])
        if any(v.nevra == pkg.nevra for v in versions):
            raise YumError(f"repo {self.repo_id}: {pkg.nevra} already published")
        versions.append(pkg)
        versions.sort(key=lambda p: p.evr)
        self.revision += 1

    def add_all(self, pkgs: list[Package]) -> None:
        """Publish many packages."""
        for pkg in pkgs:
            self.add(pkg)

    def remove(self, nevra: str) -> None:
        """Withdraw one published NEVRA."""
        for name, versions in self._packages.items():
            for pkg in versions:
                if pkg.nevra == nevra:
                    versions.remove(pkg)
                    if not versions:
                        del self._packages[name]
                    self.revision += 1
                    return
        raise PackageNotFoundError(f"repo {self.repo_id}: no such NEVRA {nevra}")

    # -- capability indexes ---------------------------------------------------

    def _ensure_index(self) -> None:
        """(Re)build the inverted capability maps iff the epoch moved."""
        if self._index_epoch == self.revision:
            return
        provides = ProvidesIndex()
        obsoletes: dict[str, list[Package]] = {}
        for versions in self._packages.values():
            for pkg in versions:
                provides.add(pkg)
                for obs in pkg.obsoletes:
                    obsoletes.setdefault(obs.name, []).append(pkg)
        self._provides_index = provides
        self._obsoletes_index = obsoletes
        self._index_epoch = self.revision

    # -- queries ---------------------------------------------------------------

    def names(self) -> set[str]:
        """All published package names."""
        return set(self._packages)

    def versions_of(self, name: str) -> list[Package]:
        """All published versions of a name, oldest first."""
        return list(self._packages.get(name, []))

    def latest(self, name: str) -> Package:
        """Newest published version of a name."""
        versions = self._packages.get(name)
        if not versions:
            raise PackageNotFoundError(
                f"repo {self.repo_id}: no package named {name}"
            )
        return versions[-1]

    def has(self, name: str) -> bool:
        return name in self._packages

    def providers_of(self, req: Requirement) -> list[Package]:
        """Every published package satisfying ``req`` (index lookup)."""
        self._ensure_index()
        return sorted(
            self._provides_index.providers(req), key=lambda p: (p.name, p.evr)
        )

    def obsoleters_of(self, target: Package) -> list[Package]:
        """Published packages (other than ``target``'s name) that obsolete
        ``target`` — the update path's obsoletes scan, as an index lookup."""
        self._ensure_index()
        candidates = self._obsoletes_index.get(target.name)
        if not candidates:
            return []
        out = [
            p
            for p in candidates
            if p.name != target.name and p.obsoletes_package(target)
        ]
        return sorted(out, key=lambda p: (p.name, p.evr))

    def all_packages(self) -> list[Package]:
        """Every published package, sorted by (name, EVR)."""
        out = []
        for name in sorted(self._packages):
            out.extend(self._packages[name])
        return out

    def package_count(self) -> int:
        """Total published NEVRAs."""
        return sum(len(v) for v in self._packages.values())

    def repomd_checksum(self) -> str:
        """Stable fingerprint of the current metadata (changes iff content
        changes) — what a mirror compares to decide whether to resync.
        Memoised per epoch, so repeated probes of an unchanged repo are
        O(1) instead of re-hashing every NEVRA."""
        if self._checksum_epoch != self.revision:
            digest = hashlib.sha256()
            for pkg in self.all_packages():
                digest.update(pkg.nevra.encode())
            self._checksum = digest.hexdigest()
            self._checksum_epoch = self.revision
        return self._checksum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Repository {self.repo_id} pkgs={self.package_count()}>"


class RepoSet:
    """The enabled repository configuration of one host, with priorities.

    Candidate selection applies yum-plugin-priorities: for a given package
    *name*, only repositories with the best (lowest) priority offering that
    name contribute.  With the plugin disabled (``use_priorities=False``),
    all enabled repositories contribute and the newest EVR wins regardless of
    origin — the failure mode the ablation bench demonstrates.

    A RepoSet holds no derived state: every query reads the member
    repositories' own indexes, so a mutated repo (or a toggled
    ``enabled``/``priority``) is seen by the next call.  :attr:`epoch`
    fingerprints the configuration for the caches layered above (the
    depsolver's resolution LRU).
    """

    def __init__(self, repos: list[Repository] | None = None, *, use_priorities: bool = True):
        self._repos: dict[str, Repository] = {}
        self.use_priorities = use_priorities
        for repo in repos or []:
            self.add_repo(repo)

    def add_repo(self, repo: Repository) -> None:
        if repo.repo_id in self._repos:
            raise YumError(f"duplicate repo id {repo.repo_id}")
        self._repos[repo.repo_id] = repo

    def get(self, repo_id: str) -> Repository:
        try:
            return self._repos[repo_id]
        except KeyError:
            raise YumError(f"no such repo {repo_id}") from None

    def enabled_repos(self) -> list[Repository]:
        """Enabled repositories sorted by (priority, id)."""
        return sorted(
            (r for r in self._repos.values() if r.enabled),
            key=lambda r: (r.priority, r.repo_id),
        )

    def repolist(self) -> list[tuple[str, int, int]]:
        """``yum repolist``: (id, priority, package count) for enabled repos."""
        return [
            (r.repo_id, r.priority, r.package_count()) for r in self.enabled_repos()
        ]

    @property
    def epoch(self) -> tuple:
        """Content-addressed fingerprint of the whole configuration.

        Two RepoSets with equal epochs resolve identically: the tuple pins
        each member's id, content checksum (memoised per repo revision),
        enabled flag and priority, plus the plugin switch.  The depsolver
        resolution cache keys on it — see docs/PERF.md.
        """
        return (
            self.use_priorities,
            tuple(
                (rid, r.repomd_checksum(), r.enabled, r.priority)
                for rid, r in sorted(self._repos.items())
            ),
        )

    # -- candidate selection -----------------------------------------------------

    def candidates_by_name(self, name: str) -> list[Package]:
        """All candidate versions of ``name`` after priority filtering."""
        offering = [r for r in self.enabled_repos() if r.has(name)]
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
        return sorted(out, key=lambda p: p.evr)

    def latest_by_name(self, name: str) -> Package:
        """Newest candidate of ``name`` (after priority filtering)."""
        candidates = self.candidates_by_name(name)
        if not candidates:
            raise PackageNotFoundError(f"no package {name} in any enabled repo")
        return candidates[-1]

    def providers_of(self, req: Requirement) -> list[Package]:
        """All candidates satisfying ``req``, priority-filtered per name."""
        names: set[str] = set()
        for repo in self.enabled_repos():
            for pkg in repo.providers_of(req):
                names.add(pkg.name)
        out: list[Package] = []
        for name in sorted(names):
            out.extend(p for p in self.candidates_by_name(name) if p.satisfies(req))
        return out

    def all_names(self) -> set[str]:
        """Union of names across enabled repositories."""
        names: set[str] = set()
        for repo in self.enabled_repos():
            names |= repo.names()
        return names
