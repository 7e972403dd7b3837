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
that :meth:`Repository.add` and :meth:`Repository.remove` update in place,
so :meth:`Repository.providers_of` is a dict lookup instead of a walk over
every published NEVRA.  The same two mutators drop the memoised
:meth:`Repository.repomd_checksum`, so every derived value is either
absent or current.  The pre-index scan implementations
are retained as reference oracles in ``tests/oracles/yum_scans.py``; the
hypothesis suite in ``tests/test_perf_indexes.py`` checks they agree under
random mutation (docs/PERF.md).
"""

from __future__ import annotations

import hashlib
from weakref import WeakSet

from ..errors import PackageNotFoundError, RepoPriorityError, YumError
from ..rpm.package import Package, ProvidesIndex, Requirement
from ..rpm.version import EVR_ORDER

__all__ = ["Repository", "RepoSet", "DEFAULT_PRIORITY", "priority_problem"]

#: yum-plugin-priorities default when a repo declares none.
DEFAULT_PRIORITY = 99


def priority_problem(priority: int) -> str | None:
    """What is wrong with a yum-plugin-priorities value, or None.

    The valid range is 1..99: 1 is the strongest claim and 99, the
    default, the weakest.  ``Repository`` raises on it and cluster-lint's
    RC205 reports it.
    """
    if 1 <= priority <= DEFAULT_PRIORITY:
        return None
    return f"priority={priority} is outside 1..{DEFAULT_PRIORITY}"


def _evr_order(pkg: Package):
    """Sort key of a package by EVR, total (:data:`EVR_ORDER`): the
    oldest-first order of a name's versions."""
    return EVR_ORDER(pkg.evr)


def _name_evr_order(pkg: Package):
    """Sort key of a package by name, then EVR (:func:`_evr_order`)."""
    return pkg.name, EVR_ORDER(pkg.evr)


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
        problem = priority_problem(priority)
        if problem is not None:
            raise RepoPriorityError(f"repo {repo_id}: {problem}")
        self.repo_id = repo_id
        self.name = name or repo_id
        self.baseurl = baseurl or f"http://repo.example.org/{repo_id}/"
        self._priority = priority
        self._enabled = enabled
        #: the :class:`RepoSet`\ s holding this repository, whose enabled
        #: order the two setters below drop (weakly held: a set made per
        #: host does not outlive its host through the repository)
        self._sets: WeakSet[RepoSet] = WeakSet()
        self._packages: dict[str, list[Package]] = {}
        self._provides_index = ProvidesIndex()
        self._obsoletes_index: dict[str, list[Package]] = {}
        self._checksum: str | None = None

    @property
    def priority(self) -> int:
        """yum-plugin-priorities value: 1 is the strongest claim."""
        return self._priority

    @priority.setter
    def priority(self, value: int) -> None:
        self._priority = value
        self._drop_orders()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._drop_orders()

    def _drop_orders(self) -> None:
        """Drop the enabled order of every :class:`RepoSet` holding this
        repository: its priority or enabled flag is what that order sorts."""
        for repos in self._sets:
            repos._order = None

    # -- publishing ----------------------------------------------------------

    def add(self, pkg: Package) -> None:
        """Publish a package (a new NEVRA; re-publishing an identical NEVRA
        is rejected to keep repository history honest)."""
        versions = self._packages.setdefault(pkg.name, [])
        if any(v.nevra == pkg.nevra for v in versions):
            raise YumError(f"repo {self.repo_id}: {pkg.nevra} already published")
        versions.append(pkg)
        versions.sort(key=_evr_order)
        self._provides_index.add(pkg)
        for obs in pkg.obsoletes:
            self._obsoletes_index.setdefault(obs.name, []).append(pkg)
        self._checksum = None

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
                    self._provides_index.discard(pkg)
                    for obs in pkg.obsoletes:
                        bucket = self._obsoletes_index[obs.name]
                        bucket.remove(pkg)
                        if not bucket:
                            del self._obsoletes_index[obs.name]
                    self._checksum = None
                    return
        raise PackageNotFoundError(f"repo {self.repo_id}: no such NEVRA {nevra}")

    # -- queries ---------------------------------------------------------------

    def names(self) -> set[str]:
        """All published package names."""
        return set(self._packages)

    def versions_of(self, name: str) -> list[Package]:
        """All published versions of a name, oldest first (as sorted by
        :meth:`add`; a copy)."""
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
        return sorted(self._provides_index.providers(req), key=_name_evr_order)

    def obsoleters_of(self, target: Package) -> list[Package]:
        """Published packages (other than ``target``'s name) that obsolete
        ``target`` — the update path's obsoletes scan, as an index lookup."""
        candidates = self._obsoletes_index.get(target.name)
        if not candidates:
            return []
        out = [
            p
            for p in candidates
            if p.name != target.name and p.obsoletes_package(target)
        ]
        return sorted(out, key=_name_evr_order)

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
        Memoised until the next add or remove, so repeated probes of an
        unchanged repo are O(1) instead of re-hashing every NEVRA."""
        if self._checksum is None:
            digest = hashlib.sha256()
            for pkg in self.all_packages():
                digest.update(pkg.nevra.encode())
            self._checksum = digest.hexdigest()
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

    A RepoSet's one derived value is its enabled, priority-sorted
    repository order (:meth:`enabled_repos`), absent (``None``) or current:
    :meth:`add_repo` drops it, and so does a member's ``enabled`` or
    ``priority`` setter.  Every query reads the member repositories' own
    indexes, so a mutated repo is seen by the next call.
    :meth:`fingerprint` identifies the configuration for the caches
    layered above (the depsolver's resolution LRU).
    """

    def __init__(self, repos: list[Repository] | None = None, *, use_priorities: bool = True):
        self._repos: dict[str, Repository] = {}
        self._order: tuple[Repository, ...] | None = None
        self.use_priorities = use_priorities
        for repo in repos or []:
            self.add_repo(repo)

    def add_repo(self, repo: Repository) -> None:
        if repo.repo_id in self._repos:
            raise YumError(f"duplicate repo id {repo.repo_id}")
        self._repos[repo.repo_id] = repo
        repo._sets.add(self)
        self._order = None

    def enabled_repos(self) -> tuple[Repository, ...]:
        """Enabled repositories sorted by (priority, id), sorted on the
        first call after a change to the set or to a member's flag."""
        if self._order is None:
            self._order = tuple(sorted(
                (r for r in self._repos.values() if r.enabled),
                key=lambda r: (r.priority, r.repo_id),
            ))
        return self._order

    def repolist(self) -> list[tuple[str, int, int]]:
        """``yum repolist``: (id, priority, package count) for enabled repos."""
        return [
            (r.repo_id, r.priority, r.package_count()) for r in self.enabled_repos()
        ]

    def fingerprint(self) -> tuple:
        """Content-addressed fingerprint of the whole configuration.

        Two RepoSets with equal fingerprints resolve identically: the tuple
        pins each member's id, content checksum, enabled flag and priority,
        plus the plugin switch.  The depsolver resolution cache keys on it —
        see docs/PERF.md.
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
        """All candidate versions of ``name`` after priority filtering,
        oldest first.  One contributing repository's list is already in
        that order, without duplicates (:meth:`Repository.add`), so it is
        returned as a copy; several are merged and sorted."""
        offering = [r for r in self.enabled_repos() if name in r._packages]
        if len(offering) > 1 and self.use_priorities:
            best = offering[0]._priority  # enabled_repos() is priority-sorted
            offering = [r for r in offering if r._priority == best]
        if len(offering) == 1:
            return offering[0].versions_of(name)
        if not offering:
            return []
        out: list[Package] = []
        seen: set[str] = set()
        for repo in offering:
            for pkg in repo.versions_of(name):
                if pkg.nevra not in seen:
                    seen.add(pkg.nevra)
                    out.append(pkg)
        return sorted(out, key=_evr_order)

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
