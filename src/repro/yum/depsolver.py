"""Dependency resolution: goals + repositories + installed set -> closure.

Yum's resolver is closure-based (not a SAT solver): start from the goal
packages, repeatedly pick a best provider for every unsatisfied requirement,
and fail loudly when nothing provides a capability.  Best-provider selection
is deterministic:

1. priority filtering already happened in :class:`RepoSet` (the plugin);
2. prefer a provider whose *name* equals the required capability name
   (matching yum's heuristic that ``Requires: foo`` usually means the
   package ``foo``);
3. then the newest EVR;
4. then the lexicographically smallest name (tie-break for determinism).

The resolver also pulls upgrades for installed packages that would otherwise
conflict-by-version, and honours ``obsoletes`` during updates.

One cache makes repeated resolution cheap (the XCBC fast path — the same
136-package stack resolved on all 220 Kansas nodes):
:func:`resolve_install` / :func:`resolve_update` keep a bounded LRU of
whole :class:`Resolution` objects keyed on (goal names, repo epoch,
installed-set fingerprint) — equal keys provably resolve identically, so
node 2..220 of a uniform build is a dict hit.  Cached hits return fresh
copies; callers may mutate their Resolution freely.

``tests/test_perf_caches.py`` pins the invalidation behaviour (a sync that
publishes a newer EVR, or a db install/erase, is seen by the next resolve).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..errors import DependencyError, PackageNotFoundError
from ..rpm.database import RpmDatabase
from ..rpm.package import Package, ProvidesIndex, Requirement
from .repository import RepoSet

__all__ = [
    "Resolution",
    "resolve_install",
    "resolve_update",
    "best_provider",
    "clear_resolution_cache",
    "resolution_cache_stats",
]


@dataclass
class Resolution:
    """Outcome of a resolve: what to install and what it upgrades."""

    to_install: list[Package] = field(default_factory=list)
    #: names of installed packages being replaced by to_install entries
    upgrades: dict[str, Package] = field(default_factory=dict)  # name -> new pkg
    #: requirements satisfied by already-installed packages (for reporting)
    already_satisfied: list[Requirement] = field(default_factory=list)

    @property
    def install_names(self) -> set[str]:
        return {p.name for p in self.to_install}

    def is_empty(self) -> bool:
        return not self.to_install

    def copy(self) -> "Resolution":
        """Shallow-per-field copy (Package objects are frozen/shared)."""
        return Resolution(
            to_install=list(self.to_install),
            upgrades=dict(self.upgrades),
            already_satisfied=list(self.already_satisfied),
        )


def best_provider(req: Requirement, repos: RepoSet) -> Package:
    """Pick the best available provider for ``req`` (see module rules).

    Raises :class:`DependencyError` if nothing in the enabled repositories
    satisfies the requirement.
    """
    candidates = repos.providers_of(req)
    if not candidates:
        raise DependencyError(f"nothing provides {req}", missing=(str(req),))
    # One pass: newest EVR per name; exact-name preference resolved by a
    # dict probe instead of re-listing the candidates.
    best_by_name: dict[str, Package] = {}
    for pkg in candidates:
        held = best_by_name.get(pkg.name)
        if held is None or pkg.evr > held.evr:
            best_by_name[pkg.name] = pkg
    best = best_by_name.get(req.name)
    if best is None:
        best = best_by_name[min(best_by_name)]
    return best


def _closure(
    goals: list[Package],
    repos: RepoSet,
    db: RpmDatabase,
) -> Resolution:
    """Compute the install closure of ``goals`` against ``db``."""
    resolution = Resolution()
    selected: dict[str, Package] = {}
    #: what ``selected`` provides, kept in step by ``select``
    provided = ProvidesIndex()
    queue: deque[Package] = deque()

    def select(pkg: Package) -> None:
        held = selected.get(pkg.name)
        if held is not None:
            # Keep the newer of the two candidates.
            if held.nevra == pkg.nevra or not pkg.evr > held.evr:
                return
            provided.discard(held)
        selected[pkg.name] = pkg
        provided.add(pkg)
        queue.append(pkg)

    for goal in goals:
        select(goal)

    while queue:
        pkg = queue.popleft()
        for req in pkg.requires:
            if provided.is_satisfied(req):
                continue
            if db.is_satisfied(req):
                resolution.already_satisfied.append(req)
                continue
            try:
                provider = best_provider(req, repos)
            except DependencyError as exc:
                raise DependencyError(
                    f"{pkg.nevra} requires {req}, which no enabled repository "
                    f"provides",
                    missing=exc.missing,
                ) from None
            select(provider)

    for name, pkg in sorted(selected.items()):
        if db.has(name):
            old = db.get(name)
            if pkg.evr > old.evr:
                resolution.upgrades[name] = pkg
                resolution.to_install.append(pkg)
            # same or older EVR installed: nothing to do
        else:
            resolution.to_install.append(pkg)
    return resolution


# -- whole-resolution cache ---------------------------------------------------

#: verb + goal names + repo epoch + db fingerprint -> Resolution (LRU).
_RESOLUTION_CACHE: "OrderedDict[tuple, Resolution]" = OrderedDict()
_RESOLUTION_CACHE_MAX = 1024
_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_resolution_cache() -> None:
    """Drop every cached resolution (test isolation / memory pressure)."""
    _RESOLUTION_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def resolution_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for the whole-resolution LRU."""
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "size": len(_RESOLUTION_CACHE),
    }


def _cache_get(key: tuple) -> Resolution | None:
    hit = _RESOLUTION_CACHE.get(key)
    if hit is None:
        _CACHE_STATS["misses"] += 1
        return None
    _RESOLUTION_CACHE.move_to_end(key)
    _CACHE_STATS["hits"] += 1
    return hit.copy()


def _cache_put(key: tuple, resolution: Resolution) -> None:
    _RESOLUTION_CACHE[key] = resolution.copy()
    _RESOLUTION_CACHE.move_to_end(key)
    while len(_RESOLUTION_CACHE) > _RESOLUTION_CACHE_MAX:
        _RESOLUTION_CACHE.popitem(last=False)


def resolve_install(
    names: list[str], repos: RepoSet, db: RpmDatabase
) -> Resolution:
    """Resolve ``yum install name...``: goals by name, newest candidates."""
    key = ("install", tuple(names), repos.epoch, db.fingerprint())
    cached = _cache_get(key)
    if cached is not None:
        return cached
    goals: list[Package] = []
    for name in names:
        try:
            goals.append(repos.latest_by_name(name))
        except PackageNotFoundError:
            raise DependencyError(
                f"no package {name} available in any enabled repository",
                missing=(name,),
            ) from None
    resolution = _closure(goals, repos, db)
    _cache_put(key, resolution)
    return resolution


def resolve_update(
    repos: RepoSet,
    db: RpmDatabase,
    *,
    names: list[str] | None = None,
) -> Resolution:
    """Resolve ``yum update [name...]``.

    For every installed package (or the named subset) with a newer candidate
    available, pull the newest candidate plus its closure.  Also honours
    ``obsoletes``: an available package obsoleting an installed one replaces
    it even across a name change.
    """
    targets = names if names is not None else sorted(db.names())
    key = ("update", tuple(targets), repos.epoch, db.fingerprint())
    cached = _cache_get(key)
    if cached is not None:
        return cached
    goals: list[Package] = []
    obsoleted: dict[str, Package] = {}
    for name in targets:
        if not db.has(name):
            raise DependencyError(
                f"cannot update {name}: not installed", missing=(name,)
            )
        installed_pkg = db.get(name)
        candidates = repos.candidates_by_name(name)
        if candidates and candidates[-1].evr > installed_pkg.evr:
            goals.append(candidates[-1])
        # obsoletes: indexed lookup of packages whose Obsoletes name this one
        for repo in repos.enabled_repos():
            for pkg in repo.obsoleters_of(installed_pkg):
                goals.append(pkg)
                obsoleted[name] = pkg
    resolution = _closure(goals, repos, db) if goals else Resolution()
    for old_name, new_pkg in obsoleted.items():
        if new_pkg.name in resolution.install_names:
            resolution.upgrades[old_name] = new_pkg
    _cache_put(key, resolution)
    return resolution
