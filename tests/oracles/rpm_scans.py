"""Pre-index scan implementations, kept verbatim as reference oracles.

Each function is the body a hot path had *before* it was indexed, moved out
of ``src/`` unchanged (``self`` is the object the method used to live on).
They are O(packages x requires x packages) by design: the property tests in
``tests/test_perf_indexes.py`` assert the indexed code in ``src/repro``
returns exactly what these return.

* :func:`scan_check_diagnostics`, :func:`scan_install_order` —
  ``Transaction.check_diagnostics`` / ``Transaction._install_order`` at
  commit ``c6c39c4`` (before the transaction-local ``ProvidesIndex``);
* :func:`scan_closure` — ``yum.depsolver._closure`` at the same commit;
* :func:`scan_providers_of`, :func:`scan_is_satisfied` — ``RpmDatabase``'s
  pre-index queries (formerly ``RpmDatabase._scan_*``);
* :func:`scan_fingerprint` — ``RpmDatabase.fingerprint`` recomputed from
  the installed set, with no memo;
* :func:`unsatisfied_requirements` — the former
  ``RpmDatabase.unsatisfied_requirements`` integrity check, which only the
  transaction tests called: every requirement no installed package meets.
"""

from __future__ import annotations

import hashlib

from repro.analyze.diagnostic import Diagnostic, Severity
from repro.errors import DependencyError
from repro.rpm import Package, Requirement, RpmDatabase, Transaction
from repro.yum import RepoSet
from repro.yum.depsolver import Resolution, best_provider

__all__ = [
    "scan_check_diagnostics",
    "scan_install_order",
    "scan_closure",
    "scan_providers_of",
    "scan_is_satisfied",
    "scan_fingerprint",
    "unsatisfied_requirements",
]


def scan_check_diagnostics(self: Transaction) -> list[Diagnostic]:
    """Oracle for :meth:`Transaction.check_diagnostics`: the closure pass
    scans the whole final set per requirement, the conflict pass tests
    every (declaring, other) pair."""

    def problem(code: str, message: str, location: str) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            subsystem="transaction",
            location=location,
        )

    problems: list[Diagnostic] = []
    if self.journal is not None:
        for open_txn in self.journal.open_txns("rpm.txn"):
            if open_txn.meta.get("host") == self.db.host.name:
                problems.append(problem(
                    "TX707",
                    f"journal transaction {open_txn.txn_id} for host "
                    f"{self.db.host.name} is still open (crashed "
                    f"mid-commit?); recover it before committing",
                    f"transaction:journal/{open_txn.txn_id}",
                ))
    host_arch = self.db.host.arch
    for name, pkg in sorted(self._installs.items()):
        if pkg.arch not in ("noarch", host_arch):
            problems.append(problem(
                "TX701",
                f"{pkg.nevra} is built for {pkg.arch} but this host is "
                f"{host_arch}",
                f"transaction:install/{name}",
            ))
    for name in sorted(self._erases):
        if not self.db.has(name) and name not in self._installs:
            problems.append(problem(
                "TX702",
                f"cannot erase {name}: not installed",
                f"transaction:erase/{name}",
            ))
    for name, pkg in sorted(self._installs.items()):
        if self.db.has(name) and name not in self._erases:
            old = self.db.get(name)
            if old.nevra == pkg.nevra:
                problems.append(problem(
                    "TX703",
                    f"{pkg.nevra} is already installed",
                    f"transaction:install/{name}",
                ))
            else:
                problems.append(problem(
                    "TX704",
                    f"{name} is installed ({old.evr_string}); upgrade via "
                    f"erase+install or Transaction.upgrade",
                    f"transaction:install/{name}",
                ))
    final = self._final_set()
    # Dependency closure of the final state.
    for pkg in sorted(final.values(), key=lambda p: p.name):
        for req in pkg.requires:
            if not any(p.satisfies(req) for p in final.values()):
                problems.append(problem(
                    "TX705",
                    f"{pkg.nevra} requires {req} which nothing provides",
                    f"transaction:require/{pkg.name}",
                ))
    # Pairwise conflicts among final packages that declare any.
    declaring = [p for p in final.values() if p.conflicts]
    for pkg in sorted(declaring, key=lambda p: p.name):
        for other in sorted(final.values(), key=lambda p: p.name):
            if other.name != pkg.name and pkg.conflicts_with(other):
                problems.append(problem(
                    "TX706",
                    f"{pkg.nevra} conflicts with {other.nevra}",
                    f"transaction:conflict/{pkg.name}",
                ))
    return problems


def scan_install_order(self: Transaction) -> list[Package]:
    """Oracle for :meth:`Transaction._install_order`: edges found by testing
    every queued package against every requirement; ready list re-sorted
    per pop."""
    pkgs = self._installs
    dependants: dict[str, set[str]] = {n: set() for n in pkgs}
    indegree: dict[str, int] = {n: 0 for n in pkgs}
    for name, pkg in pkgs.items():
        for req in pkg.requires:
            for provider_name, provider in pkgs.items():
                if provider_name != name and provider.satisfies(req):
                    if name not in dependants[provider_name]:
                        dependants[provider_name].add(name)
                        indegree[name] += 1
    ready = sorted(n for n, d in indegree.items() if d == 0)
    order: list[Package] = []
    while ready:
        current = ready.pop(0)
        order.append(pkgs[current])
        newly_ready = []
        for child in dependants[current]:
            indegree[child] -= 1
            if indegree[child] == 0:
                newly_ready.append(child)
        ready = sorted(ready + newly_ready)
    if len(order) < len(pkgs):
        # Cycle: co-install the remainder deterministically.
        remaining = sorted(set(pkgs) - {p.name for p in order})
        order.extend(pkgs[n] for n in remaining)
    return order


def scan_closure(
    goals: list[Package],
    repos: RepoSet,
    db: RpmDatabase,
) -> Resolution:
    """Oracle for ``yum.depsolver._closure``: every requirement scans
    ``selected.values()``."""
    resolution = Resolution()
    selected: dict[str, Package] = {}
    queue: list[Package] = []

    def select(pkg: Package) -> None:
        held = selected.get(pkg.name)
        if held is not None:
            if held.nevra != pkg.nevra:
                # Keep the newer of the two candidates.
                if pkg.evr > held.evr:
                    selected[pkg.name] = pkg
                    queue.append(pkg)
            return
        selected[pkg.name] = pkg
        queue.append(pkg)

    for goal in goals:
        select(goal)

    while queue:
        pkg = queue.pop(0)
        for req in pkg.requires:
            if any(p.satisfies(req) for p in selected.values()):
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


def scan_providers_of(self: RpmDatabase, req: Requirement) -> list[Package]:
    """Reference oracle for the installed-package index's ``providers``,
    sorted by name (formerly ``RpmDatabase.providers_of``)."""
    return [p for p in self.installed() if p.satisfies(req)]


def scan_is_satisfied(self: RpmDatabase, req: Requirement) -> bool:
    """Reference oracle for :meth:`RpmDatabase.is_satisfied`."""
    return any(p.satisfies(req) for p in self._by_name.values())


def scan_fingerprint(self: RpmDatabase) -> str:
    """Reference oracle for :meth:`RpmDatabase.fingerprint`: sha256 over
    the sorted installed NEVRAs."""
    digest = hashlib.sha256()
    for nevra in sorted(p.nevra for p in self.installed()):
        digest.update(nevra.encode())
    return digest.hexdigest()


def unsatisfied_requirements(self: RpmDatabase) -> list[tuple[Package, Requirement]]:
    """Integrity check: every requirement of every installed package that
    no installed package satisfies.  A healthy DB returns ``[]``."""
    broken = []
    for pkg in self.installed():
        for req in pkg.requires:
            if not self.is_satisfied(req):
                broken.append((pkg, req))
    return broken
