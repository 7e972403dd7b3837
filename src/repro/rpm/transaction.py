"""RPM transaction sets: validated, ordered, atomic install/erase/upgrade.

Yum builds a transaction, resolves it, *then* runs it — and a failed
transaction must leave the system untouched (Section 3's warning about
automatic updates causing "unexpected behavior" is exactly about transactions
that succeed mechanically but break expectations; the mechanical layer at
least must be atomic).

Rules enforced by :meth:`Transaction.check_diagnostics`:

* nothing installed twice; erases must name installed packages;
* after the transaction, every requirement of every remaining package is
  satisfied (no broken deps — including deps broken by erases);
* no two packages in the final set conflict;
* upgrades replace an older EVR with a strictly newer one (downgrades are
  refused unless ``allow_downgrade``).

:meth:`Transaction.commit` orders installs topologically (dependencies
first; dependency cycles are co-installed in name order) and rolls back on
any mid-commit failure.

Commits are **write-ahead journaled**: every primitive operation records
its intent in a :class:`~repro.recovery.journal.Journal` before the DB is
touched and is marked applied after, so rollback is the journal's own loop
(:meth:`Journal.roll_back`: every op, landed or half-landed, newest first)
and a head-node crash mid-commit leaves an open journal transaction that
:func:`recover_transaction` resolves through the same loop afterwards.
Without an explicit journal, commit uses a private in-memory one (same
rollback path, no durability).  A :class:`~repro.errors.HeadnodeCrashError`
raised mid-commit is *not* rolled back: the process just died; cleanup is
recovery's job, not the corpse's.

A plan reused across identical hosts (:meth:`Transaction.commit_planned`)
is executed package by package once; from its second commit on it is an
:class:`InstallLayer`, built once, that each admitting host adopts whole
under a single journaled ``adopt`` op — the same end state, without the
per-package, per-file loop on every host.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial

from ..analyze.diagnostic import Diagnostic, Severity
from ..analyze import txn as _txn_rules  # noqa: F401 - registers TX7xx rules
from ..distro.filesystem import FsNode
from ..distro.modules_env import ModuleFile
from ..errors import (
    ConflictError,
    DependencyError,
    HeadnodeCrashError,
    JournalError,
    TransactionError,
)
from ..recovery.journal import Journal, JournalOp, JournalTxn
from .database import RpmDatabase
from .package import Package, ProvidesIndex

__all__ = [
    "Transaction",
    "TransactionPlan",
    "TransactionResult",
    "recover_transaction",
]


@dataclass
class _PlanReuse:
    """Commits made through one :class:`TransactionPlan` so far and, from
    the second, its layer (``None`` if its own payload collides)."""

    commits: int = 0
    layer: InstallLayer | None = None


@dataclass(frozen=True)
class TransactionPlan:
    """A validated, ordered commit plan — shareable across identical hosts.

    Validation (:meth:`Transaction.check_diagnostics`) and install ordering
    (:meth:`Transaction._install_order`) walk every requirement of the
    final package set and depend only on the DB contents, the host
    architecture, and the queued package set.  A uniform install wave
    kickstarts hundreds of hosts whose transactions are byte-for-byte
    identical, so one plan is computed and every other host commits
    through :meth:`Transaction.commit_planned`, which verifies the match
    keys below and skips straight to execution.
    """

    #: :meth:`RpmDatabase.fingerprint` of the DB the plan was validated on
    db_fingerprint: str
    host_arch: str
    #: sorted names of the queued erases
    erase_names: tuple[str, ...]
    #: the installs in topological execution order (the set identity)
    ordered: tuple[Package, ...] = field(repr=False)
    #: the validated install queue (name -> package) that
    #: :meth:`Transaction.commit_planned` matches on: ``ordered`` as a map,
    #: kept so the match is one dict comparison; never compared
    installs: dict[str, Package] = field(repr=False, compare=False)
    #: how far the plan has been reused — bookkeeping beside the frozen
    #: match keys, never compared (see :meth:`Transaction.commit_planned`)
    _reuse: _PlanReuse = field(
        default_factory=_PlanReuse, init=False, repr=False, compare=False
    )


@dataclass(frozen=True, eq=False)
class InstallLayer:
    """A reused plan's installs as one immutable unit, built once and
    adopted whole by every later host that admits it.

    It holds exactly what installing the plan's packages one by one, in
    plan order, leaves on a host that holds none of it, as tables a host
    merges whole (:meth:`RpmDatabase._adopt_unchecked`): the packages by
    name, every payload key mapped to one node owned by its (last) writer,
    every ancestor directory as a shared unowned node, each service's
    owning package, and each module name's versions and default.  The
    tree records are the packages' own (:attr:`Package.node_table`), so
    every host shares them (:class:`FsNode` is immutable) and copies the
    rest; none of it can change through one host.
    """

    packages: tuple[Package, ...]
    nevras: tuple[str, ...]
    #: package name -> package, in install order
    by_name: dict[str, Package]
    #: ancestor directory key -> unowned directory node, root first
    dirs: dict[str, FsNode]
    #: payload key -> the node the last package writing it leaves
    files: dict[str, FsNode]
    #: service -> the package registering it, in registration order
    services: dict[str, str]
    #: module name -> version -> modulefile, in install order
    modules: dict[str, dict[str, ModuleFile]]
    #: module name -> its first installed version (the default)
    module_defaults: dict[str, str]

    @property
    def names(self) -> tuple[str, ...]:
        """The package names, in install order."""
        return tuple(self.by_name)

    @classmethod
    def build(cls, packages: tuple[Package, ...]) -> InstallLayer | None:
        """The layer of ``packages`` (in install order), composed from
        their node tables, or ``None`` when their own payloads collide — a
        file at ``/``, at another file's ancestor or under another file, a
        service two packages register, or one modulefile twice — so
        installing them one by one raises on any host."""
        dirs: dict[str, FsNode] = {}
        files: dict[str, FsNode] = {}
        services: dict[str, str] = {}
        modules: dict[str, dict[str, ModuleFile]] = {}
        for pkg in packages:
            name = pkg.name
            table = pkg.node_table
            if table is None:
                return None
            pkg_dirs, pkg_files = table
            if not dirs.keys().isdisjoint(pkg_files.keys()):
                return None
            if not files.keys().isdisjoint(pkg_dirs.keys()):
                return None
            for key, node in pkg_dirs.items():
                if key not in dirs:
                    dirs[key] = node
            files.update(pkg_files)
            for service in pkg.services:
                if services.setdefault(service, name) != name:
                    return None
            module = pkg.module
            if module is not None:
                versions = modules.setdefault(module.name, {})
                if module.version in versions:
                    return None
                versions[module.version] = module
        return cls(
            packages=packages,
            nevras=tuple(p.nevra for p in packages),
            by_name={p.name: p for p in packages},
            dirs=dirs,
            files=files,
            services=services,
            modules=modules,
            module_defaults={
                name: next(iter(versions)) for name, versions in modules.items()
            },
        )


@dataclass
class TransactionResult:
    """What a committed transaction did, in execution order."""

    erased: list[Package] = field(default_factory=list)
    installed: list[Package] = field(default_factory=list)
    upgraded: list[tuple[Package, Package]] = field(default_factory=list)  # (old, new)
    #: paths a new package wrote over another installed package's file
    #: (``path (old-owner -> new-owner)``).  Real RPM refuses these outright;
    #: we record them instead because retrofit scenarios (XNIT torque over a
    #: vendor scheduler) depend on the replace-and-tell behaviour — but a
    #: silent conflict is how clusters rot, so it is never silent.
    file_conflicts: list[str] = field(default_factory=list)

    @property
    def change_count(self) -> int:
        return len(self.erased) + len(self.installed) + len(self.upgraded)

    def summary(self) -> str:
        """A yum-style one-line summary."""
        return (
            f"Install {len(self.installed)} Package(s); "
            f"Upgrade {len(self.upgraded)} Package(s); "
            f"Erase {len(self.erased)} Package(s)"
        )


class Transaction:
    """One pending transaction against a host's RPM database."""

    def __init__(
        self,
        db: RpmDatabase,
        *,
        allow_downgrade: bool = False,
        journal: Journal | None = None,
        delivery=None,
    ) -> None:
        self.db = db
        self.allow_downgrade = allow_downgrade
        #: write-ahead journal commits record through; None means each
        #: commit journals into a private in-memory one (rollback still
        #: walks the journal, but nothing survives the process).
        self.journal = journal
        #: optional :class:`~repro.cas.LazyDelivery`: each install pulls the
        #: package's missing chunks through the site cache hierarchy on
        #: first reference, before the DB mutation.  A failed fetch aborts
        #: the commit through the ordinary rollback path.
        self.delivery = delivery
        self._installs: dict[str, Package] = {}
        self._erases: set[str] = set()

    # -- building --------------------------------------------------------------

    def install(self, pkg: Package) -> "Transaction":
        """Queue a fresh install (or an upgrade if the name is installed)."""
        if pkg.name in self._installs:
            existing = self._installs[pkg.name]
            if existing.nevra != pkg.nevra:
                raise TransactionError(
                    f"transaction already installs {existing.nevra}; "
                    f"cannot also install {pkg.nevra}"
                )
            return self
        self._installs[pkg.name] = pkg
        return self

    def _install_all(self, installs: dict[str, Package]) -> None:
        """Queue ``installs`` on an empty transaction with one dict copy
        instead of one :meth:`install` per package: ``installs`` is a queue
        (name -> package) another transaction built through :meth:`install`."""
        self._installs = dict(installs)

    def erase(self, name: str) -> "Transaction":
        """Queue an erase of an installed package."""
        self._erases.add(name)
        return self

    @property
    def is_empty(self) -> bool:
        return not self._installs and not self._erases

    # -- validation --------------------------------------------------------------

    def check_diagnostics(self) -> list[Diagnostic]:
        """Validate; returns structured diagnostics (empty = ok).

        Each problem carries a stable ``TX7xx`` rule code (catalogued in
        :mod:`repro.analyze.txn` and docs/ANALYZE.md).  Order is the
        validation order — arch, erases, installs, requires, conflicts —
        not severity order.

        The requires and conflicts passes ask about the final set without
        building an index over it: they read the database's own index
        (:meth:`RpmDatabase._index`, where a query has built it) with the
        names erased or replaced left out, overlaid with an index of the
        queued installs — linear in what is declared.  Every final package's requirements are still
        checked, so a database that was already broken reports what it
        holds.
        """

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
        # The final set: what stays installed, then the queued installs.
        gone = self._erases.union(self._installs)
        final = {n: p for n, p in self.db._by_name.items() if n not in gone}
        final.update(self._installs)
        by_name = [final[name] for name in sorted(final)]
        # The database's own index where a query has built it (on an XNIT
        # host, the depsolver's).  Where none has, a throwaway one: kept,
        # it would outlive the check and index every later install on a
        # host nothing queries (an XCBC kickstart, a near-empty database).
        installed = self.db._provides_index
        if installed is None:
            installed = ProvidesIndex(self.db._by_name.values())
        queued = ProvidesIndex(self._installs.values())
        # Dependency closure of the final state.
        for pkg in by_name:
            for req in pkg.requires:
                if not (
                    installed.is_satisfied(req, gone)
                    or queued.is_satisfied(req)
                ):
                    problems.append(problem(
                        "TX705",
                        f"{pkg.nevra} requires {req} which nothing provides",
                        f"transaction:require/{pkg.name}",
                    ))
        # Conflicts among final packages: a pair is reported from each side
        # that declares any conflict, whichever side's declaration matched.
        clashes: set[tuple[str, str]] = set()
        for pkg in by_name:
            for conflict in pkg.conflicts:
                for other in (
                    installed.providers(conflict, gone)
                    + queued.providers(conflict)
                ):
                    if other.name != pkg.name:
                        clashes.add((pkg.name, other.name))
                        if other.conflicts:
                            clashes.add((other.name, pkg.name))
        for name, other in sorted(clashes):
            problems.append(problem(
                "TX706",
                f"{final[name].nevra} conflicts with {final[other].nevra}",
                f"transaction:conflict/{name}",
            ))
        return problems

    def upgrade(self, pkg: Package) -> "Transaction":
        """Queue an in-place upgrade: erase old EVR, install the new one."""
        if not self.db.has(pkg.name):
            # yum semantics: upgrade of a not-installed package installs it.
            return self.install(pkg)
        old = self.db.get(pkg.name)
        if not pkg.is_newer_than(old) and not self.allow_downgrade:
            raise TransactionError(
                f"{pkg.nevra} is not newer than installed {old.nevra} "
                f"(pass allow_downgrade to force)"
            )
        self.erase(pkg.name)
        return self.install(pkg)

    # -- ordering --------------------------------------------------------------

    def _install_order(self) -> list[Package]:
        """Topological order of queued installs: dependencies first.

        Edges run provider -> dependant, considering only providers inside
        this transaction (already-installed providers impose no ordering).
        Kahn's algorithm with name-sorted tie-breaking keeps the order
        deterministic; any cycle remainder is co-installed in name order.
        """
        pkgs = self._installs
        provided = ProvidesIndex(pkgs.values())
        dependants: dict[str, set[str]] = {n: set() for n in pkgs}
        indegree: dict[str, int] = {n: 0 for n in pkgs}
        for name, pkg in pkgs.items():
            for req in pkg.requires:
                for provider in provided.providers(req):
                    if provider.name != name and name not in dependants[provider.name]:
                        dependants[provider.name].add(name)
                        indegree[name] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order: list[Package] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(pkgs[current])
            for child in dependants[current]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) < len(pkgs):
            # Cycle: co-install the remainder deterministically.
            remaining = sorted(set(pkgs) - {p.name for p in order})
            order.extend(pkgs[n] for n in remaining)
        return order

    # -- commit ----------------------------------------------------------------

    @staticmethod
    def _raise_check_problems(problems: list[Diagnostic]) -> None:
        text = "; ".join(str(d) for d in problems)
        codes = {d.code for d in problems}
        if "TX705" in codes:
            raise DependencyError(f"transaction check failed: {text}")
        if "TX706" in codes:
            raise ConflictError(f"transaction check failed: {text}")
        raise TransactionError(f"transaction check failed: {text}")

    def plan(self) -> TransactionPlan:
        """Validate and order this transaction into a reusable plan.

        Raises :class:`DependencyError` / :class:`ConflictError` /
        :class:`TransactionError` (by problem type) exactly as
        :meth:`commit` would, without touching the DB.
        """
        if self.is_empty:
            raise TransactionError("empty transaction")
        problems = self.check_diagnostics()
        if problems:
            self._raise_check_problems(problems)
        ordered = tuple(self._install_order())
        return TransactionPlan(
            db_fingerprint=self.db.fingerprint(),
            host_arch=self.db.host.arch,
            erase_names=tuple(sorted(self._erases)),
            ordered=ordered,
            installs=dict(self._installs),
        )

    def commit(self) -> TransactionResult:
        """Validate, order, and execute; atomic on failure.

        Raises :class:`DependencyError` / :class:`ConflictError` /
        :class:`TransactionError` (by problem type) without touching the DB
        if validation fails.  If a primitive operation fails mid-commit,
        at any point inside it, every operation — the failing one included
        — is undone before the error propagates.
        """
        return self.commit_planned(self.plan())

    def commit_planned(self, plan: TransactionPlan) -> TransactionResult:
        """Execute against a pre-validated :class:`TransactionPlan`.

        The plan's match keys — DB fingerprint, host arch, install queue,
        erase set — are checked against *this* transaction; a match means
        validation and ordering would reproduce the plan exactly, so both
        are skipped.  The install queue matches when it maps each name to a
        package equal to the one the plan validated (its NEVRA, its
        requirements, conflicts and payload alike), which for a queue
        seeded from :attr:`TransactionPlan.installs` is one identity test
        per entry.  A mismatch raises :class:`TransactionError` without
        touching the DB (fall back to :meth:`commit`).

        The plan's first commit executes, journals and rolls back exactly
        as :meth:`commit` does, package by package.  The second builds the
        plan's :class:`InstallLayer` (install-only plans), and from then on
        a host that admits the layer (:meth:`_admits`) adopts it whole
        under one journaled ``adopt`` op; any other host takes the
        package-by-package path.  Either way the host, the DB and the
        result end the same.
        """
        if self.is_empty:
            raise TransactionError("empty transaction")
        if (
            self._installs != plan.installs
            or self.db.fingerprint() != plan.db_fingerprint
            or self.db.host.arch != plan.host_arch
            or tuple(sorted(self._erases)) != plan.erase_names
        ):
            raise TransactionError(
                f"transaction on {self.db.host.name} does not match the "
                f"shared plan (different DB state, architecture, or package "
                f"set); commit() it individually"
            )
        ordered = plan.ordered
        reuse = plan._reuse
        reuse.commits += 1
        if reuse.commits == 2 and not plan.erase_names:
            reuse.layer = InstallLayer.build(ordered)
        if reuse.layer is not None and self._admits(reuse.layer):
            return self._adopt(reuse.layer)

        result = TransactionResult()
        upgrades_old: dict[str, Package] = {}
        # Detect cross-package file conflicts before touching anything:
        # paths an incoming package will write that are currently owned by a
        # package that is neither being erased nor the same name.
        # A package whose keys are all free (no mount, no node at any of
        # them) has nothing to conflict with.
        fs = self.db.host.fs
        for pkg in self._installs.values():
            table = pkg.node_table
            if table is not None and fs._holds_none(table[1]):
                continue
            for path, _ancestors, _content, _mode in pkg.payload:
                node = fs._node(path)
                owner = node.owner_package if node is not None else None
                if (
                    owner
                    and owner != pkg.name
                    and owner not in self._erases
                    and self.db.has(owner)
                ):
                    result.file_conflicts.append(
                        f"{path} ({owner} -> {pkg.name})"
                    )
        journal = self.journal if self.journal is not None else Journal()
        txn = journal.begin("rpm.txn", host=self.db.host.name)
        try:
            for name in sorted(self._erases):
                old = self.db.get(name)
                op = journal.intent(
                    txn, "erase", name=name, nevra=old.nevra, obj=old
                )
                self.db._erase_unchecked(name)
                journal.applied(txn, op)
                if name in self._installs:
                    upgrades_old[name] = old
                else:
                    result.erased.append(old)
            for pkg in ordered:
                if self.delivery is not None:
                    # Lazy content delivery: the package's bytes arrive
                    # chunk-by-chunk only now, on first reference.
                    self.delivery.fetch_package(self.db.host.name, pkg)
                op = journal.intent(
                    txn, "install", name=pkg.name, nevra=pkg.nevra, obj=pkg
                )
                self.db._install_unchecked(pkg)
                journal.applied(txn, op)
                if pkg.name in upgrades_old:
                    result.upgraded.append((upgrades_old[pkg.name], pkg))
                else:
                    result.installed.append(pkg)
        except HeadnodeCrashError:
            # The process died mid-commit.  A corpse runs no cleanup: the
            # journal transaction stays OPEN (that IS the crash record) and
            # recover_transaction() heals the phantom state afterwards.
            raise
        except Exception as exc:
            journal.roll_back(txn, partial(_undo_op, self.db))
            raise TransactionError(
                f"transaction failed and was rolled back: {exc}"
            ) from exc
        journal.commit(txn)
        return result

    def _admits(self, layer: InstallLayer) -> bool:
        """True if adopting ``layer`` leaves this host exactly as installing
        its packages one by one would, with nothing on the way to raise: no
        delivery to fetch them in order, and a host that holds none of the
        layer — no file at its keys (so no file conflict), no non-directory
        at its directories, no mount, no modulefile under any of its module
        names and no service under any of its service names.  A host that
        already has one of those names takes the package-by-package path.
        Mutates nothing."""
        if self.delivery is not None:
            return False
        host = self.db.host
        return (
            host.fs._layer_fits(layer.dirs, layer.files)
            and host.modules._holds_none(layer.modules.keys())
            and host.services._holds_none(layer.services.keys())
        )

    def _adopt(self, layer: InstallLayer) -> TransactionResult:
        """Install ``layer`` under one ``adopt`` op of an ``rpm.txn``
        journal transaction, recorded before anything changes; undo erases
        whichever of its packages landed, as for ``install`` ops."""
        journal = self.journal if self.journal is not None else Journal()
        txn = journal.begin("rpm.txn", host=self.db.host.name)
        op = journal.intent(
            txn, "adopt", names=layer.names, nevras=layer.nevras
        )
        try:
            self.db._adopt_unchecked(layer)
            journal.applied(txn, op)
        except HeadnodeCrashError:
            raise
        except Exception as exc:
            journal.roll_back(txn, partial(_undo_op, self.db))
            raise TransactionError(
                f"transaction failed and was rolled back: {exc}"
            ) from exc
        journal.commit(txn)
        return TransactionResult(installed=list(layer.packages))


def _undo_op(db: RpmDatabase, op: JournalOp, *, packages=None) -> None:
    """Force one journaled primitive to not-happened, landed or half-landed.

    An install is erased only if this op's package is what the DB holds —
    :meth:`RpmDatabase._install_unchecked` refuses before its first
    mutation, so a name that is absent (or another build) means the op
    never started.  An adopt is an install of each of its packages, undone
    newest first.  An erase is finished, then its package re-installed.
    """
    if op.op == "adopt":
        landed = zip(op.payload["names"], op.payload["nevras"])
        for name, nevra in reversed(list(landed)):
            if db.has(name) and db.get(name).nevra == nevra:
                db._erase_unchecked(name)
        return
    name = op.payload["name"]
    if op.op == "install":
        if db.has(name) and db.get(name).nevra == op.payload["nevra"]:
            db._erase_unchecked(name)
    elif op.op == "erase":
        if not db.has(name):
            pkg = op.obj
            if pkg is None and packages is not None:
                pkg = packages.get(op.payload["nevra"])
            if pkg is None:
                raise JournalError(
                    f"cannot undo erase of {op.payload['nevra']}: no "
                    f"in-process package handle (journal loaded from "
                    f"disk? pass a package source to recover_transaction)"
                )
            db._drop_payload(pkg)
            db._install_unchecked(pkg)
    else:
        raise JournalError(f"unknown rpm journal op {op.op!r}")


def recover_transaction(
    journal: Journal, db: RpmDatabase, *, packages=None
) -> list[JournalTxn]:
    """Resolve every open ``rpm.txn`` journal transaction for ``db``'s host.

    The post-crash entry point: :meth:`Journal.roll_back` forces each open
    transaction's operations to not-happened — the DB ends with no phantom
    packages and the journal records the resolution.  ``packages``
    optionally maps nevra -> Package for undoing erases when the journal
    was reloaded from disk (no object handles).  Returns the transactions
    that were rolled back.
    """
    resolved = [
        txn
        for txn in journal.open_txns("rpm.txn")
        if txn.meta.get("host") == db.host.name
    ]
    for txn in resolved:
        journal.roll_back(txn, partial(_undo_op, db, packages=packages))
    return resolved
