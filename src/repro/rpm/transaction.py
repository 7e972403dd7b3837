"""RPM transaction sets: validated, ordered, atomic install/erase/upgrade.

Yum builds a transaction, resolves it, *then* runs it — and a failed
transaction must leave the system untouched (Section 3's warning about
automatic updates causing "unexpected behavior" is exactly about transactions
that succeed mechanically but break expectations; the mechanical layer at
least must be atomic).

Rules enforced by :meth:`Transaction.check`:

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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial

from ..analyze.diagnostic import Diagnostic, Severity
from ..analyze import txn as _txn_rules  # noqa: F401 - registers TX7xx rules
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
    #: sorted nevras of the queued installs (the set identity)
    install_nevras: tuple[str, ...]
    #: sorted names of the queued erases
    erase_names: tuple[str, ...]
    #: topological execution order for the installs
    order_nevras: tuple[str, ...]


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

    def erase(self, name: str) -> "Transaction":
        """Queue an erase of an installed package."""
        self._erases.add(name)
        return self

    @property
    def is_empty(self) -> bool:
        return not self._installs and not self._erases

    # -- validation --------------------------------------------------------------

    def _final_set(self) -> dict[str, Package]:
        """The package set that will be installed after commit."""
        final = {
            name: pkg
            for name, pkg in ((p.name, p) for p in self.db.installed())
            if name not in self._erases and name not in self._installs
        }
        final.update(self._installs)
        return final

    def check_diagnostics(self) -> list[Diagnostic]:
        """Validate; returns structured diagnostics (empty = ok).

        Each problem carries a stable ``TX7xx`` rule code (catalogued in
        :mod:`repro.analyze.txn` and docs/ANALYZE.md).  Order is the
        validation order — arch, erases, installs, requires, conflicts —
        not severity order, so :meth:`check` stays byte-identical to its
        historical output.  The requires and conflicts passes share one
        :class:`ProvidesIndex` over the final set: linear in what is declared.
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
        final = self._final_set()
        by_name = sorted(final.values(), key=lambda p: p.name)
        provided = ProvidesIndex(by_name)
        # Dependency closure of the final state.
        for pkg in by_name:
            for req in pkg.requires:
                if not provided.is_satisfied(req):
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
                for other in provided.providers(conflict):
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

    def check(self) -> list[str]:
        """Validate; returns a list of human-readable problems (empty = ok).

        Thin compatibility shim over :meth:`check_diagnostics` — the strings
        are each diagnostic's message, unchanged from before diagnostics
        existed.
        """
        return [str(d) for d in self.check_diagnostics()]

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
        return TransactionPlan(
            db_fingerprint=self.db.fingerprint(),
            host_arch=self.db.host.arch,
            install_nevras=tuple(
                sorted(p.nevra for p in self._installs.values())
            ),
            erase_names=tuple(sorted(self._erases)),
            order_nevras=tuple(p.nevra for p in self._install_order()),
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

        The plan's match keys — DB fingerprint, host arch, install set,
        erase set — are checked against *this* transaction; a match means
        validation and ordering would reproduce the plan exactly, so both
        are skipped.  A mismatch raises :class:`TransactionError` without
        touching the DB (fall back to :meth:`commit`).  Execution,
        journaling, and rollback are identical to :meth:`commit`.
        """
        if self.is_empty:
            raise TransactionError("empty transaction")
        by_nevra = {p.nevra: p for p in self._installs.values()}
        if (
            self.db.fingerprint() != plan.db_fingerprint
            or self.db.host.arch != plan.host_arch
            or tuple(sorted(by_nevra)) != plan.install_nevras
            or tuple(sorted(self._erases)) != plan.erase_names
        ):
            raise TransactionError(
                f"transaction on {self.db.host.name} does not match the "
                f"shared plan (different DB state, architecture, or package "
                f"set); commit() it individually"
            )

        result = TransactionResult()
        upgrades_old: dict[str, Package] = {}
        # Detect cross-package file conflicts before touching anything:
        # paths an incoming package will write that are currently owned by a
        # package that is neither being erased nor the same name.
        fs = self.db.host.fs
        for pkg in self._installs.values():
            for path in pkg.default_paths():
                node = fs.lookup(path)
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
            for pkg in (by_nevra[n] for n in plan.order_nevras):
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


def _undo_op(db: RpmDatabase, op: JournalOp, *, packages=None) -> None:
    """Force one journaled primitive to not-happened, landed or half-landed.

    An install is erased only if this op's package is what the DB holds —
    :meth:`RpmDatabase._install_unchecked` refuses before its first
    mutation, so a name that is absent (or another build) means the op
    never started.  An erase is finished, then its package re-installed.
    """
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
