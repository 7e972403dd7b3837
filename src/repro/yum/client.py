"""The yum client: the administrator-facing verbs on one host.

``YumClient`` binds a host's RPM database to its enabled repositories (as
configured by the ``.repo`` files in ``/etc/yum.repos.d``) and implements
the workflow of Section 3: ``install``, ``update``, ``check-update``,
``erase``, ``repolist``, plus group installs (used by the XCBC roll).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..distro.host import Host
from ..errors import DependencyError, YumError
from ..rpm.database import RpmDatabase
from ..rpm.transaction import Transaction, TransactionResult
from .depsolver import Resolution, resolve_install, resolve_update
from .repoconfig import RepoStanza, parse_repo_file
from .repository import Repository, RepoSet

__all__ = ["YumClient", "UpdateInfo"]


@dataclass(frozen=True)
class UpdateInfo:
    """One pending update, as ``yum check-update`` would list it."""

    name: str
    installed_evr: str
    available_evr: str
    repo_id: str

    def __str__(self) -> str:
        return f"{self.name}: {self.installed_evr} -> {self.available_evr} ({self.repo_id})"


class YumClient:
    """Yum on one host."""

    def __init__(
        self,
        host: Host,
        db: RpmDatabase | None = None,
        repos: RepoSet | None = None,
    ) -> None:
        if db is not None and db.host is not host:
            raise YumError("RPM database belongs to a different host")
        self.host = host
        self.db = db if db is not None else RpmDatabase(host)
        self.repos = repos if repos is not None else RepoSet()
        #: transaction history, oldest first (yum history)
        self.history: list[TransactionResult] = []

    # -- repo management -----------------------------------------------------

    def configure_repo_file(
        self, filename: str, text: str, *, available: dict[str, Repository]
    ) -> list[Repository]:
        """Write a ``.repo`` file onto the host and enable the repositories
        it names.

        ``available`` maps repo ids to the actual :class:`Repository`
        objects "on the network" — a stanza naming an unknown id raises,
        mirroring a dead baseurl.  Returns the attached repositories.
        """
        if not filename.endswith(".repo"):
            raise YumError(f"repo file must end in .repo: {filename}")
        stanzas = parse_repo_file(text)
        attached = []
        for stanza in stanzas:
            if stanza.repo_id not in available:
                raise YumError(
                    f"{filename}: baseurl for [{stanza.repo_id}] is unreachable"
                )
            repo = available[stanza.repo_id]
            repo.priority = stanza.priority
            repo.enabled = stanza.enabled
            self.repos.add_repo(repo)
            attached.append(repo)
        self.host.fs.write(f"/etc/yum.repos.d/{filename}", text)
        return attached

    def repolist(self) -> list[tuple[str, int, int]]:
        """``yum repolist``: (id, priority, package count)."""
        return self.repos.repolist()

    # -- queries -----------------------------------------------------------------

    def check_update(self) -> list[UpdateInfo]:
        """``yum check-update``: pending updates, no changes made."""
        pending: list[UpdateInfo] = []
        for pkg in self.db.installed():
            candidates = self.repos.candidates_by_name(pkg.name)
            if candidates and candidates[-1].evr > pkg.evr:
                newest = candidates[-1]
                repo_id = next(
                    (
                        r.repo_id
                        for r in self.repos.enabled_repos()
                        if any(v.nevra == newest.nevra for v in r.versions_of(newest.name))
                    ),
                    "?",
                )
                pending.append(
                    UpdateInfo(
                        name=pkg.name,
                        installed_evr=pkg.evr_string,
                        available_evr=newest.evr_string,
                        repo_id=repo_id,
                    )
                )
        return pending

    # -- mutations ----------------------------------------------------------------

    def _commit_resolution(self, resolution: Resolution) -> TransactionResult:
        txn = Transaction(self.db)
        for pkg in resolution.to_install:
            if pkg.name in resolution.upgrades or (
                self.db.has(pkg.name) and pkg.evr > self.db.get(pkg.name).evr
            ):
                txn.upgrade(pkg)
            else:
                txn.install(pkg)
        # obsoletes across name changes: erase the old names
        for old_name, new_pkg in resolution.upgrades.items():
            if old_name != new_pkg.name and self.db.has(old_name):
                txn.erase(old_name)
        result = txn.commit()
        self.history.append(result)
        return result

    def install(self, *names: str) -> TransactionResult:
        """``yum install name...`` — resolve closure and commit."""
        if not names:
            raise YumError("install requires at least one package name")
        already = [n for n in names if self.db.has(n)]
        goals = [n for n in names if n not in already]
        if not goals:
            raise YumError(
                f"nothing to do: already installed: {', '.join(sorted(already))}"
            )
        resolution = resolve_install(goals, self.repos, self.db)
        if resolution.is_empty():
            raise YumError("nothing to do")
        return self._commit_resolution(resolution)

    def update(self, *names: str) -> TransactionResult | None:
        """``yum update [name...]`` — apply all pending updates (or the
        named subset).  Returns ``None`` when everything is current."""
        resolution = resolve_update(
            self.repos, self.db, names=list(names) if names else None
        )
        if resolution.is_empty():
            return None
        return self._commit_resolution(resolution)

    def erase(self, *names: str, remove_dependants: bool = False) -> TransactionResult:
        """``yum erase name...``.

        Refuses to break dependants unless ``remove_dependants`` — in which
        case the dependant closure is erased too (yum's ``remove`` with
        cascades), computed to a fixed point.
        """
        if not names:
            raise YumError("erase requires at least one package name")
        to_erase = set(names)
        while True:
            blocked: dict[str, list[str]] = {}
            for name in sorted(to_erase):
                dependants = [
                    d.name
                    for d in self.db.whatrequires(name)
                    if d.name not in to_erase
                ]
                if dependants:
                    blocked[name] = dependants
            if not blocked:
                break
            if not remove_dependants:
                details = "; ".join(
                    f"{name} is required by {', '.join(deps)}"
                    for name, deps in sorted(blocked.items())
                )
                raise DependencyError(f"erase would break dependants: {details}")
            for deps in blocked.values():
                to_erase.update(deps)
        txn = Transaction(self.db)
        for name in sorted(to_erase):
            txn.erase(name)
        result = txn.commit()
        self.history.append(result)
        return result

    def history_undo(self, index: int = -1) -> TransactionResult:
        """``yum history undo``: reverse a past transaction.

        Installed packages are erased, erased packages reinstalled, and
        upgrades downgraded back to the old EVR.  The undo itself is a
        normal validated transaction (it can fail — e.g. erasing a package
        something now depends on), and it joins the history, so an undo can
        itself be undone.
        """
        if not self.history:
            raise YumError("no transactions in history")
        try:
            target = self.history[index]
        except IndexError:
            raise YumError(
                f"no transaction at history index {index} "
                f"(history has {len(self.history)})"
            ) from None
        txn = Transaction(self.db, allow_downgrade=True)
        for pkg in target.installed:
            txn.erase(pkg.name)
        for pkg in target.erased:
            txn.install(pkg)
        for old, new in target.upgraded:
            if old.name == new.name:
                txn.upgrade(old)
            else:  # an obsoletes-rename: put the old name back
                txn.erase(new.name)
                txn.install(old)
        result = txn.commit()
        self.history.append(result)
        return result

    def groupinstall(self, group_name: str, names: list[str]) -> TransactionResult:
        """Install a named set of packages as one transaction (used by the
        XCBC roll and the XNIT 'full toolkit' path)."""
        missing = [n for n in names if not self.db.has(n)]
        if not missing:
            raise YumError(f"group {group_name!r}: nothing to do")
        resolution = resolve_install(missing, self.repos, self.db)
        if resolution.is_empty():
            raise YumError(f"group {group_name!r}: nothing to do")
        return self._commit_resolution(resolution)
