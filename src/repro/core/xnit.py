"""XNIT: the XSEDE National Integration Toolkit.

The paper's second distribution channel: a Yum repository "so that specific
tools can be downloaded and installed in portions as appropriate on existing
clusters" (Abstract).  This module builds the repository (the full XCBC
catalogue **plus** the community extras) and implements both Section 3
setup paths:

* install the ``xsede-release`` RPM, whose payload drops
  ``/etc/yum.repos.d/xsede.repo``; or
* install ``yum-plugin-priorities`` by hand and write the ``.repo`` file
  from the README.

Integration is non-destructive by design — the existing cluster's packages
are never removed, only supplemented or updated — and that property is
asserted, not assumed (see :func:`integrate_host`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import YumError
from ..rpm.package import Package
from ..yum.client import YumClient
from ..yum.repoconfig import XSEDE_REPO_STANZA, RepoStanza
from ..yum.repository import Repository
from .packages_xsede import xnit_extra_packages, xsede_package_names
from .release import CURRENT_RELEASE, packages_for_release

__all__ = [
    "build_xnit_repository",
    "publish_release",
    "setup_via_repo_rpm",
    "setup_via_manual_repo_file",
    "integrate_host",
    "IntegrationReport",
    "XSEDE_RELEASE_RPM",
    "YUM_PLUGIN_PRIORITIES",
]

#: The RPM that configures the repository for you (Section 3, method one).
XSEDE_RELEASE_RPM = Package(
    name="xsede-release",
    version="1.0",
    category="XNIT",
    summary="XSEDE Yum repository configuration",
    files=("/etc/yum.repos.d/xsede.repo",),
)

#: Method two's prerequisite.
YUM_PLUGIN_PRIORITIES = Package(
    name="yum-plugin-priorities",
    version="1.1.30",
    category="XNIT",
    summary="Yum priorities plugin",
    files=("/usr/lib/yum-plugins/priorities.py",),
)


def build_xnit_repository(version: str = CURRENT_RELEASE.version) -> Repository:
    """The XSEDE Yum repository at a catalogue release.

    Contains everything in the XCBC build (including torque/maui — XNIT
    lets an existing cluster "change the schedulers", Section 8) plus the
    community extras, plus the two setup RPMs.
    """
    repo = Repository(
        "xsede",
        name="XSEDE National Integration Toolkit",
        baseurl=XSEDE_REPO_STANZA.baseurl,
        priority=XSEDE_REPO_STANZA.priority,
    )
    repo.add_all(packages_for_release(version))
    # "XNIT includes all of the software included in the standard XCBC
    # build" — that includes the Table 1 basics (modules, build tools),
    # minus the Rocks cluster manager itself (XNIT's whole point is not
    # requiring Rocks).
    from ..rocks.rolls_catalog import base_roll

    existing = {p.nevra for p in repo.all_packages()}
    for pkg in base_roll().packages:
        if pkg.name.startswith("rocks"):
            continue
        if pkg.nevra not in existing and not repo.has(pkg.name):
            repo.add(pkg)
    repo.add_all(xnit_extra_packages())
    repo.add(XSEDE_RELEASE_RPM)
    repo.add(YUM_PLUGIN_PRIORITIES)
    return repo


def publish_release(repo: Repository, version: str) -> list[str]:
    """Publish a newer catalogue release into an existing repository.

    Returns the NEVRAs added.  Existing NEVRAs stay (yum repositories keep
    history); clients see the new versions on their next ``check-update``.
    """
    added = []
    for pkg in packages_for_release(version):
        if not any(v.nevra == pkg.nevra for v in repo.versions_of(pkg.name)):
            repo.add(pkg)
            added.append(pkg.nevra)
    return added


def setup_via_repo_rpm(client: YumClient, repo: Repository) -> None:
    """Section 3, method one: install the xsede-release RPM.

    The RPM's payload is the ``.repo`` file; installing it attaches the
    repository to the client.
    """
    from ..rpm.transaction import Transaction

    Transaction(client.db).install(XSEDE_RELEASE_RPM).commit()
    # The dropped file's content is the canonical stanza.
    client.host.fs.write("/etc/yum.repos.d/xsede.repo", XSEDE_REPO_STANZA.render())
    client.repos.add_repo(repo)


def setup_via_manual_repo_file(client: YumClient, repo: Repository) -> None:
    """Section 3, method two: yum-plugin-priorities + hand-written stanza."""
    from ..rpm.transaction import Transaction

    Transaction(client.db).install(YUM_PLUGIN_PRIORITIES).commit()
    client.repos.use_priorities = True
    client.configure_repo_file(
        "xsede.repo", XSEDE_REPO_STANZA.render(), available={repo.repo_id: repo}
    )


@dataclass
class IntegrationReport:
    """Outcome of integrating XNIT onto one host."""

    host: str
    installed: list[str] = field(default_factory=list)
    upgraded: list[str] = field(default_factory=list)
    preexisting_untouched: bool = True


def integrate_host(
    client: YumClient,
    *,
    packages: list[str] | None = None,
    full_toolkit: bool = False,
) -> IntegrationReport:
    """Add XNIT software to an existing host.

    ``packages`` selects specific tools ("one-time installations of any
    particular software capability they want", Section 1); ``full_toolkit``
    installs the entire XCBC run-alike set.  The function verifies the
    non-destructive property: every package installed before integration is
    still installed (possibly upgraded) afterwards.
    """
    if packages and full_toolkit:
        raise YumError("pass packages or full_toolkit, not both")
    if not packages and not full_toolkit:
        raise YumError("nothing selected: pass packages or full_toolkit")
    before = {p.name: p.evr for p in client.db.installed()}
    if packages:
        targets = list(packages)
    else:
        # The full toolkit is whatever slice of the catalogue the attached
        # repository actually publishes (an older repo snapshot carries an
        # older catalogue).
        available = client.repos.all_names()
        targets = [n for n in xsede_package_names() if n in available]
    missing = [t for t in targets if not client.db.has(t)]
    upgradable = [t for t in targets if client.db.has(t)]
    report = IntegrationReport(host=client.host.name)
    if missing:
        result = client.groupinstall("xnit", missing)
        report.installed = sorted(p.name for p in result.installed)
        report.upgraded = sorted(old.name for old, _new in result.upgraded)
    if upgradable:
        result = client.update(*upgradable)
        if result is not None:
            report.upgraded = sorted(
                set(report.upgraded) | {old.name for old, _new in result.upgraded}
            )
    after = {p.name: p.evr for p in client.db.installed()}
    for name, evr in before.items():
        if name not in after or after[name] < evr:
            report.preexisting_untouched = False
            raise YumError(
                f"integration violated the non-destructive property: "
                f"{name} was removed or downgraded on {client.host.name}"
            )
    return report
