"""Yum package groups (comps.xml's ``yum groupinstall`` surface).

Section 1: XNIT "make[s] it easy for campus cluster administrators to do
one-time installations of any particular software capability they want
within the suite of the XNIT set".  Capabilities map onto yum groups: a
named set with mandatory and optional members, installable as a unit.

:mod:`repro.core.xnit` publishes the XNIT groups (one per Table 2 category
plus domain bundles); this module is the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import YumError
from .client import YumClient
from ..rpm.transaction import TransactionResult

__all__ = ["PackageGroup", "GroupCatalog", "groupinstall"]


@dataclass(frozen=True)
class PackageGroup:
    """One comps group."""

    group_id: str
    name: str
    description: str = ""
    mandatory: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.group_id:
            raise YumError("group id must be non-empty")
        if not self.mandatory:
            raise YumError(f"group {self.group_id}: needs mandatory packages")
        overlap = set(self.mandatory) & set(self.optional)
        if overlap:
            raise YumError(
                f"group {self.group_id}: packages both mandatory and "
                f"optional: {sorted(overlap)}"
            )


class GroupCatalog:
    """The groups a repository publishes (its comps.xml)."""

    def __init__(self) -> None:
        self._groups: dict[str, PackageGroup] = {}

    def add(self, group: PackageGroup) -> None:
        if group.group_id in self._groups:
            raise YumError(f"duplicate group {group.group_id}")
        self._groups[group.group_id] = group

    def get(self, group_id: str) -> PackageGroup:
        try:
            return self._groups[group_id]
        except KeyError:
            known = ", ".join(sorted(self._groups))
            raise YumError(
                f"no such group {group_id!r}; known: {known}"
            ) from None

    def grouplist(self) -> list[PackageGroup]:
        """``yum grouplist``."""
        return [self._groups[g] for g in sorted(self._groups)]

    def groupinfo(self, group_id: str) -> str:
        """``yum groupinfo <id>``."""
        group = self.get(group_id)
        lines = [
            f"Group: {group.name}",
            f" Group-Id: {group.group_id}",
            f" Description: {group.description}",
            " Mandatory Packages:",
        ]
        lines += [f"   {name}" for name in group.mandatory]
        if group.optional:
            lines.append(" Optional Packages:")
            lines += [f"   {name}" for name in group.optional]
        return "\n".join(lines)


def groupinstall(
    client: YumClient,
    catalog: GroupCatalog,
    group_id: str,
    *,
    with_optional: bool = False,
) -> TransactionResult:
    """``yum groupinstall <id>`` against a client.

    Installs the group's mandatory members (plus optional ones on request)
    as one transaction; members already installed are skipped.
    """
    group = catalog.get(group_id)
    targets = list(group.mandatory) + (
        list(group.optional) if with_optional else []
    )
    missing = [name for name in targets if not client.db.has(name)]
    if not missing:
        raise YumError(f"group {group_id!r}: nothing to do")
    return client.groupinstall(group.name, missing)
