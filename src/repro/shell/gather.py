"""clubak-style output gathering: fold identical results.

A 10k-node ``clush`` run is unreadable as ten thousand output lines; the
ClusterShell answer (``clubak``) is to merge identical outputs under one
folded :class:`~repro.fleet.NodeSet` label::

    compute-0-[0-9999]: ok
    compute-3-[12,17]: yum: mirror unreachable [rc=1]

:func:`gather` does the merge.  Everything sorts before it folds, so the
grouping is deterministic and round-trips through
``NodeSet.fold()``/``parse()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..fleet import NodeSet

__all__ = ["OutputGroup", "gather", "render_groups"]


@dataclass(frozen=True)
class OutputGroup:
    """One merged result: every node that returned (``rc``, ``output``)."""

    nodes: NodeSet
    rc: int
    output: str

    @property
    def count(self) -> int:
        return len(self.nodes)

    def label(self) -> str:
        """The clubak line for this group."""
        suffix = f" [rc={self.rc}]" if self.rc else ""
        return f"{self.nodes}: {self.output}{suffix}"


def gather(results: Iterable[tuple[str, int, str]]) -> list[OutputGroup]:
    """Merge ``(node, rc, output)`` triples into folded groups.

    Groups are keyed on the exact ``(rc, output)`` pair and returned
    sorted by (rc, output) — clean results first, failures bucketed after
    — with each group's nodes folded into one NodeSet.
    """
    buckets: dict[tuple[int, str], list[str]] = {}
    for node, rc, output in results:
        buckets.setdefault((rc, output), []).append(node)
    return [
        OutputGroup(nodes=NodeSet.from_names(names), rc=rc, output=output)
        for (rc, output), names in sorted(buckets.items())
    ]




def render_groups(groups: Iterable[OutputGroup]) -> str:
    """The clubak listing: one folded label line per merged group."""
    return "\n".join(group.label() for group in groups)
