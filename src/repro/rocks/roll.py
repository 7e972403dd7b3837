"""Rolls: Rocks' unit of software distribution.

A roll bundles packages with kickstart-graph fragments.  "Using the XSEDE
roll during the Rocks cluster install will add the packages necessary for an
XSEDE-compatible basic cluster" (Section 3) — mechanically, the roll's graph
nodes attach to the frontend/compute profiles so every appliance built
afterwards carries the roll's software.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RollError
from ..rpm.package import Package
from .kickstart import GraphNode, KickstartGraph, Profile

__all__ = ["Roll", "RollGraphFragment"]


@dataclass(frozen=True)
class RollGraphFragment:
    """One graph node contributed by a roll plus where it attaches.

    ``attach_to`` lists the appliance profiles (or other node names) that
    gain an edge to this node.
    """

    node_name: str
    packages: tuple[str, ...]
    attach_to: tuple[str, ...] = (Profile.FRONTEND, Profile.COMPUTE)
    enable_services: tuple[str, ...] = ()
    post_actions: tuple[str, ...] = ()


@dataclass(frozen=True)
class Roll:
    """A named, versioned roll."""

    name: str
    version: str
    summary: str
    packages: tuple[Package, ...]
    fragments: tuple[RollGraphFragment, ...]
    optional: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise RollError("roll name must be non-empty")
        declared = {p.name for p in self.packages}
        for fragment in self.fragments:
            missing = [p for p in fragment.packages if p not in declared]
            if missing:
                raise RollError(
                    f"roll {self.name}: graph node {fragment.node_name!r} "
                    f"references packages the roll does not carry: {missing}"
                )

    def apply_to_graph(self, graph: KickstartGraph) -> None:
        """Attach this roll's fragments to a kickstart graph."""
        for fragment in self.fragments:
            graph.add_node(
                GraphNode(
                    name=fragment.node_name,
                    packages=list(fragment.packages),
                    enable_services=list(fragment.enable_services),
                    post_actions=list(fragment.post_actions),
                    roll=self.name,
                )
            )
            for parent in fragment.attach_to:
                graph.add_edge(parent, fragment.node_name)

    def package_names(self) -> list[str]:
        """Names of every package the roll carries, sorted."""
        return sorted(p.name for p in self.packages)
