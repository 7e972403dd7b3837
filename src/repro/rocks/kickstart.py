"""The Rocks kickstart graph.

Rocks composes a node's install from a graph: appliance profiles (frontend,
compute) are roots; edges pull in shared configuration nodes; each node
contributes packages and post-install actions.  Rolls extend the graph by
adding nodes and edges — that is what makes "adding the XSEDE roll during
install" (Section 3) sufficient to change what every appliance gets.

:class:`KickstartGraph` keeps the structure explicit and validates it:
unknown endpoints and cycles raise :class:`KickstartError`.
:attr:`KickstartGraph.revision` counts the mutations, so a cache of a
resolved profile (the installer's plan cache) can tell a graph a roll has
since extended from the one it resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import KickstartError

__all__ = ["GraphNode", "KickstartGraph", "Profile"]


@dataclass
class GraphNode:
    """One node of the kickstart graph."""

    name: str
    packages: list[str] = field(default_factory=list)
    #: services enabled on hosts built from profiles that include this node
    enable_services: list[str] = field(default_factory=list)
    #: free-form post-install actions (recorded on the host for auditing)
    post_actions: list[str] = field(default_factory=list)
    roll: str = "base"


class Profile:
    """Appliance profile names Rocks uses."""

    FRONTEND = "frontend"
    COMPUTE = "compute"


class KickstartGraph:
    """Nodes + directed include edges, resolved per appliance profile."""

    def __init__(self) -> None:
        self._nodes: dict[str, GraphNode] = {}
        self._edges: dict[str, list[str]] = {}
        #: bumped by every :meth:`add_node` and :meth:`add_edge` call, the
        #: graph's only mutators
        self.revision = 0

    def add_node(self, node: GraphNode) -> GraphNode:
        """Add a graph node; re-adding merges package/service lists (rolls
        may extend an existing node)."""
        self.revision += 1
        existing = self._nodes.get(node.name)
        if existing is not None:
            for pkg in node.packages:
                if pkg not in existing.packages:
                    existing.packages.append(pkg)
            for svc in node.enable_services:
                if svc not in existing.enable_services:
                    existing.enable_services.append(svc)
            # Post actions must merge exactly like packages/services do: a
            # roll re-extending a node (re-applied roll, shared node name)
            # must not queue its post-install actions a second time.
            for action in node.post_actions:
                if action not in existing.post_actions:
                    existing.post_actions.append(action)
            return existing
        self._nodes[node.name] = node
        self._edges.setdefault(node.name, [])
        return node

    def add_edge(self, parent: str, child: str) -> None:
        """``parent`` includes ``child``."""
        for name in (parent, child):
            if name not in self._nodes:
                raise KickstartError(f"edge references unknown graph node {name!r}")
        if parent == child:
            raise KickstartError(f"self-edge on {parent!r}")
        self.revision += 1
        if child not in self._edges[parent]:
            self._edges[parent].append(child)

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def edges(self) -> list[tuple[str, str]]:
        """Every (parent, child) include edge, sorted."""
        return sorted(
            (parent, child)
            for parent, children in self._edges.items()
            for child in children
        )

    def node(self, name: str) -> GraphNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KickstartError(f"unknown graph node {name!r}") from None

    def find_cycle(self) -> list[str] | None:
        """Return one include cycle as a node-name path, or None.

        The non-raising twin of the resolve-time cycle check: pre-flight
        analysis wants to *report* a cycle (and keep checking other things),
        not die on it the way :meth:`_closure` must.
        """
        black: set[str] = set()

        def walk(name: str, path: list[str]) -> list[str] | None:
            if name in path:
                return path[path.index(name):] + [name]
            if name in black:
                return None
            path.append(name)
            for child in self._edges[name]:
                found = walk(child, path)
                if found is not None:
                    return found
            path.pop()
            black.add(name)
            return None

        for root in sorted(self._nodes):
            found = walk(root, [])
            if found is not None:
                return found
        return None

    def reachable_from(self, roots: list[str]) -> set[str]:
        """Node names reachable from any of ``roots`` (unknown roots are
        skipped — pre-flight reports those separately)."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self._nodes]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self._edges[name])
        return seen

    def _closure(self, root: str) -> list[GraphNode]:
        """DFS closure from ``root``; cycle detection via the grey set."""
        if root not in self._nodes:
            raise KickstartError(f"unknown profile {root!r}")
        order: list[GraphNode] = []
        black: set[str] = set()
        grey: set[str] = set()

        def visit(name: str) -> None:
            if name in black:
                return
            if name in grey:
                raise KickstartError(
                    f"kickstart graph cycle through {name!r}"
                )
            grey.add(name)
            for child in self._edges[name]:
                visit(child)
            grey.discard(name)
            black.add(name)
            order.append(self._nodes[name])

        visit(root)
        return order

    def resolve_packages(self, profile: str) -> list[str]:
        """All package names a profile pulls in (deduped, include order)."""
        seen: set[str] = set()
        out: list[str] = []
        for node in self._closure(profile):
            for pkg in node.packages:
                if pkg not in seen:
                    seen.add(pkg)
                    out.append(pkg)
        return out

    def resolve_services(self, profile: str) -> list[str]:
        """Services a profile enables."""
        seen: set[str] = set()
        out: list[str] = []
        for node in self._closure(profile):
            for svc in node.enable_services:
                if svc not in seen:
                    seen.add(svc)
                    out.append(svc)
        return out

    def resolve_actions(self, profile: str) -> list[str]:
        """Post-install actions in execution order."""
        out: list[str] = []
        for node in self._closure(profile):
            out.extend(node.post_actions)
        return out

    def rolls_in(self, profile: str) -> set[str]:
        """Names of the rolls contributing to a profile."""
        return {n.roll for n in self._closure(profile)}

    def render_kickstart(self, profile: str, *, release_string: str = "CentOS 6.5") -> str:
        """Render the profile as an anaconda kickstart file.

        This is what the frontend's kickstart server actually serves a
        PXE-booted node (Rocks generates it from the graph with kpp/kgen);
        the %packages section is the resolved package closure and %post
        enables services and runs the graph's post actions.
        """
        packages = self.resolve_packages(profile)
        services = self.resolve_services(profile)
        actions = self.resolve_actions(profile)
        lines = [
            f"# Kickstart for appliance profile {profile!r} ({release_string})",
            "# generated from the Rocks kickstart graph",
            "install",
            "url --url http://10.1.1.1/install/rocks-dist",
            "lang en_US.UTF-8",
            "keyboard us",
            "rootpw --iscrypted $simulated$",
            "clearpart --all --initlabel",
            "autopart",
            "reboot",
            "",
            "%packages",
        ]
        lines += packages
        lines.append("%end")
        lines.append("")
        lines.append("%post")
        for service in services:
            lines.append(f"chkconfig {service} on")
        for action in actions:
            lines.append(f"# post action: {action}")
            lines.append(f"/opt/rocks/post/{action.replace(' ', '-')}.sh")
        lines.append("%end")
        return "\n".join(lines)
