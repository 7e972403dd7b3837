"""Cluster manifests: the machine-readable ``rocks report`` of a cluster.

A manifest captures what a cluster *is* — hosts, their packages, services,
modules, mounts — as plain data.  Two uses, both from the paper's goals:

* auditing: diff a manifest against a reference (or another site's) to see
  exactly where two clusters diverge;
* documentation: a manifest checked into a site's records alongside the
  :mod:`playbook <repro.core.playbook>` makes "what are we running?"
  answerable without logging in.

Manifests serialise to JSON and diff structurally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..distro.host import Host
from ..errors import ReproError
from ..rpm.database import RpmDatabase

__all__ = ["HostManifest", "ClusterManifest", "manifest_for_hosts", "manifest_of_cluster"]


@dataclass(frozen=True)
class HostManifest:
    """One host's captured state."""

    hostname: str
    arch: str
    release: str
    packages: tuple[str, ...]          # NEVRAs, sorted
    enabled_services: tuple[str, ...]
    modules: tuple[str, ...]
    mounts: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "hostname": self.hostname,
            "arch": self.arch,
            "release": self.release,
            "packages": list(self.packages),
            "enabled_services": list(self.enabled_services),
            "modules": list(self.modules),
            "mounts": [list(m) for m in self.mounts],
        }


def _capture_host(host: Host, db: RpmDatabase) -> HostManifest:
    return HostManifest(
        hostname=host.name,
        arch=host.arch,
        release=host.release_string(),
        packages=tuple(sorted(p.nevra for p in db.installed())),
        enabled_services=tuple(
            sorted(s.name for s in host.services.all_services() if s.enabled)
        ),
        modules=tuple(
            m.replace("(default)", "") for m in host.modules.avail()
        ),
        mounts=tuple(sorted(host.fs.mounts().items())),
    )


@dataclass
class ClusterManifest:
    """All hosts of one cluster."""

    cluster_name: str
    hosts: list[HostManifest] = field(default_factory=list)

    def host(self, hostname: str) -> HostManifest:
        for manifest in self.hosts:
            if manifest.hostname == hostname:
                return manifest
        raise ReproError(f"manifest has no host {hostname}")

    def uniform_packages(self) -> set[str]:
        """NEVRAs present on every host."""
        if not self.hosts:
            return set()
        common = set(self.hosts[0].packages)
        for manifest in self.hosts[1:]:
            common &= set(manifest.packages)
        return common

    def to_json(self) -> str:
        return json.dumps(
            {
                "cluster": self.cluster_name,
                "hosts": [h.to_dict() for h in self.hosts],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterManifest":
        try:
            data = json.loads(text)
            manifest = cls(cluster_name=data["cluster"])
            for entry in data["hosts"]:
                manifest.hosts.append(
                    HostManifest(
                        hostname=entry["hostname"],
                        arch=entry["arch"],
                        release=entry["release"],
                        packages=tuple(entry["packages"]),
                        enabled_services=tuple(entry["enabled_services"]),
                        modules=tuple(entry["modules"]),
                        mounts=tuple(tuple(m) for m in entry["mounts"]),
                    )
                )
            return manifest
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ReproError(f"malformed manifest JSON: {exc}") from exc

    def diff(self, other: "ClusterManifest") -> dict[str, list[str]]:
        """Structural diff against another manifest.

        Keys: ``hosts_only_here`` / ``hosts_only_there`` and, per shared
        host, ``<hostname>: packages`` / ``services`` / ``modules`` entries
        describing one-sided items (prefixed ``+`` here-only / ``-``
        there-only).  An empty dict means identical (on compared axes).
        """
        out: dict[str, list[str]] = {}
        mine = {h.hostname for h in self.hosts}
        theirs = {h.hostname for h in other.hosts}
        if mine - theirs:
            out["hosts_only_here"] = sorted(mine - theirs)
        if theirs - mine:
            out["hosts_only_there"] = sorted(theirs - mine)
        for hostname in sorted(mine & theirs):
            a, b = self.host(hostname), other.host(hostname)
            for axis in ("packages", "enabled_services", "modules"):
                set_a, set_b = set(getattr(a, axis)), set(getattr(b, axis))
                delta = [f"+{x}" for x in sorted(set_a - set_b)]
                delta += [f"-{x}" for x in sorted(set_b - set_a)]
                if delta:
                    out[f"{hostname}: {axis}"] = delta
        return out


def manifest_for_hosts(
    cluster_name: str, pairs: list[tuple[Host, RpmDatabase]]
) -> ClusterManifest:
    """Capture a manifest from explicit (host, db) pairs."""
    manifest = ClusterManifest(cluster_name=cluster_name)
    for host, db in pairs:
        manifest.hosts.append(_capture_host(host, db))
    return manifest


def manifest_of_cluster(cluster) -> ClusterManifest:
    """Capture any cluster shape this library produces.

    Accepts a :class:`~repro.rocks.installer.ProvisionedCluster` or a
    :class:`~repro.core.machines.ExistingCluster`: both answer ``hosts()``
    and ``db_for(host)``.
    """
    try:
        hosts, db_for = cluster.hosts, cluster.db_for
    except AttributeError:
        raise ReproError(
            f"cannot capture a manifest from {type(cluster)!r}"
        ) from None
    return manifest_for_hosts(
        cluster.machine.name, [(host, db_for(host)) for host in hosts()]
    )
