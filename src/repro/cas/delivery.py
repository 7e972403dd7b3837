"""Lazy fetch-on-install and the CAS confluence audit.

:class:`LazyDelivery` is what an installer plugs into: per node, it
remembers which chunks the node already holds and asks the site cache for
only the chunks a package install actually needs, on first reference.  A
node that already installed v1 of a package fetches just the delta chunks
for v2; a wave of identical nodes costs the site cache one upstream pull
for the whole wave.

:func:`cas_confluence_problems` is chaos invariant 9: serials only move
forward, hierarchy hits never exceed requests, and — given the live
components — no chunk refcount has leaked after publish/rollback/prune
churn.  With no ``cas.*`` events and no components the audit is vacuous,
so it is safe to run on every chaos trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..rpm.package import Package
from ..sim import audit_events
from .stratum import ChunkFetchStats, SiteChunkCache, Stratum0, Stratum1

__all__ = ["DeliveryStats", "LazyDelivery", "cas_confluence_problems"]


@dataclass
class DeliveryStats:
    """Cumulative per-delivery accounting."""

    packages: int = 0
    chunks_requested: int = 0
    chunks_fetched: int = 0   # crossed the node's LAN (not already on-node)
    bytes_fetched: int = 0    # LAN bytes to nodes
    bytes_reused: int = 0     # bytes already on the node (version overlap)
    per_node: dict[str, int] = field(default_factory=dict)  # node -> packages


class LazyDelivery:
    """Chunk-level package delivery for one site's installs."""

    def __init__(self, site: SiteChunkCache) -> None:
        self.site = site
        #: node name -> digests the node already holds
        self._node_chunks: dict[str, set[str]] = {}
        self.stats = DeliveryStats()

    def fetch_package(self, node: str, pkg: Package) -> ChunkFetchStats:
        """Deliver one package to one node, moving only missing chunks.

        The site cache serves (and lazily fills) the chunks; the node's
        holdings filter out what it already has from other versions.
        """
        manifest = self.site.manifest_of(pkg)
        held = self._node_chunks.setdefault(node, set())
        needed = []
        seen: set[str] = set()
        reused = 0
        for chunk in manifest.chunks:
            if chunk.digest in held:
                reused += chunk.size
            elif chunk.digest not in seen:
                seen.add(chunk.digest)
                needed.append(chunk)
        stats = self.stats
        if needed:
            # May raise: nothing is counted as delivered until the site
            # cache has actually served the chunks.
            fetch = self.site.fetch_chunks(
                needed, artifact=manifest.nevra, requester=node
            )
            held.update(c.digest for c in needed)
            stats.chunks_fetched += len(needed)
            stats.bytes_fetched += sum(c.size for c in needed)
        else:
            fetch = ChunkFetchStats(
                artifact=manifest.nevra,
                chunks=len(manifest.chunks),
                hit_chunks=len(manifest.chunks),
                nbytes=0,
            )
        stats.packages += 1
        stats.chunks_requested += len(manifest.chunks)
        stats.per_node[node] = stats.per_node.get(node, 0) + 1
        stats.bytes_reused += reused
        return fetch


_AUDIT_READS = {
    "cas.publish": ("catalog", "serial"),
    "cas.rollback": ("catalog", "serial"),
    "cas.replicate": ("replica", "serial"),
    "cas.fetch": ("tier", "artifact", "chunks", "hit_chunks"),
}


def cas_confluence_problems(
    events,
    *,
    strata: Iterable[Stratum0] = (),
    replicas: Iterable[Stratum1] = (),
    caches: Iterable[SiteChunkCache] = (),
) -> list[str]:
    """Invariant 9: the content-addressed hierarchy stayed coherent.

    From the trace alone: per-catalog publish/rollback serials strictly
    increase (the forward-only release protocol every downstream tier
    depends on), per-replica replicated serials never regress, and no
    fetch reports more hits than requests.  Given live components, the
    chunk-store refcount audits run too.  Vacuous when the run never
    touched :mod:`repro.cas`.
    """
    problems: list[str] = []
    catalog_serial: dict[str, int] = {}
    replica_serial: dict[str, int] = {}
    for kind, data, seq in audit_events(events, _AUDIT_READS):
        if kind == "cas.fetch":
            if data["hit_chunks"] > data["chunks"]:
                problems.append(
                    f"tier {data['tier']}: {data['hit_chunks']} hits for "
                    f"{data['chunks']} requested chunks "
                    f"({data['artifact']}) at seq {seq}"
                )
        elif kind == "cas.replicate":
            name = data["replica"]
            serial = data["serial"]
            last = replica_serial.get(name)
            if last is not None and serial < last:
                problems.append(
                    f"replica {name}: replicated serial regressed "
                    f"({last} -> {serial}) at seq {seq}"
                )
            replica_serial[name] = serial
        else:  # cas.publish / cas.rollback
            name = data["catalog"]
            serial = data["serial"]
            last = catalog_serial.get(name)
            if last is not None and serial <= last:
                problems.append(
                    f"catalog {name}: serial did not advance "
                    f"({last} -> {serial}) at seq {seq}"
                )
            catalog_serial[name] = serial
    for s0 in strata:
        problems.extend(s0.store.refcount_problems(s0.live_manifests()))
    for replica in replicas:
        problems.extend(replica.problems())
    for cache in caches:  # a site cache pins nothing
        problems.extend(cache.store.refcount_problems(()))
    return problems
