"""Lazy fetch-on-install and the CAS confluence audit.

:class:`LazyDelivery` is what an installer plugs into: per node, it
remembers which chunks the node already holds and asks the site cache for
only the chunks a package install actually needs, on first reference.  A
node that already installed v1 of a package fetches just the delta chunks
for v2; a wave of identical nodes costs the site cache one upstream pull
and one ``cas.fetch`` record for the whole wave — the rest are pure hits,
counted by the tier, not traced.  Nodes that fetched the same packages
share one interned holdings ``frozenset``, so each step is computed once
per pair.

:func:`cas_confluence_problems` is chaos invariant 9: serials only move
forward, every ``cas.fetch`` record missed a chunk, and — given the live
components — no chunk refcount has leaked after publish/rollback/prune
churn.  With no ``cas.*`` events and no components the audit is vacuous,
so it is safe to run on every chaos trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..rpm.package import Package
from ..sim import audit_events
from .chunks import ChunkRun, PackageManifest
from .stratum import ChunkFetchStats, SiteChunkCache, Stratum0, Stratum1

__all__ = ["DeliveryStats", "LazyDelivery", "cas_confluence_problems"]

_NOTHING: frozenset[str] = frozenset()


@dataclass
class DeliveryStats:
    """Cumulative per-delivery accounting."""

    packages: int = 0
    chunks_requested: int = 0
    bytes_fetched: int = 0    # LAN bytes to nodes
    bytes_reused: int = 0     # bytes already on the node (version overlap)


class LazyDelivery:
    """Chunk-level package delivery for one site's installs."""

    def __init__(self, site: SiteChunkCache) -> None:
        self.site = site
        #: node name -> its holdings; ``_layers`` interns each distinct one
        self._held: dict[str, frozenset[str]] = {}
        self._layers: dict[frozenset[str], frozenset[str]] = {_NOTHING: _NOTHING}
        #: (id(held), id(manifest)) -> (held, manifest, next holdings, needed
        #: ChunkRun, reused bytes); the value pins both keys' objects
        self._steps: dict[tuple[int, int], tuple] = {}
        self.stats = DeliveryStats()

    def _step(self, held: frozenset[str], manifest: PackageManifest) -> tuple:
        """``manifest`` onto ``held``: pure in both, so never invalidated."""
        needed = []
        seen: set[str] = set()
        reused = 0
        for chunk in manifest.chunks:
            if chunk.digest in held:
                reused += chunk.size
            elif chunk.digest not in seen:
                seen.add(chunk.digest)
                needed.append(chunk)
        after = held | seen
        after = self._layers.setdefault(after, after)
        step = (held, manifest, after, ChunkRun(needed), reused)
        self._steps[id(held), id(manifest)] = step
        return step

    def fetch_package(self, node: str, pkg: Package) -> ChunkFetchStats:
        """Deliver one package to one node, moving only missing chunks.

        The site cache serves (and lazily fills) the chunks; the node's
        holdings filter out what it already has from other versions.
        """
        site = self.site
        manifest = site.manifest_of(pkg)
        held = self._held.get(node, _NOTHING)
        step = self._steps.get((id(held), id(manifest)))
        _, _, after, needed, reused = step or self._step(held, manifest)
        stats = self.stats
        if needed:
            # May raise: the holdings advance, and anything is counted,
            # only once the site cache has served the chunks.
            fetch = site.fetch_chunks(needed, artifact=manifest.nevra, requester=node)
            self._held[node] = after
            stats.bytes_fetched += needed.nbytes
        else:  # all held: no site call, no event
            n = len(manifest.chunks)
            fetch = ChunkFetchStats(manifest.nevra, chunks=n, hit_chunks=n, nbytes=0)
        stats.packages += 1
        stats.chunks_requested += len(manifest.chunks)
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
    depends on), per-replica replicated serials never regress, and every
    ``cas.fetch`` record missed at least one chunk (a pure hit is a tier
    counter, never a record; more hits than requests is corrupt).  Given
    live components, the chunk-store refcount audits run too.  Vacuous
    when the run never touched :mod:`repro.cas`.
    """
    problems: list[str] = []
    catalog_serial: dict[str, int] = {}
    replica_serial: dict[str, int] = {}
    for kind, data, seq in audit_events(events, _AUDIT_READS):
        if kind == "cas.fetch":
            hits, chunks = data["hit_chunks"], data["chunks"]
            if hits >= chunks:
                what = "pure hit recorded" if hits == chunks else "hits exceed request"
                problems.append(
                    f"tier {data['tier']}: {what}, {hits} hits for {chunks} "
                    f"requested chunks ({data['artifact']}) at seq {seq}"
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
