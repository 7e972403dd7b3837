"""The per-node chunk scan ``LazyDelivery.fetch_package`` replaced, kept as
a reference oracle.

``LazyDelivery`` keeps each node's holdings as an interned ``frozenset``
shared by every node that reached the same content, and computes each
delivery step once per (holdings, manifest) pair.  Before that, every
fetch walked the manifest chunk by chunk against the node's private
``set``.  That body lives here, with the two ``DeliveryStats`` fields no
reader used (``chunks_fetched``, ``per_node``) left out.
``tests/test_cas.py`` holds the stepped delivery equal to it.
"""

from __future__ import annotations

from repro.cas import ChunkFetchStats, DeliveryStats, SiteChunkCache
from repro.rpm import Package

__all__ = ["ScanDelivery"]


class ScanDelivery:
    """``LazyDelivery`` as it was: one private digest set per node."""

    def __init__(self, site: SiteChunkCache) -> None:
        self.site = site
        #: node name -> digests the node already holds
        self._node_chunks: dict[str, set[str]] = {}
        self.stats = DeliveryStats()

    def fetch_package(self, node: str, pkg: Package) -> ChunkFetchStats:
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
        stats.bytes_reused += reused
        return fetch
