"""The ``ChunkTier.fetch_chunks`` that traced every fetch, kept as a
reference oracle.

``ChunkTier.fetch_chunks`` writes a ``cas.fetch`` record only when the
fetch missed at least one chunk; a pure hit (every chunk already in the
tier's store) updates ``hits``/``hit_bytes`` and returns the same
``ChunkFetchStats``, but is not traced.  Before that, every fetch wrote a
record.  That body lives here, bound onto a replica and a site cache class
so a whole hierarchy runs on it.  ``tests/test_cas.py`` holds the live
trace equal to this one with the pure-hit records removed.
"""

from __future__ import annotations

from repro.cas import ChunkFetchStats, SiteChunkCache, Stratum1
from repro.cas.chunks import ChunkRun

__all__ = ["TracedSite", "TracedStratum1", "fetch_chunks_traced"]


def fetch_chunks_traced(self, chunks, *, artifact: str, requester: str = "node"):
    """Serve a chunk list: hits from the store, misses pulled from
    upstream on first reference (lazy hierarchy fill)."""
    missing = self.store.missing_of(chunks)
    nbytes = self._pull(missing, artifact=artifact, requester=requester)
    # Counters commit together, after the upstream pull can no longer
    # raise, so a failed fetch leaves all four untouched.
    hit_chunks = len(chunks) - len(missing)
    self.hits += hit_chunks
    run = isinstance(chunks, ChunkRun)
    total = chunks.nbytes if run else sum(c.size for c in chunks)
    self.hit_bytes += total - nbytes
    self.misses += len(missing)
    self.kernel.trace.emit(
        "cas.fetch", t_s=self.kernel.now_s, subsystem="cas",
        tier=self.name, artifact=artifact, chunks=len(chunks),
        hit_chunks=hit_chunks, nbytes=nbytes,
    )
    return ChunkFetchStats(
        artifact=artifact, chunks=len(chunks), hit_chunks=hit_chunks, nbytes=nbytes
    )


class TracedStratum1(Stratum1):
    """A replica whose every fetch is a ``cas.fetch`` record."""

    fetch_chunks = fetch_chunks_traced


class TracedSite(SiteChunkCache):
    """A site cache whose every fetch is a ``cas.fetch`` record."""

    fetch_chunks = fetch_chunks_traced
