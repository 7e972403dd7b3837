"""Content-addressed lazy package delivery (CVMFS/Guix-style).

The storage layer under :mod:`repro.yum` mirroring and :mod:`repro.rocks`
installs, rebuilt around content instead of NEVRAs:

* :mod:`repro.cas.chunks` — deterministic chunking of package payloads;
  adjacent RPM versions share most chunks by construction.
* :mod:`repro.cas.store` — the sha256-keyed deduplicated
  :class:`ChunkStore` with catalog refcounts and garbage collection.
* :mod:`repro.cas.stratum` — the delivery hierarchy:
  :class:`Stratum0` origin (journaled transactional publish/rollback) →
  :class:`Stratum1` replica (chunk-delta replication, resumable) →
  :class:`SiteChunkCache` campus tier (lazy fetch-on-reference) — the
  last two are one :class:`ChunkTier` pull-through path.
* :mod:`repro.cas.delivery` — :class:`LazyDelivery` fetch-on-install for
  installers, plus the chaos-invariant audit.

See docs/DELIVERY.md.
"""

from .chunks import CHUNK_SIZE, Chunk, ChunkingPolicy, PackageManifest, chunk_package
from .delivery import DeliveryStats, LazyDelivery, cas_confluence_problems
from .store import ChunkStore
from .stratum import (
    ChunkFetchStats,
    ChunkTier,
    PublishStats,
    ReplicateStats,
    SiteChunkCache,
    Stratum0,
    Stratum1,
    recover_stratum0,
)

__all__ = [
    "CHUNK_SIZE",
    "Chunk",
    "ChunkingPolicy",
    "PackageManifest",
    "chunk_package",
    "ChunkStore",
    "Stratum0",
    "ChunkTier",
    "Stratum1",
    "SiteChunkCache",
    "PublishStats",
    "ReplicateStats",
    "ChunkFetchStats",
    "recover_stratum0",
    "LazyDelivery",
    "DeliveryStats",
    "cas_confluence_problems",
]
