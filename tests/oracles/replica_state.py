"""What a replica holds and whether it is current, read from its fields.

Each function is the body of a former read-only member of ``src/repro``
that only tests called, moved here unchanged (``self`` is the object it
used to live on):

* :func:`total_bytes` — the ``ChunkStore.total_bytes`` property: the
  deduplicated bytes a chunk store holds, which the tier accounting
  property holds equal to the bytes the tier pulled over its link;
* :func:`stratum1_is_current` — the ``Stratum1.is_current`` property: the
  replica's catalog is the origin's newest generation;
* :func:`mirror_is_current` — the ``RepoMirror.is_current`` property: the
  mirror's last sync saw the upstream metadata it has now.
"""

from __future__ import annotations

from repro.cas import ChunkStore, Stratum1
from repro.yum.mirror import RepoMirror

__all__ = ["total_bytes", "stratum1_is_current", "mirror_is_current"]


def total_bytes(self: ChunkStore) -> int:
    """Deduplicated bytes held (each unique chunk counted once)."""
    return sum(self._chunks.values())


def stratum1_is_current(self: Stratum1) -> bool:
    return self._catalog_epoch == self.origin.serial


def mirror_is_current(self: RepoMirror) -> bool:
    """True if the mirror matches upstream metadata."""
    return self._synced_checksum == self.upstream.repomd_checksum()
