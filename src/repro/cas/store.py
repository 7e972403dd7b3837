"""The deduplicated chunk store: content keyed by digest, retention by refcount.

A :class:`ChunkStore` holds chunks under their sha256 digest — storing the
same chunk twice is free, which is the whole point: adjacent RPM versions
share most of their chunks, so a store holding v1 gains only the delta
when v2 lands.

Two kinds of presence are tracked separately:

* **content** (``has`` / ``missing_of``) — the digest is physically here.
  ``missing_of`` is the transfer-delta query every sync and lazy fetch is
  built on: *what do I not already hold?*
* **retention** (``retain`` / ``release``) — a catalog generation pins the
  chunk.  Chunks at refcount zero are *cache*: still servable, but
  :meth:`gc` may evict them.  Retention is how transactional publish and
  rollback compose with garbage collection — a rolled-back generation
  releases its pins and the chunks it alone referenced become collectable,
  never dangling.

:meth:`refcount_problems` is the leak audit the chaos harness runs: it
recomputes the expected refcounts from the live catalog generations and
reports any drift (the classic symptom of a publish/rollback path that
forgot a release).
"""

from __future__ import annotations

from typing import Iterable

from ..errors import CasError, CasIntegrityError
from .chunks import Chunk, ChunkRun, PackageManifest

__all__ = ["ChunkStore"]


class ChunkStore:
    """One tier's chunk holdings: digest -> size, plus catalog refcounts."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        #: digest -> chunk size; content presence (cache + retained alike)
        self._chunks: dict[str, int] = {}
        #: digest -> number of catalog generations pinning the chunk
        self._refs: dict[str, int] = {}

    # -- content ---------------------------------------------------------------

    def put(self, chunk: Chunk) -> bool:
        """Store one chunk; returns True if it was new (dedup hit = False)."""
        known = self._chunks.get(chunk.digest)
        if known is not None:
            if known != chunk.size:
                raise CasIntegrityError(
                    f"store {self.name}: digest {chunk.short} seen with two "
                    f"sizes ({known} and {chunk.size}) — corrupted content"
                )
            return False
        self._chunks[chunk.digest] = chunk.size
        return True

    def has(self, digest: str) -> bool:
        return digest in self._chunks

    def missing_of(self, chunks: Iterable[Chunk]) -> list[Chunk]:
        """The chunks not yet held — the transfer delta, order-preserving.

        Duplicates within the request count once (they would land with the
        first copy).  A :class:`ChunkRun` held whole is one subset test.
        """
        if isinstance(chunks, ChunkRun) and self._chunks.keys() >= chunks.digests:
            return []
        seen: set[str] = set()
        out: list[Chunk] = []
        for chunk in chunks:
            if chunk.digest not in self._chunks and chunk.digest not in seen:
                seen.add(chunk.digest)
                out.append(chunk)
        return out

    # -- retention -------------------------------------------------------------

    def retain(self, manifest: PackageManifest) -> None:
        """Pin a manifest's chunks (+1 each) on behalf of a catalog."""
        refs = self._refs
        for chunk in manifest.chunks:
            self.put(chunk)
            refs[chunk.digest] = refs.get(chunk.digest, 0) + 1

    def release(self, manifest: PackageManifest) -> None:
        """Drop one catalog's pin on a manifest's chunks."""
        refs = self._refs
        for chunk in manifest.chunks:
            count = refs.get(chunk.digest, 0)
            if count <= 0:
                raise CasError(
                    f"store {self.name}: release of unretained chunk "
                    f"{chunk.short} (manifest {manifest.nevra}) — refcount "
                    f"would go negative"
                )
            if count == 1:
                del refs[chunk.digest]
            else:
                refs[chunk.digest] = count - 1

    def refcount(self, digest: str) -> int:
        return self._refs.get(digest, 0)

    def gc(self) -> tuple[int, int]:
        """Evict every unpinned chunk; returns (chunks evicted, bytes freed)."""
        refs = self._refs
        evicted = [d for d in self._chunks if d not in refs]
        freed = 0
        for digest in evicted:
            freed += self._chunks.pop(digest)
        return len(evicted), freed

    # -- accounting ------------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def total_bytes(self) -> int:
        """Deduplicated bytes held (each unique chunk counted once)."""
        return sum(self._chunks.values())

    # -- audit -----------------------------------------------------------------

    def refcount_problems(
        self, live_manifests: Iterable[PackageManifest]
    ) -> list[str]:
        """Drift between actual refcounts and the live catalog generations.

        ``live_manifests`` is every manifest of every retained generation
        (one entry per generation that references it).  Empty list = clean.
        """
        expected: dict[str, int] = {}
        for manifest in live_manifests:
            for chunk in manifest.chunks:
                expected[chunk.digest] = expected.get(chunk.digest, 0) + 1
        problems = []
        for digest in sorted(set(expected) | set(self._refs)):
            want = expected.get(digest, 0)
            have = self._refs.get(digest, 0)
            if want != have:
                problems.append(
                    f"store {self.name}: chunk {digest[:12]} refcount {have}, "
                    f"expected {want} from live catalogs"
                )
            if want and digest not in self._chunks:
                problems.append(
                    f"store {self.name}: chunk {digest[:12]} retained but "
                    f"content is missing"
                )
        return problems
