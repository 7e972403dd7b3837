"""The stratum hierarchy: origin catalog, replicas, and site chunk caches.

CVMFS's deployment shape, applied to package delivery:

* :class:`Stratum0` — the origin.  It owns the catalog: an append-only
  run of *generations*, each mapping NEVRA → :class:`PackageManifest`.
  Publishing a release is a **transactional catalog flip** journaled
  through :mod:`repro.recovery` (intent → retain chunks + append
  generation → applied → commit), so a crash mid-publish leaves an open
  journal transaction that :func:`recover_stratum0` rolls back — the
  half-published generation vanishes, refcounts and all.  Rollback is a
  *new* generation pointing at the previous content (Guix-style: the
  serial only ever moves forward, which is what lets downstream caches
  keep their monotonic release protocol).
* :class:`ChunkTier` — every level below the origin: a
  :class:`ChunkStore` in front of one upstream, reached over one
  :class:`~repro.yum.mirror.MirrorLink`.  It owns the only pull-through
  path (:meth:`ChunkTier.fetch_chunks`: hits from the store, misses
  pulled from upstream on first reference, counted, traced as
  ``cas.fetch``); a deeper hierarchy is one more tier in the chain.
  Chunk lists are looked up, never re-derived: ``manifest_of`` asks up
  the chain for a catalog entry; only the origin holds a chunking policy.
* :class:`Stratum1` — that tier plus a replicated catalog.
  :meth:`Stratum1.replicate` moves only the chunks the replica does not
  already hold — the delta is *missing chunks*, not missing NEVRAs — and
  an interrupted replication keeps everything that landed, so the retry
  resumes at chunk granularity.
* :class:`SiteChunkCache` — that tier plus the release-serial marker.
  It holds whatever chunks local installs have pulled.

Chunks are content-addressed, so a release never *invalidates* cached
chunks — the ``_chunk_epoch`` marker records the newest origin serial the
cache has heard of, and only catalog lookups go stale, never content.

All transfer time is spent on the shared simulation kernel
(:meth:`MirrorLink.spend`); every tier traces its traffic as ``cas.*``
events.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CasError, FaultError
from ..faults.retry import RetryPolicy, call_with_retry
from ..rpm.package import Package
from ..sim import SimKernel
from ..yum.mirror import MirrorLink
from .chunks import Chunk, ChunkingPolicy, ChunkRun, PackageManifest
from .store import ChunkStore

__all__ = [
    "PublishStats",
    "ReplicateStats",
    "ChunkFetchStats",
    "Stratum0",
    "ChunkTier",
    "Stratum1",
    "SiteChunkCache",
    "recover_stratum0",
]


@dataclass
class PublishStats:
    """One catalog flip's accounting."""

    serial: int
    packages: int
    chunks: int       # chunks referenced by the new generation
    new_chunks: int   # chunks the store did not already hold
    nbytes: int       # bytes those new chunks added (the dedup delta)


@dataclass
class ReplicateStats:
    """One replication pass's accounting."""

    serial: int
    chunks: int    # chunks transferred (the missing delta)
    nbytes: int
    skipped: bool = False  # catalog already current; nothing to do
    interrupted: bool = False  # cut mid-transfer; what landed is counted here


@dataclass
class ChunkFetchStats:
    """One lazy fetch's accounting at one tier."""

    artifact: str
    chunks: int      # chunks requested
    hit_chunks: int  # served from this tier's holdings
    nbytes: int      # bytes pulled from upstream (the tier's WAN cost)


class Stratum0:
    """The origin: generation catalog + retained chunk store."""

    def __init__(
        self,
        name: str,
        *,
        kernel: SimKernel | None = None,
        journal=None,
        policy: ChunkingPolicy | None = None,
    ) -> None:
        self.name = name
        self.kernel = kernel if kernel is not None else SimKernel()
        #: optional write-ahead :class:`~repro.recovery.Journal`: each
        #: publish (and rollback — also a flip) is a ``cas.publish``
        #: transaction, so a crash mid-flip is recoverable.
        self.journal = journal
        self.policy = policy if policy is not None else ChunkingPolicy()
        self.store = ChunkStore(f"{name}-store")
        #: serial -> generation catalog (NEVRA -> manifest); generation 0
        #: is the empty pre-release catalog.
        self._catalogs: dict[int, dict[str, PackageManifest]] = {0: {}}
        self.serial = 0

    # -- catalog reads ---------------------------------------------------------

    @property
    def catalog(self) -> dict[str, PackageManifest]:
        """The current generation's catalog (NEVRA -> manifest)."""
        return self._catalogs[self.serial]

    def manifest_of(self, pkg: Package) -> PackageManifest:
        """The chunk list of ``pkg``: the current generation's entry, else
        chunked by the policy (a package this catalog does not hold)."""
        return _held(self.catalog, pkg) or self.policy.manifest(pkg)

    def fetch_chunks(
        self, chunks: list[Chunk], *, artifact: str, requester: str = "replica"
    ) -> None:
        """The top of the pull-through chain: content is retained here or
        nowhere.  A presence check — no link, no cost, no event."""
        for chunk in chunks:
            if not self.store.has(chunk.digest):
                raise CasError(
                    f"stratum0 {self.name}: chunk {chunk.short} of "
                    f"{artifact} not at the origin (requested by {requester})"
                )

    # -- the transactional flip ------------------------------------------------

    def _flip(self, catalog: dict[str, PackageManifest], meta: str) -> PublishStats:
        """Append ``catalog`` as the next generation (journaled, atomic)."""
        next_serial = self.serial + 1
        journal = self.journal
        if journal is not None:
            txn = journal.begin("cas.publish", catalog=self.name, note=meta)
            op = journal.intent(txn, "flip", serial=next_serial, nevras=sorted(catalog))
        new_chunks = 0
        nbytes = 0
        total = 0
        for nevra in sorted(catalog):
            manifest = catalog[nevra]
            total += len(manifest.chunks)
            for chunk in manifest.chunks:
                if not self.store.has(chunk.digest):
                    new_chunks += 1
                    nbytes += chunk.size
            self.store.retain(manifest)
        self._catalogs[next_serial] = catalog
        self.serial = next_serial
        if journal is not None:
            journal.applied(txn, op)
            journal.commit(txn)
        return PublishStats(
            serial=next_serial,
            packages=len(catalog),
            chunks=total,
            new_chunks=new_chunks,
            nbytes=nbytes,
        )

    def publish(self, packages: list[Package]) -> PublishStats:
        """Flip the catalog to a new generation holding ``packages``.

        The whole release is chunked and retained before the flip lands;
        the chunk store deduplicates, so a version bump only adds the
        delta chunks.  One NEVRA with two payload sizes is refused whole.
        """
        catalog: dict[str, PackageManifest] = {}
        for p in packages:
            first = catalog.setdefault(p.nevra, self.manifest_of(p))
            if first.size_bytes != p.size_bytes:
                raise CasError(
                    f"stratum0 {self.name}: {p.nevra} published twice, with "
                    f"{first.size_bytes} and {p.size_bytes} bytes"
                )
        stats = self._flip(catalog, "publish")
        self.kernel.trace.emit(
            "cas.publish", t_s=self.kernel.now_s, subsystem="cas",
            catalog=self.name, serial=stats.serial, packages=stats.packages,
            chunks=stats.chunks, new_chunks=stats.new_chunks,
            nbytes=stats.nbytes,
        )
        return stats

    def rollback(self) -> PublishStats:
        """Revert to the previous generation's content — as a *new* one.

        The serial moves forward (Guix generations, not git reset): the
        new generation holds the old content, so downstream caches see a
        normal monotonic release and their content-addressed chunks for
        it are already warm.
        """
        if self.serial == 0:
            raise CasError(
                f"stratum0 {self.name}: nothing published, nothing to roll back"
            )
        restored = self.serial - 1
        if restored not in self._catalogs:
            raise CasError(
                f"stratum0 {self.name}: generation {restored} was pruned; "
                f"cannot roll back past it"
            )
        stats = self._flip(dict(self._catalogs[restored]), "rollback")
        self.kernel.trace.emit(
            "cas.rollback", t_s=self.kernel.now_s, subsystem="cas",
            catalog=self.name, serial=stats.serial, restored=restored,
        )
        return stats

    def prune(self, *, keep: int = 2) -> tuple[int, int, int]:
        """Drop all but the newest ``keep`` generations and collect garbage.

        Returns (generations dropped, chunks evicted, bytes freed).  This
        is where a refcount leak would surface: a generation whose pins
        were double-counted leaves its chunks uncollectable forever.
        """
        if keep < 1:
            raise CasError(f"must keep at least one generation, got {keep}")
        serials = sorted(self._catalogs)
        doomed = serials[:-keep] if len(serials) > keep else []
        for serial in doomed:
            gen = self._catalogs.pop(serial)
            for nevra in sorted(gen):
                self.store.release(gen[nevra])
        evicted, freed = self.store.gc()
        return len(doomed), evicted, freed

    def _undo_flip(self, serial: int) -> None:
        """Recovery: make a half-published generation not-have-happened."""
        gen = self._catalogs.pop(serial)
        for nevra in sorted(gen):
            self.store.release(gen[nevra])
        self.serial = max(self._catalogs)
        self.store.gc()

    def live_manifests(self) -> list[PackageManifest]:
        """Every retained manifest, one entry per generation referencing
        it — the expected-refcount input for the store audit."""
        out = []
        for serial in sorted(self._catalogs):
            gen = self._catalogs[serial]
            for nevra in sorted(gen):
                out.append(gen[nevra])
        return out


def _held(catalog: dict[str, PackageManifest], pkg: Package) -> PackageManifest | None:
    """``catalog``'s manifest of exactly this build: a NEVRA held with
    another payload size is a miss, never a wrong answer."""
    held = catalog.get(pkg.nevra)
    return held if held is not None and held.size_bytes == pkg.size_bytes else None


def recover_stratum0(journal, s0: Stratum0) -> list:
    """Resolve open ``cas.publish`` transactions after a crash.

    A crash between intent and commit may have left the new generation
    half-landed (catalog appended, chunks retained, commit never written).
    Each open transaction's flip is undone — generation removed, pins
    released, orphaned chunks collected — so the catalog clients see is
    exactly the last *committed* generation.  Returns the transactions
    rolled back.
    """
    def undo(op) -> None:
        serial = op.payload.get("serial")
        if serial is not None and serial == s0.serial and serial in s0._catalogs:
            s0._undo_flip(serial)

    resolved = [
        txn
        for txn in journal.open_txns("cas.publish")
        if txn.meta.get("catalog") == s0.name
    ]
    for txn in resolved:
        journal.roll_back(txn, undo)
    return resolved


class ChunkTier:
    """One pull-through level of the chunk hierarchy.

    A :class:`ChunkStore` in front of one upstream, reached over one link.
    """

    def __init__(
        self,
        name: str,
        upstream: Stratum0 | ChunkTier,
        link: MirrorLink,
        kernel: SimKernel,
    ) -> None:
        self.name = name
        self.upstream = upstream
        self.link = link
        self.kernel = kernel
        self.store = ChunkStore(f"{name}-store")
        # accounting
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.wan_bytes = 0

    def _pull(self, missing: list[Chunk], *, artifact: str, requester: str) -> int:
        """Move ``missing`` from upstream over the link into the store;
        returns the bytes moved (the tier's WAN cost)."""
        if not missing:
            return 0
        self.upstream.fetch_chunks(missing, artifact=artifact, requester=self.name)
        nbytes = sum(c.size for c in missing)
        self.link.spend(self.kernel, nbytes)
        for chunk in missing:
            self.store.put(chunk)
        self.wan_bytes += nbytes
        return nbytes

    def fetch_chunks(
        self, chunks: list[Chunk], *, artifact: str, requester: str = "node"
    ) -> ChunkFetchStats:
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

    def manifest_of(self, pkg: Package) -> PackageManifest:
        """The chunk list of ``pkg``, from the nearest catalog upstream."""
        return self.upstream.manifest_of(pkg)

    def fetch_package(
        self, pkg: Package, *, requester: str = "node"
    ) -> ChunkFetchStats:
        """Fetch every chunk of one package (manifest from the catalog)."""
        manifest = self.manifest_of(pkg)
        return self.fetch_chunks(
            list(manifest.chunks), artifact=manifest.nevra, requester=requester
        )


class Stratum1(ChunkTier):
    """A full replica of one stratum-0, synced at chunk granularity."""

    fetch_chunks = ChunkTier.fetch_chunks  # own __dict__: bench/spans.py wraps it here

    def __init__(
        self,
        name: str,
        origin: Stratum0,
        link: MirrorLink,
        *,
        kernel: SimKernel | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            name, origin, link, kernel if kernel is not None else origin.kernel
        )
        self.origin = origin
        self.retry = retry
        #: the replicated catalog (NEVRA -> manifest), valid for origin
        #: serial ``_catalog_epoch`` — the SL202 validity marker.
        self._catalog_cache: dict[str, PackageManifest] = {}
        self._catalog_epoch = -1  # -1: never replicated
        #: manifests the current replicated generation pins in the store
        self._retained: list[PackageManifest] = []
        self._interruptions_pending = 0
        self.replicate_history: list[ReplicateStats] = []

    # -- fault injection -------------------------------------------------------

    def inject_interruptions(self, count: int) -> None:
        """Fail the next ``count`` replication passes mid-transfer; the
        chunks that landed stay put, so the retry resumes the delta."""
        if count < 0:
            raise CasError(f"interruption count must be non-negative, got {count}")
        self._interruptions_pending = count

    # -- replication -----------------------------------------------------------

    @property
    def is_current(self) -> bool:
        return self._catalog_epoch == self.origin.serial

    @property
    def catalog(self) -> dict[str, PackageManifest]:
        """The replicated catalog (may lag the origin until replicate())."""
        return self._catalog_cache

    def manifest_of(self, pkg: Package) -> PackageManifest:
        """From the replicated catalog; a lagging replica asks the origin."""
        return _held(self._catalog_cache, pkg) or self.origin.manifest_of(pkg)

    def replicate(self) -> ReplicateStats:
        """Bring the replica to the origin's generation, moving only the
        chunks it does not already hold.

        With a :class:`RetryPolicy`, interruptions retry with backoff and
        every retry resumes from the chunks already landed.
        """
        if self.retry is None:
            return self._replicate_once()
        return call_with_retry(
            self.kernel,
            self._replicate_once,
            policy=self.retry,
            op=f"cas.replicate:{self.name}",
            subsystem="cas",
            retry_on=(CasError, FaultError),
        )

    def _replicated(self, stats: ReplicateStats) -> ReplicateStats:
        self.replicate_history.append(stats)
        self.kernel.trace.emit(
            "cas.replicate", t_s=self.kernel.now_s, subsystem="cas",
            replica=self.name, serial=stats.serial, chunks=stats.chunks,
            nbytes=stats.nbytes, skipped=stats.skipped,
        )
        return stats

    def _replicate_once(self) -> ReplicateStats:
        # Catalog probe always costs one round trip.
        self.link.spend(self.kernel, 16 * 1024)
        target_serial = self.origin.serial
        if self._catalog_epoch == target_serial:
            return self._replicated(
                ReplicateStats(serial=target_serial, chunks=0, nbytes=0, skipped=True)
            )
        target = self.origin.catalog
        ordered = [target[nevra] for nevra in sorted(target)]
        missing = self.store.missing_of(
            [c for manifest in ordered for c in manifest.chunks]
        )
        cut = self._interruptions_pending > 0
        landing = missing[: len(missing) // 2] if cut else missing
        nbytes = self._pull(
            landing, artifact=f"generation {target_serial}", requester=self.name
        )
        stats = ReplicateStats(
            serial=target_serial, chunks=len(landing), nbytes=nbytes, interrupted=cut
        )
        if cut:
            # The half that landed crossed the WAN: it is counted (history
            # entry, ``wan_bytes``) though the pass fails and traces nothing.
            self._interruptions_pending -= 1
            self.replicate_history.append(stats)
            raise CasError(
                f"stratum1 {self.name}: replication interrupted after "
                f"{len(landing)}/{len(missing)} chunk(s); landed chunks kept "
                f"for resume"
            )
        # Flip: pin the new generation before unpinning the old one, so a
        # chunk shared by both is never transiently collectable.
        for manifest in ordered:
            self.store.retain(manifest)
        for manifest in self._retained:
            self.store.release(manifest)
        self._retained = ordered
        self._catalog_cache = dict(target)
        self._catalog_epoch = target_serial
        return self._replicated(stats)

    def problems(self) -> list[str]:
        """Replica audit: the store pins exactly the replicated generation
        and holds the content of every chunk it pins."""
        return self.store.refcount_problems(self._retained)


class SiteChunkCache(ChunkTier):
    """The campus tier: a lazy chunk cache in front of one upstream.

    Chunks are content-addressed, so :meth:`notice_release` never evicts —
    it advances ``_chunk_epoch`` (the newest origin serial this cache has
    heard of).  Manifests are the upstream catalog's, never kept here, and
    any chunk the new release still references is already warm.
    """

    # own __dict__: bench/spans.py wraps both on this class
    fetch_chunks = ChunkTier.fetch_chunks
    fetch_package = ChunkTier.fetch_package

    def __init__(
        self,
        name: str,
        upstream: Stratum0 | ChunkTier,
        link: MirrorLink,
        *,
        kernel: SimKernel | None = None,
    ) -> None:
        super().__init__(
            name, upstream, link, kernel if kernel is not None else upstream.kernel
        )
        self._chunk_epoch = 0

    # -- release protocol ------------------------------------------------------

    def notice_release(self, serial: int) -> None:
        """A new origin generation exists.  Content stays; only the
        serial marker advances (and, like the proxy tier, it refuses to
        move backwards — rollback publishes forward)."""
        if serial < self._chunk_epoch:
            raise CasError(
                f"site cache {self.name}: release serial went backwards "
                f"({self._chunk_epoch} -> {serial})"
            )
        self._chunk_epoch = serial
