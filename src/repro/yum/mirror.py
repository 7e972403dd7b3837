"""Repository mirroring with a bandwidth/latency cost model.

Campus clusters often mirror the XSEDE repository locally so compute nodes
update from the frontend instead of the WAN (this is also how Rocks serves
its distribution).  The mirror tracks the upstream ``repomd`` checksum and
only transfers changed NEVRAs on resync.

Transfer time is *spent on the simulation kernel*: each sync advances the
kernel clock by the modelled duration (firing any co-simulated events due
inside the window) and publishes a ``mirror.sync`` trace event.  Pass a
shared :class:`~repro.sim.SimKernel` to interleave mirror traffic with the
rest of the cluster; without one the mirror keeps its own.

Faults are first-class: an interrupted sync (flaky WAN, full disk) leaves
the packages fetched so far in place, so the retried sync *resumes* —
only the remaining delta is transferred.  Corrupted payloads are caught by
per-package checksum verification and re-fetched within the same sync.
Give the mirror a :class:`~repro.faults.RetryPolicy` and :meth:`sync`
retries interruptions with seeded backoff instead of surfacing them.

The mirror moves whole NEVRAs.  The content-addressed replica — delta =
missing *chunks*, resume at chunk granularity — is
:class:`repro.cas.Stratum1` (docs/DELIVERY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FaultError, YumError
from ..faults.retry import RetryPolicy, call_with_retry
from ..rpm.package import Package
from ..sim import SimKernel
from .repository import Repository

__all__ = ["MirrorLink", "RepoMirror", "SyncStats"]


@dataclass(frozen=True)
class MirrorLink:
    """The network path between upstream and mirror."""

    bandwidth_bytes_s: float
    latency_s: float = 0.05

    def transfer_time_s(self, nbytes: int, *, requests: int = 1) -> float:
        """Time to move ``nbytes`` over this link in ``requests`` requests."""
        if nbytes < 0 or requests < 1:
            raise YumError(
                f"invalid transfer parameters: nbytes={nbytes}, requests={requests}"
            )
        return self.latency_s * requests + nbytes / self.bandwidth_bytes_s

    def spend(self, kernel: SimKernel, nbytes: int, *, requests: int = 1) -> None:
        """Charge one transfer to the shared clock: advance ``kernel`` by
        its modelled duration, firing whatever else falls due inside the
        window.  Every delivery tier pays for its link here."""
        kernel.run_until(
            kernel.now_s + self.transfer_time_s(nbytes, requests=requests)
        )


@dataclass
class SyncStats:
    """Accounting for one sync operation."""

    fetched_nevras: list[str] = field(default_factory=list)
    removed_nevras: list[str] = field(default_factory=list)
    refetched_nevras: list[str] = field(default_factory=list)
    bytes_transferred: int = 0
    elapsed_s: float = 0.0
    skipped: bool = False  # metadata matched; nothing to do


class RepoMirror:
    """A local mirror of one upstream repository."""

    def __init__(
        self,
        upstream: Repository,
        link: MirrorLink,
        *,
        repo_id: str = "",
        kernel: SimKernel | None = None,
        retry: RetryPolicy | None = None,
        journal=None,
    ):
        self.upstream = upstream
        self.link = link
        self.kernel = kernel if kernel is not None else SimKernel()
        self.retry = retry
        #: optional write-ahead :class:`~repro.recovery.Journal`: every sync
        #: attempt becomes a ``mirror.sync`` transaction, so a crash mid-sync
        #: is distinguishable from a clean interruption afterwards (open vs
        #: aborted).  Mirror syncs recover by *replay* — the delta recomputes
        #: against whatever landed, so a resync is idempotent.
        self.journal = journal
        self.local = Repository(
            repo_id or f"{upstream.repo_id}-mirror",
            name=f"{upstream.name} (local mirror)",
            priority=upstream.priority,
        )
        self._synced_checksum: str | None = None
        self.sync_history: list[SyncStats] = []
        # -- fault-injection state (set by FaultInjector or tests) ---------
        self._interruptions_pending = 0
        self._loss_probability = 0.0
        self._disk_full = False
        self._corrupt_once: set[str] = set()

    # -- fault injection hooks -------------------------------------------------

    def inject_interruptions(self, count: int) -> None:
        """Fail the next ``count`` sync attempts mid-transfer (resumable)."""
        if count < 0:
            raise YumError(f"interruption count must be non-negative, got {count}")
        self._interruptions_pending = count

    def set_loss_probability(self, probability: float) -> None:
        """Flapping WAN: each sync attempt dies with this probability
        (drawn from the kernel RNG, so runs stay deterministic)."""
        if not 0 <= probability <= 1:
            raise YumError(f"loss probability must be in [0, 1], got {probability}")
        self._loss_probability = probability

    def set_disk_full(self, full: bool) -> None:
        """A full mirror volume fails every sync until space is freed."""
        self._disk_full = full

    def corrupt_next(self, nevras: set[str] | None = None) -> None:
        """The named NEVRAs (default: everything still to fetch) arrive
        corrupted once and must be caught by checksum and re-fetched."""
        if nevras is None:
            local = {p.nevra for p in self.local.all_packages()}
            nevras = {
                p.nevra for p in self.upstream.all_packages() if p.nevra not in local
            }
        self._corrupt_once |= set(nevras)

    # -- sync ----------------------------------------------------------------

    @property
    def is_current(self) -> bool:
        """True if the mirror matches upstream metadata."""
        return self._synced_checksum == self.upstream.repomd_checksum()

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of mirror contents and fault knobs."""
        return {
            "repo": self.local.repo_id,
            "synced_checksum": self._synced_checksum,
            "local_nevras": sorted(p.nevra for p in self.local.all_packages()),
            "syncs": len(self.sync_history),
            "interruptions_pending": self._interruptions_pending,
            "loss_probability": self._loss_probability,
            "disk_full": self._disk_full,
            "corrupt_once": sorted(self._corrupt_once),
        }

    def sync(self) -> SyncStats:
        """Bring the mirror up to date, transferring only the delta.

        With a :class:`RetryPolicy` configured, interrupted transfers are
        retried with backoff; each retry resumes from what already landed
        (the delta recomputes against the partially filled mirror).
        """
        if self.retry is None:
            return self._sync_once()
        return call_with_retry(
            self.kernel,
            self._sync_once,
            policy=self.retry,
            op=f"mirror.sync:{self.local.repo_id}",
            subsystem="yum",
            retry_on=(YumError, FaultError),
        )

    def _sync_once(self) -> SyncStats:
        stats = SyncStats()
        started_s = self.kernel.now_s
        upstream_sum = self.upstream.repomd_checksum()
        txn = (
            self.journal.begin(
                "mirror.sync", repo=self.local.repo_id, upstream=upstream_sum
            )
            if self.journal is not None
            else None
        )
        # Metadata probe always costs one round trip.
        self.link.spend(self.kernel, 16 * 1024)
        if self._disk_full:
            if txn is not None:
                self.journal.abort(txn, note="disk full before staging")
            raise YumError(
                f"mirror {self.local.repo_id}: disk full, cannot stage packages"
            )
        if self._synced_checksum == upstream_sum:
            stats.skipped = True
            stats.elapsed_s = self.kernel.now_s - started_s
            self.sync_history.append(stats)
            if txn is not None:
                self.journal.commit(txn)
            self.kernel.trace.emit(
                "mirror.sync", t_s=self.kernel.now_s, subsystem="yum",
                repo=self.local.repo_id, nbytes=0, files=0, skipped=True,
            )
            return stats

        upstream_by_nevra: dict[str, Package] = {
            p.nevra: p for p in self.upstream.all_packages()
        }
        local_by_nevra: dict[str, Package] = {
            p.nevra: p for p in self.local.all_packages()
        }
        to_fetch = [
            upstream_by_nevra[n]
            for n in sorted(set(upstream_by_nevra) - set(local_by_nevra))
        ]
        to_remove = sorted(set(local_by_nevra) - set(upstream_by_nevra))
        transfer_op = (
            self.journal.intent(
                txn, "transfer",
                fetch=[p.nevra for p in to_fetch], remove=to_remove,
            )
            if txn is not None
            else None
        )

        for nevra in to_remove:
            self.local.remove(nevra)
            stats.removed_nevras.append(nevra)

        interrupted = self._interruptions_pending > 0 or (
            self._loss_probability > 0
            and self.kernel.rng.random() < self._loss_probability
        )
        if self._interruptions_pending > 0:
            self._interruptions_pending -= 1
        cutoff = len(to_fetch) // 2 if interrupted else len(to_fetch)

        for index, pkg in enumerate(to_fetch):
            if interrupted and index >= cutoff:
                # The connection died mid-transfer.  Everything fetched so
                # far stays on disk — the retry resumes from here.
                if stats.bytes_transferred:
                    # Round trips follow what actually moved: one per
                    # package that landed (plus corruption re-fetches),
                    # never a charge for packages the cut prevented.
                    requests = len(stats.fetched_nevras) + len(
                        stats.refetched_nevras
                    )
                    self.link.spend(
                        self.kernel, stats.bytes_transferred,
                        requests=max(1, requests),
                    )
                stats.elapsed_s = self.kernel.now_s - started_s
                self.sync_history.append(stats)
                if txn is not None:
                    # A clean interruption is NOT a crash: the partial state
                    # is deliberate (the retry resumes from it), so the
                    # transaction closes as aborted instead of lingering open.
                    self.journal.abort(
                        txn,
                        note=f"interrupted; {len(stats.fetched_nevras)} "
                        f"package(s) kept for resume",
                    )
                raise YumError(
                    f"mirror {self.local.repo_id}: sync interrupted after "
                    f"{len(stats.fetched_nevras)}/{len(to_fetch)} package(s); "
                    f"partial state kept for resume"
                )
            self.local.add(pkg)
            stats.fetched_nevras.append(pkg.nevra)
            stats.bytes_transferred += pkg.size_bytes
            if pkg.nevra in self._corrupt_once:
                # Payload checksum mismatch: drop and fetch again (costing
                # the extra bytes) — yum's "[Errno -1] Package does not
                # match intended download" path.
                self._corrupt_once.discard(pkg.nevra)
                stats.refetched_nevras.append(pkg.nevra)
                stats.bytes_transferred += pkg.size_bytes
        if stats.fetched_nevras:
            self.link.spend(
                self.kernel, stats.bytes_transferred,
                requests=len(stats.fetched_nevras) + len(stats.refetched_nevras),
            )
        stats.elapsed_s = self.kernel.now_s - started_s
        self._synced_checksum = upstream_sum
        self.sync_history.append(stats)
        if txn is not None:
            assert transfer_op is not None
            self.journal.applied(txn, transfer_op)
            self.journal.commit(txn)
        self.kernel.trace.emit(
            "mirror.sync", t_s=self.kernel.now_s, subsystem="yum",
            repo=self.local.repo_id, nbytes=stats.bytes_transferred,
            files=len(stats.fetched_nevras), skipped=False,
        )
        return stats
