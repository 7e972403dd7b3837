"""A Lustre-like parallel filesystem: MDS + OSTs, striping, bandwidth.

Table 3's "Other info" column is mostly storage: Montana State runs "300 TB
of Lustre storage", Hawaii "40TB storage, 60TB scratch".  A campus cluster's
parallel filesystem is part of what XCBC integrates with, so the substrate
models Lustre's operationally relevant shape:

* one metadata server (MDS) owning the namespace;
* N object storage targets (OSTs), each with capacity and bandwidth;
* files striped over ``stripe_count`` OSTs in ``stripe_size`` chunks —
  aggregate read/write bandwidth grows with stripe count until the client
  link saturates (the reason anyone tunes ``lfs setstripe``);
* capacity accounting per OST; a full OST fails allocations even when the
  filesystem as a whole has room (the classic Lustre gotcha).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["PfsError", "Ost", "LustreFs", "StripeLayout", "PfsFile"]


class PfsError(ReproError):
    """Parallel-filesystem failure."""


@dataclass
class Ost:
    """One object storage target."""

    index: int
    capacity_bytes: int
    bandwidth_bytes_s: float
    used_bytes: int = 0
    online: bool = True

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def charge(self, nbytes: int) -> None:
        if nbytes > self.free_bytes:
            raise PfsError(
                f"OST{self.index:04d} is full "
                f"({self.used_bytes}/{self.capacity_bytes} bytes used)"
            )
        self.used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        if nbytes > self.used_bytes:
            raise PfsError(f"OST{self.index:04d}: over-release")
        self.used_bytes -= nbytes


@dataclass(frozen=True)
class StripeLayout:
    """An lfs-setstripe layout."""

    stripe_count: int
    stripe_size_bytes: int
    ost_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stripe_count != len(self.ost_indices):
            raise PfsError("stripe count does not match OST list")


@dataclass
class PfsFile:
    """One file's metadata (the MDS inode)."""

    path: str
    size_bytes: int
    layout: StripeLayout

    def chunk_bytes_on(self, ost_index: int) -> int:
        """Bytes of this file stored on one OST (round-robin striping)."""
        if ost_index not in self.layout.ost_indices:
            return 0
        position = self.layout.ost_indices.index(ost_index)
        stripe = self.layout.stripe_size_bytes
        full_rounds, remainder = divmod(self.size_bytes, stripe * self.layout.stripe_count)
        nbytes = full_rounds * stripe
        tail_start = position * stripe
        nbytes += max(0, min(stripe, remainder - tail_start))
        return nbytes


class LustreFs:
    """The filesystem: one MDS namespace over a set of OSTs."""

    def __init__(
        self,
        name: str,
        *,
        ost_count: int,
        ost_capacity_bytes: int,
        ost_bandwidth_bytes_s: float = 500e6,
        default_stripe_count: int = 1,
        stripe_size_bytes: int = 1 * 1024 * 1024,
        client_bandwidth_bytes_s: float = 117.5e6,
    ) -> None:
        if ost_count <= 0:
            raise PfsError("need at least one OST")
        if not 1 <= default_stripe_count <= ost_count:
            raise PfsError("default stripe count out of range")
        self.name = name
        self.osts = [
            Ost(index=i, capacity_bytes=ost_capacity_bytes,
                bandwidth_bytes_s=ost_bandwidth_bytes_s)
            for i in range(ost_count)
        ]
        self.default_stripe_count = default_stripe_count
        self.stripe_size_bytes = stripe_size_bytes
        self.client_bandwidth_bytes_s = client_bandwidth_bytes_s
        self._files: dict[str, PfsFile] = {}
        self._next_ost = itertools.count()

    # -- capacity -----------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(o.capacity_bytes for o in self.osts)

    @property
    def used_bytes(self) -> int:
        return sum(o.used_bytes for o in self.osts)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def df(self) -> str:
        """``lfs df`` — per-OST and total usage."""
        lines = [f"UUID{'':<14}bytes{'':>8}used{'':>9}avail"]
        for ost in self.osts:
            state = "" if ost.online else "  (offline)"
            lines.append(
                f"{self.name}-OST{ost.index:04d}  {ost.capacity_bytes:>12} "
                f"{ost.used_bytes:>12} {ost.free_bytes:>12}{state}"
            )
        lines.append(
            f"{self.name} total     {self.capacity_bytes:>12} "
            f"{self.used_bytes:>12} {self.free_bytes:>12}"
        )
        return "\n".join(lines)

    # -- namespace -----------------------------------------------------------------

    def _pick_osts(self, stripe_count: int) -> tuple[int, ...]:
        online = [o for o in self.osts if o.online]
        if stripe_count > len(online):
            raise PfsError(
                f"stripe count {stripe_count} exceeds the {len(online)} "
                f"online OSTs"
            )
        # round-robin start point, then the next online OSTs
        start = next(self._next_ost) % len(online)
        ordered = online[start:] + online[:start]
        return tuple(o.index for o in ordered[:stripe_count])

    def create(
        self, path: str, size_bytes: int, *, stripe_count: int | None = None
    ) -> PfsFile:
        """Create a file (lfs setstripe semantics when stripe_count given)."""
        if path in self._files:
            raise PfsError(f"file exists: {path}")
        if size_bytes < 0:
            raise PfsError("negative size")
        count = stripe_count if stripe_count is not None else self.default_stripe_count
        layout = StripeLayout(
            stripe_count=count,
            stripe_size_bytes=self.stripe_size_bytes,
            ost_indices=self._pick_osts(count),
        )
        record = PfsFile(path=path, size_bytes=size_bytes, layout=layout)
        # charge capacity per OST; roll back on partial failure
        charged: list[tuple[Ost, int]] = []
        try:
            for index in layout.ost_indices:
                nbytes = record.chunk_bytes_on(index)
                self.osts[index].charge(nbytes)
                charged.append((self.osts[index], nbytes))
        except PfsError:
            for ost, nbytes in charged:
                ost.release(nbytes)
            raise
        self._files[path] = record
        return record

    def unlink(self, path: str) -> None:
        record = self._files.pop(path, None)
        if record is None:
            raise PfsError(f"no such file: {path}")
        for index in record.layout.ost_indices:
            self.osts[index].release(record.chunk_bytes_on(index))

    def stat(self, path: str) -> PfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise PfsError(f"no such file: {path}") from None

    def files(self) -> list[PfsFile]:
        return [self._files[p] for p in sorted(self._files)]

    # -- performance -----------------------------------------------------------------

    def io_time_s(self, path: str, *, clients: int = 1) -> float:
        """Time for ``clients`` to collectively read/write the whole file.

        Aggregate bandwidth = min(sum of striped OST bandwidth,
        clients x client link).  This produces the tuning curve admins know:
        single-stripe files cap at one OST; wide stripes cap at the clients'
        aggregate links.
        """
        if clients < 1:
            raise PfsError("need at least one client")
        record = self.stat(path)
        ost_bw = sum(
            self.osts[i].bandwidth_bytes_s
            for i in record.layout.ost_indices
            if self.osts[i].online
        )
        if ost_bw == 0:
            raise PfsError(f"all OSTs backing {path} are offline")
        aggregate = min(ost_bw, clients * self.client_bandwidth_bytes_s)
        return record.size_bytes / aggregate

    def set_ost_online(self, index: int, online: bool) -> None:
        if not 0 <= index < len(self.osts):
            raise PfsError(f"no OST {index}")
        self.osts[index].online = online
