"""The campus cache tier: hits, coalescing, and serve-stale degradation.

:class:`SiteProxy` sits between one campus's clients and the origin.
Three behaviours keep the origin alive through an update storm:

* **Hit accounting** — a fresh cached copy is served over the LAN without
  touching the origin at all.
* **Request coalescing** — when N clients miss on the same artifact at
  once, the proxy makes *one* origin fetch and fans the result out to all
  N waiters (``repod.coalesce`` traces each join).  This is the single
  biggest load reducer in a synchronized storm.
* **Serve-stale** — when the origin is dead, shedding, or the uplink is
  resetting connections, a proxy holding *any* prior copy serves it
  (``repod.stale``, outcome ``stale`` at the client) instead of failing.
  Campuses stay installable on the old release while the origin heals —
  graceful degradation, not an outage.

The cache dict is paired with ``_content_epoch`` — the highest origin
serial this proxy has *heard about* (via :meth:`notice_release`).  An
entry is fresh iff it was fetched at that serial; anything older is a
miss (and a serve-stale candidate).  The epoch marker is also what the
simlint SL202 pass looks for: a cache with no epoch is a cache that can
never be invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RepodError
from .server import FetchResult

__all__ = ["SiteProxy"]

#: one LAN hop from the proxy to a campus client
_LAN_LATENCY_S = 0.02


@dataclass
class _CacheEntry:
    payload: str
    serial: int
    fetched_at_s: float


class SiteProxy:
    """A caching repository proxy for one campus."""

    def __init__(
        self,
        name: str,
        origin,
        *,
        kernel,
        serve_stale: bool = True,
    ) -> None:
        self.name = name
        self.origin = origin
        self.kernel = kernel
        self.serve_stale = serve_stale
        #: artifact -> _CacheEntry; invalidated by bumping _content_epoch,
        #: never by mutation — entries older than the epoch are stale.
        self._content: dict[str, _CacheEntry] = {}
        self._content_epoch = 0
        #: artifact -> list of waiter callbacks for the in-flight fetch
        self._inflight: dict[str, list] = {}
        #: uplink connection-reset probability (conn.reset fault)
        self._uplink_loss = 0.0
        #: scheduled LAN deliveries not yet fired (leak audit)
        self._pending_deliveries = 0
        # accounting
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.stale_served = 0
        self.uplink_resets = 0

    # -- release + fault wiring --------------------------------------------------

    def notice_release(self, serial: int) -> None:
        """A new origin serial exists: everything cached is now stale."""
        if serial < self._content_epoch:
            raise RepodError(
                f"proxy {self.name}: release serial went backwards "
                f"({self._content_epoch} -> {serial})"
            )
        self._content_epoch = serial

    def set_uplink_loss(self, probability: float) -> None:
        """Flapping uplink: each origin fetch dies with this probability
        (drawn from the kernel RNG, so runs stay deterministic)."""
        if not 0 <= probability <= 1:
            raise RepodError(
                f"uplink loss probability must be in [0, 1], got {probability}"
            )
        self._uplink_loss = probability

    # -- the request path --------------------------------------------------------

    def request(
        self,
        artifact: str,
        *,
        requester: str,
        deadline_s: float | None = None,
        on_result,
    ) -> None:
        """Serve from cache, join the in-flight fetch, or go to origin."""
        entry = self._content.get(artifact)
        if entry is not None and entry.serial >= self._content_epoch:
            self.hits += 1
            self._deliver(
                on_result,
                FetchResult(
                    artifact, True, payload=entry.payload, serial=entry.serial,
                    source=f"{self.name}-hit",
                ),
            )
            return
        self.misses += 1
        waiters = self._inflight.get(artifact)
        if waiters is not None:
            self.coalesced += 1
            self.kernel.trace.emit(
                "repod.coalesce", t_s=self.kernel.now_s, subsystem="repod",
                proxy=self.name, artifact=artifact, waiters=len(waiters) + 1,
            )
            waiters.append(on_result)
            return
        self._inflight[artifact] = [on_result]
        self._fetch_from_origin(artifact, requester, deadline_s)

    def _fetch_from_origin(
        self, artifact: str, requester: str, deadline_s: float | None
    ) -> None:
        if self._uplink_loss > 0 and self.kernel.rng.random() < self._uplink_loss:
            # connection reset partway up the WAN: fail after one RTT,
            # without the origin ever seeing the request complete.
            self.uplink_resets += 1
            self.kernel.after(
                _LAN_LATENCY_S,
                lambda: self._resolve(
                    artifact,
                    FetchResult(
                        artifact, False, source=self.name,
                        error=f"connection reset on {self.name} uplink",
                        error_kind="reset",
                    ),
                ),
                label=f"repod.reset:{self.name}:{artifact}",
            )
            return
        self.origin.request(
            artifact,
            requester=f"{self.name}<{requester}",
            deadline_s=deadline_s,
            on_result=lambda result: self._resolve(artifact, result),
        )

    def _resolve(self, artifact: str, result: FetchResult) -> None:
        """Fan the origin's answer out to every coalesced waiter."""
        waiters = self._inflight.pop(artifact, [])
        if result.ok:
            self._content[artifact] = _CacheEntry(
                payload=result.payload, serial=result.serial,
                fetched_at_s=self.kernel.now_s,
            )
            for on_result in waiters:
                self._deliver(
                    on_result,
                    FetchResult(
                        artifact, True, payload=result.payload,
                        serial=result.serial, source=f"{self.name}-miss",
                    ),
                )
            return
        stale = self._content.get(artifact)
        if self.serve_stale and stale is not None:
            self.stale_served += len(waiters)
            self.kernel.trace.emit(
                "repod.stale", t_s=self.kernel.now_s, subsystem="repod",
                proxy=self.name, artifact=artifact,
                age_s=self.kernel.now_s - stale.fetched_at_s,
            )
            for on_result in waiters:
                self._deliver(
                    on_result,
                    FetchResult(
                        artifact, True, payload=stale.payload,
                        serial=stale.serial, source=f"{self.name}-stale",
                    ),
                )
            return
        for on_result in waiters:
            self._deliver(on_result, result)

    def _deliver(self, on_result, result: FetchResult) -> None:
        """Hand a result to a client after one LAN hop."""
        self._pending_deliveries += 1

        def arrive() -> None:
            self._pending_deliveries -= 1
            on_result(result)

        self.kernel.after(
            _LAN_LATENCY_S, arrive,
            label=f"repod.deliver:{self.name}:{result.artifact}",
        )

    # -- synchronous convenience -------------------------------------------------

    def fetch_blocking(self, artifact: str, *, requester: str = "sync") -> FetchResult:
        """Drive the kernel until one request resolves (prewarm / tests)."""
        box: list[FetchResult] = []
        self.request(artifact, requester=requester, on_result=box.append)
        while not box:
            if not self.kernel.step():
                raise RepodError(
                    f"proxy {self.name}: kernel drained before "
                    f"{artifact!r} resolved"
                )
        return box[0]

    # -- audit ---------------------------------------------------------------------

    def problems(self) -> list[str]:
        """Leak audit: a drained run may hold no in-flight state."""
        out = []
        if self._inflight:
            held = ", ".join(sorted(self._inflight))
            out.append(f"proxy {self.name}: leaked in-flight fetches ({held})")
        if self._pending_deliveries:
            out.append(
                f"proxy {self.name}: {self._pending_deliveries} undelivered "
                f"LAN responses"
            )
        return out
