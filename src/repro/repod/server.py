"""The origin: bounded slots, a bounded queue, and deadline-aware shedding.

:class:`RepoServer` is the XNIT repository daemon every campus ultimately
pulls from.  It refuses to melt: concurrent transfers are capped by
``slots``, waiting requests by ``queue_limit``, and anything beyond that
is *shed* immediately — an explicit, traced refusal (``repod.shed``) the
client can back off from, instead of an ever-growing queue whose tail
times out anyway.  The queue is deadline-aware: when a slot frees up, any
queued request whose client deadline already expired is shed rather than
served — serving it would burn a slot producing bytes nobody is waiting
for (the classic overload death spiral).

All service is event-driven on the kernel: a granted request occupies a
slot for ``link.transfer_time_s(size)`` simulated seconds and then
delivers a :class:`FetchResult` to its callback.  ``crash()`` (the
``origin.crash`` fault) kills every active transfer and queued request
mid-flight; ``recover()`` brings the daemon back empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import RepodError

__all__ = ["FetchResult", "RepoServer", "payload_for"]


def payload_for(pkg) -> str:
    """The canonical bytes-on-the-wire for one artifact.

    Every layer (origin, proxy cache, client) represents content this same
    way, so "proxy tier returned exactly what the origin would have" is a
    string comparison — the property the hypothesis suite checks.
    """
    return f"{pkg.nevra}|{pkg.size_bytes}"


@dataclass
class FetchResult:
    """Terminal outcome of one fetch attempt against origin or proxy."""

    artifact: str
    ok: bool
    payload: str = ""
    serial: int = 0
    source: str = "origin"
    error: str = ""
    #: failure class: shed | refused | reset | crash | missing
    error_kind: str = ""


@dataclass
class _QueuedRequest:
    artifact: str
    requester: str
    deadline_s: float | None
    on_result: object


class RepoServer:
    """A repository origin with admission control and load shedding."""

    def __init__(
        self,
        name: str,
        *,
        kernel,
        link,
        slots: int = 4,
        queue_limit: int = 16,
    ) -> None:
        if slots < 1:
            raise RepodError(f"server needs at least one slot, got {slots}")
        if queue_limit < 0:
            raise RepodError(f"queue limit must be >= 0, got {queue_limit}")
        self.name = name
        self.kernel = kernel
        self.link = link
        self.slots = slots
        self.queue_limit = queue_limit
        self.up = True
        #: published content: artifact name -> Package, rebuilt by publish()
        self._content: dict[str, object] = {}
        #: release serial, bumped by every publish(); proxies compare their
        #: cached serial against this to decide fresh vs stale.
        self.serial = 0
        #: in-service transfers: id(request) -> (request, EventHandle)
        self._active: dict[int, tuple[_QueuedRequest, object]] = {}
        self._queue: deque[_QueuedRequest] = deque()
        # accounting — the invariant audit checks these sum up exactly
        self.arrivals = 0
        self.served = 0
        self.shed_full = 0
        self.shed_deadline = 0
        self.refused = 0
        self.crashed_inflight = 0
        self.missing = 0

    # -- content ---------------------------------------------------------------

    def publish(self, packages) -> int:
        """Publish a release: newest EVR per name wins; bumps the serial."""
        newest: dict[str, object] = {}
        for pkg in sorted(packages, key=lambda p: (p.name, p.evr)):
            newest[pkg.name] = pkg
        for name in sorted(newest):
            self._content[name] = newest[name]
        self.serial += 1
        return self.serial

    def catalog(self) -> list[str]:
        return sorted(self._content)

    # -- admission -------------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def queued_count(self) -> int:
        return len(self._queue)

    def request(
        self,
        artifact: str,
        *,
        requester: str,
        deadline_s: float | None = None,
        on_result,
    ) -> None:
        """Admit, queue, or shed one fetch; the outcome arrives via callback.

        Failure callbacks (refused / shed / missing) fire synchronously —
        the daemon rejects at the door, before any service time is spent.
        """
        self.arrivals += 1
        req = _QueuedRequest(artifact, requester, deadline_s, on_result)
        if not self.up:
            self.refused += 1
            on_result(
                FetchResult(
                    artifact, False, source=self.name,
                    error=f"origin {self.name} is down", error_kind="refused",
                )
            )
            return
        if artifact not in self._content:
            self.missing += 1
            on_result(
                FetchResult(
                    artifact, False, source=self.name,
                    error=f"no such artifact {artifact!r}", error_kind="missing",
                )
            )
            return
        if deadline_s is not None and self.kernel.now_s >= deadline_s:
            self._shed(req, reason="deadline expired", counter="deadline")
            return
        if len(self._active) < self.slots:
            self._start_service(req)
            return
        if len(self._queue) >= self.queue_limit:
            self._shed(req, reason="queue full", counter="full")
            return
        self._queue.append(req)

    def _shed(self, req: _QueuedRequest, *, reason: str, counter: str) -> None:
        if counter == "full":
            self.shed_full += 1
        else:
            self.shed_deadline += 1
        self.kernel.trace.emit(
            "repod.shed", t_s=self.kernel.now_s, subsystem="repod",
            origin=self.name, artifact=req.artifact, reason=reason,
            queued=len(self._queue),
        )
        req.on_result(
            FetchResult(
                req.artifact, False, source=self.name,
                error=f"origin {self.name} shed request ({reason})",
                error_kind="shed",
            )
        )

    def _start_service(self, req: _QueuedRequest) -> None:
        pkg = self._content[req.artifact]
        took_s = self.link.transfer_time_s(pkg.size_bytes)
        key = id(req)

        def finish() -> None:
            del self._active[key]
            self.served += 1
            req.on_result(
                FetchResult(
                    req.artifact, True, payload=payload_for(pkg),
                    serial=self.serial, source=self.name,
                )
            )
            self._admit()

        handle = self.kernel.after(
            took_s, finish, label=f"repod.serve:{self.name}:{req.artifact}"
        )
        self._active[key] = (req, handle)

    def _admit(self) -> None:
        """Fill freed slots from the queue, shedding expired waiters."""
        while self._queue and len(self._active) < self.slots:
            req = self._queue.popleft()
            if req.deadline_s is not None and self.kernel.now_s >= req.deadline_s:
                self._shed(req, reason="deadline expired", counter="deadline")
                continue
            self._start_service(req)

    # -- fault hooks (origin.crash) --------------------------------------------

    def crash(self) -> None:
        """The daemon dies: every active transfer and queued request fails."""
        self.up = False
        for req, handle in self._active.values():
            self.kernel.cancel(handle)
            self.crashed_inflight += 1
            req.on_result(
                FetchResult(
                    req.artifact, False, source=self.name,
                    error=f"origin {self.name} crashed mid-transfer",
                    error_kind="crash",
                )
            )
        self._active.clear()
        while self._queue:
            req = self._queue.popleft()
            self.crashed_inflight += 1
            req.on_result(
                FetchResult(
                    req.artifact, False, source=self.name,
                    error=f"origin {self.name} crashed", error_kind="crash",
                )
            )

    def recover(self) -> None:
        self.up = True

    # -- audit -----------------------------------------------------------------

    def problems(self) -> list[str]:
        """Leak audit: once a run drains, nothing may still hold a slot."""
        out = []
        if self._active:
            held = ", ".join(sorted(r.artifact for r, _ in self._active.values()))
            out.append(f"origin {self.name}: leaked connection slots ({held})")
        if self._queue:
            out.append(
                f"origin {self.name}: {len(self._queue)} leaked queue entries"
            )
        accounted = (
            self.served + self.shed_full + self.shed_deadline
            + self.refused + self.crashed_inflight + self.missing
            + len(self._active) + len(self._queue)
        )
        lost = self.arrivals - accounted
        if lost != 0:
            out.append(
                f"origin {self.name}: {lost} arrivals never reached a "
                f"terminal state (served/shed/refused/crashed/missing)"
            )
        return out
