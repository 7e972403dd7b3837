"""The campus sync client: polite retries under a token-bucket budget.

:class:`RepoClient` walks a list of artifacts (the security release) and
fetches each through its campus :class:`~repro.repod.proxy.SiteProxy`.
Failures are retried by :meth:`~repro.faults.RetryPolicy.next_delay`
(the policy's ``deadline_s`` is the client's patience per artifact) — but
every retry must be *paid for* from a shared :class:`~repro.faults.RetryBudget`.
When the origin is down and every campus is failing at once, the budget
is what turns a retry storm (load multiplies exactly when capacity
vanishes) into load *decay*: clients that can't afford a retry record a
terminal failure and stand down until the next sync.

Every artifact reaches **exactly one** terminal state, emitted as a
``repod.request`` trace event with outcome ``ok`` (fresh bytes),
``stale`` (the proxy degraded gracefully), or ``failed`` — the
exactly-once property is chaos invariant 8.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import RepodError

__all__ = ["RepoClient", "RequestRecord"]


@dataclass(slots=True)
class RequestRecord:
    """One artifact's journey: attempts made and the terminal outcome.

    ``req`` is the ``client:artifact`` id, built once: the ``op`` of every
    retry and budget decision and the ``req`` of the terminal record.
    """

    artifact: str
    started_s: float
    req: str = ""
    attempts: int = 0
    outcome: str = ""  # ok | stale | failed
    source: str = ""
    finished_s: float = 0.0


class RepoClient:
    """One campus workstation syncing a release through the proxy tier."""

    def __init__(
        self,
        name: str,
        proxy,
        *,
        kernel,
        policy,
        budget=None,
    ) -> None:
        self.name = name
        self.proxy = proxy
        self.kernel = kernel
        self.policy = policy
        self.budget = budget
        self.records: dict[str, RequestRecord] = {}
        self.done = False

    # -- public API ---------------------------------------------------------------

    def sync(self, artifacts, *, at_s: float = 0.0) -> None:
        """Schedule a sequential sync of ``artifacts`` starting at ``at_s``."""
        queue = deque(artifacts)
        if not queue:
            self.done = True
            return
        self.kernel.at(
            at_s, lambda: self._next_artifact(queue),
            label=f"repod.sync:{self.name}",
        )

    def _next_artifact(self, queue) -> None:
        if not queue:
            self.done = True
            return
        artifact = queue.popleft()
        record = RequestRecord(
            artifact=artifact, started_s=self.kernel.now_s,
            req=f"{self.name}:{artifact}",
        )
        self.records[artifact] = record
        self._attempt(record, queue)

    # -- one attempt + the retry ladder ---------------------------------------------

    def _attempt(self, record: RequestRecord, queue) -> None:
        record.attempts += 1
        deadline_s = self.policy.deadline_s

        def on_result(result) -> None:
            if result.ok:
                self._finish(record, result, queue)
            else:
                self._maybe_retry(record, result, queue)

        self.proxy.request(
            record.artifact,
            requester=f"{self.name}#{record.attempts}",
            deadline_s=(
                None if deadline_s is None else record.started_s + deadline_s
            ),
            on_result=on_result,
        )

    def _maybe_retry(self, record: RequestRecord, result, queue) -> None:
        now_s = self.kernel.now_s
        op = record.req
        budget = self.budget
        delay_s, stop = self.policy.next_delay(
            record.attempts, record.started_s, now_s, self.kernel.rng,
            budget=budget, op=op,
        )
        if stop is not None:
            # Out of attempts or patience, or the bucket is dry (the
            # storm-brake doing its job): a terminal failure, not a pile-on.
            self._finish(record, result, queue)
            return
        # A granted retry is recorded here, once: who paid, and what is left.
        grant = {} if budget is None else {
            "budget": budget.owner, "tokens": round(budget.tokens(now_s), 6),
        }
        self.kernel.trace.emit(
            "fault.retry", t_s=now_s, subsystem="repod",
            op=op, attempt=record.attempts, delay_s=round(delay_s, 6), **grant,
        )
        self.kernel.at(
            now_s + delay_s, lambda: self._attempt(record, queue),
            label=f"repod.retry:{op}",
        )

    def _finish(self, record: RequestRecord, result, queue) -> None:
        if record.outcome:
            raise RepodError(
                f"client {self.name}: duplicate terminal state for "
                f"{record.artifact!r} ({record.outcome} then again)"
            )
        if result.ok:
            record.outcome = "stale" if result.source.endswith("-stale") else "ok"
        else:
            record.outcome = "failed"
        record.source = result.source
        record.finished_s = self.kernel.now_s
        self.kernel.trace.emit(
            "repod.request", t_s=self.kernel.now_s, subsystem="repod",
            req=record.req, client=self.name,
            artifact=record.artifact, outcome=record.outcome,
            source=record.source,
            elapsed_s=round(record.finished_s - record.started_s, 6),
        )
        self._next_artifact(queue)

    # -- reporting -------------------------------------------------------------------

    def outcomes(self) -> dict[str, str]:
        return {name: rec.outcome for name, rec in sorted(self.records.items())}

    def problems(self) -> list[str]:
        out = []
        if not self.done:
            out.append(f"client {self.name}: sync never completed")
        for name, rec in sorted(self.records.items()):
            if not rec.outcome:
                out.append(
                    f"client {self.name}: {name!r} has no terminal outcome"
                )
        return out
