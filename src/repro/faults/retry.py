"""Retry/backoff policies and the retry budget.

Campus-cluster recovery loops (PXE re-boot, mirror re-sync, GridFTP
re-transfer, clush sweeps, clients pulling a release) share one shape:
try, fail, wait an exponentially growing, jittered delay, try again, give
up at an attempt cap or a simulated-time deadline.  :class:`RetryPolicy`
is that shape as data and :meth:`RetryPolicy.next_delay` is the one
decision; :func:`call_with_retry` spends its delays *on the kernel*
(``kernel.run_until``, so co-simulated events fire inside the wait) and
publishes ``fault.retry`` / ``fault.giveup``; jitter is the kernel's RNG.

:class:`RetryBudget` guards the *aggregate*: a token bucket shared by all
of one client's retry loops, so a degraded dependency sees the retry load
decay (tokens run out, new retries are denied and fail fast) instead of
every caller independently backing off into a synchronized storm.  SRE
folklore calls this a retry budget; repro.repod's update-storm scenario
is the workload that motivates it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..errors import FaultError, HeadnodeCrashError, ReproError, RetryExhaustedError

__all__ = ["RetryPolicy", "RetryBudget", "call_with_retry"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative exponential-backoff-with-jitter retry behaviour.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    try plus two retries.  ``deadline_s`` is a total simulated-time budget
    measured from the first attempt; a retry that would land past it is
    not scheduled even if attempts remain.  ``jitter`` is the +/- fraction
    applied to each delay (0 disables it; determinism is preserved either
    way because the randomness comes from the kernel RNG).
    """

    max_attempts: int = 4
    base_delay_s: float = 1.0
    multiplier: float = 2.0
    max_delay_s: float = 60.0
    jitter: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise FaultError("delays must be non-negative")
        if self.multiplier < 1:
            raise FaultError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter < 1:
            raise FaultError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise FaultError("deadline must be positive")

    def delay_for(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise FaultError(f"attempt must be >= 1, got {attempt}")
        try:
            growth = self.base_delay_s * self.multiplier ** (attempt - 1)
        except OverflowError:  # past the largest float, so past the cap
            growth = self.max_delay_s if self.base_delay_s else 0.0
        delay = min(self.max_delay_s, growth)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def next_delay(
        self, attempt: int, started_s: float, now_s: float,
        rng: random.Random | None, *,
        budget: "RetryBudget | None" = None, op: str = "retry",
    ) -> tuple[float, str | None]:
        """The one retry decision, after attempt ``attempt`` failed at ``now_s``.

        ``(delay, None)`` retries after ``delay``; ``(delay, reason)``
        stops.  In order: draw the delay (always, so a stop consumes the
        same RNG draw as a retry); stop at the attempt cap; stop at once if
        the retry would land after ``started_s + deadline_s``; stop if the
        ``budget`` denies a token (asked last, so a refused retry is free).
        """
        delay = self.delay_for(attempt, rng)
        if attempt >= self.max_attempts:
            return delay, "attempts exhausted"
        deadline = self.deadline_s
        if deadline is not None and now_s + delay > started_s + deadline:
            return delay, "deadline exceeded"
        if budget is not None and not budget.try_spend(now_s, op=op):
            return delay, "retry budget exhausted"
        return delay, None


class RetryBudget:
    """A token bucket that caps how many retries a client may spend.

    The bucket starts full at ``capacity`` tokens and refills continuously
    at ``refill_per_s``; each retry costs one token (:meth:`try_spend`).
    When the bucket is empty the retry is *denied* — the caller gives up
    immediately instead of adding another attempt to a dependency that is
    already drowning.  Individual backoff (:class:`RetryPolicy`) shapes
    *when* a retry lands; the budget bounds *how many* land at all, which
    is what turns a fleet-wide outage into decaying load instead of a
    synchronized retry storm.

    Wire a kernel in and every denial is published as a
    ``repod.retry_budget`` trace event with ``allowed: false`` (the budget
    was built for the XNIT repository service, but it is generic); a grant
    is not traced here, because the retry it pays for is: a budgeted
    :class:`~repro.repod.RepoClient` names the ``budget`` and the
    ``tokens`` left on its ``fault.retry`` record.  Without a kernel the
    bucket is pure bookkeeping.  Refill is computed lazily from elapsed
    simulated time, so the bucket never schedules events of its own.
    """

    def __init__(
        self,
        *,
        capacity: float = 10.0,
        refill_per_s: float = 0.1,
        owner: str = "retry-budget",
        kernel=None,
    ) -> None:
        if capacity <= 0:
            raise FaultError(f"budget capacity must be positive, got {capacity}")
        if refill_per_s < 0:
            raise FaultError(
                f"refill rate must be non-negative, got {refill_per_s}"
            )
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self.owner = owner
        self.kernel = kernel
        self._tokens = float(capacity)
        self._updated_s = 0.0 if kernel is None else kernel.now_s
        self.granted = 0
        self.denied = 0

    def tokens(self, now_s: float) -> float:
        """The balance at ``now_s`` (refills lazily; never rewinds)."""
        if now_s > self._updated_s:
            self._tokens = min(
                self.capacity,
                self._tokens + (now_s - self._updated_s) * self.refill_per_s,
            )
            self._updated_s = now_s
        return self._tokens

    def try_spend(self, now_s: float, *, op: str = "retry") -> bool:
        """Spend one token for a retry of ``op``; False = retry denied."""
        balance = self.tokens(now_s)
        if balance >= 1.0:
            self._tokens = balance - 1.0
            self.granted += 1
            return True
        self.denied += 1
        if self.kernel is not None:
            self.kernel.trace.emit(
                "repod.retry_budget", t_s=now_s, subsystem="faults",
                owner=self.owner, op=op, allowed=False,
                tokens=round(balance, 6),
            )
        return False

    def state_dict(self) -> dict[str, float | int | str]:
        return {
            "owner": self.owner,
            "capacity": self.capacity,
            "refill_per_s": self.refill_per_s,
            "tokens": self._tokens,
            "updated_s": self._updated_s,
            "granted": self.granted,
            "denied": self.denied,
        }


def call_with_retry(
    kernel,
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    op: str,
    subsystem: str = "faults",
    retry_on: tuple[type[BaseException], ...] = (ReproError,),
) -> T:
    """Run ``fn`` under ``policy`` on a :class:`~repro.sim.SimKernel`.

    Each failure asks :meth:`RetryPolicy.next_delay` whether to go on.  A
    retry emits ``fault.retry`` and spends its backoff as simulated time
    (co-simulated events due inside the wait fire first); a stop emits
    ``fault.giveup`` at once and raises
    :class:`~repro.errors.RetryExhaustedError` chaining the last failure.
    """
    started_s = kernel.now_s
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except HeadnodeCrashError:
            # A head-node crash is control flow, not a transient failure:
            # the machine running this retry loop just died, so no retry,
            # no backoff, no giveup event — the exception must unwind the
            # whole run untouched (recovery is checkpoint + journal).
            raise
        except retry_on as exc:
            delay, stop = policy.next_delay(
                attempt, started_s, kernel.now_s, kernel.rng
            )
            if stop is not None:
                kernel.trace.emit(
                    "fault.giveup", t_s=kernel.now_s, subsystem=subsystem,
                    op=op, attempts=attempt,
                )
                raise RetryExhaustedError(
                    f"{op} failed after {attempt} attempt(s) ({stop}): {exc}",
                    attempts=attempt,
                    last_error=exc,
                ) from exc
            kernel.trace.emit(
                "fault.retry", t_s=kernel.now_s, subsystem=subsystem,
                op=op, attempt=attempt, delay_s=delay,
            )
            kernel.run_until(kernel.now_s + delay)
