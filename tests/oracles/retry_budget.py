"""The every-decision retry budget, kept as a reference oracle.

``repro.faults.RetryBudget.try_spend`` traces only a denial; a granted
retry is recorded once, as the ``budget`` and ``tokens`` fields of the
``fault.retry`` record the client emits next.  Before that, every decision,
grant or denial, was its own ``repod.retry_budget`` record, and the
client's ``fault.retry`` carried no budget fields.  :func:`try_spend` and
:func:`maybe_retry` are those bodies unchanged (patch both in for the old
path), and :func:`expand_grants` undoes the fold on a trace, so
``tests/test_repod.py`` can require the two traces to agree record for
record.
"""

from __future__ import annotations

__all__ = ["try_spend", "maybe_retry", "expand_grants"]


def try_spend(self, now_s: float, *, op: str = "retry") -> bool:
    """Oracle for :meth:`RetryBudget.try_spend`: one record per decision."""
    balance = self.tokens(now_s)
    allowed = balance >= 1.0
    if allowed:
        self._tokens = balance - 1.0
        self.granted += 1
    else:
        self.denied += 1
    if self.kernel is not None:
        self.kernel.trace.emit(
            "repod.retry_budget", t_s=now_s, subsystem="faults",
            owner=self.owner, op=op, allowed=allowed,
            tokens=round(self._tokens, 6),
        )
    return allowed


def maybe_retry(self, record, result, queue) -> None:
    """Oracle for ``RepoClient._maybe_retry``: a ``fault.retry`` without
    budget fields, the budget having traced its own grant."""
    now_s = self.kernel.now_s
    op = f"{self.name}:{record.artifact}"
    delay_s, stop = self.policy.next_delay(
        record.attempts, record.started_s, now_s, self.kernel.rng,
        budget=self.budget, op=op,
    )
    if stop is not None:
        self._finish(record, result, queue)
        return
    self.kernel.trace.emit(
        "fault.retry", t_s=now_s, subsystem="repod",
        op=op, attempt=record.attempts, delay_s=round(delay_s, 6),
    )
    self.kernel.at(
        now_s + delay_s, lambda: self._attempt(record, queue),
        label=f"repod.retry:{op}",
    )


def expand_grants(events) -> list[tuple]:
    """``(t, kind, sub, data)`` per record, each budgeted ``fault.retry``
    preceded by the grant record it folds and stripped of the two fields."""
    out = []
    for event in events:
        data = dict(event.data)
        if event.kind == "fault.retry" and "budget" in data:
            owner, tokens = data.pop("budget"), data.pop("tokens")
            out.append((event.t_s, "repod.retry_budget", "faults", {
                "owner": owner, "op": data["op"], "allowed": True,
                "tokens": tokens,
            }))
        out.append((event.t_s, event.kind, event.subsystem, data))
    return out
