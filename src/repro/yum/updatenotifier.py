"""Update notification vs automatic updates (Section 3's tradeoff).

"Updating packages automatically may cause unexpected behavior in a
production environment ... Creating a notification script so that packages
may be reviewed and tested on non-production nodes or systems might be the
more prudent action.  There are several tools that do this such as Yum
updates developed by Duke."

Two policies are modelled:

* :class:`NotifyPolicy` — the prudent one: a periodic check produces a
  report (an "email to the administrator"); nothing changes until an
  administrator applies the updates, optionally after staging them on a
  test host first.
* :class:`AutoApplyPolicy` — updates apply as soon as they are seen.  If a
  published update is marked broken (failure injection via
  ``broken_nevras``), auto-apply takes production hosts down; notify+stage
  catches it on the test host.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import YumError
from ..rpm.transaction import TransactionResult
from .client import UpdateInfo, YumClient

__all__ = [
    "UpdateReport",
    "NotifyPolicy",
    "AutoApplyPolicy",
    "StagedRollout",
]


@dataclass
class UpdateReport:
    """One periodic check's findings (the notification email body)."""

    host: str
    cycle: int
    pending: list[UpdateInfo]

    @property
    def has_updates(self) -> bool:
        return bool(self.pending)

    def render(self) -> str:
        if not self.pending:
            return f"[{self.host} cycle {self.cycle}] no updates pending\n"
        lines = [f"[{self.host} cycle {self.cycle}] {len(self.pending)} update(s) pending:"]
        lines += [f"  {u}" for u in self.pending]
        return "\n".join(lines) + "\n"


class NotifyPolicy:
    """Check-and-report: never mutates the host.

    ``watch`` implements Section 1's per-package subscription ("subscribe if
    they wish to automatically be notified of updates to particular
    packages"): when set, reports cover only those names.  An unwatched
    update still pends on the host; it simply does not page anyone.
    """

    def __init__(self, client: YumClient, *, watch: list[str] | None = None) -> None:
        self.client = client
        self.watch: set[str] = set(watch or ())
        self.cycle = 0
        self.reports: list[UpdateReport] = []

    def subscribe(self, *names: str) -> None:
        """Add packages to the watch list (empty watch = watch everything)."""
        if not names:
            raise YumError("subscribe requires at least one package name")
        self.watch.update(names)

    def unsubscribe(self, *names: str) -> None:
        for name in names:
            self.watch.discard(name)

    def run_cycle(self) -> UpdateReport:
        """One cron firing: check for updates and file a report."""
        self.cycle += 1
        pending = self.client.check_update()
        if self.watch:
            pending = [u for u in pending if u.name in self.watch]
        report = UpdateReport(
            host=self.client.host.name,
            cycle=self.cycle,
            pending=pending,
        )
        self.reports.append(report)
        return report


class AutoApplyPolicy:
    """Check-and-apply: every cycle runs ``yum update`` unattended.

    ``broken_nevras`` marks published updates that malfunction after
    installing (they install fine — the breakage is behavioural, which is
    why validation cannot catch it).  After applying one, the affected
    service is marked failed on the host.
    """

    def __init__(self, client: YumClient, *, broken_nevras: set[str] | None = None):
        self.client = client
        self.broken_nevras = broken_nevras or set()
        self.cycle = 0
        self.applied: list[TransactionResult] = []
        self.incidents: list[str] = []

    def run_cycle(self) -> TransactionResult | None:
        """One cron firing: apply whatever is pending."""
        self.cycle += 1
        result = self.client.update()
        if result is None:
            return None
        self.applied.append(result)
        for _old, new in result.upgraded:
            if new.nevra in self.broken_nevras:
                for service in new.services:
                    self.client.host.services.fail(service)
                    self.incidents.append(
                        f"cycle {self.cycle}: {new.nevra} broke service "
                        f"{service} on {self.client.host.name}"
                    )
        return result


class StagedRollout:
    """Notify + stage: test host first, production only after it survives.

    This is the workflow the paper recommends: review the notification,
    apply on a non-production node, check its services, then roll forward.
    """

    def __init__(
        self,
        test_client: YumClient,
        production_clients: list[YumClient],
        *,
        broken_nevras: set[str] | None = None,
    ) -> None:
        if not production_clients:
            raise YumError("staged rollout needs at least one production host")
        self.test = AutoApplyPolicy(test_client, broken_nevras=broken_nevras)
        self.production = production_clients
        self.broken_nevras = broken_nevras or set()
        self.rolled_out: list[str] = []
        self.held_back: list[str] = []

    def run_cycle(self) -> dict[str, object]:
        """Stage on test; promote to production only if test stays healthy."""
        result = self.test.run_cycle()
        if result is None:
            return {"staged": None, "promoted": False}
        test_host = self.test.client.host
        healthy = all(
            test_host.services.get(s).state.value != "failed"
            for _old, new in result.upgraded
            for s in new.services
        )
        if not healthy:
            self.held_back.extend(new.nevra for _o, new in result.upgraded)
            return {"staged": result, "promoted": False}
        for client in self.production:
            client.update()
        self.rolled_out.extend(new.nevra for _o, new in result.upgraded)
        return {"staged": result, "promoted": True}
