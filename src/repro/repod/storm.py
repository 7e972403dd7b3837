"""The update storm: every Table 3 campus syncs a security release at once.

This is the workload the whole package exists for.  A security advisory
lands, the XNIT origin publishes the fixed packages, and every campus —
the :data:`~repro.core.deployments.TABLE3_SITES` fleet, workshop-scale
clients per campus — starts syncing within minutes of each other.  Then
the interesting part: :class:`~repro.faults.FaultInjector` kills the
origin mid-storm (``origin.crash``) and resets proxy uplinks
(``conn.reset``) while clients are retrying.

Two client styles, selected by ``governed``:

* **governed** (the repro.repod design): exponential backoff with jitter
  *plus* a per-campus token-bucket :class:`~repro.faults.RetryBudget` —
  when the bucket runs dry, clients stop retrying instead of piling on.
* **naive** (the ablation): the classic pre-SRE client — short, barely
  growing retry intervals, many attempts, no budget.  Every failure
  multiplies load exactly when the origin has none to give; the bench
  measures the resulting retry-storm collapse as origin arrivals and
  retry counts.

:func:`repod_confluence_problems` is chaos invariant 8: every request
reaches a terminal state exactly once, no server slot or queue entry
leaks, no proxy holds an in-flight fetch after the drain, and — when the
offered load is known — goodput stays above the floor even while the
origin sheds.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

from ..core.deployments import TABLE3_SITES
from ..errors import RepodError
from ..faults.inject import FaultInjector
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.retry import RetryBudget, RetryPolicy
from ..rpm.package import Package
from ..sim import SimKernel, audit_events
from ..yum.mirror import MirrorLink, RepoMirror
from ..yum.repository import Repository
from .client import RepoClient
from .proxy import SiteProxy
from .server import RepoServer

__all__ = [
    "StormReport",
    "UpdateStormScenario",
    "repod_confluence_problems",
]

#: Safety bound on kernel events for one storm run; a storm that needs
#: more than this has diverged (e.g. an unbounded retry loop).
_MAX_EVENTS = 2_000_000

#: The release being synced: name -> size in bytes.  Small enough that a
#: healthy origin clears the storm quickly; the drama comes from faults.
_V1_ARTIFACTS: dict[str, int] = {
    "ganglia-core": 3 * 1024 * 1024,
    "openmpi": 9 * 1024 * 1024,
    "openssl": 2 * 1024 * 1024,
    "torque-maui": 5 * 1024 * 1024,
}

#: Packages that exist only in the security release — no v1 copy anywhere,
#: so a proxy cannot serve them stale while the origin is down.  These are
#: what make the crash window hurt (and what the retry ladder is for): the
#: size makes each fetch occupy an origin slot long enough that the
#: post-recovery rush genuinely contends for admission.
_NEW_ARTIFACTS: dict[str, int] = {
    "openssl-fips-hotfix": 12 * 1024 * 1024,
}


#: The storm's timeline, in simulated seconds: clients start inside
#: ``[_STORM_START_S, _STORM_START_S + _STAGGER_S)`` and give each artifact
#: ``_PATIENCE_S``; the origin is down for ``_CRASH_DURATION_S`` from
#: ``_CRASH_AT_S``; the two largest campuses' uplinks reset connections
#: with probability ``_FLAP_LOSS_PROB`` for ``_FLAP_DURATION_S`` from
#: ``_FLAP_AT_S`` (while clients are still retrying the crash).
_STORM_START_S = 100.0
_STAGGER_S = 240.0
_PATIENCE_S = 1200.0
_CRASH_AT_S = 105.0
_CRASH_DURATION_S = 180.0
_FLAP_AT_S = 220.0
_FLAP_DURATION_S = 90.0
_FLAP_LOSS_PROB = 0.6


def _slug(site: str) -> str:
    """'Montana State University' -> 'montana-state-university'."""
    return re.sub(r"[^a-z0-9]+", "-", site.lower()).strip("-")


@dataclass
class StormReport:
    """What one storm run did, in numbers the bench and tests assert on."""

    seed: int
    governed: bool
    campuses: int
    clients: int
    offered: int
    ok: int = 0
    stale: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    origin_arrivals: int = 0
    origin_served: int = 0
    origin_shed_full: int = 0
    origin_shed_deadline: int = 0
    origin_refused: int = 0
    proxy_hits: int = 0
    proxy_misses: int = 0
    proxy_coalesced: int = 0
    proxy_stale_served: int = 0
    uplink_resets: int = 0
    retries: int = 0
    budget_granted: int = 0
    budget_denied: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def goodput(self) -> int:
        """Requests that ended with usable bytes (fresh or stale)."""
        return self.ok + self.stale

    @property
    def goodput_ratio(self) -> float:
        return self.goodput / self.offered if self.offered else 1.0

    def state_dict(self) -> dict[str, object]:
        state = asdict(self)
        state["elapsed_s"] = round(self.elapsed_s, 3)
        state["goodput_ratio"] = round(self.goodput_ratio, 4)
        return state


#: Governed clients: exponential backoff, jittered, with the per-artifact
#: patience window as the deadline.
GOVERNED_POLICY = RetryPolicy(
    max_attempts=7, base_delay_s=15.0, multiplier=2.0, max_delay_s=120.0,
    jitter=0.2, deadline_s=_PATIENCE_S,
)

#: Naive clients: hammer every ~5 s, many attempts, no budget.  This is
#: the ablation baseline — what update clients looked like before anyone
#: thought about the server.
NAIVE_POLICY = RetryPolicy(
    max_attempts=40, base_delay_s=5.0, multiplier=1.0, max_delay_s=5.0,
    jitter=0.2, deadline_s=_PATIENCE_S,
)


class UpdateStormScenario:
    """Build, run, and audit one synchronized-update storm."""

    def __init__(
        self,
        *,
        seed: int = 2015,
        campuses: int | None = None,
        clients_per_campus: int = 6,
        governed: bool = True,
        slots: int = 2,
        queue_limit: int = 2,
        budget_capacity: float = 14.0,
        budget_refill_per_s: float = 0.04,
        goodput_floor: float = 0.9,
    ) -> None:
        names = [_slug(site.site) for site in TABLE3_SITES]
        if campuses is not None:
            if not 1 <= campuses <= len(names):
                raise RepodError(
                    f"campuses must be in 1..{len(names)}, got {campuses}"
                )
            names = names[:campuses]
        if clients_per_campus < 1:
            raise RepodError(
                f"need at least one client per campus, got {clients_per_campus}"
            )
        self.seed = seed
        self.campus_names = names
        self.clients_per_campus = clients_per_campus
        self.governed = governed
        self.slots = slots
        self.queue_limit = queue_limit
        self.budget_capacity = budget_capacity
        self.budget_refill_per_s = budget_refill_per_s
        self.goodput_floor = goodput_floor
        # populated by build()/run()
        self.kernel: SimKernel | None = None
        self.origin = None
        self.mirror = None
        self.proxies: list[SiteProxy] = []
        self.clients: list[RepoClient] = []
        self.budgets: list[RetryBudget] = []
        self.injector: FaultInjector | None = None

    # -- construction ------------------------------------------------------------

    def build(self) -> None:
        """Assemble origin, proxy tier, clients, and the fault plan."""
        kernel = self.kernel = SimKernel(seed=self.seed)

        upstream = Repository("xnit", name="XNIT upstream")
        for name in sorted(_V1_ARTIFACTS):
            upstream.add(
                Package(name, "1.0", release="1", size_bytes=_V1_ARTIFACTS[name])
            )
        self.mirror = RepoMirror(
            upstream,
            MirrorLink(bandwidth_bytes_s=2 * 1024 * 1024, latency_s=0.08),
            repo_id="xnit-origin",
            kernel=kernel,
        )
        self.mirror.sync()
        self.origin = RepoServer(
            self.mirror.local.repo_id, kernel=kernel, link=self.mirror.link,
            slots=self.slots, queue_limit=self.queue_limit,
        )
        self.origin.publish(self.mirror.local.all_packages())

        self.proxies = [
            SiteProxy(f"proxy-{name}", self.origin, kernel=kernel)
            for name in self.campus_names
        ]
        # Prewarm: every campus already carries the previous release (the
        # steady state before the advisory lands).
        for proxy in self.proxies:
            for artifact in self.origin.catalog():
                result = proxy.fetch_blocking(artifact, requester="prewarm")
                if not result.ok:
                    raise RepodError(
                        f"prewarm failed for {proxy.name}/{artifact}: "
                        f"{result.error}"
                    )

        # The security release: bump every artifact, add the hotfix that
        # has no prior version (so it cannot be served stale).
        for name in sorted(_V1_ARTIFACTS):
            upstream.add(
                Package(name, "1.1", release="1", size_bytes=_V1_ARTIFACTS[name])
            )
        for name in sorted(_NEW_ARTIFACTS):
            upstream.add(
                Package(name, "1.0", release="1", size_bytes=_NEW_ARTIFACTS[name])
            )
        self.mirror.sync()
        serial = self.origin.publish(self.mirror.local.all_packages())
        for proxy in self.proxies:
            proxy.notice_release(serial)

        # Clients: per-campus retry budget shared by that campus's fleet
        # (governed mode only), start times staggered across the campus
        # with seeded jitter.
        release = self.origin.catalog()
        policy = GOVERNED_POLICY if self.governed else NAIVE_POLICY
        self.clients = []
        self.budgets = []
        for proxy, campus in zip(self.proxies, self.campus_names):
            budget = None
            if self.governed:
                budget = RetryBudget(
                    capacity=self.budget_capacity,
                    refill_per_s=self.budget_refill_per_s,
                    owner=f"budget-{campus}", kernel=kernel,
                )
                self.budgets.append(budget)
            for i in range(self.clients_per_campus):
                client = RepoClient(
                    f"{campus}-c{i:02d}", proxy, kernel=kernel,
                    policy=policy, budget=budget,
                )
                offset = (
                    _STAGGER_S * i / self.clients_per_campus
                    + kernel.rng.random() * _STAGGER_S / self.clients_per_campus
                )
                client.sync(release, at_s=_STORM_START_S + offset)
                self.clients.append(client)

        # Mid-storm faults: the origin dies, and the two largest campuses'
        # uplinks start resetting connections while it is down.
        flapped = [p.name for p in self.proxies[:2]]
        plan = FaultPlan(
            "update-storm",
            tuple(
                [
                    FaultSpec(
                        kind=FaultKind.ORIGIN_CRASH, target=self.origin.name,
                        at_s=_CRASH_AT_S, duration_s=_CRASH_DURATION_S,
                    ),
                ]
                + [
                    FaultSpec(
                        kind=FaultKind.CONN_RESET, target=name,
                        at_s=_FLAP_AT_S, duration_s=_FLAP_DURATION_S,
                        params={"loss_prob": _FLAP_LOSS_PROB},
                    )
                    for name in flapped
                ]
            ),
        )
        self.injector = FaultInjector(
            kernel, origins=[self.origin], proxies=self.proxies
        )
        self.injector.apply(plan)

    # -- execution ---------------------------------------------------------------

    def run(self) -> StormReport:
        """Build (if needed), drive to quiescence, and audit."""
        if self.kernel is None:
            self.build()
        kernel = self.kernel
        fired = 0
        while kernel.step():
            fired += 1
            if fired > _MAX_EVENTS:
                raise RepodError(
                    f"storm diverged: {fired} events without quiescing"
                )
        report = self._report()
        report.problems = repod_confluence_problems(
            kernel.trace.events,
            servers=[self.origin],
            proxies=self.proxies,
            clients=self.clients,
            offered=report.offered,
            goodput_floor=self.goodput_floor if self.governed else None,
        )
        return report

    def _report(self) -> StormReport:
        origin = self.origin
        report = StormReport(
            seed=self.seed,
            governed=self.governed,
            campuses=len(self.campus_names),
            clients=len(self.clients),
            offered=sum(len(c.records) for c in self.clients),
            elapsed_s=self.kernel.now_s,
            origin_arrivals=origin.arrivals,
            origin_served=origin.served,
            origin_shed_full=origin.shed_full,
            origin_shed_deadline=origin.shed_deadline,
            origin_refused=origin.refused,
            retries=self.kernel.trace.count("fault.retry"),
        )
        for client in self.clients:
            for outcome in client.outcomes().values():
                if outcome == "ok":
                    report.ok += 1
                elif outcome == "stale":
                    report.stale += 1
                else:
                    report.failed += 1
        for proxy in self.proxies:
            report.proxy_hits += proxy.hits
            report.proxy_misses += proxy.misses
            report.proxy_coalesced += proxy.coalesced
            report.proxy_stale_served += proxy.stale_served
            report.uplink_resets += proxy.uplink_resets
        for budget in self.budgets:
            report.budget_granted += budget.granted
            report.budget_denied += budget.denied
        return report


def repod_confluence_problems(
    events,
    *,
    servers=(),
    proxies=(),
    clients=(),
    offered: int | None = None,
    goodput_floor: float | None = None,
) -> list[str]:
    """Audit a trace (plus optional live components) for repod confluence.

    Invariants (the chaos harness's invariant 8):

    * every ``repod.request`` id is terminal **exactly once** — no request
      vanishes, none double-finishes;
    * no server leaks connection slots or queue entries, no proxy leaks
      in-flight fetches or undelivered responses, no client stops short
      (checked through the components' own ``problems()`` audits);
    * when the offered load is known, goodput (``ok`` + ``stale``) stays
      at or above ``goodput_floor`` of it — load shedding is allowed to
      refuse work, not to destroy the service's output.

    ``events`` may be :class:`~repro.sim.TraceEvent` objects or decoded
    JSONL dicts.  With no ``repod.*`` events and no components wired the
    audit is vacuous (the chaos harness calls it on every run).
    """
    problems: list[str] = []
    terminals: dict[str, int] = {}
    outcomes: dict[str, int] = {"ok": 0, "stale": 0, "failed": 0}
    for _, data, _ in audit_events(events, {"repod.request": ("req", "outcome")}):
        req = data["req"]
        terminals[req] = terminals.get(req, 0) + 1
        outcomes[data["outcome"]] = outcomes.get(data["outcome"], 0) + 1
    for req in sorted(terminals):
        if terminals[req] > 1:
            problems.append(
                f"request {req} reached a terminal state {terminals[req]} times"
            )
    for server in servers:
        problems.extend(server.problems())
    for proxy in proxies:
        problems.extend(proxy.problems())
    for client in clients:
        problems.extend(client.problems())
    if offered is not None:
        total = sum(terminals.values())
        if total != offered:
            problems.append(
                f"offered {offered} request(s) but {total} reached a "
                f"terminal state"
            )
        if goodput_floor is not None and offered:
            goodput = outcomes["ok"] + outcomes["stale"]
            if goodput < goodput_floor * offered:
                problems.append(
                    f"goodput {goodput}/{offered} "
                    f"({goodput / offered:.1%}) below the "
                    f"{goodput_floor:.0%} floor"
                )
    return problems
