"""The Ganglia aggregator: one gmetad tree over rack leaves, 6 to 10k+ hosts.

Polling every gmond from one loop is O(hosts) python objects touched per
period, which is exactly the per-node overhead ROADMAP item 1 bans from
fleet hot paths.  Real Ganglia deployments scale by federating: leaf
gmetads summarize a rack each, and the root gmetad aggregates *summaries*,
not hosts.  This module is that shape, and the only aggregator there is:

* :class:`FleetRack` — a leaf that summarizes one rack straight off the
  shared :class:`~repro.fleet.FleetTable` columns (power, responsiveness,
  cores, load, memory), no per-host objects at all.  It watches only its
  own rows (:meth:`~repro.fleet.FleetTable.watch`); when none of them was
  written since the last cycle the cached summary is reused — an idle
  rack costs O(1) per cycle whatever the rest of the fleet does;
* :class:`GmondRack` — a leaf over real :class:`Gmond` agents: every
  sample is archived in a per-(host, metric) :class:`Rrd` and published
  as ``metric.sample``, and the leaf renders the dashboard rows that
  stand in for the Ganglia web UI the paper's training goals include;
* :class:`GmetadTree` — the root: merges per-rack ``ClusterSummary``
  deltas into running totals, emitting one ``monitor.rack`` event per
  *changed* rack and one ``monitor.rollup`` per cycle.  Host-level
  questions (``gmond_for``, ``rrd_for``, ``down_hosts``,
  ``render_dashboard``) are answered by its :class:`GmondRack` leaves.

Polling is clocked by a :class:`~repro.sim.SimKernel`:
:meth:`GmetadTree.poll_cycle` advances shared simulated time by one
period (firing any co-simulated events due on the way), and
:meth:`GmetadTree.start_sampling` registers the poll as a periodic kernel
event so monitoring interleaves with scheduler and MPI activity on one
timeline.

Dead-host detection lives at the leaves: consecutive missed heartbeats
(an unresponsive gmond, or a zeroed ``responsive`` column flag) declare
the host dead and emit ``monitor.host_dead``.

:func:`monitor_fleet` wires a provisioned cluster into :class:`FleetRack`
leaves in one call; :func:`~repro.monitoring.monitor_cluster` wires one
into a single :class:`GmondRack`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ReproError
from ..fleet import FleetTable
from ..sim import PeriodicEvent, SimKernel
from .gmond import Gmond
from .metrics import CORE_METRICS, MonitoringError
from .rrd import Rrd, RrdPoint

__all__ = [
    "POLL_PERIOD_S",
    "ClusterSummary",
    "FleetRack",
    "GmondRack",
    "GmetadTree",
    "monitor_fleet",
]

#: Seconds between gmetad polls: each cycle advances the kernel this far
#: and fills one RRD slot.
POLL_PERIOD_S = 15.0
#: Consecutive missed heartbeats after which a leaf declares a host dead.
DEAD_AFTER_MISSES = 3
#: Fleet-table rows per :class:`FleetRack` leaf in :func:`monitor_fleet`.
HOSTS_PER_RACK = 48


@dataclass(frozen=True)
class ClusterSummary:
    """One aggregated snapshot of a rack, or of the whole cluster.

    ``hosts_dead`` counts hosts whose gmond has missed enough consecutive
    heartbeats to be declared dead — the degraded-but-still-reporting
    state a partially failed cluster settles into.
    """

    timestamp_s: float
    hosts_total: int
    hosts_up: int
    total_cores: int
    load_total: float
    mem_total_kb: float
    mem_free_kb: float
    failed_services: int
    hosts_dead: int = 0

    @property
    def hosts_down(self) -> int:
        return self.hosts_total - self.hosts_up

    @property
    def load_fraction(self) -> float:
        return self.load_total / self.total_cores if self.total_cores else 0.0

    @property
    def degraded(self) -> bool:
        """True when any host is down or declared dead."""
        return self.hosts_down > 0 or self.hosts_dead > 0


def _signature(s: ClusterSummary) -> tuple:
    """Everything that makes two cycles' summaries *different* — all
    fields except the timestamp."""
    return (
        s.hosts_total,
        s.hosts_up,
        s.total_cores,
        s.load_total,
        s.mem_total_kb,
        s.mem_free_kb,
        s.failed_services,
        s.hosts_dead,
    )


def _count_miss(
    missed: dict, dead: set, key, host: str, timestamp_s: float, trace
) -> bool:
    """Count one missed heartbeat for ``key`` (a leaf's own host key).

    An unresponsive host is a missed heartbeat, not a monitoring crash:
    the leaf degrades its summary and, at :data:`DEAD_AFTER_MISSES`
    consecutive misses, declares the host dead — once, with a
    ``monitor.host_dead`` event.
    Returns True while the counter is still below the limit, i.e. while
    the leaf's state will change next cycle even if nothing else does.
    """
    count = missed.get(key, 0) + 1
    missed[key] = count
    if count < DEAD_AFTER_MISSES:
        return True
    if key not in dead:
        dead.add(key)
        trace.emit(
            "monitor.host_dead", t_s=timestamp_s, subsystem="monitoring",
            host=host, missed=count,
        )
    return False


class FleetRack:
    """One rack summarized as fleet-table column scans.

    ``indices`` are the rack's row indices in the shared table.  A host is
    *up* when powered; an unresponsive host is a missed heartbeat and is
    declared dead after :data:`DEAD_AFTER_MISSES` consecutive misses.  The
    memory model matches :class:`Gmond`: free memory degrades with load,
    floored at 10%.  The rack watches its own rows through the table's
    change feed and rescans them only when one was written or a heartbeat
    counter is mid-count.
    """

    def __init__(self, name: str, fleet: FleetTable, indices: list[int]) -> None:
        self.name = name
        self.fleet = fleet
        self.indices = list(indices)
        self._missed: dict[int, int] = {}
        self._dead: set[int] = set()
        self._last: ClusterSummary | None = None
        #: this rack's rows written since the last rescan
        self._changed = fleet.watch(self.indices)
        #: True when no miss counter is mid-count (every unresponsive host
        #: is already declared dead) — the precondition for reusing the
        #: last summary, since a pending counter changes state even when
        #: the rows do not.
        self._settled = True

    def hosts(self) -> list[str]:
        fleet = self.fleet
        return [fleet.names[i] for i in self.indices if fleet.alive[i]]

    def dead_hosts(self) -> list[str]:
        return sorted(self.fleet.names[i] for i in self._dead)

    def state_dict(self) -> dict[str, object]:
        return {"hosts": len(self.hosts()), "dead": self.dead_hosts()}

    def sample(self, timestamp_s: float, trace) -> tuple[ClusterSummary, bool]:
        """Summarize the rack; returns ``(summary, changed_since_last)``."""
        last = self._last
        if last is not None and self._settled and not self._changed:
            # None of this rack's rows moved and no heartbeat counter is
            # pending: the previous figures still hold, whatever the rest
            # of the fleet did.
            return replace(last, timestamp_s=timestamp_s), False

        self._changed.clear()
        fleet = self.fleet
        up = 0
        total = 0
        cores = 0
        load = 0.0
        mem_total = 0.0
        mem_free = 0.0
        unsettled = False
        for i in self.indices:
            if not fleet.alive[i]:
                continue
            total += 1
            if not fleet.responsive[i]:
                if _count_miss(
                    self._missed, self._dead, i, fleet.names[i],
                    timestamp_s, trace,
                ):
                    unsettled = True
                continue
            self._missed[i] = 0
            self._dead.discard(i)
            if fleet.powered[i]:
                up += 1
                c = fleet.cores[i]
                busy = fleet.load[i]
                cores += c
                load += busy
                mt = fleet.mem_kb[i]
                mem_total += mt
                mem_free += mt * max(0.1, 1.0 - 0.8 * busy / max(c, 1))
        summary = ClusterSummary(
            timestamp_s=timestamp_s,
            hosts_total=total,
            hosts_up=up,
            total_cores=cores,
            load_total=load,
            mem_total_kb=mem_total,
            mem_free_kb=mem_free,
            failed_services=0,
            hosts_dead=len(self._dead),
        )
        changed = last is None or _signature(summary) != _signature(last)
        self._last = summary
        self._settled = not unsettled
        return summary, changed


class GmondRack:
    """One rack of real :class:`Gmond` agents, summarized at the leaf.

    Full metric fidelity without the root ever touching the agents: each
    poll archives every sample in the rack's RRDs, publishes it as
    ``metric.sample``, and counts service failures into the summary.  A
    small cluster is one of these; a fleet uses it for racks that need
    detail (the frontend) alongside :class:`FleetRack` leaves for the bulk.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._gmonds: dict[str, Gmond] = {}
        self._rrds: dict[tuple[str, str], Rrd] = {}
        self._missed: dict[str, int] = {}
        self._dead: set[str] = set()
        self._last: ClusterSummary | None = None

    def attach(self, gmond: Gmond) -> None:
        """Register a node's gmond as a data source."""
        host = gmond.host.name
        if host in self._gmonds:
            raise MonitoringError(f"gmond for {host} already attached")
        self._gmonds[host] = gmond

    def hosts(self) -> list[str]:
        return sorted(self._gmonds)

    def gmond_for(self, host: str) -> Gmond:
        """The agent registered for one host (fault injection reaches it
        here)."""
        try:
            return self._gmonds[host]
        except KeyError:
            raise MonitoringError(f"unknown host {host!r}") from None

    def dead_hosts(self) -> list[str]:
        """Hosts declared dead after consecutive missed heartbeats."""
        return sorted(self._dead)

    def rrd_for(self, host: str, metric: str) -> Rrd:
        """The archive of one (host, metric) stream.

        A pure lookup: only :meth:`sample` creates archives (their set is
        checkpointed state), so a stream that has never reported raises.
        """
        if metric not in CORE_METRICS:
            raise MonitoringError(f"unknown metric {metric!r}")
        self.gmond_for(host)
        try:
            return self._rrds[host, metric]
        except KeyError:
            raise MonitoringError(
                f"no samples archived for {host}/{metric}"
            ) from None

    def _latest(self, host: str, metric: str) -> RrdPoint | None:
        rrd = self._rrds.get((host, metric))
        return rrd.latest() if rrd is not None else None

    def sample(self, timestamp_s: float, trace) -> tuple[ClusterSummary, bool]:
        """Poll every agent in the rack: archive, publish, summarise.

        Returns ``(summary, changed_since_last)``.
        """
        up = 0
        cores = 0
        load = 0.0
        mem_total = 0.0
        mem_free = 0.0
        failed = 0
        rrds = self._rrds
        for name in self.hosts():
            try:
                samples = {
                    s.spec.name: s for s in self._gmonds[name].poll(timestamp_s)
                }
            except ReproError:
                _count_miss(
                    self._missed, self._dead, name, name,
                    timestamp_s, trace,
                )
                continue
            self._missed[name] = 0
            self._dead.discard(name)
            for metric, sample in samples.items():
                rrd = rrds.get((name, metric))
                if rrd is None:
                    # One slot per poll cycle.
                    rrd = rrds[name, metric] = Rrd(step_s=POLL_PERIOD_S)
                rrd.update(timestamp_s, sample.value)
                trace.emit(
                    "metric.sample", t_s=timestamp_s, subsystem="monitoring",
                    host=name, metric=metric, value=float(sample.value),
                )
            if samples["powered_on"].value > 0:
                up += 1
                cores += int(samples["cpu_num"].value)
                load += samples["load_one"].value
                mem_total += samples["mem_total"].value
                mem_free += samples["mem_free"].value
                failed += int(samples["svc_failed"].value)
        summary = ClusterSummary(
            timestamp_s=timestamp_s,
            hosts_total=len(self._gmonds),
            hosts_up=up,
            total_cores=cores,
            load_total=load,
            mem_total_kb=mem_total,
            mem_free_kb=mem_free,
            failed_services=failed,
            hosts_dead=len(self._dead),
        )
        changed = self._last is None or _signature(summary) != _signature(
            self._last
        )
        self._last = summary
        return summary, changed

    def down_hosts(self) -> list[str]:
        """Hosts whose latest powered_on sample is 0, plus hosts declared
        dead on missed heartbeats (the web UI's red rows)."""
        down = set(self._dead)
        for name in self._gmonds:
            latest = self._latest(name, "powered_on")
            if latest is not None and latest.value < 0.5:
                down.add(name)
        return sorted(down)

    def dashboard_rows(self) -> list[str]:
        """One line per host of the web frontend's cluster page."""
        lines = []
        for name in self.hosts():
            row = {
                metric: self._latest(name, metric)
                for metric in ("powered_on", "load_one", "cpu_num", "pkg_count", "svc_failed")
            }
            if name in self._dead:
                up = "DEAD"
            elif row["powered_on"] and row["powered_on"].value > 0.5:
                up = "yes"
            else:
                up = "NO"
            lines.append(
                f"{name:<18}{up:>4}"
                f"{row['load_one'].value if row['load_one'] else 0:>8.1f}"
                f"{row['cpu_num'].value if row['cpu_num'] else 0:>6.0f}"
                f"{row['pkg_count'].value if row['pkg_count'] else 0:>7.0f}"
                f"{row['svc_failed'].value if row['svc_failed'] else 0:>6.0f}"
            )
        return lines

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the rack: agents, archives, heartbeat
        counters and the dead set (what checkpoint verification compares)."""
        return {
            "gmonds": {
                name: self._gmonds[name].state_dict() for name in self.hosts()
            },
            "rrds": {
                f"{host}/{metric}": rrd.state_dict()
                for (host, metric), rrd in sorted(self._rrds.items())
            },
            "missed": {
                k: v for k, v in sorted(self._missed.items()) if v
            },
            "dead": sorted(self._dead),
        }


class GmetadTree:
    """The root aggregator: merges rack summaries, never polls a host.

    Each cycle asks every leaf for its summary and folds *deltas* into
    running totals: an unchanged rack costs one subtraction-free pass (and,
    for a :class:`FleetRack` leaf whose rows are quiet, the leaf itself is
    O(1)).  Per changed rack it emits ``monitor.rack``; per cycle,
    ``monitor.rollup`` with the merged figures and how many racks moved.

    The host-level surface — :meth:`hosts`, :meth:`gmond_for`,
    :meth:`rrd_for`, :meth:`down_hosts`, the rows of
    :meth:`render_dashboard` — covers the hosts that have an agent, i.e.
    those on :class:`GmondRack` leaves; :class:`FleetRack` hosts show up
    in the merged summary and in :meth:`dead_hosts` only.
    """

    def __init__(
        self, cluster_name: str, *, kernel: SimKernel | None = None
    ) -> None:
        self.cluster_name = cluster_name
        self.kernel = kernel if kernel is not None else SimKernel()
        self._racks: dict[str, FleetRack | GmondRack] = {}
        self._rack_last: dict[str, ClusterSummary] = {}
        #: Running totals the deltas fold into, in :func:`_signature` order
        #: (``ClusterSummary``'s field order after the timestamp).
        self._totals: list[float] = [0, 0, 0, 0.0, 0.0, 0.0, 0, 0]
        self._sampler: PeriodicEvent | None = None
        self.summaries: list[ClusterSummary] = []

    @property
    def now_s(self) -> float:
        return self.kernel.now_s

    def add_rack(self, rack: FleetRack | GmondRack) -> None:
        if rack.name in self._racks:
            raise MonitoringError(f"rack {rack.name} already attached")
        self._racks[rack.name] = rack

    def racks(self) -> list[str]:
        return sorted(self._racks)

    def dead_hosts(self) -> list[str]:
        """Dead hosts across every rack (leaf detection, merged view)."""
        out: list[str] = []
        for name in self.racks():
            out.extend(self._racks[name].dead_hosts())
        return sorted(out)

    def _agent_racks(self) -> list[GmondRack]:
        return [
            rack
            for _name, rack in sorted(self._racks.items())
            if isinstance(rack, GmondRack)
        ]

    def _agent_rack_of(self, host: str) -> GmondRack:
        for rack in self._agent_racks():
            if host in rack._gmonds:
                return rack
        raise MonitoringError(f"no gmond agent for host {host!r}")

    def hosts(self) -> list[str]:
        """Hosts that have a gmond agent, sorted."""
        return sorted(h for rack in self._agent_racks() for h in rack._gmonds)

    def gmond_for(self, host: str) -> Gmond:
        """The agent registered for one host (fault injection reaches it
        here).  Raises :class:`MonitoringError` for a host outside the mesh
        or on a :class:`FleetRack` leaf, which has no agents."""
        return self._agent_rack_of(host).gmond_for(host)

    def rrd_for(self, host: str, metric: str) -> Rrd:
        """The archive of one (host, metric) stream (see
        :meth:`GmondRack.rrd_for`)."""
        return self._agent_rack_of(host).rrd_for(host, metric)

    def down_hosts(self) -> list[str]:
        """Agent hosts that are powered off or declared dead (the web
        UI's red rows)."""
        return sorted(h for rack in self._agent_racks() for h in rack.down_hosts())

    def render_dashboard(self) -> str:
        """The web frontend's cluster page, as text."""
        if not self.summaries:
            raise MonitoringError("no polling cycles have run")
        s = self.summaries[-1]
        lines = [
            f"=== Ganglia: {self.cluster_name} "
            f"(t={s.timestamp_s:.0f}s, {s.hosts_up}/{s.hosts_total} up) ===",
            f"load {s.load_total:.1f}/{s.total_cores} cores "
            f"({s.load_fraction:.0%}); mem free "
            f"{s.mem_free_kb / 1024 / 1024:.1f}/{s.mem_total_kb / 1024 / 1024:.1f} GiB; "
            f"failed services: {s.failed_services}",
            "",
            f"{'host':<18}{'up':>4}{'load':>8}{'cpus':>6}{'pkgs':>7}{'fail':>6}",
        ]
        for rack in self._agent_racks():
            lines.extend(rack.dashboard_rows())
        return "\n".join(lines)

    def _fold_delta(
        self, old: ClusterSummary | None, new: ClusterSummary
    ) -> None:
        totals = self._totals
        if old is not None:
            for k, value in enumerate(_signature(old)):
                totals[k] -= value
        for k, value in enumerate(_signature(new)):
            totals[k] += value

    def _sample(self, timestamp_s: float) -> ClusterSummary:
        trace = self.kernel.trace
        changed_racks = 0
        for name in self.racks():
            summary, changed = self._racks[name].sample(timestamp_s, trace)
            if changed:
                changed_racks += 1
                self._fold_delta(self._rack_last.get(name), summary)
                trace.emit(
                    "monitor.rack", t_s=timestamp_s, subsystem="monitoring",
                    rack=name, hosts_up=summary.hosts_up,
                    hosts_total=summary.hosts_total,
                    load_total=summary.load_total,
                )
            self._rack_last[name] = summary
        merged = ClusterSummary(timestamp_s, *self._totals)
        self.summaries.append(merged)
        trace.emit(
            "monitor.rollup", t_s=timestamp_s, subsystem="monitoring",
            racks=len(self._racks), changed=changed_racks,
            hosts_up=merged.hosts_up, hosts_total=merged.hosts_total,
            load_total=merged.load_total,
        )
        return merged

    def poll_cycle(self) -> ClusterSummary:
        """One polling period: advance, summarize racks, merge deltas.

        Advancing runs any co-simulated kernel events that fall inside the
        window first, so the poll observes the cluster as it is *then*.
        """
        self.kernel.run_until(self.now_s + POLL_PERIOD_S)
        return self._sample(self.now_s)

    def run_cycles(self, count: int) -> ClusterSummary:
        """Poll ``count`` times; returns the last merged summary."""
        if count <= 0:
            raise MonitoringError("cycle count must be positive")
        last = None
        for _ in range(count):
            last = self.poll_cycle()
        assert last is not None
        return last

    def start_sampling(self) -> PeriodicEvent:
        """Register polling as a periodic kernel event (co-simulation mode),
        first firing one period from now.

        Time is then driven by whoever runs the kernel — the scheduler, a
        transfer, ``kernel.run_until`` — and each period fires a sample
        automatically.  Call :meth:`stop_sampling` (or cancel the returned
        handle) to stop.
        """
        if self._sampler is not None:
            raise MonitoringError("sampling is already running")
        self._sampler = self.kernel.every(
            POLL_PERIOD_S,
            lambda: self._sample(self.kernel.now_s),
            label=f"gmetad-tree.poll:{self.cluster_name}",
        )
        return self._sampler

    def stop_sampling(self) -> None:
        """Cancel the periodic poll registered by :meth:`start_sampling`."""
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the aggregation tree, leaf by leaf."""
        return {
            "cluster": self.cluster_name,
            "racks": {
                name: self._racks[name].state_dict() for name in self.racks()
            },
            "summaries": len(self.summaries),
        }


def monitor_fleet(cluster, *, kernel: SimKernel | None = None) -> GmetadTree:
    """Wire a provisioned cluster into a hierarchical monitoring tree.

    Rows of the cluster's fleet table (frontend included) are chunked into
    :class:`FleetRack` leaves of :data:`HOSTS_PER_RACK` each — the
    fleet-scale counterpart of :func:`~repro.monitoring.monitor_cluster`, with no
    per-host gmond objects.  Works for any install mode; it is the only
    monitoring path that scales to golden-image fleets.
    """
    fleet = cluster.rocksdb.fleet
    tree = GmetadTree(cluster.machine.name, kernel=kernel)
    indices = fleet.ordered_indices()
    for j, start in enumerate(range(0, len(indices), HOSTS_PER_RACK)):
        tree.add_rack(
            FleetRack(
                f"rack{j:03d}", fleet, indices[start : start + HOSTS_PER_RACK]
            )
        )
    return tree
