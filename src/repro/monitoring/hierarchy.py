"""The Ganglia aggregator: one gmetad tree over rack leaves, 6 to 10k+ hosts.

Polling every gmond from one loop is O(hosts) python objects touched per
period, which is exactly the per-node overhead ROADMAP item 1 bans from
fleet hot paths.  Real Ganglia deployments scale by federating: leaf
gmetads summarize a rack each, and the root gmetad aggregates *summaries*,
not hosts.  This module is that shape, and the only aggregator there is:

* :class:`Rack` — the one leaf.  Its hosts are rows of the shared
  :class:`~repro.fleet.FleetTable` (power, responsiveness, cores, load,
  memory), no per-host objects at all, or real :class:`Gmond` agents,
  whose samples fill per-(host, metric) :class:`Rrd` archives,
  ``metric.sample`` records and the dashboard rows that stand in for the
  Ganglia web UI the paper's training goals include.  A rack without
  agents watches only its own rows
  (:meth:`~repro.fleet.FleetTable.watch`); when none of them was written
  since the last cycle the cached summary is reused — an idle rack costs
  O(1) per cycle whatever the rest of the fleet does;
* :class:`GmetadTree` — the root: merges per-rack ``ClusterSummary``
  deltas into running totals, emitting one ``monitor.rack`` event per
  *changed* rack and one ``monitor.rollup`` per cycle.  Host-level
  questions (``gmond_for``, ``rrd_for``, ``render_dashboard``) are
  answered from the agent hosts of its leaves.

Polling is clocked by a :class:`~repro.sim.SimKernel`:
:meth:`GmetadTree.poll_cycle` advances shared simulated time by one
period (firing any co-simulated events due on the way), and
:meth:`GmetadTree.start_sampling` registers the poll as a periodic kernel
event so monitoring interleaves with scheduler and MPI activity on one
timeline.

Dead-host detection lives at the leaves: consecutive missed heartbeats
(an unresponsive gmond, or a zeroed ``responsive`` column flag) declare
the host dead and emit ``monitor.host_dead``.

:func:`monitor_fleet` wires a provisioned cluster's fleet-table rows into
:class:`Rack` leaves in one call; :func:`~repro.monitoring.monitor_cluster`
wires one into a single rack of agents.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from ..errors import ReproError
from ..fleet import FleetTable
from ..sim import PeriodicEvent, SimKernel
from .gmond import Gmond
from .metrics import MonitoringError, free_memory_kb
from .rrd import Rrd, RrdPoint

__all__ = [
    "POLL_PERIOD_S",
    "ClusterSummary",
    "Rack",
    "GmetadTree",
    "monitor_fleet",
]

#: Seconds between gmetad polls: each cycle advances the kernel this far
#: and fills one RRD slot.
POLL_PERIOD_S = 15.0
#: Consecutive missed heartbeats after which a leaf declares a host dead.
DEAD_AFTER_MISSES = 3
#: Fleet-table rows per :class:`Rack` leaf in :func:`monitor_fleet`.
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
    def load_fraction(self) -> float:
        return self.load_total / self.total_cores if self.total_cores else 0.0


#: Everything that makes two cycles' summaries *different*: every field of
#: a :class:`ClusterSummary` but the timestamp, in field order.
_signature = attrgetter(*[f.name for f in fields(ClusterSummary)][1:])


class Rack:
    """One rack of hosts, summarized at the leaf.

    A host is a row of the shared :class:`~repro.fleet.FleetTable`
    (``indices``, read straight off the columns, no per-host object) or an
    agent added with :meth:`attach`, whose every sample is archived in a
    per-(host, metric) :class:`Rrd` and published as ``metric.sample``.
    Each cycle a live host reads as ``(powered, cores, load, mem_total_kb,
    failed_services)``, rows in ``indices`` order and agents by name, or
    as a missed heartbeat (a zeroed ``responsive`` column, a silent gmond).
    A host is *up* when powered and declared dead after
    :data:`DEAD_AFTER_MISSES` consecutive misses.  A rack without agents
    watches its rows through the table's change feed and rescans them
    only when one was written or a heartbeat counter is mid-count.
    """

    def __init__(
        self, name: str, fleet: FleetTable | None = None, indices: Iterable[int] = ()
    ) -> None:
        self.name = name
        self.fleet = fleet
        self.indices = list(indices)
        self._gmonds: dict[str, Gmond] = {}
        self._rrds: dict[tuple[str, str], Rrd] = {}
        self._missed: dict[str, int] = {}
        self._dead: set[str] = set()
        self._last: ClusterSummary | None = None
        #: this rack's rows written since the last rescan
        self._changed = fleet.watch(self.indices) if fleet is not None else set()
        #: True when no miss counter is mid-count (every unresponsive host
        #: is already declared dead) — the precondition for reusing the
        #: last summary, since a pending counter changes state even when
        #: the rows do not.
        self._settled = True

    def attach(self, gmond: Gmond) -> None:
        """Register a node's gmond as a data source."""
        host = gmond.host.name
        if host in self._gmonds:
            raise MonitoringError(f"gmond for {host} already attached")
        self._gmonds[host] = gmond

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

    def _latest(self, host: str, metric: str) -> RrdPoint | None:
        rrd = self._rrds.get((host, metric))
        return rrd.latest() if rrd is not None else None

    def _readings(self, timestamp_s: float, trace):
        """Yield ``(host, reading)`` per live host, ``reading`` None for a
        missed heartbeat; agent samples are archived and published on the
        way, in :data:`CORE_METRICS` order."""
        fleet = self.fleet
        for i in self.indices:
            if fleet.alive[i]:
                yield fleet.names[i], (
                    (fleet.powered[i], fleet.cores[i], fleet.load[i],
                     fleet.mem_kb[i], 0)
                    if fleet.responsive[i] else None
                )
        rrds = self._rrds
        for host in sorted(self._gmonds):
            try:
                samples = self._gmonds[host].poll(timestamp_s)
            except ReproError:
                yield host, None
                continue
            values = {}
            for sample in samples:
                metric = sample.metric
                values[metric] = sample.value
                rrd = rrds.get((host, metric))
                if rrd is None:
                    # One slot per poll cycle.
                    rrd = rrds[host, metric] = Rrd(step_s=POLL_PERIOD_S)
                rrd.update(timestamp_s, sample.value)
                trace.emit(
                    "metric.sample", t_s=timestamp_s, subsystem="monitoring",
                    host=host, metric=metric, value=float(sample.value),
                )
            yield host, (
                values["powered_on"] > 0, int(values["cpu_num"]),
                values["load_one"], values["mem_total"], int(values["svc_failed"]),
            )

    def sample(self, timestamp_s: float, trace) -> tuple[ClusterSummary, bool]:
        """Summarize the rack; returns ``(summary, changed_since_last)``."""
        last = self._last
        if last is not None and self._settled and not (self._changed or self._gmonds):
            # None of this rack's rows moved and no heartbeat counter is
            # pending: the previous figures still hold, whatever the rest
            # of the fleet did.
            return replace(last, timestamp_s=timestamp_s), False

        self._changed.clear()
        total = up = cores = failed = 0
        load = mem_total = mem_free = 0.0
        settled = True
        for host, reading in self._readings(timestamp_s, trace):
            total += 1
            if reading is None:
                # A missed heartbeat, not a monitoring crash: the summary
                # degrades, and the limit declares the host dead once.
                count = self._missed[host] = self._missed.get(host, 0) + 1
                if count < DEAD_AFTER_MISSES:
                    settled = False
                elif host not in self._dead:
                    self._dead.add(host)
                    trace.emit(
                        "monitor.host_dead", t_s=timestamp_s,
                        subsystem="monitoring", host=host, missed=count,
                    )
                continue
            self._missed[host] = 0
            self._dead.discard(host)
            powered, c, busy, mt, f = reading
            if powered:
                up += 1
                cores += c
                load += busy
                mem_total += mt
                mem_free += free_memory_kb(mt, busy, c)
                failed += f
        summary = ClusterSummary(
            timestamp_s=timestamp_s,
            hosts_total=total,
            hosts_up=up,
            total_cores=cores,
            load_total=load,
            mem_total_kb=mem_total,
            mem_free_kb=mem_free,
            failed_services=failed,
            hosts_dead=len(self._dead),
        )
        changed = last is None or _signature(summary) != _signature(last)
        self._last = summary
        self._settled = settled
        return summary, changed

    def dashboard_rows(self) -> list[str]:
        """One line per agent host of the web frontend's cluster page."""
        lines = []
        for name in sorted(self._gmonds):
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
                name: self._gmonds[name].state_dict()
                for name in sorted(self._gmonds)
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
    for an agent-free leaf whose rows are quiet, the leaf itself is O(1)).
    Per changed rack it emits ``monitor.rack``; per cycle,
    ``monitor.rollup`` with the merged figures and how many racks moved.

    The host-level surface — :meth:`hosts`, :meth:`gmond_for`,
    :meth:`rrd_for`, the rows of :meth:`render_dashboard` — covers the
    hosts that have an agent, i.e. those attached to a leaf with
    :meth:`Rack.attach`; fleet-row hosts show up in the merged summary and
    in :meth:`dead_hosts` only.
    """

    def __init__(
        self, cluster_name: str, *, kernel: SimKernel | None = None
    ) -> None:
        self.cluster_name = cluster_name
        self.kernel = kernel if kernel is not None else SimKernel()
        self._racks: dict[str, Rack] = {}
        #: Running totals the deltas fold into, in ``_signature`` order
        #: (``ClusterSummary``'s field order after the timestamp).
        self._totals: list[float] = [0, 0, 0, 0.0, 0.0, 0.0, 0, 0]
        self._sampler: PeriodicEvent | None = None
        self.summaries: list[ClusterSummary] = []

    @property
    def now_s(self) -> float:
        return self.kernel.now_s

    def add_rack(self, rack: Rack) -> None:
        if rack.name in self._racks:
            raise MonitoringError(f"rack {rack.name} already attached")
        self._racks[rack.name] = rack

    def racks(self) -> list[str]:
        return sorted(self._racks)

    def dead_hosts(self) -> list[str]:
        """Dead hosts across every rack (leaf detection, merged view)."""
        return sorted(h for rack in self._racks.values() for h in rack.dead_hosts())

    def _agent_rack_of(self, host: str) -> Rack:
        for name in self.racks():
            if host in self._racks[name]._gmonds:
                return self._racks[name]
        raise MonitoringError(f"no gmond agent for host {host!r}")

    def hosts(self) -> list[str]:
        """Hosts that have a gmond agent, sorted."""
        return sorted(h for rack in self._racks.values() for h in rack._gmonds)

    def gmond_for(self, host: str) -> Gmond:
        """The agent registered for one host (fault injection reaches it
        here).  Raises :class:`MonitoringError` for a host outside the mesh
        or on a fleet-table row, which has no agent."""
        return self._agent_rack_of(host).gmond_for(host)

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
        for name in self.racks():
            lines.extend(self._racks[name].dashboard_rows())
        return "\n".join(lines)

    def _sample(self, timestamp_s: float) -> ClusterSummary:
        trace = self.kernel.trace
        changed_racks = 0
        for name in self.racks():
            rack = self._racks[name]
            old = rack._last
            summary, changed = rack.sample(timestamp_s, trace)
            if changed:
                changed_racks += 1
                # Fold the rack's delta: take its last figures out, put
                # the new ones in.
                gone = _signature(old) if old is not None else [0] * 8
                self._totals = [
                    t - o + n
                    for t, o, n in zip(self._totals, gone, _signature(summary))
                ]
                trace.emit(
                    "monitor.rack", t_s=timestamp_s, subsystem="monitoring",
                    rack=name, hosts_up=summary.hosts_up,
                    hosts_total=summary.hosts_total,
                    load_total=summary.load_total,
                )
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
        for _ in range(count - 1):
            self.poll_cycle()
        return self.poll_cycle()

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
    :class:`Rack` leaves of :data:`HOSTS_PER_RACK` each — the
    fleet-scale counterpart of :func:`~repro.monitoring.monitor_cluster`, with no
    per-host gmond objects.  Works for any install mode; it is the only
    monitoring path that scales to golden-image fleets.
    """
    fleet = cluster.rocksdb.fleet
    tree = GmetadTree(cluster.machine.name, kernel=kernel)
    indices = fleet.ordered_indices()
    for j, start in enumerate(range(0, len(indices), HOSTS_PER_RACK)):
        tree.add_rack(
            Rack(
                f"rack{j:03d}", fleet, indices[start : start + HOSTS_PER_RACK]
            )
        )
    return tree
