"""gmond: the per-host Ganglia monitoring daemon.

Each monitored host runs a :class:`Gmond` that snapshots the simulated
host's real state — load derived from the scheduler's allocations, memory
from the hardware model, package count from the RPM database, failed
services from the service manager.  Samples are pulled by the agent's
:class:`~repro.monitoring.hierarchy.Rack` leaf of the gmetad tree,
exactly the way the real mesh works (gmetad polls a gmond, which answers
with the host's current samples).
"""

from __future__ import annotations

from ..distro.host import Host
from ..errors import NodeOfflineError
from ..rpm.database import RpmDatabase
from .metrics import MetricSample, MonitoringError, free_memory_kb

__all__ = ["Gmond"]


class Gmond:
    """One host's monitoring agent.

    ``load_source`` is an optional callable returning the host's busy-core
    count (:func:`~repro.monitoring.monitor_cluster` wires it to the
    scheduler's ``ClusterResources.allocated_of``); without one, load
    reports 0.

    ``responsive`` models the daemon itself: a crashed node or a
    heartbeat-loss fault makes the gmond stop answering (``poll`` raises
    :class:`~repro.errors.NodeOfflineError`), which gmetad degrades around
    instead of crashing.  Note this is distinct from the *host* being
    powered off — a live gmond on a powered-down chassis cannot happen,
    but a reachable gmond can still report ``powered_on = 0`` for a node
    mid-shutdown.
    """

    def __init__(
        self,
        host: Host,
        db: RpmDatabase | None = None,
        *,
        load_source=None,
    ) -> None:
        if db is not None and db.host is not host:
            raise MonitoringError("RPM database belongs to a different host")
        self.host = host
        self.db = db
        self.load_source = load_source
        self.responsive = True

    def fail_heartbeat(self) -> None:
        """Stop answering polls (crashed node / partitioned segment)."""
        self.responsive = False

    def restore_heartbeat(self) -> None:
        """Start answering polls again."""
        self.responsive = True

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the agent (checkpoint participation)."""
        return {
            "host": self.host.name,
            "responsive": self.responsive,
            "powered_on": self.host.node.powered_on,
            "bytes_in": 0.0,
            "bytes_out": 0.0,
        }

    def poll(self, timestamp_s: float) -> list[MetricSample]:
        """Snapshot every core metric at ``timestamp_s``."""
        if not self.responsive:
            raise NodeOfflineError(
                f"gmond on {self.host.name} is not responding"
            )
        node = self.host.node
        busy = float(self.load_source()) if self.load_source is not None else 0.0
        mem_total_kb = node.memory_bytes / 1024.0
        failed = sum(
            1
            for svc in self.host.services.all_services()
            if svc.state.value == "failed"
        )
        values = {
            "load_one": busy,
            "cpu_num": float(node.cores),
            "cpu_user": 100.0 * busy / max(node.cores, 1),
            "mem_total": mem_total_kb,
            "mem_free": free_memory_kb(mem_total_kb, busy, node.cores),
            "disk_total": node.storage_bytes / 1e9,
            "bytes_in": 0.0,  # no layer models host network traffic
            "bytes_out": 0.0,
            "proc_run": busy,
            "pkg_count": float(len(self.db)) if self.db is not None else 0.0,
            "svc_failed": float(failed),
            "powered_on": 1.0 if node.powered_on else 0.0,
        }
        return [
            MetricSample(
                metric=name,
                host=self.host.name,
                value=value,
                timestamp_s=timestamp_s,
            )
            for name, value in values.items()
        ]
