"""The Ganglia-like monitoring substrate (Table 1's ganglia roll): per-host
gmond agents, the gmetad tree that aggregates them rack by rack,
round-robin archives, and the text dashboard.

:func:`monitor_cluster` wires a provisioned Rocks cluster into a working
monitoring mesh in one call.
"""

from functools import partial

from ..rocks.installer import ProvisionedCluster
from .gmond import Gmond
from .hierarchy import (
    POLL_PERIOD_S,
    ClusterSummary,
    GmetadTree,
    Rack,
    monitor_fleet,
)
from .metrics import CORE_METRICS, MetricKind, MetricSample, MetricSpec, MonitoringError
from .rrd import Rrd, RrdPoint

__all__ = [
    "MetricKind",
    "MetricSpec",
    "MetricSample",
    "CORE_METRICS",
    "POLL_PERIOD_S",
    "MonitoringError",
    "Rrd",
    "RrdPoint",
    "Gmond",
    "ClusterSummary",
    "monitor_cluster",
    "Rack",
    "GmetadTree",
    "monitor_fleet",
]


def monitor_cluster(
    cluster: ProvisionedCluster, *, scheduler=None, kernel=None
) -> GmetadTree:
    """Attach gmonds to every node of a provisioned cluster.

    The mesh is one :class:`Rack` of agents named after the cluster under a
    :class:`GmetadTree` — full per-host fidelity (RRDs, ``metric.sample``,
    the dashboard), which is what a deskside cluster wants;
    :func:`monitor_fleet` is the agent-free wiring for 10k-node fleets.

    When ``scheduler`` (any :class:`~repro.scheduler.base.BaseScheduler`) is
    given, each node's load metric reports the cores the scheduler currently
    has allocated there — live integration between the batch system and the
    monitoring mesh.  Pass the scheduler's ``kernel`` (a
    :class:`~repro.sim.SimKernel`) to put polling on the same timeline; by
    default it is taken from the scheduler when one is given.
    """
    if kernel is None and scheduler is not None:
        kernel = scheduler.kernel
    tree = GmetadTree(cluster.machine.name, kernel=kernel)
    rack = Rack(cluster.machine.name)
    tree.add_rack(rack)
    # Hosts the scheduler does not place jobs on (the frontend) report 0.
    scheduled = set(scheduler.resources.node_names()) if scheduler else ()
    for host in cluster.hosts():
        node = host.node.name
        load_source = (
            partial(scheduler.resources.allocated_of, node)
            if node in scheduled
            else None
        )
        rack.attach(Gmond(host, cluster.db_for(host), load_source=load_source))
    return tree
