"""Fleet-scale node state: columnar tables and O(ranges) addressing.

The two building blocks that let a 10k-node fleet build, install, monitor,
and schedule without a Python object per node on the hot paths:

* :class:`FleetTable` — parallel-array storage for every per-appliance
  fact (name, role, install state, power, scheduler flags, cores), with
  :class:`FleetRow` proxies keeping the legacy attribute API alive;
* :class:`NodeSet` / :class:`RangeSet` — ClusterShell-style folded
  addressing (``compute-0-[0-9999]``) with union, difference and wave
  chunking.

See docs/SCALE.md for the layout, syntax, and how the rocks / scheduler /
monitoring layers ride on these.
"""

from .nodeset import NodeSet, RangeSet, fold_names
from .table import DEFAULT_STATES, FleetRow, FleetTable

__all__ = [
    "NodeSet",
    "RangeSet",
    "fold_names",
    "FleetTable",
    "FleetRow",
    "DEFAULT_STATES",
]
