"""repro.shell: the fault-tolerant parallel admin-execution plane.

ClusterShell-on-the-kernel (ROADMAP item 2): one admin, ten thousand
nodes, and fleet-wide operations that survive dead, slow, and flapping
hardware without babysitting.  Three layers:

* :class:`ShellEngine` — ``clush``-style fan-out: a bounded sliding
  window of in-flight workers over a :class:`~repro.fleet.NodeSet`, with
  per-node timeout/retry/backoff and graceful degradation (unreachable
  nodes are skipped-and-reported in a :class:`ShellReport`, never raised);
* :func:`gather` / :class:`OutputGroup` — ``clubak``-style merging of
  identical outputs under folded NodeSet labels, per-rc bucketing, and a
  worst-rc summary;
* :class:`RollingUpdate` — wave-by-wave sweeps with safety gates (drain →
  execute → undrain → health-verify), failure thresholds that pause or
  abort the sweep, and rack-level failure-domain awareness.

See docs/SHELL.md for the model and the ``shell.*`` trace vocabulary.
"""

from .engine import (
    DEFAULT_RETRY,
    TRANSPORT_RC,
    NodeResult,
    ShellCommand,
    ShellEngine,
    ShellReport,
)
from .gather import OutputGroup, gather, render_groups
from .rolling import (
    RollingReport,
    RollingUpdate,
    WaveResult,
    rolling_confluence_problems,
)

__all__ = [
    "DEFAULT_RETRY",
    "TRANSPORT_RC",
    "ShellCommand",
    "NodeResult",
    "ShellReport",
    "ShellEngine",
    "OutputGroup",
    "gather",
    "render_groups",
    "RollingReport",
    "RollingUpdate",
    "WaveResult",
    "rolling_confluence_problems",
]
