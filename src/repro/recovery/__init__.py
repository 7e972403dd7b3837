"""repro.recovery — crash-consistent checkpoints, WAL journaling, self-healing.

The robustness layer the paper's clusters imply but PR 3 stopped short
of: a small research cluster run by one part-time admin *will* lose its
head node mid-yum-transaction, and the XCBC answer is that this must be
boring — reboot, recover the journal, resume.  Three pieces:

* :mod:`.journal` — a write-ahead journal: multi-step mutations (RPM
  transactions, Rocks installs, mirror syncs) record intent before
  touching state, so a crash leaves a record one loop rolls back
  instead of phantom packages and half-registered nodes;
* :mod:`.snapshot` / :mod:`.checkpoint` — crash-consistent snapshots of
  the whole simulated stack at driver-step boundaries, restored by
  state-verified deterministic replay (byte-identical remaining trace);
* :mod:`.supervisor` — a periodic kernel service that turns detection
  into bounded, declarative repair (reboot failed nodes, restart dead
  gmonds, undrain healed nodes, resubmit starved jobs, re-kickstart
  failed installs), emitting ``recover.*`` trace events.
"""

from .checkpoint import CheckpointManager, register_world_factory, world_factories
from .journal import (
    Journal,
    JournalOp,
    JournalTxn,
    OpState,
    TxnState,
    recover_incomplete,
)
from .snapshot import (
    FORMAT_VERSION,
    Snapshot,
    canonical_json,
    diff_states,
    state_digest,
)
from .supervisor import RecoveryPolicy, Supervisor, default_policies

__all__ = [
    "CheckpointManager",
    "register_world_factory",
    "world_factories",
    "Journal",
    "JournalOp",
    "JournalTxn",
    "OpState",
    "TxnState",
    "recover_incomplete",
    "FORMAT_VERSION",
    "Snapshot",
    "canonical_json",
    "diff_states",
    "state_digest",
    "RecoveryPolicy",
    "Supervisor",
    "default_policies",
]
