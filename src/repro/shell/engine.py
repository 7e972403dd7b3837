"""The fan-out engine: bounded-window parallel execution on the kernel.

``clush -w compute-0-[0-9999] -f 64 <cmd>`` as a discrete-event machine:
a :class:`ShellEngine` walks a :class:`~repro.fleet.NodeSet` with at most
``fanout`` workers in flight at once.  Each worker is a kernel event —
dispatch schedules a completion at ``now + duration`` (capped by the
timeout), completion either records the command's ``(rc, output)`` or
classifies a *transport* failure (timeout, node died mid-flight, handler
raised) and retries it under a :class:`~repro.faults.RetryPolicy`,
spending the backoff as simulated time while the worker slot stays held.

Graceful degradation is the point: nodes the :class:`~repro.fleet.FleetTable`
flags as failed, powered off, or unresponsive are *skipped and reported*
in the :class:`ShellReport`, never raised — a fleet-wide sweep completes
with partial results no matter how many nodes are down.  Scheduler-drained
nodes are **not** skipped: the admin plane is exactly what you run against
a drained node (that is how :class:`~repro.shell.RollingUpdate` updates a
wave it just drained).

Nonzero return codes are *results*, not failures to retry — clush
semantics: the command ran, the node answered, the answer was "no".
Only transport failures burn retry attempts.

Determinism: targets dispatch in NodeSet iteration order, jitter and
backoff draw from the kernel's seeded RNG, and every event lands on the
trace bus (``shell.cmd`` per run, ``shell.retry`` per backoff,
``shell.gather`` per merged output group) — same seed, byte-identical
trace, even mid-fault-storm.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..errors import HeadnodeCrashError, ReproError, ShellError
from ..faults import RetryPolicy
from ..fleet import FleetTable, NodeSet
from ..sim import SimKernel
from .gather import OutputGroup, gather, render_groups

__all__ = [
    "DEFAULT_RETRY",
    "TRANSPORT_RC",
    "ShellCommand",
    "NodeResult",
    "ShellReport",
    "ShellEngine",
]

#: Default per-node retry behaviour for fleet sweeps: three tries with a
#: couple of seconds of jittered backoff — enough to ride out a link flap,
#: bounded enough that a dead node costs seconds, not minutes.
DEFAULT_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=2.0, multiplier=2.0, max_delay_s=30.0, jitter=0.1
)

#: The rc recorded for nodes the transport gave up on (ssh's exit code for
#: "could not reach the host").
TRANSPORT_RC = 255


@dataclass(frozen=True)
class ShellCommand:
    """One simulated remote command.

    ``handler(node) -> (rc, output)`` models what running it does; raising
    a :class:`~repro.errors.ReproError` from the handler is a *transport*
    failure (connection refused, mid-command crash) and is retried.  With
    no handler the command succeeds everywhere with ``output``.
    ``duration_s`` is the per-node wall time, widened by up to ±``jitter``
    (a fraction, drawn from the kernel RNG) so a fleet's completions
    spread out the way real nodes do.
    """

    line: str
    duration_s: float = 1.0
    jitter: float = 0.0
    output: str = "ok"
    handler: Callable[[str], tuple[int, str]] | None = None

    def __post_init__(self) -> None:
        if not self.line:
            raise ShellError("command line must be non-empty")
        if self.duration_s < 0:
            raise ShellError(f"duration must be >= 0, got {self.duration_s}")
        if not 0 <= self.jitter < 1:
            raise ShellError(f"jitter must be in [0, 1), got {self.jitter}")


@dataclass
class NodeResult:
    """One node's outcome: ``ok`` (ran, rc 0), ``failed`` (ran with a
    nonzero rc, or the transport gave up), or ``skipped`` (never tried —
    the fleet table said the node cannot answer)."""

    node: str
    status: str
    rc: int | None = None
    output: str = ""
    attempts: int = 0
    reason: str = ""
    started_s: float | None = None
    ended_s: float | None = None


class ShellReport:
    """The (always partial-safe) outcome of one :meth:`ShellEngine.run`.

    ``results`` fills in as workers finish, so the report is readable even
    if the run is unwound mid-sweep (head-node crash): whatever completed
    is in it.  Folded views never enumerate nodes — ``ok_nodes()`` on a
    9,990-of-10,000 sweep is one NodeSet, not a list.
    """

    def __init__(self, command: str, *, fanout: int) -> None:
        self.command = command
        self.fanout = fanout
        #: node name -> :class:`NodeResult`, in dispatch order
        self.results: dict[str, NodeResult] = {}
        #: high-water mark of concurrently held worker slots
        self.max_inflight = 0
        #: False until every target was finalized
        self.complete = False

    def _nodes_with(self, status: str) -> NodeSet:
        return NodeSet.from_names(
            name for name, r in self.results.items() if r.status == status
        )

    def ok_nodes(self) -> NodeSet:
        return self._nodes_with("ok")

    def failed_nodes(self) -> NodeSet:
        return self._nodes_with("failed")

    def skipped_nodes(self) -> NodeSet:
        return self._nodes_with("skipped")

    def counts(self) -> tuple[int, int, int]:
        """``(ok, failed, skipped)`` totals."""
        ok = failed = skipped = 0
        for r in self.results.values():
            if r.status == "ok":
                ok += 1
            elif r.status == "failed":
                failed += 1
            else:
                skipped += 1
        return ok, failed, skipped

    def executed(self) -> list[tuple[str, int, str]]:
        """``(node, rc, output)`` for every node that was actually tried.

        Transport-failed nodes report :data:`TRANSPORT_RC` and their
        failure reason as the output, so they fold into gather groups like
        everything else.
        """
        out: list[tuple[str, int, str]] = []
        for name, r in self.results.items():
            if r.status == "skipped":
                continue
            if r.rc is None:
                out.append((name, TRANSPORT_RC, r.reason))
            else:
                out.append((name, r.rc, r.output))
        return out

    def groups(self) -> list[OutputGroup]:
        """clubak view: identical outputs merged under folded labels."""
        return gather(self.executed())

    def render(self) -> str:
        """Operator summary: gathered groups plus the skip/fail fold."""
        ok, failed, skipped = self.counts()
        lines = [
            f"{self.command!r}: {ok} ok, {failed} failed, {skipped} skipped "
            f"(fanout {self.fanout}, peak {self.max_inflight} in flight)"
        ]
        grouped = render_groups(self.groups())
        if grouped:
            lines.append(grouped)
        if skipped:
            lines.append(f"skipped: {self.skipped_nodes()}")
        return "\n".join(lines)


class _RunState:
    """Book-keeping for one in-progress :meth:`ShellEngine.run`."""

    __slots__ = (
        "command", "fanout", "timeout_s", "policy",
        "queue", "inflight", "pending", "report",
    )

    def __init__(
        self,
        command: ShellCommand,
        *,
        fanout: int,
        timeout_s: float,
        policy: RetryPolicy,
        targets: list[str],
    ) -> None:
        self.command = command
        self.fanout = fanout
        self.timeout_s = timeout_s
        self.policy = policy
        self.queue: deque[str] = deque(targets)
        self.inflight = 0
        self.pending = len(targets)
        self.report = ShellReport(command.line, fanout=fanout)


class ShellEngine:
    """Bounded-fanout parallel executor over a shared fleet table."""

    def __init__(
        self,
        fleet: FleetTable,
        *,
        kernel: SimKernel | None = None,
        subsystem: str = "shell",
    ) -> None:
        self.fleet = fleet
        self.kernel = kernel if kernel is not None else SimKernel()
        self.subsystem = subsystem
        #: the most recent run's report — partial results survive an unwind
        self.last_report: ShellReport | None = None

    # -- liveness (the graceful-degradation gate) ----------------------------

    def skip_reason(self, name: str) -> str | None:
        """Why this node would be skipped right now (None = reachable).

        Reads the shared fleet flag columns: a failed, powered-off, or
        unresponsive node cannot answer the admin plane.  Offline/draining
        are scheduler states, not reachability — drained nodes execute.
        """
        fleet = self.fleet
        if not fleet.has(name):
            return "not in fleet table"
        index = fleet.index_of(name)
        if fleet.failed[index]:
            return "failed"
        if not fleet.powered[index]:
            return "powered off"
        if not fleet.responsive[index]:
            return "unresponsive"
        return None

    # -- the sliding window --------------------------------------------------

    def run(
        self,
        nodes: NodeSet | str,
        command: ShellCommand | str,
        *,
        fanout: int = 64,
        timeout_s: float = 30.0,
        policy: RetryPolicy | None = None,
    ) -> ShellReport:
        """Execute ``command`` across ``nodes`` with a sliding window.

        At most ``fanout`` workers are in flight at any simulated instant
        (a slot is held through a worker's retries and backoff, so the
        bound covers the whole per-node conversation).  Never raises for
        per-node trouble: unreachable nodes are skipped, transport
        failures retried then recorded, nonzero rcs recorded — the report
        always comes back.
        """
        if isinstance(nodes, str):
            nodes = NodeSet.parse(nodes)
        if isinstance(command, str):
            command = ShellCommand(command)
        if fanout < 1:
            raise ShellError(f"fanout must be >= 1, got {fanout}")
        if not 0 < timeout_s < math.inf:
            raise ShellError(f"timeout must be positive and finite, got {timeout_s}")
        targets = list(nodes)
        state = _RunState(
            command,
            fanout=fanout,
            timeout_s=timeout_s,
            policy=policy if policy is not None else DEFAULT_RETRY,
            targets=targets,
        )
        self.last_report = state.report
        self.kernel.trace.emit(
            "shell.cmd", t_s=self.kernel.now_s, subsystem=self.subsystem,
            nodes=nodes.fold(), command=command.line, fanout=fanout,
            count=len(targets),
        )
        self._fill(state)
        while state.pending:
            if not self.kernel.step():
                raise ShellError(
                    f"kernel idle with {state.pending} worker(s) outstanding"
                )
        state.report.complete = True
        for group in state.report.groups():
            self.kernel.trace.emit(
                "shell.gather", t_s=self.kernel.now_s, subsystem=self.subsystem,
                nodes=group.nodes.fold(), rc=group.rc, count=group.count,
            )
        return state.report

    def _fill(self, state: _RunState) -> None:
        """Top up the window: dispatch until full or the queue drains."""
        while state.queue and state.inflight < state.fanout:
            name = state.queue.popleft()
            reason = self.skip_reason(name)
            if reason is not None:
                self._finalize(state, name, status="skipped", reason=reason)
                continue
            state.inflight += 1
            state.report.max_inflight = max(
                state.report.max_inflight, state.inflight
            )
            self._dispatch(state, name, attempt=1, started_s=self.kernel.now_s)

    def _dispatch(
        self, state: _RunState, name: str, *, attempt: int, started_s: float
    ) -> None:
        """Start one attempt: schedule its completion event."""
        command = state.command
        duration = command.duration_s
        if command.jitter:
            duration *= 1.0 + command.jitter * (2.0 * self.kernel.rng.random() - 1.0)
        timed_out = duration > state.timeout_s
        eta = self.kernel.now_s + (state.timeout_s if timed_out else duration)
        self.kernel.at(
            eta,
            lambda: self._on_complete(state, name, attempt, started_s, timed_out),
            label=f"shell.done:{name}",
        )

    def _execute(self, command: ShellCommand, name: str) -> tuple[int, str]:
        if command.handler is None:
            return 0, command.output
        rc, output = command.handler(name)
        return int(rc), str(output)

    def _on_complete(
        self,
        state: _RunState,
        name: str,
        attempt: int,
        started_s: float,
        timed_out: bool,
    ) -> None:
        """A worker's completion event: record, retry, or give up."""
        failure = self.skip_reason(name)  # did the node die mid-flight?
        if failure is None and not timed_out:
            try:
                rc, output = self._execute(state.command, name)
            except HeadnodeCrashError:
                # The machine driving this sweep just died; partial results
                # stay readable on the report, the exception must unwind.
                raise
            except ReproError as exc:
                failure = str(exc) or type(exc).__name__
            else:
                self._finalize(
                    state, name,
                    status="ok" if rc == 0 else "failed",
                    rc=rc, output=output, attempts=attempt,
                    reason="" if rc == 0 else f"rc {rc}",
                    started_s=started_s, held_slot=True,
                )
                return
        if failure is None:
            failure = f"timeout after {state.timeout_s:g}s"
        now = self.kernel.now_s
        delay, stop = state.policy.next_delay(
            attempt, started_s, now, self.kernel.rng
        )
        if stop is not None:
            self._finalize(
                state, name, status="failed", attempts=attempt,
                reason=failure, started_s=started_s, held_slot=True,
            )
            return
        self.kernel.trace.emit(
            "shell.retry", t_s=now, subsystem=self.subsystem,
            node=name, attempt=attempt, delay_s=delay,
        )
        # The slot stays held through the backoff: fanout bounds the whole
        # per-node conversation, not just the instants a command is running.
        self.kernel.at(
            now + delay,
            lambda: self._dispatch(
                state, name, attempt=attempt + 1, started_s=started_s
            ),
            label=f"shell.retry:{name}",
        )

    def _finalize(
        self,
        state: _RunState,
        name: str,
        *,
        status: str,
        rc: int | None = None,
        output: str = "",
        attempts: int = 0,
        reason: str = "",
        started_s: float | None = None,
        held_slot: bool = False,
    ) -> None:
        state.report.results[name] = NodeResult(
            node=name, status=status, rc=rc, output=output,
            attempts=attempts, reason=reason,
            started_s=started_s, ended_s=self.kernel.now_s,
        )
        state.pending -= 1
        if held_slot:
            state.inflight -= 1
            self._fill(state)
