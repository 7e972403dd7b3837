"""Rolling updates with safety gates: never half-brick the fleet.

The XNIT update story at fleet scale: applying a package or firmware
change to 10,000 nodes must not take the whole machine down when the
update is bad or the fleet is flaky.  :class:`RollingUpdate` sweeps a
:class:`~repro.fleet.NodeSet` in ``split()`` waves and gates every wave:

1. **drain** — wave nodes stop taking new jobs; running work finishes or
   is force-requeued at ``drain_deadline_s`` (so a straggler job cannot
   hang the sweep);
2. **execute** — the wave runs through the :class:`~repro.shell.ShellEngine`
   (bounded fanout, per-node retries, unreachable nodes skipped);
3. **health-verify** — ``health_cycles`` monitoring polls through the
   :class:`~repro.monitoring.GmetadTree`; a node that stopped
   heartbeating after the update counts as a failure even if the command
   "succeeded";
4. **undrain** — only healthy updated nodes return to service; failures
   stay parked offline (and never draining — a finished sweep leaves no
   drain flag behind).

Two failure-domain gates sit on top: a **rack limit** (after
``rack_failures_limit`` node failures in one rack, the rest of that rack
is skipped — a dying PDU should cost one rack, not the sweep) and a
**sweep threshold** (``max_failures``; crossing it pauses the sweep).  A
paused sweep is resumable: the operator repairs, calls
:meth:`RollingUpdate.resume`, and the sweep continues from the next wave
with a fresh failure budget.

Every decision lands on the trace bus (``shell.wave`` per wave,
``shell.abort`` per rack abort or pause), and
:func:`rolling_confluence_problems` audits a finished trace for the
invariants the chaos harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ShellError
from ..faults import RetryPolicy
from ..fleet import NodeSet, fold_names
from ..sim import audit_events
from .engine import ShellCommand, ShellEngine, ShellReport

__all__ = [
    "WaveResult",
    "RollingReport",
    "RollingUpdate",
    "rolling_confluence_problems",
]


@dataclass
class WaveResult:
    """One wave's outcome after all four gates."""

    wave: int
    nodes: NodeSet
    report: ShellReport | None
    ok: NodeSet
    failed: NodeSet
    skipped: NodeSet
    unhealthy: NodeSet
    status: str  # "ok" | "degraded" | "failed"


@dataclass
class RollingReport:
    """The sweep so far: always consistent, even paused."""

    state: str = "idle"
    waves: list[WaveResult] = field(default_factory=list)
    pause_reason: str = ""

    def _union(self, attr: str) -> NodeSet:
        out = NodeSet()
        for wave in self.waves:
            out = out | getattr(wave, attr)
        return out

    def ok_nodes(self) -> NodeSet:
        return self._union("ok")

    def failed_nodes(self) -> NodeSet:
        return self._union("failed")

    def skipped_nodes(self) -> NodeSet:
        return self._union("skipped")

    #: the nodes a paused sweep has not reached
    remaining: NodeSet = field(default_factory=NodeSet)


class RollingUpdate:
    """Wave-by-wave fleet sweep with drain, health, and abort gates."""

    def __init__(
        self,
        engine: ShellEngine,
        *,
        scheduler=None,
        tree=None,
        wave_size: int = 64,
        fanout: int = 64,
        timeout_s: float = 30.0,
        policy: RetryPolicy | None = None,
        max_failures: int | None = None,
        rack_failures_limit: int | None = None,
        drain_deadline_s: float | None = 600.0,
        health_cycles: int = 3,
    ) -> None:
        if wave_size < 1:
            raise ShellError(f"wave size must be >= 1, got {wave_size}")
        if rack_failures_limit is not None and rack_failures_limit < 1:
            raise ShellError("rack_failures_limit must be >= 1")
        if health_cycles < 0:
            raise ShellError("health_cycles must be >= 0")
        self.engine = engine
        self.scheduler = scheduler
        self.tree = tree
        self.wave_size = wave_size
        self.fanout = fanout
        self.timeout_s = timeout_s
        self.policy = policy
        self.max_failures = max_failures
        self.rack_failures_limit = rack_failures_limit
        self.drain_deadline_s = drain_deadline_s
        self.health_cycles = health_cycles
        self.report = RollingReport()
        self._waves: list[NodeSet] = []
        self._next_wave = 0
        self._command: ShellCommand | None = None
        self._sched_names: frozenset[str] = frozenset()
        self._failed = 0
        self._rack_failures: dict[int, int] = {}
        self._aborted_racks: set[int] = set()

    # -- lifecycle -----------------------------------------------------------

    def run(
        self, nodes: NodeSet | str, command: ShellCommand | str
    ) -> RollingReport:
        """Sweep ``nodes`` in waves; returns when done or paused."""
        if self.report.state not in ("idle",):
            raise ShellError(
                f"rolling update already {self.report.state}; "
                f"use resume() or a fresh RollingUpdate"
            )
        if isinstance(nodes, str):
            nodes = NodeSet.parse(nodes)
        if isinstance(command, str):
            command = ShellCommand(command)
        self._command = command
        self._waves = list(nodes.split(self.wave_size))
        self._next_wave = 0
        if self.scheduler is not None:
            self._sched_names = frozenset(self.scheduler.resources.node_names())
        self.report.state = "running"
        return self._sweep()

    def resume(self) -> RollingReport:
        """Continue a paused sweep with a fresh failure budget.

        The operator has intervened (repaired nodes, pulled the bad
        package); the failure count that tripped the threshold restarts at
        zero so the pre-repair failures are not double-counted.
        """
        if self.report.state != "paused":
            raise ShellError(
                f"cannot resume a rolling update that is {self.report.state}"
            )
        self._failed = 0
        self.report.pause_reason = ""
        self.report.state = "running"
        return self._sweep()

    # -- the sweep -----------------------------------------------------------

    def _rack_of(self, name: str) -> int | None:
        fleet = self.engine.fleet
        if not fleet.has(name):
            return None
        return fleet.racks[fleet.index_of(name)]

    def _remaining_after(self, wave_index: int) -> NodeSet:
        out = NodeSet()
        for ns in self._waves[wave_index + 1:]:
            out = out | ns
        return out

    def _emit_abort(self, reason: str, wave: int, nodes: NodeSet) -> None:
        kernel = self.engine.kernel
        kernel.trace.emit(
            "shell.abort", t_s=kernel.now_s, subsystem=self.engine.subsystem,
            reason=reason, wave=wave, nodes=nodes.fold(),
        )

    def _sweep(self) -> RollingReport:
        assert self._command is not None
        while self._next_wave < len(self._waves):
            index = self._next_wave
            self._run_wave(index, self._waves[index])
            self._next_wave = index + 1
            self.report.remaining = self._remaining_after(index)
            crossed = self._threshold_reason()
            if crossed:
                self.report.state = "paused"
                self.report.pause_reason = crossed
                self._emit_abort(
                    f"sweep paused: {crossed}", index, self.report.remaining
                )
                return self.report
        self.report.state = "succeeded"
        return self.report

    def _threshold_reason(self) -> str:
        if self.max_failures is not None and self._failed > self.max_failures:
            return (
                f"{self._failed} node failure(s) exceed "
                f"max_failures={self.max_failures}"
            )
        return ""

    def _run_wave(self, index: int, wave: NodeSet) -> None:
        engine = self.engine
        kernel = engine.kernel
        assert self._command is not None

        # Gate 0: failure-domain awareness — skip nodes of aborted racks.
        rack_skipped = [
            name for name in wave if self._rack_of(name) in self._aborted_racks
        ]
        rest = wave - NodeSet.from_names(rack_skipped)

        # Gate 1: drain the wave (bounded by the drain deadline).
        drained = self._drain(index, rest)

        # Gate 2: execute with bounded fanout; degradation is per-node.
        report = engine.run(
            rest, self._command, fanout=self.fanout,
            timeout_s=self.timeout_s, policy=self.policy,
        )

        # Gate 3: health-verify — updated nodes must still heartbeat.
        ok = report.ok_nodes()
        unhealthy = NodeSet()
        if self.tree is not None and self.health_cycles:
            for _ in range(self.health_cycles):
                self.tree.poll_cycle()
            dead = frozenset(self.tree.dead_hosts())
            unhealthy = NodeSet.from_names(n for n in ok if n in dead)
            ok = ok - unhealthy
        failed = report.failed_nodes() | unhealthy

        # Gate 4: undrain survivors; park failures offline, never draining.
        self._undrain(drained, ok)

        # Rack accounting (after the wave, so one bad wave can abort a rack
        # before the next wave touches it).
        newly_aborted: list[int] = []
        for name in failed:
            rack = self._rack_of(name)
            if rack is None:
                continue
            count = self._rack_failures.get(rack, 0) + 1
            self._rack_failures[rack] = count
            if (
                self.rack_failures_limit is not None
                and count >= self.rack_failures_limit
                and rack not in self._aborted_racks
            ):
                self._aborted_racks.add(rack)
                newly_aborted.append(rack)
        for rack in newly_aborted:
            self._emit_abort(
                f"rack {rack}: {self._rack_failures[rack]} node failure(s) "
                f"reached rack_failures_limit={self.rack_failures_limit}",
                index,
                self._rack_nodeset(rack),
            )

        skipped = NodeSet.from_names(rack_skipped) | report.skipped_nodes()
        ok_count, failed_count = len(ok), len(failed)
        executed = ok_count + failed_count
        if failed_count == 0:
            status = "ok"
        elif executed > 0 and ok_count == 0:
            status = "failed"
        else:
            status = "degraded"
        kernel.trace.emit(
            "shell.wave", t_s=kernel.now_s, subsystem=engine.subsystem,
            wave=index, nodes=wave.fold(), count=len(wave),
            ok=ok_count, failed=failed_count, skipped=len(skipped),
            status=status,
        )
        self._failed += failed_count
        self.report.waves.append(
            WaveResult(
                wave=index, nodes=wave, report=report, ok=ok, failed=failed,
                skipped=skipped, unhealthy=unhealthy, status=status,
            )
        )

    def _rack_nodeset(self, rack: int) -> NodeSet:
        fleet = self.engine.fleet
        return fleet.nodeset(
            [i for i in fleet.ordered_indices() if fleet.racks[i] == rack]
        )

    # -- drain / undrain -----------------------------------------------------

    def _drain(self, index: int, wave: NodeSet) -> list[str]:
        """Drain the wave's schedulable nodes; wait for drains to finish."""
        scheduler = self.scheduler
        if scheduler is None:
            return []
        resources = scheduler.resources
        to_drain = [
            name
            for name in wave
            if name in self._sched_names
            and not resources.is_failed(name)
            and not resources.is_offline(name)
            and not resources.is_draining(name)
        ]
        if not to_drain:
            return []
        scheduler.drain_nodes(
            to_drain,
            reason=f"rolling update wave {index}",
            deadline_s=self.drain_deadline_s,
        )
        kernel = self.engine.kernel
        while True:
            waiting = [
                name
                for name in to_drain
                if resources.is_draining(name) and not resources.is_offline(name)
            ]
            if not waiting:
                return to_drain
            if not kernel.step():
                raise ShellError(
                    f"wave {index}: drain stuck on {fold_names(waiting)} "
                    f"with an idle kernel (set drain_deadline_s)"
                )

    def _undrain(self, drained: list[str], ok: NodeSet) -> None:
        """Healthy nodes back to service; failures parked offline."""
        scheduler = self.scheduler
        if scheduler is None:
            return
        resources = scheduler.resources
        for name in drained:
            if name in ok:
                scheduler.undrain_node(name)
            else:
                # Parked: offline until the operator repairs it, and the
                # draining flag cleared — a completed sweep drains nothing.
                resources.set_draining(name, False)
                if not resources.is_offline(name) and resources.is_idle(name):
                    resources.set_offline(name, True)


def rolling_confluence_problems(events, *, resources=None) -> list[str]:
    """Audit a trace for rolling-update confluence; returns problems.

    Invariants (the chaos harness's invariant 7):

    * no wave both succeeded (``shell.wave`` status ``ok``) and aborted
      (a ``shell.abort`` naming the same wave);
    * once any rolling update ran, no node is left draining (pass the
      scheduler's ``resources`` to check; omitted = trace-only audit).

    ``events`` may be :class:`~repro.sim.TraceEvent` objects or decoded
    JSONL dicts.
    """
    problems: list[str] = []
    wave_status: dict[int, str] = {}
    aborts: list[tuple[int, str]] = []
    saw_rolling = False
    for kind, data, _ in audit_events(
        events,
        {"shell.wave": ("wave", "status"), "shell.abort": ("wave", "reason")},
    ):
        saw_rolling = True
        if kind == "shell.wave":
            wave_status[data["wave"]] = data["status"]
        else:
            aborts.append((data["wave"], data["reason"]))
    for wave, reason in aborts:
        if wave_status.get(wave) == "ok":
            problems.append(
                f"wave {wave} both succeeded and aborted ({reason})"
            )
    if saw_rolling and resources is not None:
        draining = resources.draining_nodes()
        if draining:
            problems.append(
                f"rolling update left node(s) draining: {fold_names(draining)}"
            )
    return problems
