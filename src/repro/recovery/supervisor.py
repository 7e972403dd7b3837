"""The self-healing supervisor: detection becomes repair, declaratively.

PR 3's fault machinery can *detect* a dead node (missed heartbeats at the
:class:`~repro.monitoring.GmetadTree` leaves), a failed kickstart
(``InstallState.FAILED``), or a starved job (failed at submit on a
degraded cluster) — but nothing repaired them, which is exactly the gap
between "a cluster that reports failures" and the paper's
one-part-time-admin cluster that *keeps running*.  The
:class:`Supervisor` closes the loop: a periodic kernel event sweeps the
wired subsystems against a set of declarative :class:`RecoveryPolicy`
entries and performs bounded, observable repairs:

* ``reboot.node`` — power-cycle failed nodes whose power is actually OK
  (a ``power_probe`` callback arbitrates; a dead PSU cannot be rebooted
  away), after a modelled reboot delay;
* ``restart.gmond`` — restart unresponsive monitoring daemons on
  powered-on hosts (the tree's agent hosts; table-summarized
  ``FleetRack`` hosts have no daemon to restart);
* ``undrain.node`` — return healthy drained nodes to service;
* ``resubmit.job`` — resubmit jobs that failed *in the queue* (never
  started) once usable capacity can hold them again;
* ``reinstall.node`` — re-kickstart hosts whose install failed (needs a
  wired Rocks installer + cluster).

Every repair emits a ``recover.*`` trace event; every policy is bounded
by its ``max_attempts`` per target (the sweep period provides the
pacing, so there is no backoff to configure).  The supervisor never
consumes kernel RNG — sweeps are a pure function of observed state,
preserving the determinism contract.
All repairs are idempotent against the injector's own auto-recovery:
restoring an already-restored node is a no-op, so a supervisor repair
racing a scheduled ``fault.recover`` event cannot corrupt state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MonitoringError, ProvisionError, RecoveryError

__all__ = ["RecoveryPolicy", "Supervisor", "default_policies"]

#: The actions the supervisor knows how to perform, in sweep order.
ACTIONS = (
    "reboot.node",
    "restart.gmond",
    "undrain.node",
    "resubmit.job",
    "reinstall.node",
)


@dataclass(frozen=True)
class RecoveryPolicy:
    """One declarative repair rule.

    ``max_attempts`` bounds how many times the supervisor will try
    to repair any single target under this action (repair loops on a
    genuinely broken part must converge to "needs a human", not spin
    forever).  ``delay_s`` models the repair's own duration — a reboot
    takes minutes, so the node returns ``delay_s`` after the sweep that
    ordered it.
    """

    action: str
    enabled: bool = True
    max_attempts: int = 3
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            known = ", ".join(ACTIONS)
            raise RecoveryError(
                f"unknown recovery action {self.action!r} (known: {known})"
            )
        if self.max_attempts < 1:
            raise RecoveryError(f"{self.action}: max_attempts must be >= 1")
        if self.delay_s < 0:
            raise RecoveryError(f"{self.action}: negative delay_s")


def default_policies() -> tuple[RecoveryPolicy, ...]:
    """The out-of-the-box policy set (every action on, modest bounds)."""
    return (
        RecoveryPolicy("reboot.node", max_attempts=3, delay_s=180.0),
        RecoveryPolicy("restart.gmond", max_attempts=5),
        RecoveryPolicy("undrain.node", max_attempts=3),
        RecoveryPolicy("resubmit.job", max_attempts=2),
        RecoveryPolicy("reinstall.node", max_attempts=2),
    )


@dataclass
class Repair:
    """One performed repair (the supervisor's audit trail)."""

    t_s: float
    action: str
    target: str
    attempt: int
    ok: bool = True


class Supervisor:
    """Periodic repair sweeps over wired subsystems (all optional)."""

    def __init__(
        self,
        kernel,
        *,
        scheduler=None,
        gmetad=None,
        machine=None,
        installer=None,
        cluster=None,
        power_probe=None,
        policies: tuple[RecoveryPolicy, ...] | None = None,
        period_s: float = 120.0,
    ) -> None:
        if period_s <= 0:
            raise RecoveryError(f"sweep period must be positive, got {period_s}")
        self.kernel = kernel
        self.scheduler = scheduler
        self.gmetad = gmetad
        self.machine = machine
        self.installer = installer
        self.cluster = cluster
        #: ``power_probe(node_name) -> bool``: True when the node's power
        #: is OK (reboots help).  Without one, power is assumed OK.
        self.power_probe = power_probe
        self.period_s = period_s
        policy_list = policies if policies is not None else default_policies()
        self._policies = {p.action: p for p in policy_list}
        self._attempts: dict[str, int] = {}
        self._pending_reboots: set[str] = set()
        #: nodes this supervisor brought back (the chaos audit exempts
        #: them from the crashed-means-dead confluence check)
        self.repaired_nodes: set[str] = set()
        self.repairs: list[Repair] = []
        self._sweeper = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, *, first_at_s: float | None = None):
        """Register the sweep as a periodic kernel event; returns it."""
        if self._sweeper is not None:
            raise RecoveryError("supervisor is already running")
        self._sweeper = self.kernel.every(
            self.period_s, self.sweep, first_at_s=first_at_s,
            label="supervisor.sweep",
        )
        return self._sweeper

    def stop(self) -> None:
        """Cancel the periodic sweep (idempotent)."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None

    def policy(self, action: str) -> RecoveryPolicy:
        try:
            return self._policies[action]
        except KeyError:
            raise RecoveryError(f"no policy for action {action!r}") from None

    # -- bookkeeping --------------------------------------------------------------

    def _may_attempt(self, policy: RecoveryPolicy, target: str) -> int | None:
        """Next attempt number for target, or None when the bound is spent."""
        key = f"{policy.action}:{target}"
        used = self._attempts.get(key, 0)
        if used >= policy.max_attempts:
            return None
        self._attempts[key] = used + 1
        return used + 1

    def _power_ok(self, node: str) -> bool:
        return self.power_probe is None or bool(self.power_probe(node))

    def _hw_node(self, name: str):
        if self.machine is None:
            return None
        for node in self.machine.nodes:
            if node.name == name:
                return node
        return None

    # -- the sweep ----------------------------------------------------------------

    def sweep(self) -> list[Repair]:
        """One repair pass; returns the repairs performed this sweep."""
        before = len(self.repairs)
        for action in ACTIONS:
            policy = self._policies.get(action)
            if policy is None or not policy.enabled:
                continue
            getattr(self, "_sweep_" + action.replace(".", "_"))(policy)
        return self.repairs[before:]

    def _sweep_reboot_node(self, policy: RecoveryPolicy) -> None:
        if self.scheduler is None:
            return
        for node in self.scheduler.resources.failed_nodes():
            if node in self._pending_reboots or not self._power_ok(node):
                continue
            attempt = self._may_attempt(policy, node)
            if attempt is None:
                continue
            self._pending_reboots.add(node)
            self.kernel.after(
                policy.delay_s,
                lambda node=node, attempt=attempt: self._finish_reboot(
                    node, attempt
                ),
                label=f"recover.reboot:{node}",
            )

    def _finish_reboot(self, node: str, attempt: int) -> None:
        """The reboot completed: bring the node back if it still needs it."""
        self._pending_reboots.discard(node)
        if self.scheduler is None or not self.scheduler.resources.is_failed(node):
            return  # something else (the injector's auto-recovery) beat us
        hw = self._hw_node(node)
        if hw is not None:
            hw.powered_on = True
        if self.gmetad is not None:
            try:
                self.gmetad.gmond_for(node).restore_heartbeat()
            except MonitoringError:
                pass  # not in the mesh, or on an agent-free FleetRack leaf
        self.scheduler.recover_node(node)
        self.repaired_nodes.add(node)
        self.repairs.append(
            Repair(self.kernel.now_s, "reboot.node", node, attempt)
        )
        self.kernel.trace.emit(
            "recover.node", t_s=self.kernel.now_s, subsystem="recovery",
            node=node, attempt=attempt,
        )

    def _sweep_restart_gmond(self, policy: RecoveryPolicy) -> None:
        if self.gmetad is None:
            return
        for host in self.gmetad.hosts():
            gmond = self.gmetad.gmond_for(host)
            if gmond.responsive or not gmond.host.node.powered_on:
                # A daemon on a powered-down chassis cannot be restarted;
                # that host is reboot.node's (or a human's) problem.
                continue
            if self.scheduler is not None and self.scheduler.resources.is_failed(
                host
            ):
                continue  # dead node, not a dead daemon
            attempt = self._may_attempt(policy, host)
            if attempt is None:
                continue
            gmond.restore_heartbeat()
            self.repairs.append(
                Repair(self.kernel.now_s, "restart.gmond", host, attempt)
            )
            self.kernel.trace.emit(
                "recover.gmond", t_s=self.kernel.now_s, subsystem="recovery",
                host=host,
            )

    def _sweep_undrain_node(self, policy: RecoveryPolicy) -> None:
        if self.scheduler is None:
            return
        for node in self.scheduler.resources.draining_nodes():
            if self.scheduler.resources.is_failed(node):
                continue
            hw = self._hw_node(node)
            if hw is not None and not hw.powered_on:
                continue
            if not self._power_ok(node):
                continue
            attempt = self._may_attempt(policy, node)
            if attempt is None:
                continue
            self.scheduler.undrain_node(node)
            self.repairs.append(
                Repair(self.kernel.now_s, "undrain.node", node, attempt)
            )
            self.kernel.trace.emit(
                "recover.undrain", t_s=self.kernel.now_s, subsystem="recovery",
                node=node,
            )

    def _sweep_resubmit_job(self, policy: RecoveryPolicy) -> None:
        if self.scheduler is None:
            return
        usable = self.scheduler.resources.usable_cores
        candidates = [
            job
            for job in list(self.scheduler.finished)
            if job.state.value == "failed"
            and job.start_time_s is None
            and job.cores <= usable
        ]
        for job in candidates:
            attempt = self._may_attempt(policy, job.name)
            if attempt is None:
                continue
            self.scheduler.resubmit(job)
            self.repairs.append(
                Repair(self.kernel.now_s, "resubmit.job", job.name, attempt)
            )
            self.kernel.trace.emit(
                "recover.resubmit", t_s=self.kernel.now_s, subsystem="recovery",
                job=job.name, attempt=attempt,
            )

    def _sweep_reinstall_node(self, policy: RecoveryPolicy) -> None:
        if self.installer is None or self.cluster is None:
            return
        failed = [
            record.name
            for record in self.cluster.rocksdb.compute_hosts()
            if record.state.value == "install-failed"
        ]
        for name in failed:
            if not self._power_ok(name):
                continue
            attempt = self._may_attempt(policy, name)
            if attempt is None:
                continue
            hw = self._hw_node(name)
            if hw is not None:
                hw.powered_on = True
            try:
                self.installer.reinstall_node(self.cluster, name)
                ok = True
            except ProvisionError:
                # The re-kickstart crashed too; the FAILED state stands and
                # the attempt counter converges toward "needs a human".
                ok = False
            self.repairs.append(
                Repair(self.kernel.now_s, "reinstall.node", name, attempt, ok=ok)
            )
            self.kernel.trace.emit(
                "recover.reinstall", t_s=self.kernel.now_s,
                subsystem="recovery", node=name, attempt=attempt, ok=ok,
            )

    # -- snapshots ----------------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of repair bookkeeping (checkpointing)."""
        return {
            "attempts": dict(sorted(self._attempts.items())),
            "pending_reboots": sorted(self._pending_reboots),
            "repaired_nodes": sorted(self.repaired_nodes),
            "repairs": [
                {
                    "t_s": r.t_s,
                    "action": r.action,
                    "target": r.target,
                    "attempt": r.attempt,
                    "ok": r.ok,
                }
                for r in self.repairs
            ],
        }
