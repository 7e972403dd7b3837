"""Limulus-style power management (Section 5.2).

"Further, there is power management that turns nodes on and off as needed
for maximum power efficiency.  This can also be scheduled."

:class:`PowerManagedScheduler` layers node on/off control over the Maui
policy: compute nodes power off when they go idle and power back on (paying
a boot delay, charged to the jobs that needed them) when demand returns.
Energy is integrated exactly over the simulation: busy nodes draw their full
power, idle-but-on nodes their idle power, off nodes nothing.

``repro.paper``'s ``limulus_power_mgmt`` artefact runs the same trace with
management on and off and reports energy saved vs added wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchedulerError
from ..hardware.chassis import Machine
from ..sim import SimKernel
from .base import ClusterResources
from .job import Allocation, Job
from .torque import MauiScheduler

__all__ = ["PowerManagedScheduler", "EnergyReport", "PowerWindow"]


@dataclass(frozen=True)
class PowerWindow:
    """A scheduled power policy window (Section 5.2: "This can also be
    scheduled").

    Within ``[start_s, end_s)`` of each recurring ``period_s`` (a day, by
    default), compute nodes are *kept off* regardless of demand — e.g. a
    deskside machine silenced overnight.  Jobs submitted inside the window
    simply wait for it to end.
    """

    start_s: float
    end_s: float
    period_s: float = 24 * 3600.0

    def __post_init__(self) -> None:
        if not 0 <= self.start_s < self.end_s <= self.period_s:
            raise SchedulerError(
                f"invalid power window [{self.start_s}, {self.end_s}) over "
                f"period {self.period_s}"
            )

    def is_blackout(self, now_s: float) -> bool:
        phase = now_s % self.period_s
        return self.start_s <= phase < self.end_s

    def next_window_end(self, now_s: float) -> float:
        """The absolute time the current/upcoming blackout ends."""
        base = now_s - (now_s % self.period_s)
        end = base + self.end_s
        return end if end > now_s else end + self.period_s


@dataclass
class EnergyReport:
    """Energy accounting for one simulation."""

    busy_joules: float = 0.0
    idle_joules: float = 0.0
    boot_joules: float = 0.0
    boot_events: int = 0
    #: node-seconds spent powered off (the saving's source)
    off_node_seconds: float = 0.0

    @property
    def total_joules(self) -> float:
        return self.busy_joules + self.idle_joules + self.boot_joules

    @property
    def total_kwh(self) -> float:
        return self.total_joules / 3.6e6


class PowerManagedScheduler(MauiScheduler):
    """Maui + node power management.

    Parameters
    ----------
    machine:
        Needed for per-node power figures.
    manage_power:
        False reproduces the always-on baseline (same policy, no power
        control) so the two runs differ only in power behaviour.
    boot_delay_s:
        Time a powered-off node takes to become usable; jobs whose
        allocation required booting start late by this much.
    boot_power_watts:
        Extra draw during boot (disks spinning up, POST).
    """

    scheduler_name = "torque+maui+powermgmt"

    def __init__(
        self,
        machine: Machine,
        *,
        manage_power: bool = True,
        boot_delay_s: float = 60.0,
        boot_power_watts: float = 20.0,
        blackout: "PowerWindow | None" = None,
        kernel: SimKernel | None = None,
    ) -> None:
        super().__init__(ClusterResources(machine), kernel=kernel)
        self.machine = machine
        self.manage_power = manage_power
        self.boot_delay_s = boot_delay_s
        self.boot_power_watts = boot_power_watts
        self.blackout = blackout
        self._node_power: dict[str, tuple[float, float]] = {
            n.name: (n.draw_watts, n.idle_watts) for n in machine.compute_nodes
        }
        self._hw_by_name = {n.name: n for n in machine.compute_nodes}
        self.energy = EnergyReport()
        self._last_account_s = 0.0
        self._just_booted: set[str] = set()
        if self.manage_power:
            # Start with all compute nodes powered down (deskside at rest).
            for node in self.resources.idle_nodes():
                self._set_power(node, on=False)

    def _set_power(self, node_name: str, *, on: bool) -> None:
        """Flip a node's power both in the allocator and on the hardware —
        the monitoring mesh and Machine.draw_watts see the same state the
        scheduler does."""
        self.resources.set_offline(node_name, not on)
        hw = self._hw_by_name.get(node_name)
        if hw is not None:
            hw.powered_on = on
        if on:
            self.kernel.trace.emit(
                "node.power_on", t_s=self.now_s, subsystem="power",
                node=node_name, boot_delay_s=self.boot_delay_s,
            )
        else:
            self.kernel.trace.emit(
                "node.power_off", t_s=self.now_s, subsystem="power",
                node=node_name,
            )

    # -- energy integration ---------------------------------------------------

    def _busy_cores_by_node(self) -> dict[str, int]:
        busy: dict[str, int] = {}
        for job in self.running:
            assert job.allocation is not None
            for node, cores in job.allocation.by_node:
                busy[node] = busy.get(node, 0) + cores
        return busy

    def _account_energy(self, until_s: float) -> None:
        """Integrate power over [last accounting point, until_s]."""
        dt = until_s - self._last_account_s
        if dt < 0:
            raise SchedulerError("time went backwards in energy accounting")
        if dt == 0:
            return
        busy = self._busy_cores_by_node()
        for node, (draw, idle) in self._node_power.items():
            if self.resources.is_offline(node):
                self.energy.off_node_seconds += dt
            elif busy.get(node, 0) > 0:
                self.energy.busy_joules += draw * dt
            else:
                self.energy.idle_joules += idle * dt
        self._last_account_s = until_s

    # -- power control -----------------------------------------------------------

    def _power_on_for_demand(self) -> None:
        """Bring nodes online until pending demand fits (or none left).

        Failed nodes are never candidates: power management stops routing
        to crashed hardware until :meth:`recover_node` restores it.
        """

        def powerable(n: str) -> bool:
            return self.resources.is_offline(n) and not self.resources.is_failed(n)

        demand = sum(j.cores for j in self.pending)
        while (
            demand > self.resources.free_cores()
            and any(powerable(n) for n in self.resources.node_names())
        ):
            node = next(n for n in self.resources.node_names() if powerable(n))
            self._set_power(node, on=True)
            self._just_booted.add(node)
            self.energy.boot_events += 1
            self.energy.boot_joules += self.boot_power_watts * self.boot_delay_s

    def _power_off_idle(self) -> None:
        """Power down idle nodes (immediate-off policy)."""
        for node in self.resources.idle_nodes():
            self._set_power(node, on=False)

    # -- engine hooks --------------------------------------------------------------

    def _start(self, job: Job, allocation: Allocation) -> None:
        booted = [n for n in allocation.node_names if n in self._just_booted]
        super()._start(job, allocation)
        if booted and self.manage_power:
            # The job waits for its nodes to boot: shift its window and
            # re-key the completion event through the kernel's first-class
            # reschedule API (no private heap to mutate).
            assert job.start_time_s is not None and job.end_time_s is not None
            job.start_time_s += self.boot_delay_s
            job.end_time_s += self.boot_delay_s
            self.reschedule_completion(job)
            for node in booted:
                self._just_booted.discard(node)

    def crash_node(self, node: str, *, reason: str = "node crash"):
        # Energy up to the crash instant is charged at the pre-crash state;
        # from here the node draws nothing (offline in the integrator).
        self._account_energy(self.now_s)
        affected = super().crash_node(node, reason=reason)
        hw = self._hw_by_name.get(node)
        if hw is not None:
            hw.powered_on = False
        self._just_booted.discard(node)
        return affected

    def recover_node(self, node: str) -> None:
        self._account_energy(self.now_s)
        self.resources.restore_node(node)
        if self.manage_power:
            # Repaired nodes come back powered down; the next demand spike
            # boots them through the normal path (paying the boot delay).
            self._set_power(node, on=False)
        if self.on_idle_change is not None:
            self.on_idle_change(self)
        self._try_start_jobs()

    def _in_blackout(self) -> bool:
        return (
            self.manage_power
            and self.blackout is not None
            and self.blackout.is_blackout(self.now_s)
        )

    def _try_start_jobs(self) -> None:
        if self._in_blackout():
            # scheduled silence: nothing starts; pending jobs wait for the
            # window to end (run_to_completion advances time past it)
            return
        if self.manage_power and self.pending:
            self._power_on_for_demand()
        super()._try_start_jobs()

    def submit(self, job: Job) -> Job:
        self._account_energy(self.now_s)
        return super().submit(job)

    def _on_job_end(self, job: Job) -> None:
        # The kernel advanced the clock to the completion time; integrate
        # energy over the elapsed interval while the job still holds its
        # cores (busy draw), then complete it and power down what idles.
        self._account_energy(self.now_s)
        super()._on_job_end(job)
        if self.manage_power:
            self._power_off_idle()

    def run_to_completion(self):  # type: ignore[override]
        # Blackout windows can stall pending work with no completion events
        # to advance time; whenever that happens, run the kernel forward to
        # the window's end (energy accounted with the nodes off) and retry.
        while True:
            while self.step():
                pass
            if self.pending and self._in_blackout():
                assert self.blackout is not None
                wake = self.blackout.next_window_end(self.now_s)
                self._account_energy(wake)
                self.kernel.run_until(wake)
                self._try_start_jobs()
                continue
            break
        stats = super().run_to_completion()
        self._account_energy(max(self.now_s, stats.makespan_s))
        if self.manage_power:
            self._power_off_idle()
        return stats
