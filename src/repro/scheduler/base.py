"""The event-driven scheduling core shared by all three schedulers.

A :class:`ClusterResources` tracks free cores per node (built from a
:class:`~repro.hardware.chassis.Machine`); :class:`BaseScheduler` drives
the event loop through a :class:`~repro.sim.SimKernel`: job completions
are kernel events, time advances only through the kernel clock, and every
lifecycle transition is published on the kernel's trace bus.  Pass a
shared kernel to co-simulate with other subsystems (power, monitoring,
MPI) on one timeline; without one the scheduler creates its own.

Invariants (tested property-style):

* a node's allocated cores never exceed its core count;
* a job runs exactly once and ends at ``start + charged_runtime``;
* jobs over their walltime limit are killed at the limit and FAILED.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from ..errors import NodeOfflineError, SchedulerError
from ..fleet import FleetTable
from ..hardware.chassis import Machine
from ..sim import EventHandle, SimKernel
from .job import Allocation, Job, JobState

__all__ = ["ClusterResources", "BaseScheduler", "SchedulerStats"]


class ClusterResources:
    """Free-core accounting over a machine's nodes.

    Three orthogonal per-node flags matter to the allocator:

    * **offline** — not allocatable right now (powered off, crashed, or a
      completed drain); power management flips this;
    * **failed** — crashed hardware: offline *and* not eligible for power
      management to bring back until explicitly restored;
    * **draining** — no new allocations, running work finishes; the
      scheduler completes the drain (offline) when the node idles.

    ``exclude`` drops nodes entirely (e.g. nodes whose provisioning
    failed — they never become schedulable resources).

    Storage is columnar: capacity and free cores live in parallel arrays
    over name-sorted nodes, and the usability flags *are*
    :class:`~repro.fleet.FleetTable` flag columns.  Built from a
    :class:`Machine`, the table is private; built with :meth:`from_fleet`
    it is the cluster's shared fleet table, so an offline/failed/drain
    decision here is immediately visible to monitoring and vice versa.

    The answers are kept current from the table's change feed
    (:meth:`FleetTable.watch` over this view's rows): the core totals, the
    draining and failed sets, and a free-count bucket index over
    allocatable nodes.  Every write — this view's own allocations and flag
    changes as much as another layer's — reaches them by the same path:
    the write notifies the feed, and the next read re-files the rows it
    names.  A removed (tombstoned) row counts toward no total and is never
    allocated.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        use_head_for_jobs: bool = False,
        exclude: set[str] | frozenset[str] = frozenset(),
    ):
        # By XSEDE convention compute jobs stay off the frontend.
        nodes = machine.nodes if use_head_for_jobs else machine.compute_nodes
        nodes = [n for n in nodes if n.name not in exclude]
        if not nodes:
            raise SchedulerError(f"{machine.name}: no compute nodes to schedule on")
        fleet = FleetTable()
        for n in nodes:
            fleet.add_row(
                name=n.name,
                appliance="compute",
                state="os-installed",
                cores=n.cores,
            )
        self._bind(fleet, list(range(len(nodes))))

    @classmethod
    def from_fleet(
        cls,
        fleet: FleetTable,
        *,
        label: str = "fleet",
        use_head_for_jobs: bool = False,
        exclude: set[str] | frozenset[str] = frozenset(),
    ) -> "ClusterResources":
        """Build resources directly over a cluster's fleet table.

        Schedulable nodes are the live compute rows in install state
        ``os-installed`` (a half-provisioned node never becomes capacity);
        ``use_head_for_jobs`` admits the frontend row too.  The flag
        columns are shared, not copied — this is the 10k-node path, where
        rocks, the scheduler, and monitoring all read one table.
        """
        installed = fleet.state_code("os-installed")
        indices = [
            i
            for i in fleet.ordered_indices()
            if fleet.names[i] not in exclude
            and fleet.states[i] == installed
            and (use_head_for_jobs or fleet.appliances[i] == "compute")
        ]
        if not indices:
            raise SchedulerError(f"{label}: no compute nodes to schedule on")
        self = cls.__new__(cls)
        self._bind(fleet, indices)
        return self

    def _bind(self, fleet: FleetTable, indices: list[int]) -> None:
        """Wire the columnar views: name-sorted positions over fleet rows."""
        order = sorted(indices, key=lambda i: fleet.names[i])
        self._fleet = fleet
        #: local position -> fleet row index
        self._fidx = order
        #: fleet row index -> local position
        self._row_pos = {i: p for p, i in enumerate(order)}
        #: node names, sorted (the iteration order of every query below)
        self._names = [fleet.names[i] for i in order]
        self._pos = {name: p for p, name in enumerate(self._names)}
        self._capv = array("l", (fleet.cores[i] for i in order))
        self._freev = array("l", self._capv)
        self._total_cores = sum(self._capv)
        # What each position last contributed to the answers; _sync moves
        # a position's contribution when the feed names its row.
        zeros = array("l", [0]) * len(order)
        self._online_of = array("l", zeros)
        self._free_of = array("l", zeros)
        self._usable_of = array("l", zeros)
        #: the bucket a position is filed under (0 = not allocatable)
        self._bucket_of = array("l", zeros)
        self._online_cores = self._free_cores = self._usable_cores = 0
        #: free cores across the bucket index (what try_allocate can give)
        self._allocatable_cores = 0
        #: free count -> allocatable positions with that many free, ascending
        self._buckets: dict[int, list[int]] = {}
        self._draining: set[int] = set()
        self._failed: set[int] = set()
        self._feed = fleet.watch(order)
        self._feed.update(order)  # the first read files every position

    def _sync(self) -> None:
        """Re-file every position whose row the feed names, then drain it."""
        feed = self._feed
        if not feed:
            return
        fleet = self._fleet
        alive, offline = fleet.alive, fleet.offline
        failed, draining = fleet.failed, fleet.draining
        buckets = self._buckets
        for i in feed:
            p = self._row_pos[i]
            cap, free = self._capv[p], self._freev[p]
            live = alive[i]
            online = live and not offline[i]
            new = cap if online else 0
            self._online_cores += new - self._online_of[p]
            self._online_of[p] = new
            new = free if online else 0
            self._free_cores += new - self._free_of[p]
            self._free_of[p] = new
            new = cap if live and not failed[i] and not draining[i] else 0
            self._usable_cores += new - self._usable_of[p]
            self._usable_of[p] = new
            new = free if online and not draining[i] else 0
            old = self._bucket_of[p]
            if new != old:
                if old:
                    filed = buckets[old]
                    del filed[bisect_left(filed, p)]
                    if not filed:
                        del buckets[old]
                if new:
                    insort(buckets.setdefault(new, []), p)
                self._allocatable_cores += new - old
                self._bucket_of[p] = new
            if live and draining[i]:
                self._draining.add(p)
            else:
                self._draining.discard(p)
            if live and failed[i]:
                self._failed.add(p)
            else:
                self._failed.discard(p)
        feed.clear()

    def _position(self, node: str) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise SchedulerError(f"unknown node {node}") from None

    def _flag(self, column: str, pos: int) -> bool:
        return bool(getattr(self._fleet, column)[self._fidx[pos]])

    def _set_flag(self, column: str, pos: int, value: bool) -> None:
        self._fleet.set_flag(column, self._fidx[pos], value)

    @property
    def total_cores(self) -> int:
        """Cores on all (online + offline) nodes."""
        return self._total_cores

    @property
    def online_cores(self) -> int:
        """Cores on online nodes."""
        self._sync()
        return self._online_cores

    def free_cores(self) -> int:
        """Currently unallocated cores on online nodes."""
        self._sync()
        return self._free_cores

    def node_names(self) -> list[str]:
        return list(self._names)

    def capacity_of(self, node: str) -> int:
        return self._capv[self._position(node)]

    def free_of(self, node: str) -> int:
        pos = self._position(node)
        if self._flag("offline", pos) or not self._flag("alive", pos):
            return 0
        return self._freev[pos]

    def allocated_of(self, node: str) -> int:
        """Cores running jobs hold on the node, whatever its flags (the
        per-node load monitoring reports)."""
        pos = self._position(node)
        return self._capv[pos] - self._freev[pos]

    @property
    def usable_cores(self) -> int:
        """Cores a job could ever be given: not failed, not draining.

        Powered-off nodes count (power management can bring them back);
        failed ones do not until :meth:`restore_node`.
        """
        self._sync()
        return self._usable_cores

    def set_offline(self, node: str, offline: bool) -> None:
        """Mark a node offline/online (power management uses this).

        A node with allocated cores cannot go offline; a failed node
        cannot come back online until :meth:`restore_node`.
        """
        pos = self._position(node)
        if offline:
            if self._freev[pos] != self._capv[pos]:
                raise SchedulerError(f"node {node} is busy; cannot take offline")
            self._set_flag("offline", pos, True)
        else:
            if self._flag("failed", pos):
                raise NodeOfflineError(
                    f"node {node} has failed; restore it before bringing online"
                )
            self._set_flag("offline", pos, False)

    def is_offline(self, node: str) -> bool:
        return self._flag("offline", self._position(node))

    def fail_node(self, node: str) -> None:
        """Record a hardware failure: offline now, and power management
        must not route to the node again until it is restored.

        The caller (the scheduler) releases any allocations on the node
        first — a failed node's cores are gone, not leaked.
        """
        pos = self._position(node)
        if self._freev[pos] != self._capv[pos]:
            raise SchedulerError(
                f"node {node} still holds allocations; requeue its jobs "
                f"before marking it failed"
            )
        self._set_flag("failed", pos, True)
        self._set_flag("offline", pos, True)
        self._set_flag("draining", pos, False)

    def restore_node(self, node: str) -> None:
        """Bring a failed (or offline/draining) node back into service."""
        pos = self._position(node)
        self._set_flag("failed", pos, False)
        self._set_flag("draining", pos, False)
        self._set_flag("offline", pos, False)

    def is_failed(self, node: str) -> bool:
        return self._flag("failed", self._position(node))

    def failed_nodes(self) -> list[str]:
        self._sync()
        return [self._names[p] for p in sorted(self._failed)]

    def set_draining(self, node: str, draining: bool) -> None:
        """Start/stop a drain: no new allocations, running work finishes."""
        self._set_flag("draining", self._position(node), draining)

    def is_draining(self, node: str) -> bool:
        return self._flag("draining", self._position(node))

    def draining_nodes(self) -> list[str]:
        self._sync()
        return [self._names[p] for p in sorted(self._draining)]

    def try_allocate(self, cores: int) -> Allocation | None:
        """First-fit-decreasing allocation across online nodes, or None.

        Packs the fullest nodes first to keep fragmentation low (what Maui's
        node-allocation policy does by default for core-scheduled clusters).
        Positions are name-sorted, so walking the buckets from the largest
        free count down, positions ascending, is the ``(-free, name)``
        order: the walk costs O(buckets + nodes taken).
        """
        if cores <= 0:
            raise SchedulerError(f"cannot allocate {cores} cores")
        self._sync()
        if cores > self._allocatable_cores:
            return None
        free = self._freev
        buckets = self._buckets
        chunks: list[tuple[str, int]] = []
        positions: list[tuple[int, int]] = []
        remaining = cores
        for pos in (
            p for count in sorted(buckets, reverse=True) for p in buckets[count]
        ):
            take = min(free[pos], remaining)
            chunks.append((self._names[pos], take))
            positions.append((pos, take))
            remaining -= take
            if remaining == 0:
                break
        for pos, take in positions:
            free[pos] -= take
            # Mirror allocated cores into the fleet load column so
            # monitoring leaves read live load straight off the table.
            self._fleet.set_load(
                self._fidx[pos], float(self._capv[pos] - free[pos])
            )
        return Allocation(by_node=tuple(chunks))

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's cores."""
        for node, count in allocation.by_node:
            pos = self._position(node)
            if self._freev[pos] + count > self._capv[pos]:
                raise SchedulerError(
                    f"double free on node {node}: {self._freev[pos]}+{count} "
                    f"> {self._capv[pos]}"
                )
            self._freev[pos] += count
            self._fleet.set_load(
                self._fidx[pos], float(self._capv[pos] - self._freev[pos])
            )

    def is_idle(self, node: str) -> bool:
        """True when no cores are allocated on the node (any flag state)."""
        pos = self._position(node)
        return self._freev[pos] == self._capv[pos]

    def idle_nodes(self) -> list[str]:
        """Online nodes with all cores free."""
        alive, offline = self._fleet.alive, self._fleet.offline
        return [
            n
            for p, (n, i) in enumerate(zip(self._names, self._fidx))
            if alive[i] and not offline[i] and self._freev[p] == self._capv[p]
        ]

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of all per-node accounting and flags."""
        return {
            "capacity": dict(zip(self._names, self._capv)),
            "free": dict(zip(self._names, self._freev)),
            "offline": [
                n for p, n in enumerate(self._names) if self._flag("offline", p)
            ],
            "failed": self.failed_nodes(),
            "draining": self.draining_nodes(),
        }


@dataclass
class SchedulerStats:
    """Aggregate outcomes of a completed simulation."""

    completed: int = 0
    failed: int = 0
    makespan_s: float = 0.0
    total_core_seconds: float = 0.0
    total_wait_s: float = 0.0
    job_count: int = 0

    @property
    def mean_wait_s(self) -> float:
        return self.total_wait_s / self.job_count if self.job_count else 0.0

    def utilization(self, total_cores: int) -> float:
        """Delivered core-seconds over available core-seconds."""
        available = total_cores * self.makespan_s
        return self.total_core_seconds / available if available > 0 else 0.0


class BaseScheduler:
    """Event-driven scheduler core.

    Subclasses set :attr:`scheduler_name` and override
    :meth:`_schedulable_order` (queue policy) and :attr:`backfill`.
    """

    scheduler_name = "base"
    #: EASY backfill: allow jobs to jump the queue if they finish before the
    #: head job's reservation would start.
    backfill = False

    def __init__(
        self, resources: ClusterResources, *, kernel: SimKernel | None = None
    ) -> None:
        self.resources = resources
        self.kernel = kernel if kernel is not None else SimKernel()
        self.pending: list[Job] = []
        self.running: list[Job] = []
        self.finished: list[Job] = []
        #: pending completion events, one kernel handle per running job
        self._completions: dict[int, EventHandle] = {}
        self._completions_fired = 0
        #: hook called whenever cores free up (power manager listens here)
        self.on_idle_change = None
        #: hook called with each job right after it starts (final times set)
        self.on_job_start = None

    @property
    def now_s(self) -> float:
        """Current simulated time (the kernel clock)."""
        return self.kernel.now_s

    @now_s.setter
    def now_s(self, time_s: float) -> None:
        # Traces jump the clock forward between bursts.  Events due inside
        # the window (running jobs completing) fire on the way — the old
        # ad-hoc clock deferred them and then ran time backwards.
        self.kernel.run_until(time_s)

    # -- submission ---------------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """qsub/sbatch: enqueue a job at the current simulated time."""
        if job.state is not JobState.PENDING:
            raise SchedulerError(f"job {job.name} was already submitted")
        if job.cores > self.resources.total_cores:
            raise SchedulerError(
                f"job {job.name} requests {job.cores} cores but the cluster "
                f"has only {self.resources.total_cores}"
            )
        job.submit_time_s = self.now_s
        self.pending.append(job)
        self.kernel.trace.emit(
            "job.submit", t_s=self.now_s, subsystem="scheduler",
            job=job.name, user=job.user, cores=job.cores,
        )
        if job.cores > self.resources.usable_cores:
            # The cluster has degraded below this job's needs (failed or
            # draining nodes): fail it now rather than let it starve —
            # the same policy crash_node applies to already-queued work.
            self._fail_unrunnable_pending(
                reason="insufficient usable cores at submit"
            )
        self._try_start_jobs()
        return job

    def cancel(self, job: Job) -> None:
        """qdel a pending job (running jobs run to completion here)."""
        if job in self.pending:
            self.pending.remove(job)
            job.state = JobState.CANCELLED
            self.finished.append(job)
            self.kernel.trace.emit(
                "job.cancel", t_s=self.now_s, subsystem="scheduler", job=job.name
            )
        else:
            raise SchedulerError(f"job {job.name} is not pending")

    # -- degradation (node failure and maintenance) --------------------------------

    def crash_node(self, node: str, *, reason: str = "node crash") -> list[Job]:
        """A node died under running work: requeue its jobs, fail the node.

        Torque/SLURM/SGE all requeue (re-runnable) jobs whose execution
        host vanished; the semantics preserved here: every affected job
        returns to PENDING with its original submit time (wait-time
        accounting keeps charging the queue), its completion event is
        cancelled, and the whole allocation — including chunks on
        surviving nodes — is released.  Pending jobs that can no longer
        ever fit the usable cores are failed rather than left to starve.
        Returns the requeued jobs.
        """
        self.resources.capacity_of(node)
        affected = [
            j
            for j in self.running
            if j.allocation is not None and node in j.allocation.node_names
        ]
        for job in affected:
            handle = self._completions.pop(job.job_id, None)
            if handle is not None and handle.active:
                self.kernel.cancel(handle)
            self.running.remove(job)
            assert job.allocation is not None
            self.resources.release(job.allocation)
            self._requeue(job, reason=reason)
        self.resources.fail_node(node)
        self._fail_unrunnable_pending(reason=f"{reason}: insufficient usable cores")
        if self.on_idle_change is not None:
            self.on_idle_change(self)
        self._try_start_jobs()
        return affected

    def recover_node(self, node: str) -> None:
        """A failed/offline node returned to service; resume scheduling."""
        self.resources.restore_node(node)
        if self.on_idle_change is not None:
            self.on_idle_change(self)
        self._try_start_jobs()

    def drain_node(
        self,
        node: str,
        *,
        reason: str = "maintenance",
        deadline_s: float | None = None,
    ) -> None:
        """pbsnodes -o / scontrol drain: stop routing work to the node.

        Running jobs finish; the drain completes (node offline) as soon as
        the node idles.  With ``deadline_s``, jobs still running when the
        deadline expires are force-requeued (emitting ``job.requeue``) so
        the drain is bounded — a rolling-update wave cannot hang forever
        behind one straggler job.
        """
        self.drain_nodes([node], reason=reason, deadline_s=deadline_s)

    def drain_nodes(
        self,
        nodes: list[str],
        *,
        reason: str = "maintenance",
        deadline_s: float | None = None,
    ) -> None:
        """Drain a batch of nodes under one (optional) shared deadline.

        The batch form of :meth:`drain_node`: one ``node.drain`` event per
        node, one deadline event and one idle-drain sweep for the whole
        batch — what a wave-sized drain needs at fleet scale.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise SchedulerError(
                f"drain deadline must be positive, got {deadline_s}"
            )
        for node in nodes:
            self.resources.set_draining(node, True)
            self.kernel.trace.emit(
                "node.drain", t_s=self.now_s, subsystem="scheduler",
                node=node, reason=reason,
            )
        if deadline_s is not None and nodes:
            self.kernel.at(
                self.now_s + deadline_s,
                lambda batch=tuple(nodes): self._drain_deadline(batch),
                label="drain.deadline",
            )
        self._complete_drains()

    def _drain_deadline(self, nodes: tuple[str, ...]) -> None:
        """Deadline callback: force-requeue stragglers on draining nodes.

        Nodes whose drain already completed (or was cancelled) are left
        alone; for the rest, every running job touching them is requeued —
        ``try_allocate`` excludes draining nodes, so the work lands
        elsewhere — and the now-idle drains complete.
        """
        stragglers = frozenset(
            node
            for node in nodes
            if self.resources.is_draining(node) and not self.resources.is_idle(node)
        )
        if stragglers:
            affected = [
                j
                for j in self.running
                if j.allocation is not None
                and any(n in stragglers for n in j.allocation.node_names)
            ]
            for job in affected:
                handle = self._completions.pop(job.job_id, None)
                if handle is not None and handle.active:
                    self.kernel.cancel(handle)
                self.running.remove(job)
                assert job.allocation is not None
                self.resources.release(job.allocation)
                self._requeue(job, reason="drain deadline")
        self._complete_drains()
        self._try_start_jobs()

    def undrain_node(self, node: str) -> None:
        """Cancel a drain (and bring a drained-offline node back)."""
        if self.resources.is_failed(node):
            raise NodeOfflineError(
                f"node {node} has failed; recover it instead of undraining"
            )
        self.resources.set_draining(node, False)
        if self.resources.is_offline(node):
            self.resources.set_offline(node, False)
        self._try_start_jobs()

    def resubmit(self, job: Job) -> Job:
        """Give a FAILED-in-queue job another chance (supervisor API).

        Only jobs that never started qualify — they were failed because
        the degraded cluster could not hold them, not because they ran
        badly; once capacity returns the supervisor routes them back in.
        The job re-enters the queue as a fresh submission at the current
        time (its wait-time clock restarts — the old wait was charged to
        the failure, not the queue).
        """
        if job not in self.finished or job.state is not JobState.FAILED:
            raise SchedulerError(
                f"job {job.name} is not a failed finished job; cannot resubmit"
            )
        if job.start_time_s is not None:
            raise SchedulerError(
                f"job {job.name} already ran and failed; resubmit only "
                f"re-queues jobs that never started"
            )
        self.finished.remove(job)
        job.state = JobState.PENDING
        job.allocation = None
        job.end_time_s = None
        job.submit_time_s = self.now_s
        self.pending.append(job)
        self.kernel.trace.emit(
            "job.submit", t_s=self.now_s, subsystem="scheduler",
            job=job.name, user=job.user, cores=job.cores,
        )
        self._try_start_jobs()
        return job

    def _requeue(self, job: Job, *, reason: str) -> None:
        job.state = JobState.PENDING
        job.allocation = None
        job.start_time_s = None
        job.end_time_s = None
        self.pending.append(job)
        self.kernel.trace.emit(
            "job.requeue", t_s=self.now_s, subsystem="scheduler",
            job=job.name, reason=reason,
        )

    def _fail_unrunnable_pending(self, *, reason: str) -> None:
        """Fail pending jobs that no set of usable nodes can ever satisfy."""
        usable = self.resources.usable_cores
        for job in [j for j in self.pending if j.cores > usable]:
            self.pending.remove(job)
            job.state = JobState.FAILED
            self.finished.append(job)
            self.kernel.trace.emit(
                "job.end", t_s=self.now_s, subsystem="scheduler",
                job=job.name, state=job.state.value,
            )

    def _complete_drains(self) -> None:
        """Take idle draining nodes offline (their drain is done)."""
        for node in self.resources.draining_nodes():
            if not self.resources.is_offline(node) and self.resources.is_idle(node):
                self.resources.set_offline(node, True)

    # -- policy ------------------------------------------------------------------

    def _schedulable_order(self) -> list[Job]:
        """Pending jobs in the order the policy wants to start them."""
        raise NotImplementedError

    # -- engine -------------------------------------------------------------------

    def _start(self, job: Job, allocation: Allocation) -> None:
        job.state = JobState.RUNNING
        job.start_time_s = self.now_s
        job.allocation = allocation
        job.end_time_s = self.now_s + job.charged_runtime_s
        self.pending.remove(job)
        self.running.append(job)
        self._completions[job.job_id] = self.kernel.at(
            job.end_time_s,
            lambda job=job: self._on_job_end(job),
            label=f"job.end:{job.name}",
        )

    def reschedule_completion(self, job: Job) -> None:
        """Re-key a running job's completion event to ``job.end_time_s``.

        The first-class API for policies that shift a job's window after
        it started (boot delays, preemption models) — no private heap to
        mutate.
        """
        try:
            handle = self._completions[job.job_id]
        except KeyError:
            raise SchedulerError(
                f"job {job.name} has no pending completion event"
            ) from None
        assert job.end_time_s is not None
        self._completions[job.job_id] = self.kernel.reschedule(
            handle, job.end_time_s
        )

    def _on_job_end(self, job: Job) -> None:
        """Kernel callback: the completion event for one running job."""
        self._completions.pop(job.job_id, None)
        self._completions_fired += 1
        self.running.remove(job)
        assert job.allocation is not None
        self.resources.release(job.allocation)
        job.state = JobState.FAILED if job.exceeded_walltime else JobState.COMPLETED
        self.finished.append(job)
        self.kernel.trace.emit(
            "job.end", t_s=self.now_s, subsystem="scheduler",
            job=job.name, state=job.state.value,
        )
        self._complete_drains()
        if self.on_idle_change is not None:
            self.on_idle_change(self)
        self._try_start_jobs()

    def _earliest_start_for_head(self) -> float:
        """When the queue-head job could start, given running jobs end on
        schedule — the EASY-backfill reservation point."""
        order = self._schedulable_order()
        if not order:
            return self.now_s
        head = order[0]
        free = self.resources.free_cores()
        if free >= head.cores:
            return self.now_s
        ends = sorted((j.end_time_s or 0.0, j.cores) for j in self.running)
        for end_time, cores in ends:
            free += cores
            if free >= head.cores:
                return end_time
        return float("inf")

    def _try_start_jobs(self) -> None:
        """Start everything the policy allows right now."""
        progress = True
        while progress:
            progress = False
            order = self._schedulable_order()
            # The head's reservation must be computed BEFORE any tentative
            # allocation, or the backfill check reads corrupted free counts.
            reservation = self._earliest_start_for_head()
            for index, job in enumerate(order):
                if index > 0 and not self.backfill:
                    # Strict FIFO: only the head may start.
                    break
                if index > 0 and self.backfill:
                    # EASY: a backfilled job must not delay the head.
                    if self.now_s + job.charged_runtime_s > reservation:
                        continue
                allocation = self.resources.try_allocate(job.cores)
                if allocation is not None:
                    self._start(job, allocation)
                    # Emitted after _start returns so subclass adjustments
                    # (boot delays) are reflected in the traced times.
                    assert job.start_time_s is not None
                    self.kernel.trace.emit(
                        "job.start", t_s=job.start_time_s, subsystem="scheduler",
                        job=job.name, cores=job.cores, nodes=str(allocation),
                        wait_s=job.start_time_s - job.submit_time_s,
                    )
                    if self.on_job_start is not None:
                        self.on_job_start(job)
                    progress = True
                    break

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of queues, allocations, and node flags.

        Pending completion events are captured as ``{job name: end time}``
        (their callbacks are closures the replayed world rebuilds itself).
        """
        completions = {}
        for job in self.running:
            handle = self._completions.get(job.job_id)
            if handle is not None and handle.active:
                completions[job.name] = handle.time_s
        return {
            "resources": self.resources.state_dict(),
            "pending": [j.state_dict() for j in self.pending],
            "running": [j.state_dict() for j in self.running],
            "finished": [j.state_dict() for j in self.finished],
            "completions": dict(sorted(completions.items())),
            "completions_fired": self._completions_fired,
        }

    def step(self) -> bool:
        """Advance to the next job completion; returns False when idle.

        Other kernel events due earlier (monitoring polls, co-simulated
        subsystems) fire along the way — the scheduler no longer owns the
        timeline, it only rides it.
        """
        if not self._completions:
            return False
        seen = self._completions_fired
        while self.kernel.step():
            if self._completions_fired > seen:
                return True
        return False

    def run_to_completion(self) -> SchedulerStats:
        """Drain the queue and return aggregate statistics."""
        while self.step():
            pass
        if self.pending:
            raise SchedulerError(
                f"{len(self.pending)} job(s) stuck pending (policy bug?)"
            )
        stats = SchedulerStats()
        real_jobs = [j for j in self.finished if j.state is not JobState.CANCELLED]
        for job in real_jobs:
            stats.job_count += 1
            if job.start_time_s is not None:
                # Jobs failed before ever starting (crashed capacity) have
                # no wait or machine time to account.
                stats.total_wait_s += job.wait_time_s
                stats.total_core_seconds += job.core_seconds
            if job.state is JobState.COMPLETED:
                stats.completed += 1
            else:
                stats.failed += 1
            stats.makespan_s = max(stats.makespan_s, job.end_time_s or 0.0)
        return stats
