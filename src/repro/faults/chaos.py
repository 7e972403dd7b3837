"""The chaos harness: replay a fault plan against a whole cluster stack.

One :class:`ChaosWorld` builds a machine (LittleFe or Limulus), a Maui
scheduler, a Ganglia monitoring mesh, an XSEDE repo mirror, and a
self-healing supervisor on a single seeded kernel; schedules a
deterministic workload and the plan's faults as kernel events; runs
everything to quiescence one ``step()`` at a time; and then audits an
invariant set instead of trusting that "it didn't crash" means "it
worked":

* **completion** — every submitted job ended COMPLETED or FAILED; nothing
  is stuck PENDING or phantom-RUNNING;
* **no event-queue leaks** — once the periodic sampler stops, the kernel
  queue is empty and the heap holds zero lazily-cancelled corpses;
* **no resource leaks** — every online node's free cores equal capacity;
* **trace integrity** — the JSONL is a valid trace file: schema-valid
  events, strictly increasing sequence numbers, canonical bytes;
* **monitoring confluence** — permanently crashed nodes are on gmetad's
  dead list by the end of the run (nodes the supervisor repaired are
  exempt: they came back, so staying off the dead list is correct);
* **rolling-update confluence** — a completed sweep leaves no node
  draining and no wave both succeeded and aborted;
* **repository-service confluence** — every ``repod.request`` reached a
  terminal state exactly once (vacuous unless the run drove
  :mod:`repro.repod`).

The world implements the checkpointable protocol of
:mod:`repro.recovery.checkpoint` — ``world_name`` / ``config`` /
``steps`` / ``step()`` / ``state_dict()`` / ``kernel`` — so a run can be
snapshotted at any driver-step boundary and resumed byte-identically
after a :class:`~repro.errors.HeadnodeCrashError` (the
``headnode.crash`` fault) kills the original process.

Determinism (same seed ⇒ byte-identical JSONL) is checked by CI's
``chaos`` job: the same seed in two processes, traces ``cmp``-ed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from ..distro.distribution import CENTOS_6_5
from ..distro.host import Host
from ..errors import FaultError, HeadnodeCrashError, RetryExhaustedError
from ..hardware.builder import build_limulus_hpc200, build_littlefe_modified
from ..monitoring.gmond import Gmond
from ..monitoring.hierarchy import DEAD_AFTER_MISSES, GmetadTree, Rack
from ..recovery.checkpoint import register_world_factory
from ..recovery.journal import Journal
from ..recovery.supervisor import Supervisor
from ..rpm.package import Package
from ..scheduler.base import ClusterResources
from ..scheduler.job import Job, JobState
from ..scheduler.torque import MauiScheduler
from ..sim import SimKernel, validate_jsonl
from ..yum.mirror import MirrorLink, RepoMirror
from ..yum.repository import Repository
from .inject import FaultInjector
from .plan import FaultKind, FaultPlan, FaultSpec
from .retry import RetryPolicy

__all__ = [
    "ChaosReport",
    "ChaosRun",
    "ChaosWorld",
    "run_chaos",
    "demo_plan",
    "CLUSTERS",
]

#: Machines the harness can build, by name.
CLUSTERS = {
    "littlefe": lambda: build_littlefe_modified().machine,
    "limulus": lambda: build_limulus_hpc200().machine,
}

#: Safety bound: no sane chaos run needs more kernel events than this.
_MAX_EVENTS = 2_000_000


@dataclass
class ChaosReport:
    """The audited outcome of one chaos run."""

    jobs_total: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    requeues: int = 0
    faults_injected: int = 0
    faults_recovered: int = 0
    retries: int = 0
    giveups: int = 0
    repairs: int = 0
    dead_hosts: list[str] = field(default_factory=list)
    mirror_sync_ok: bool | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"jobs: {self.jobs_completed} completed, {self.jobs_failed} failed "
            f"of {self.jobs_total} ({self.requeues} requeue(s))",
            f"faults: {self.faults_injected} injected, "
            f"{self.faults_recovered} recovered; "
            f"{self.retries} retry(ies), {self.giveups} giveup(s)",
            f"supervisor: {self.repairs} repair(s)",
            f"monitoring: dead hosts {self.dead_hosts or 'none'}",
        ]
        if self.mirror_sync_ok is not None:
            lines.append(
                "mirror: sync "
                + ("recovered" if self.mirror_sync_ok else "gave up (degraded)")
            )
        if self.violations:
            lines.append("INVARIANT VIOLATIONS:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("invariants: all hold")
        return "\n".join(lines)


@dataclass
class ChaosRun:
    """Everything a chaos run produced (for tests and the CLI)."""

    kernel: SimKernel
    scheduler: MauiScheduler
    gmetad: GmetadTree
    mirror: RepoMirror | None
    injector: FaultInjector
    report: ChaosReport
    jsonl: str
    world: "ChaosWorld | None" = None
    supervisor: Supervisor | None = None
    journal: Journal | None = None


def demo_plan(machine) -> FaultPlan:
    """The built-in scenario: crash two compute nodes mid-workload (one
    recovers, one stays dead), lose a heartbeat, and corrupt the mirror."""
    compute = [n.name for n in machine.compute_nodes]
    if len(compute) < 3:
        raise FaultError("demo plan needs at least three compute nodes")
    return FaultPlan(
        name=f"demo-{machine.name}",
        faults=(
            # Disk fills just before the sync starts, so the sync's first
            # attempts fail and the retry policy backs off until space frees.
            FaultSpec(FaultKind.DISK_FULL, "xsede-mirror", at_s=10.0,
                      duration_s=60.0),
            FaultSpec(FaultKind.MIRROR_CORRUPT, "xsede-mirror", at_s=5.0),
            FaultSpec(FaultKind.NODE_CRASH, compute[1], at_s=700.0,
                      duration_s=2400.0),
            FaultSpec(FaultKind.PSU_FAIL, compute[2], at_s=950.0),
            FaultSpec(FaultKind.HEARTBEAT_LOSS, compute[0], at_s=400.0,
                      duration_s=120.0),
        ),
    )


def _build_workload(kernel: SimKernel, machine, count: int) -> list[tuple[float, Job]]:
    """A deterministic (seed-driven) job mix with staggered submit times."""
    rng = kernel.rng
    per_node = min(n.cores for n in machine.compute_nodes)
    jobs = []
    submit_s = 0.0
    for index in range(count):
        submit_s += 60.0 * rng.randrange(1, 6)
        wide = rng.random() < 0.3
        cores = per_node * rng.randrange(2, 4) if wide else rng.randrange(1, per_node + 1)
        runtime_s = 300.0 + 60.0 * rng.randrange(0, 20)
        jobs.append(
            (
                submit_s,
                Job(
                    f"chaos-j{index:02d}", "chaos", cores=cores,
                    walltime_limit_s=4 * 3600.0, runtime_s=runtime_s,
                ),
            )
        )
    return jobs


def _build_mirror(kernel: SimKernel, journal: Journal) -> RepoMirror:
    upstream = Repository("xsede", name="XSEDE campus bridging", priority=20)
    for index in range(12):
        upstream.add(
            Package(
                name=f"xsede-pkg{index:02d}", version="1.0",
                size_bytes=(index + 1) * 256 * 1024,
            )
        )
    return RepoMirror(
        upstream,
        MirrorLink(bandwidth_bytes_s=10e6, latency_s=0.05),
        repo_id="xsede-mirror",
        kernel=kernel,
        retry=RetryPolicy(max_attempts=5, base_delay_s=5.0, max_delay_s=120.0),
        journal=journal,
    )


class ChaosWorld:
    """The whole chaos stack as one steppable, checkpointable world.

    ``config`` is a plain-JSON dict (it travels inside snapshots):

    * ``plan`` — a :meth:`FaultPlan.to_dict` dict, or None for the demo;
    * ``seed`` / ``cluster`` / ``job_count`` / ``with_mirror`` — as in
      :func:`run_chaos`;
    * ``supervise`` — wire in the self-healing supervisor (default True);
    * ``crash_armed`` — whether ``headnode.crash`` faults actually raise
      (True) or fire as silent no-ops (False).  The spec stays in the
      plan either way, so both runs schedule the identical event
      sequence — that parity is what makes the crashed run's trace a
      byte prefix of the uncrashed one.

    Driver steps are the checkpoint boundaries: each :meth:`step` fires
    exactly one kernel event (or one wind-down poll / phase transition),
    so ``steps`` is an unambiguous resume position even though nested
    ``run_until`` calls make ``events_processed`` grow faster.
    """

    world_name = "chaos"

    _DEFAULTS: dict[str, Any] = {
        "plan": None,
        "seed": 0,
        "cluster": "littlefe",
        "job_count": 12,
        "with_mirror": True,
        "supervise": True,
        "crash_armed": True,
    }

    def __init__(self, config: Mapping[str, Any] | None = None) -> None:
        merged = dict(self._DEFAULTS)
        merged.update(config or {})
        unknown = sorted(set(merged) - set(self._DEFAULTS))
        if unknown:
            raise FaultError(f"unknown chaos config key(s): {unknown}")
        self.config: dict[str, Any] = merged
        self.steps = 0
        self.phase = "main"
        self._winddown_left = 0

        try:
            self.machine = CLUSTERS[merged["cluster"]]()
        except KeyError:
            known = ", ".join(sorted(CLUSTERS))
            raise FaultError(
                f"unknown cluster {merged['cluster']!r} (known: {known})"
            ) from None

        kernel = SimKernel(seed=int(merged["seed"]))
        self.kernel = kernel
        self.journal = Journal()
        self.scheduler = MauiScheduler(ClusterResources(self.machine), kernel=kernel)
        self.gmetad = GmetadTree(self.machine.name, kernel=kernel)
        rack = Rack(self.machine.name)
        self.gmetad.add_rack(rack)
        scheduler = self.scheduler
        resources = scheduler.resources
        # The frontend takes no jobs, so it has no load to report.
        scheduled = set(resources.node_names())
        for node in self.machine.nodes:
            host = Host(node, CENTOS_6_5, diskless_image=node.diskless)
            load_source = (
                partial(resources.allocated_of, node.name)
                if node.name in scheduled
                else None
            )
            rack.attach(Gmond(host, load_source=load_source))

        self.mirror = (
            _build_mirror(kernel, self.journal) if merged["with_mirror"] else None
        )
        self.mirror_outcome: bool | None = None

        if merged["plan"] is None:
            self.plan = demo_plan(self.machine)
        else:
            self.plan = FaultPlan.from_dict(merged["plan"])
        self.injector = FaultInjector(
            kernel,
            scheduler=self.scheduler,
            machine=self.machine,
            gmetad=self.gmetad,
            mirrors=(self.mirror,) if self.mirror is not None else (),
            pxe=None,
            crash_armed=bool(merged["crash_armed"]),
        )
        self.injector.apply(self.plan)

        self.supervisor: Supervisor | None = None
        if merged["supervise"]:
            self.supervisor = Supervisor(
                kernel,
                scheduler=self.scheduler,
                gmetad=self.gmetad,
                machine=self.machine,
                power_probe=self._power_ok,
            )
            self.supervisor.start()

        workload = _build_workload(kernel, self.machine, int(merged["job_count"]))
        self.all_jobs = [job for _t, job in workload]
        for submit_s, job in workload:
            kernel.at(submit_s, lambda job=job: scheduler.submit(job),
                      label=f"chaos.submit:{job.name}")

        if self.mirror is not None:
            mirror = self.mirror

            def sync_mirror() -> None:
                try:
                    mirror.sync()
                    self.mirror_outcome = True
                except HeadnodeCrashError:
                    raise  # the frontend died mid-sync; nothing may absorb it
                except (RetryExhaustedError, FaultError):
                    # Degraded, not dead: the mirror stays stale and the run
                    # continues — exactly the behaviour the paper's admins need.
                    self.mirror_outcome = False

            kernel.at(20.0, sync_mirror, label="chaos.mirror_sync")

        self.sampler = self.gmetad.start_sampling()

    def _power_ok(self, node: str) -> bool:
        """Supervisor power probe: a live PSU fault means reboots are futile."""
        for record in self.injector.history:
            if (
                record.spec.kind is FaultKind.PSU_FAIL
                and record.spec.target == node
                and record.active
            ):
                return False
        return True

    # -- the drive loop ----------------------------------------------------------

    def step(self) -> bool:
        """Advance one driver step; False once the run is finished.

        Phases: **main** fires kernel events until only periodic series
        (sampler + supervisor sweep) remain; **winddown** runs enough
        extra poll cycles for the heartbeat detector to declare
        permanently dead nodes; **drain** cancels the periodics and fires
        any stragglers; then **done**.
        """
        if self.phase == "done":
            return False
        self.steps += 1
        if self.kernel.events_processed > _MAX_EVENTS:
            raise FaultError(
                f"chaos run exceeded {_MAX_EVENTS} events; runaway schedule?"
            )
        if self.phase == "main":
            if self.kernel.pending_count > self.kernel.periodic_count:
                self.kernel.step()
            else:
                self.phase = "winddown"
                self._winddown_left = max(2, DEAD_AFTER_MISSES + 1)
            return True
        if self.phase == "winddown":
            if self._winddown_left > 0:
                self.gmetad.poll_cycle()
                self._winddown_left -= 1
            else:
                self.sampler.cancel()
                if self.supervisor is not None:
                    self.supervisor.stop()
                self.phase = "drain"
            return True
        # drain: anything still live after the periodics were cancelled
        # (an idle step also drops the cancelled entries left in the heap)
        if self.kernel.step():
            return True
        self.phase = "done"
        return False

    def run(self) -> None:
        """Step to completion (no checkpointing)."""
        while self.step():
            pass

    # -- snapshots ---------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The whole stack, declaratively, for checkpoint digests."""
        return {
            "phase": self.phase,
            "steps": self.steps,
            "winddown_left": self._winddown_left,
            "kernel": self.kernel.state_dict(),
            "scheduler": self.scheduler.state_dict(),
            "gmetad": self.gmetad.state_dict(),
            "mirror": None if self.mirror is None else self.mirror.state_dict(),
            "mirror_outcome": self.mirror_outcome,
            "journal": self.journal.state_dict(),
            "supervisor": (
                None if self.supervisor is None else self.supervisor.state_dict()
            ),
            "hardware": {
                node.name: node.powered_on for node in self.machine.nodes
            },
            "faults": [
                {
                    "kind": record.spec.kind.value,
                    "target": record.spec.target,
                    "at_s": record.injected_at_s,
                    "recovered_at_s": record.recovered_at_s,
                }
                for record in self.injector.history
            ],
            "jobs": [job.state_dict() for job in self.all_jobs],
        }

    # -- reporting ---------------------------------------------------------------

    def audit(self) -> ChaosReport:
        return _audit(
            self.kernel, self.scheduler, self.gmetad, self.injector,
            self.all_jobs, self.mirror_outcome, self.supervisor, self.journal,
        )

    def result(self) -> ChaosRun:
        """Audit and bundle (call once the run is done)."""
        return ChaosRun(
            kernel=self.kernel, scheduler=self.scheduler, gmetad=self.gmetad,
            mirror=self.mirror, injector=self.injector, report=self.audit(),
            jsonl=self.kernel.trace.to_jsonl(), world=self,
            supervisor=self.supervisor, journal=self.journal,
        )


register_world_factory("chaos", ChaosWorld)


def run_chaos(
    plan: FaultPlan | None = None,
    *,
    seed: int = 0,
    cluster: str = "littlefe",
    job_count: int = 12,
    with_mirror: bool = True,
) -> ChaosRun:
    """Build the stack, apply the plan, run to quiescence, audit."""
    world = ChaosWorld(
        {
            "plan": None if plan is None else plan.to_dict(),
            "seed": seed,
            "cluster": cluster,
            "job_count": job_count,
            "with_mirror": with_mirror,
        }
    )
    world.run()
    return world.result()


def _audit(
    kernel: SimKernel,
    scheduler: MauiScheduler,
    gmetad: GmetadTree,
    injector: FaultInjector,
    jobs: list[Job],
    mirror_outcome: bool | None,
    supervisor: Supervisor | None = None,
    journal: Journal | None = None,
) -> ChaosReport:
    trace = kernel.trace
    report = ChaosReport(
        jobs_total=len(jobs),
        jobs_completed=sum(1 for j in jobs if j.state is JobState.COMPLETED),
        jobs_failed=sum(1 for j in jobs if j.state is JobState.FAILED),
        requeues=trace.count("job.requeue"),
        faults_injected=trace.count("fault.inject"),
        faults_recovered=trace.count("fault.recover"),
        retries=trace.count("fault.retry"),
        giveups=trace.count("fault.giveup"),
        repairs=0 if supervisor is None else len(supervisor.repairs),
        dead_hosts=gmetad.dead_hosts(),
        mirror_sync_ok=mirror_outcome,
    )

    # 1. completion: every job reached a terminal state
    for job in jobs:
        if job.state not in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED):
            report.violations.append(
                f"job {job.name} ended in non-terminal state {job.state.value}"
            )
    if scheduler.pending or scheduler.running:
        report.violations.append(
            f"scheduler still holds {len(scheduler.pending)} pending / "
            f"{len(scheduler.running)} running job(s)"
        )

    # 2. event-queue leaks: nothing pending, no cancelled corpses left
    #    after the drain's idle step
    if kernel.pending_count != 0:
        report.violations.append(
            f"event queue still holds {kernel.pending_count} live event(s)"
        )
    if kernel.heap_size != 0:
        report.violations.append(
            f"event heap holds {kernel.heap_size} entries after the drain"
        )

    # 3. resource leaks: nothing left allocated on any node (idle means
    #    free == capacity regardless of offline/failed flags)
    resources = scheduler.resources
    for node in resources.node_names():
        if not resources.is_idle(node):
            report.violations.append(
                f"node {node}: cores still allocated after the run"
            )

    # 4. trace integrity
    count, problems = validate_jsonl(kernel.trace.to_jsonl())
    for problem in problems:
        report.violations.append(f"trace: {problem}")

    # 5. journal convergence: no transaction may end half-done — every
    #    begun transaction committed, aborted, or rolled back
    if journal is not None:
        for txn in journal.open_txns():
            report.violations.append(
                f"journal transaction {txn.txn_id} ({txn.kind}) still open "
                f"after the run"
            )

    # 6. monitoring confluence: permanently crashed nodes are on the dead
    #    list — unless the supervisor brought them back, in which case
    #    staying alive is the correct outcome
    dead = set(gmetad.dead_hosts())
    repaired = supervisor.repaired_nodes if supervisor is not None else set()
    for record in injector.history:
        if record.spec.kind in (FaultKind.NODE_CRASH, FaultKind.PSU_FAIL):
            target = record.spec.target
            if record.active and target not in dead and target not in repaired:
                report.violations.append(
                    f"crashed node {target} never declared dead by gmetad"
                )

    # 7. rolling-update confluence: a completed sweep leaves no node
    #    draining and no wave both succeeded and aborted (vacuous unless
    #    the run drove repro.shell's RollingUpdate)
    from ..shell import rolling_confluence_problems

    for problem in rolling_confluence_problems(
        trace.events, resources=resources
    ):
        report.violations.append(f"rolling: {problem}")

    # 8. repository-service confluence: every repod request terminal
    #    exactly once, no leaked connection slots / queue entries / coalesce
    #    groups (vacuous unless the run drove repro.repod)
    from ..repod.storm import repod_confluence_problems

    for problem in repod_confluence_problems(trace.events):
        report.violations.append(f"repod: {problem}")

    # 9. content-addressed delivery confluence: catalog serials only move
    #    forward, replicas never regress, every cas.fetch record missed a
    #    chunk (vacuous unless the run drove repro.cas)
    from ..cas import cas_confluence_problems

    for problem in cas_confluence_problems(trace.events):
        report.violations.append(f"cas: {problem}")
    return report
