"""repro.faults: fault plans, injection, retries, and graceful degradation.

Covers the event-queue compaction regression (heavy cancel/reschedule
churn must not leak heap entries), the one retry ladder
(``RetryPolicy.next_delay`` and the three loops that spend it), plan
parsing, scheduler/power/monitoring degradation, mirror resilience,
PXE/DHCP error enrichment, installer crash consistency (property-based),
and the whole-stack chaos acceptance scenario.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DhcpError,
    FaultError,
    NodeOfflineError,
    PxeError,
    RetryExhaustedError,
    ShellError,
    YumError,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryBudget,
    RetryPolicy,
    call_with_retry,
)
from repro.faults.chaos import demo_plan, run_chaos
from repro.fleet import FleetTable
from repro.hardware import build_littlefe_modified
from repro.monitoring import GmetadTree, Gmond, GmondRack
from repro.network.dhcp import DhcpServer
from repro.network.pxe import BootImage, PxeServer
from repro.repod import RepoClient, RepoServer, SiteProxy
from repro.rocks.database import InstallState
from repro.rocks.installer import RocksInstaller
from repro.rpm.package import Package
from repro.scheduler import ClusterResources, Job, JobState, MauiScheduler
from repro.scheduler.power_mgmt import PowerManagedScheduler
from repro.shell import ShellCommand, ShellEngine
from repro.sim import SimKernel
from repro.yum.mirror import MirrorLink, RepoMirror
from repro.yum.repository import Repository


def _job(name, cores, runtime_s=600.0, **kw):
    return Job(name, "chaos", cores=cores, walltime_limit_s=7200.0,
               runtime_s=runtime_s, **kw)


class TestEventQueueCompaction:
    """Satellite (a): lazy cancellation must not leak heap entries."""

    def test_churn_keeps_heap_bounded(self):
        kernel = SimKernel()
        handle = kernel.at(1e9, lambda: None, label="victim")
        for cycle in range(10_000):
            handle = kernel.reschedule(handle, 1e9 + cycle)
        # One live event; the heap may carry slack but never 10k corpses.
        assert len(kernel.queue) == 1
        assert kernel.queue.heap_size <= 2 * max(64, len(kernel.queue)) + 2

    def test_cancel_churn_bounded_too(self):
        kernel = SimKernel()
        for cycle in range(10_000):
            h = kernel.at(1e9 + cycle, lambda: None)
            kernel.cancel(h)
            kernel.at(5e8 + cycle, lambda: None)
        assert len(kernel.queue) == 10_000
        assert kernel.queue.heap_size <= 2 * len(kernel.queue) + 64

    def test_compact_drops_only_dead(self):
        kernel = SimKernel()
        keep = [kernel.at(10.0 + i, lambda: None) for i in range(5)]
        drop = [kernel.at(20.0 + i, lambda: None) for i in range(7)]
        for h in drop:
            kernel.cancel(h)
        assert kernel.queue.compact() == 7
        assert kernel.queue.heap_size == 5
        assert all(h.active for h in keep)

    def test_order_preserved_across_compaction(self):
        kernel = SimKernel()
        fired = []
        for i in range(200):
            h = kernel.at(float(i), lambda i=i: fired.append(i))
            if i % 2:
                kernel.cancel(h)
        kernel.queue.compact()
        while kernel.step():
            pass
        assert fired == list(range(0, 200, 2))


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=5.0, jitter=0.0)
        assert [policy.delay_for(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_validation(self):
        with pytest.raises(FaultError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(FaultError):
            RetryPolicy(multiplier=0.5)

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(jitter=0.3)
        a = [policy.delay_for(n, SimKernel(seed=7).rng) for n in (1, 2, 3)]
        b = [policy.delay_for(n, SimKernel(seed=7).rng) for n in (1, 2, 3)]
        assert a == b

    def test_succeeds_after_transient_failures(self):
        kernel = SimKernel()
        calls = []

        def flaky():
            calls.append(kernel.now_s)
            if len(calls) < 3:
                raise YumError("transient")
            return "ok"

        result = call_with_retry(
            kernel, flaky, policy=RetryPolicy(jitter=0.0), op="t.flaky",
        )
        assert result == "ok"
        assert len(calls) == 3
        # backoff spent simulated time: 1s then 2s
        assert kernel.now_s == pytest.approx(3.0)
        assert kernel.trace.count("fault.retry") == 2
        assert kernel.trace.count("fault.giveup") == 0

    def test_exhaustion_raises_with_accounting(self):
        kernel = SimKernel()

        def hopeless():
            raise YumError("still down")

        with pytest.raises(RetryExhaustedError) as err:
            call_with_retry(
                kernel, hopeless,
                policy=RetryPolicy(max_attempts=3, jitter=0.0), op="t.dead",
            )
        assert err.value.attempts == 3
        assert isinstance(err.value.last_error, YumError)
        assert kernel.trace.count("fault.giveup") == 1

    def test_deadline_budget_cuts_retries_short(self):
        kernel = SimKernel()

        def hopeless():
            raise YumError("down")

        with pytest.raises(RetryExhaustedError, match="deadline"):
            call_with_retry(
                kernel, hopeless,
                policy=RetryPolicy(max_attempts=10, base_delay_s=5.0,
                                   jitter=0.0, deadline_s=8.0),
                op="t.deadline",
            )
        assert kernel.now_s < 8.0 + 5.0

    def test_growth_past_the_float_range_is_the_cap(self):
        policy = RetryPolicy(max_attempts=5000, base_delay_s=1.0,
                             multiplier=2.0, max_delay_s=60.0, jitter=0.0)
        # 2.0 ** 1024 overflows a float; the delay is long past the cap.
        assert policy.delay_for(1025) == policy.delay_for(4999) == 60.0
        for attempt in range(1, 1025):
            assert policy.delay_for(attempt) == min(60.0, 2.0 ** (attempt - 1))
        assert RetryPolicy(base_delay_s=0.0, jitter=0.0).delay_for(2000) == 0.0

    def test_a_2000_attempt_failing_ladder_exhausts(self):
        kernel = SimKernel(seed=1)

        def hopeless():
            raise YumError("down")

        with pytest.raises(RetryExhaustedError) as err:
            call_with_retry(
                kernel, hopeless,
                policy=RetryPolicy(max_attempts=2000, base_delay_s=0.01,
                                   multiplier=2.0, max_delay_s=1.0),
                op="t.long",
            )
        assert err.value.attempts == 2000
        assert kernel.trace.count("fault.retry") == 1999

    def test_next_delay_draws_first_and_asks_the_budget_last(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=10.0, jitter=0.5,
                             deadline_s=25.0)
        budget = RetryBudget(capacity=1.0, refill_per_s=0.0)
        rng, twin = random.Random(3), random.Random(3)
        # a stop still consumes its draw, and never a budget token
        for attempt, now_s, reason in ((3, 0.0, "attempts exhausted"),
                                       (2, 20.0, "deadline exceeded")):
            delay, stop = policy.next_delay(attempt, 0.0, now_s, rng,
                                            budget=budget)
            assert stop == reason
            assert delay == policy.delay_for(attempt, twin)
        assert budget.granted == budget.denied == 0
        assert policy.next_delay(1, 0.0, 0.0, rng, budget=budget)[1] is None
        assert policy.next_delay(1, 0.0, 0.0, rng, budget=budget)[1] == (
            "retry budget exhausted"
        )
        assert (budget.granted, budget.denied) == (1, 1)


# -- the one retry ladder: every spender replays RetryPolicy.next_delay ----------


def _spend_call_with_retry(policy, seed):
    kernel = SimKernel(seed=seed)

    def hopeless():
        raise YumError("down")

    with pytest.raises(RetryExhaustedError) as err:
        call_with_retry(kernel, hopeless, policy=policy, op="t")
    events = kernel.trace.events
    retries = [(e.data["attempt"], e.data["delay_s"], e.t_s)
               for e in events if e.kind == "fault.retry"]
    (giveup,) = [e for e in events if e.kind == "fault.giveup"]
    assert giveup.data["attempts"] == err.value.attempts
    return retries, (giveup.data["attempts"], giveup.t_s)


def _spend_shell(policy, seed):
    fleet = FleetTable()
    fleet.add_row(name="compute-0-0", appliance="compute", rack=0, rank=0,
                  cores=4, state="os-installed")
    engine = ShellEngine(fleet, kernel=SimKernel(seed=seed))

    def refuse(node):
        raise ShellError("connection refused")

    report = engine.run("compute-0-0", ShellCommand("w", handler=refuse),
                        policy=policy)
    retries = [(e.data["attempt"], e.data["delay_s"], e.t_s)
               for e in engine.kernel.trace.events if e.kind == "shell.retry"]
    result = report.results["compute-0-0"]
    assert result.status == "failed"
    return retries, (result.attempts, result.ended_s)


def _spend_repo_client(policy, seed):
    kernel = SimKernel(seed=seed)
    origin = RepoServer("origin", kernel=kernel,
                        link=MirrorLink(bandwidth_bytes_s=1e6))
    origin.publish([Package("alpha", "1.0", size_bytes=1024)])
    origin.crash()
    client = RepoClient("c0", SiteProxy("px", origin, kernel=kernel),
                        kernel=kernel, policy=policy)
    client.sync(["alpha"])
    while kernel.step():
        pass
    retries = [(e.data["attempt"], e.data["delay_s"], e.t_s)
               for e in kernel.trace.events if e.kind == "fault.retry"]
    record = client.records["alpha"]
    assert record.outcome == "failed"
    return retries, (record.attempts, record.finished_s)


def _replay(policy, seed, cost_s, digits):
    """The ladder as next_delay alone: each attempt costs ``cost_s`` of
    simulated time and fails, from t=0, with a fresh seeded RNG."""
    rng = random.Random(seed)
    retries, now_s = [], cost_s
    for attempt in itertools.count(1):
        delay, stop = policy.next_delay(attempt, 0.0, now_s, rng)
        if stop is not None:
            return retries, (attempt, now_s)
        published = delay if digits is None else round(delay, digits)
        retries.append((attempt, published, now_s))
        now_s = now_s + delay + cost_s


class TestOneRetryLadder:
    @pytest.mark.parametrize(
        "spend, digits",
        [(_spend_call_with_retry, None), (_spend_shell, None),
         (_spend_repo_client, 6)],
        ids=["call_with_retry", "shell_engine", "repo_client"],
    )
    @given(
        policy=st.builds(
            RetryPolicy,
            max_attempts=st.integers(1, 12),
            base_delay_s=st.floats(0.0, 50.0),
            multiplier=st.floats(1.0, 4.0),
            max_delay_s=st.floats(0.0, 120.0),
            jitter=st.floats(0.0, 0.5),
            deadline_s=st.none() | st.floats(0.5, 300.0),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_spender_replays_next_delay(self, spend, digits, policy, seed):
        """Whatever the policy, each loop publishes exactly the (attempt,
        delay) pairs and the stop point a bare replay of next_delay gives —
        same draws, same deadline rule, no clamp, no sleep to the deadline."""
        retries, stop = spend(policy, seed)
        # the time one failed attempt takes (zero for a bare callable, the
        # command duration for the shell, one LAN hop for the proxy)
        cost_s = retries[0][2] if retries else stop[1]
        assert (retries, stop) == _replay(policy, seed, cost_s, digits)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            "rt",
            (
                FaultSpec(FaultKind.NODE_CRASH, "n1", at_s=10.0, duration_s=5.0),
                FaultSpec(FaultKind.BOOT_TIMEOUT, "aa:bb", at_s=1.0,
                          params={"count": 2}),
            ),
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_unknown_kind_and_missing_fields(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"name": "x", "faults": [{"kind": "meteor.strike",
                                          "target": "n1", "at_s": 0}]}
            )
        with pytest.raises(FaultError, match="missing"):
            FaultPlan.from_dict(
                {"name": "x", "faults": [{"kind": "node.crash"}]}
            )

    def test_validate_reports_every_problem(self):
        plan = FaultPlan(
            "",
            (
                FaultSpec(FaultKind.NODE_CRASH, "", at_s=-1.0),
                FaultSpec(FaultKind.MIRROR_CORRUPT, "m", at_s=0.0,
                          duration_s=9.0),
            ),
        )
        problems = plan.problems()
        assert len(problems) == 4  # no name, empty target, negative at_s, one-shot duration
        with pytest.raises(FaultError, match="one-shot"):
            plan.validate()

    def test_injector_refuses_unwired_subsystem(self):
        kernel = SimKernel()
        injector = FaultInjector(kernel)  # nothing wired
        plan = FaultPlan(
            "x", (FaultSpec(FaultKind.NODE_CRASH, "n1", at_s=1.0),)
        )
        injector.apply(plan)
        with pytest.raises(FaultError, match="needs a wired 'scheduler'"):
            kernel.run(until_s=2.0)


class TestGracefulDegradation:
    def _scheduler(self, kernel=None):
        machine = build_littlefe_modified().machine
        return MauiScheduler(
            ClusterResources(machine), kernel=kernel or SimKernel()
        )

    def test_crash_requeues_and_finishes_on_survivors(self):
        sched = self._scheduler()
        jobs = [_job(f"j{i}", 2) for i in range(6)]
        for job in jobs:
            sched.submit(job)
        victim = next(iter(jobs[0].allocation.node_names))
        requeued = sched.crash_node(victim)
        assert requeued and all(j.state is JobState.PENDING for j in requeued)
        assert sched.resources.is_failed(victim)
        assert sched.kernel.trace.count("job.requeue") == len(requeued)
        sched.run_to_completion()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        for job in jobs:
            assert victim not in job.allocation.node_names

    def test_crash_fails_jobs_that_can_never_run(self):
        sched = self._scheduler()
        total = sched.resources.total_cores
        wide = _job("wide", total)  # needs every core
        runner = sched.submit(_job("runner", 2))
        sched.submit(wide)
        victim = next(iter(runner.allocation.node_names))
        sched.crash_node(victim)
        assert wide.state is JobState.FAILED
        sched.run_to_completion()  # stats must survive never-started jobs

    def test_recover_node_restores_capacity(self):
        sched = self._scheduler()
        node = sched.resources.node_names()[0]
        sched.crash_node(node)
        assert sched.resources.usable_cores < sched.resources.total_cores
        sched.recover_node(node)
        assert sched.resources.usable_cores == sched.resources.total_cores
        assert not sched.resources.is_failed(node)

    def test_drain_completes_when_idle_and_undrain_restores(self):
        sched = self._scheduler()
        job = sched.submit(_job("j", 2))
        node = next(iter(job.allocation.node_names))
        sched.drain_node(node)
        assert sched.resources.is_draining(node)
        assert not sched.resources.is_offline(node)  # still busy
        sched.run_to_completion()
        assert sched.resources.is_offline(node)  # drain completed on idle
        assert sched.kernel.trace.count("node.drain") == 1
        sched.undrain_node(node)
        assert not sched.resources.is_offline(node)

    def test_undrain_failed_node_raises(self):
        sched = self._scheduler()
        node = sched.resources.node_names()[0]
        sched.crash_node(node)
        with pytest.raises(NodeOfflineError, match="recover it"):
            sched.undrain_node(node)

    def test_power_mgmt_never_routes_to_failed_nodes(self):
        kernel = SimKernel()
        machine = build_littlefe_modified().machine
        sched = PowerManagedScheduler(machine, kernel=kernel)
        victim = sched.resources.node_names()[0]
        sched.crash_node(victim)
        hw = {n.name: n for n in machine.nodes}[victim]
        assert not hw.powered_on
        jobs = [sched.submit(_job(f"j{i}", 2)) for i in range(5)]
        sched.run_to_completion()
        for job in jobs:
            assert job.state is JobState.COMPLETED
            assert victim not in job.allocation.node_names
        # Recovery leaves the node powered down until demand needs it.
        sched.recover_node(victim)
        assert sched.resources.is_offline(victim)
        assert not sched.resources.is_failed(victim)

    def test_gmetad_survives_dead_gmond_and_reports_degraded(self):
        kernel = SimKernel()
        machine = build_littlefe_modified().machine
        gmetad = GmetadTree(machine.name, poll_period_s=10.0, kernel=kernel)
        rack = GmondRack(machine.name, dead_after_misses=2)
        gmetad.add_rack(rack)
        from repro.distro import CENTOS_6_5, Host

        for node in machine.nodes:
            rack.attach(Gmond(Host(node, CENTOS_6_5)))
        victim = machine.compute_nodes[0].name
        gmetad.gmond_for(victim).fail_heartbeat()
        summary = gmetad.run_cycles(2)
        assert victim in gmetad.dead_hosts()
        assert summary.hosts_dead == 1
        assert summary.degraded
        assert kernel.trace.count("monitor.host_dead") == 1
        assert "DEAD" in gmetad.render_dashboard()
        # heartbeat returns: the host leaves the dead list
        gmetad.gmond_for(victim).restore_heartbeat()
        summary = gmetad.run_cycles(1)
        assert victim not in gmetad.dead_hosts()
        assert not summary.degraded


class TestMirrorFaults:
    def _mirror(self, retry=None, kernel=None, packages=8):
        upstream = Repository("up", name="upstream")
        for i in range(packages):
            upstream.add(Package(name=f"pkg{i}", version="1.0",
                                 size_bytes=1024))
        return RepoMirror(
            upstream, MirrorLink(bandwidth_bytes_s=1e6),
            kernel=kernel or SimKernel(), retry=retry,
        )

    def test_interrupted_sync_resumes_from_partial_state(self):
        mirror = self._mirror()
        mirror.inject_interruptions(1)
        with pytest.raises(YumError, match="partial state kept"):
            mirror.sync()
        partial = len(mirror.local.all_packages())
        assert 0 < partial < len(mirror.upstream.all_packages())
        stats = mirror.sync()  # resumes: only the remaining delta moves
        assert len(stats.fetched_nevras) == 8 - partial
        assert mirror.is_current

    def test_retry_policy_rides_out_interruptions(self):
        mirror = self._mirror(retry=RetryPolicy(jitter=0.0))
        mirror.inject_interruptions(2)
        stats = mirror.sync()
        assert mirror.is_current
        assert mirror.kernel.trace.count("fault.retry") == 2
        # three attempts are recorded in the history, the last complete
        assert len(mirror.sync_history) == 3

    def test_disk_full_fails_until_freed(self):
        mirror = self._mirror()
        mirror.set_disk_full(True)
        with pytest.raises(YumError, match="disk full"):
            mirror.sync()
        mirror.set_disk_full(False)
        mirror.sync()
        assert mirror.is_current

    def test_corruption_refetches_within_sync(self):
        mirror = self._mirror()
        mirror.corrupt_next({"pkg3-1.0-1.x86_64"})
        stats = mirror.sync()
        assert stats.refetched_nevras == ["pkg3-1.0-1.x86_64"]
        assert stats.bytes_transferred == 9 * 1024  # one package paid twice
        assert mirror.is_current

    def test_link_flap_uses_kernel_rng_deterministically(self):
        def run(seed):
            mirror = self._mirror(
                retry=RetryPolicy(max_attempts=8, jitter=0.0),
                kernel=SimKernel(seed=seed),
            )
            mirror.set_loss_probability(0.6)
            mirror.sync()
            return mirror.kernel.trace.count("fault.retry")

        assert run(3) == run(3)  # same seed, same number of drops


class TestPxeDhcpErrors:
    def test_pxe_error_names_mac_and_host_count(self):
        pxe = PxeServer(DhcpServer())
        pxe.assign_image("aa:bb:cc:00:00:01", BootImage(name="img", kickstart_profile="compute"))
        with pytest.raises(PxeError, match=r"no boot image.*de:ad:be:ef:00:01.*1 known host"):
            pxe.boot("de:ad:be:ef:00:01")

    def test_dhcp_error_names_mac_and_lease_count(self):
        dhcp = DhcpServer()
        dhcp.offer("aa:bb:cc:00:00:01", hostname="n1")
        with pytest.raises(DhcpError, match=r"no lease for MAC ff:ff:.*1 active lease"):
            dhcp.lease_for("ff:ff:ff:ff:ff:ff")

    def test_boot_timeouts_ride_retry_policy(self):
        kernel = SimKernel()
        pxe = PxeServer(DhcpServer(), kernel=kernel,
                        retry=RetryPolicy(jitter=0.0))
        pxe.set_default_image(BootImage(name="ks", kickstart_profile="compute"))
        pxe.inject_boot_timeouts("aa:bb:cc:00:00:01", count=2)
        result = pxe.boot("aa:bb:cc:00:00:01", hostname="n1")
        assert result.image.name == "ks"
        assert kernel.trace.count("fault.retry") == 2

    def test_boot_timeouts_exhaust_to_retry_exhausted(self):
        kernel = SimKernel()
        pxe = PxeServer(DhcpServer(), kernel=kernel,
                        retry=RetryPolicy(max_attempts=2, jitter=0.0))
        pxe.set_default_image(BootImage(name="ks", kickstart_profile="compute"))
        pxe.inject_boot_timeouts("aa:bb:cc:00:00:01", count=5)
        with pytest.raises(RetryExhaustedError):
            pxe.boot("aa:bb:cc:00:00:01")


class TestInstallerCrashConsistency:
    """Satellite (d): a crash mid-kickstart leaves the cluster consistent."""

    @settings(max_examples=12, deadline=None)
    @given(crash_indices=st.sets(st.integers(min_value=0, max_value=4)))
    def test_crashes_leave_cluster_consistent(self, crash_indices):
        machine = build_littlefe_modified().machine
        installer = RocksInstaller(machine)
        computes = machine.compute_nodes
        for index in crash_indices:
            installer.inject_kickstart_crash(computes[index].mac_address)
        cluster = installer.run(continue_on_error=True)

        # Database records use Rocks names (compute-0-N), not hardware names.
        records = cluster.rocksdb.compute_hosts()
        failed_records = [r for r in records if r.state is InstallState.FAILED]
        ok_records = [r for r in records if r.state is InstallState.INSTALLED]
        assert len(failed_records) == len(crash_indices)
        assert len(ok_records) == len(computes) - len(crash_indices)
        # Failed nodes hold no compute entry, no packages, no scheduler seat.
        for record in failed_records:
            assert record.name not in cluster.compute
        assert set(cluster.failed_hosts()) == {r.name for r in failed_records}
        assert len(cluster.hosts()) == 1 + len(ok_records)
        # Surviving nodes got the full closure (uniform environment holds).
        if ok_records:
            assert cluster.installed_everywhere()
        # No phantom scheduler resources: building resources that exclude
        # the failed hardware only counts surviving cores.
        failed_hw = {
            computes[i].name for i in crash_indices
        }
        if len(failed_hw) < len(computes):
            resources = ClusterResources(machine, exclude=failed_hw)
            expected = sum(
                n.cores for n in computes if n.name not in failed_hw
            )
            assert resources.total_cores == expected

    def test_crash_without_continue_on_error_raises(self):
        machine = build_littlefe_modified().machine
        installer = RocksInstaller(machine)
        installer.inject_kickstart_crash(machine.compute_nodes[0].mac_address)
        with pytest.raises(Exception, match="mid-kickstart"):
            installer.run()


class TestChaosAcceptance:
    """The ISSUE's acceptance scenario, end to end."""

    def test_two_node_crash_workload_completes_on_survivors(self):
        run = run_chaos(seed=0, cluster="littlefe")
        report = run.report
        assert report.ok, report.violations
        assert report.jobs_total == 12
        assert report.jobs_completed + report.jobs_failed == report.jobs_total
        assert report.requeues >= 1          # crashes hit running work
        assert report.faults_injected == 5
        assert report.retries >= 1           # disk-full window forced backoff
        assert report.dead_hosts             # the PSU-failed node stays dead
        # The permanently failed node ran nothing after its crash; every
        # completed job's allocation avoids it.
        dead = set(report.dead_hosts)
        for job in run.scheduler.finished:
            if job.state is JobState.COMPLETED and job.allocation is not None:
                crash_at = 950.0
                if job.start_time_s is not None and job.start_time_s > crash_at:
                    assert not (set(job.allocation.node_names) & dead)

    def test_same_seed_traces_are_byte_identical(self):
        a = run_chaos(seed=42, cluster="littlefe")
        b = run_chaos(seed=42, cluster="littlefe")
        assert a.jsonl == b.jsonl
        assert a.jsonl.encode() == b.jsonl.encode()

    def test_different_seeds_diverge(self):
        a = run_chaos(seed=1, cluster="littlefe")
        b = run_chaos(seed=2, cluster="littlefe")
        assert a.jsonl != b.jsonl

    def test_limulus_cluster_also_audits_clean(self):
        run = run_chaos(seed=5, cluster="limulus", job_count=8)
        assert run.report.ok, run.report.violations

    def test_plan_round_trips_through_cli_format(self, tmp_path):
        machine = build_littlefe_modified().machine
        plan = demo_plan(machine)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = FaultPlan.load(path)
        run = run_chaos(loaded, seed=0, cluster="littlefe")
        assert run.report.ok, run.report.violations

    def test_cli_end_to_end(self, tmp_path, capsys):
        from repro.faults.__main__ import main

        trace = tmp_path / "chaos.jsonl"
        status = main(["--seed", "3", "--trace", str(trace)])
        assert status == 0
        out = capsys.readouterr().out
        assert "invariants: all hold" in out
        assert trace.exists() and trace.read_text().count("\n") > 100

    def test_cli_rejects_bad_plan(self, tmp_path, capsys):
        from repro.faults.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "faults": [{"kind": "nope", "target": "n", "at_s": 0}]}')
        assert main(["--plan", str(bad)]) == 2
        assert "unknown fault kind" in capsys.readouterr().err
