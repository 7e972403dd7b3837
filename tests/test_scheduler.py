"""Scheduler tests: allocation invariants, FIFO vs backfill, fair-share,
tickets, walltime enforcement, and power management."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobError, SchedulerError
from repro.hardware import build_limulus_hpc200, build_littlefe_modified
from repro.scheduler import (
    ClusterResources,
    Job,
    JobState,
    MauiScheduler,
    PowerManagedScheduler,
    SgeScheduler,
    SlurmScheduler,
    TorqueScheduler,
)


def job(name, cores, runtime, *, user="alice", limit=None, priority=0):
    return Job(
        name,
        user,
        cores=cores,
        walltime_limit_s=limit if limit is not None else runtime * 2,
        runtime_s=runtime,
        priority=priority,
    )


@pytest.fixture
def resources(littlefe_machine):
    return ClusterResources(littlefe_machine)  # 5 compute nodes x 2 = 10 cores


class TestResources:
    def test_compute_only_by_default(self, littlefe_machine):
        res = ClusterResources(littlefe_machine)
        assert res.total_cores == 10  # frontend's 2 cores excluded

    def test_allocation_never_oversubscribes(self, resources):
        allocations = []
        while True:
            a = resources.try_allocate(2)
            if a is None:
                break
            allocations.append(a)
        assert sum(c for a in allocations for _n, c in a.by_node) == 10
        assert resources.free_cores() == 0

    def test_release_restores(self, resources):
        a = resources.try_allocate(4)
        resources.release(a)
        assert resources.free_cores() == 10

    def test_double_free_detected(self, resources):
        a = resources.try_allocate(4)
        resources.release(a)
        with pytest.raises(SchedulerError, match="double free"):
            resources.release(a)

    def test_busy_node_cannot_go_offline(self, resources):
        resources.try_allocate(10)  # everything busy
        with pytest.raises(SchedulerError, match="busy"):
            resources.set_offline(resources.node_names()[0], True)

    def test_offline_node_excluded(self, resources):
        resources.set_offline(resources.node_names()[0], True)
        assert resources.try_allocate(10) is None

    def test_nonpositive_allocation_rejected(self, resources):
        with pytest.raises(SchedulerError):
            resources.try_allocate(0)


class TestJobModel:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(JobError):
            Job("j", "u", cores=0, walltime_limit_s=10, runtime_s=5)
        with pytest.raises(JobError):
            Job("j", "u", cores=1, walltime_limit_s=0, runtime_s=5)
        with pytest.raises(JobError):
            Job("j", "u", cores=1, walltime_limit_s=10, runtime_s=-1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(JobError, match="finite"):
                Job("j", "u", cores=1, walltime_limit_s=10, runtime_s=bad)
            with pytest.raises(JobError, match="finite"):
                Job("j", "u", cores=1, walltime_limit_s=bad, runtime_s=5)

    def test_walltime_cap(self):
        j = job("over", 2, runtime=500, limit=100)
        assert j.exceeded_walltime
        assert j.charged_runtime_s == 100

    def test_wait_time_before_start_raises(self):
        with pytest.raises(JobError):
            job("j", 1, 10).wait_time_s


class TestFifoVsBackfill:
    """The Maui ablation scenario: a wide job blocks the queue head."""

    def submit_blocking_trace(self, scheduler):
        scheduler.submit(job("running-wide", 8, runtime=1000))   # starts now
        scheduler.submit(job("blocked-huge", 10, runtime=100))   # must wait
        scheduler.submit(job("small-a", 2, runtime=50))
        scheduler.submit(job("small-b", 2, runtime=50))
        return scheduler.run_to_completion()

    def test_torque_fifo_blocks_small_jobs(self, littlefe_machine):
        stats = self.submit_blocking_trace(
            TorqueScheduler(ClusterResources(littlefe_machine))
        )
        # small jobs wait behind the huge one: poor utilisation
        assert stats.mean_wait_s > 500

    def test_maui_backfills_small_jobs(self, littlefe_machine):
        scheduler = MauiScheduler(ClusterResources(littlefe_machine))
        stats = self.submit_blocking_trace(scheduler)
        smalls = [j for j in scheduler.finished if j.name.startswith("small")]
        # both ran inside the wide job's 1000 s window (only 2 cores are
        # free, so they backfill one after the other)
        assert all(j.end_time_s <= 1000.0 for j in smalls)
        assert min(j.start_time_s for j in smalls) == 0.0

    def test_backfill_never_delays_head_job(self, littlefe_machine):
        scheduler = MauiScheduler(ClusterResources(littlefe_machine))
        scheduler.submit(job("running-wide", 8, runtime=1000))
        scheduler.submit(job("blocked-huge", 10, runtime=100))
        # this one is too long to fit before the head's reservation
        scheduler.submit(job("too-long", 2, runtime=5000))
        scheduler.run_to_completion()
        huge = next(j for j in scheduler.finished if j.name == "blocked-huge")
        assert huge.start_time_s == pytest.approx(1000.0)

    def test_utilisation_better_with_backfill(self, littlefe_machine):
        fifo = self.submit_blocking_trace(
            TorqueScheduler(ClusterResources(littlefe_machine))
        )
        maui = self.submit_blocking_trace(
            MauiScheduler(ClusterResources(littlefe_machine))
        )
        assert maui.utilization(10) > fifo.utilization(10)


class TestPriorityAndShares:
    def test_maui_priority_ordering(self, littlefe_machine):
        s = MauiScheduler(ClusterResources(littlefe_machine))
        s.submit(job("occupy", 10, runtime=100))
        low = s.submit(job("low", 10, runtime=10, priority=0))
        high = s.submit(job("high", 10, runtime=10, priority=50))
        s.run_to_completion()
        assert high.start_time_s < low.start_time_s

    def test_slurm_fairshare_favours_light_user(self, littlefe_machine):
        s = SlurmScheduler(ClusterResources(littlefe_machine))
        # heavy user consumes the machine first
        s.submit(job("h1", 10, runtime=1000, user="heavy"))
        s.step()  # finish h1, charging usage to heavy
        s.submit(job("occupy", 10, runtime=100, user="heavy"))
        heavy2 = s.submit(job("h2", 10, runtime=10, user="heavy"))
        light = s.submit(job("l1", 10, runtime=10, user="light"))
        s.run_to_completion()
        assert light.start_time_s < heavy2.start_time_s

    def test_sge_tickets_balance_flooding_user(self, littlefe_machine):
        s = SgeScheduler(ClusterResources(littlefe_machine))
        s.submit(job("occupy", 10, runtime=100, user="z"))
        flood = [s.submit(job(f"f{i}", 10, runtime=10, user="flooder")) for i in range(5)]
        fair = s.submit(job("fair", 10, runtime=10, user="fair-user"))
        s.run_to_completion()
        # fair-user's single job outranks the flooder's diluted share
        assert fair.start_time_s <= min(j.start_time_s for j in flood)

    def test_sge_ticket_config_validation(self, littlefe_machine):
        s = SgeScheduler(ClusterResources(littlefe_machine))
        with pytest.raises(SchedulerError):
            s.set_tickets("u", 0)


class TestLifecycle:
    def test_walltime_violation_fails_job(self, littlefe_machine):
        s = TorqueScheduler(ClusterResources(littlefe_machine))
        j = s.submit(job("over", 2, runtime=200, limit=100))
        stats = s.run_to_completion()
        assert j.state is JobState.FAILED
        assert j.end_time_s == pytest.approx(100.0)
        assert stats.failed == 1

    def test_oversized_job_rejected_at_submit(self, littlefe_machine):
        s = TorqueScheduler(ClusterResources(littlefe_machine))
        with pytest.raises(SchedulerError, match="requests"):
            s.submit(job("monster", 11, runtime=10))

    def test_double_submit_rejected(self, littlefe_machine):
        s = TorqueScheduler(ClusterResources(littlefe_machine))
        j = s.submit(job("j", 10, runtime=10))
        with pytest.raises(SchedulerError):
            s.submit(j)

    def test_makespan_equals_last_end(self, littlefe_machine):
        s = TorqueScheduler(ClusterResources(littlefe_machine))
        s.submit(job("a", 10, runtime=60))
        s.submit(job("b", 10, runtime=40))
        stats = s.run_to_completion()
        assert stats.makespan_s == pytest.approx(100.0)


class TestPowerManagement:
    def bursty_trace(self, scheduler):
        """Jobs separated by idle gaps, where power-off pays."""
        scheduler.submit(job("burst-1", 12, runtime=600))
        scheduler.run_to_completion()
        # idle gap: simulate by advancing and submitting later
        scheduler.now_s += 7200.0
        scheduler.submit(job("burst-2", 12, runtime=600))
        return scheduler.run_to_completion()

    def test_energy_saved_on_bursty_trace(self, limulus_machine):
        managed = PowerManagedScheduler(limulus_machine, manage_power=True)
        self.bursty_trace(managed)
        baseline = PowerManagedScheduler(limulus_machine, manage_power=False)
        self.bursty_trace(baseline)
        assert managed.energy.total_joules < baseline.energy.total_joules
        assert managed.energy.off_node_seconds > 0
        assert managed.energy.boot_events >= 1

    def test_boot_delay_charged_to_waiting_jobs(self, limulus_machine):
        s = PowerManagedScheduler(limulus_machine, manage_power=True)
        j = s.submit(job("first", 12, runtime=100))
        s.run_to_completion()
        assert j.start_time_s >= 60.0

    def test_baseline_never_boots(self, limulus_machine):
        s = PowerManagedScheduler(limulus_machine, manage_power=False)
        s.submit(job("j", 12, runtime=100))
        s.run_to_completion()
        assert s.energy.boot_events == 0
        assert s.energy.off_node_seconds == 0

    def test_idle_nodes_power_off_after_queue_drains(self, limulus_machine):
        s = PowerManagedScheduler(limulus_machine, manage_power=True)
        s.submit(job("j", 4, runtime=100))
        s.run_to_completion()
        assert all(s.resources.is_offline(n) for n in s.resources.node_names())

    def test_boot_delayed_jobs_keep_completion_order(self, limulus_machine):
        """Regression: shifting completions by the boot delay must re-key
        the pending events (kernel reschedule), not corrupt their order.
        Both jobs boot-shift by 60s; the short one still finishes first."""
        s = PowerManagedScheduler(limulus_machine, manage_power=True)
        long_job = s.submit(job("long", 4, runtime=100))
        short_job = s.submit(job("short", 4, runtime=30))
        s.run_to_completion()
        assert [j.name for j in s.finished] == ["short", "long"]
        assert short_job.end_time_s == pytest.approx(90.0)
        assert long_job.end_time_s == pytest.approx(160.0)
        assert not s._completions  # every handle consumed exactly once

    def test_power_transitions_are_traced(self, limulus_machine):
        s = PowerManagedScheduler(limulus_machine, manage_power=True)
        s.submit(job("j", 4, runtime=100))
        s.run_to_completion()
        trace = s.kernel.trace
        assert trace.count("node.power_on") >= 1
        assert trace.count("node.power_off") >= 1
        assert trace.count("job.end") == 1

    def test_reschedule_completion_without_event_rejected(self, limulus_machine):
        s = PowerManagedScheduler(limulus_machine, manage_power=False)
        j = s.submit(job("j", 4, runtime=100))
        s.run_to_completion()
        with pytest.raises(SchedulerError, match="no pending completion"):
            s.reschedule_completion(j)


# --- property: no oversubscription under random traces -------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10),   # cores
            st.floats(min_value=1.0, max_value=500.0),  # runtime
        ),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=25, deadline=None)
def test_property_random_trace_all_jobs_finish(trace):
    machine = build_littlefe_modified().machine
    s = MauiScheduler(ClusterResources(machine))
    jobs = [
        s.submit(job(f"j{i}", cores, runtime))
        for i, (cores, runtime) in enumerate(trace)
    ]
    stats = s.run_to_completion()
    assert stats.job_count == len(trace)
    assert all(j.state is JobState.COMPLETED for j in jobs)
    # conservation: delivered core-seconds equal the sum over jobs
    assert stats.total_core_seconds == pytest.approx(
        sum(j.core_seconds for j in jobs)
    )
    # utilisation can never exceed 1
    assert stats.utilization(10) <= 1.0 + 1e-9
