"""repro.shell: the fan-out engine, clubak gathering, and rolling updates.

The contract under test is graceful degradation with receipts: a
fleet-wide sweep never raises for per-node trouble, never exceeds its
fanout, reports everything as folded NodeSets, and — same seed — emits
byte-identical traces even while faults land mid-sweep."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    HeadnodeCrashError,
    ReproError,
    ShellError,
)
from repro.faults import RetryPolicy
from repro.fleet import FleetTable, NodeSet
from repro.monitoring.hierarchy import GmetadTree, Rack
from repro.scheduler import ClusterResources, Job, TorqueScheduler
from repro.shell import (
    TRANSPORT_RC,
    RollingUpdate,
    ShellCommand,
    ShellEngine,
    gather,
    render_groups,
    rolling_confluence_problems,
)
from repro.sim import SimKernel


def build_fleet(racks=2, per_rack=8, cores=4) -> FleetTable:
    fleet = FleetTable()
    for rack in range(racks):
        for rank in range(per_rack):
            fleet.add_row(
                name=f"compute-{rack}-{rank}", appliance="compute",
                rack=rack, rank=rank, cores=cores, state="os-installed",
            )
    return fleet


def engine_for(fleet, seed=7):
    return ShellEngine(fleet, kernel=SimKernel(seed=seed))


# ---------------------------------------------------------------------------
# clubak-style gathering


class TestGather:
    def test_identical_outputs_fold_under_one_label(self):
        groups = gather(
            [(f"compute-0-{i}", 0, "CentOS 6.5") for i in range(10)]
        )
        assert len(groups) == 1
        assert str(groups[0].nodes) == "compute-0-[0-9]"
        assert groups[0].label() == "compute-0-[0-9]: CentOS 6.5"

    def test_nonzero_rc_annotated_and_bucketed(self):
        groups = gather(
            [("compute-0-0", 0, "ok"), ("compute-0-1", 1, "no such package"),
             ("compute-0-2", 1, "no such package")]
        )
        labels = render_groups(groups)
        assert "compute-0-[1-2]: no such package [rc=1]" in labels
        assert {g.rc: str(g.nodes) for g in groups} == {
            0: "compute-0-0", 1: "compute-0-[1-2]",
        }

    def test_empty_input(self):
        assert gather([]) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 199),
                st.integers(0, 2),
                st.sampled_from(["ok", "err", "warn"]),
            ),
            unique_by=lambda t: t[0],
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_gather_round_trips_through_nodeset_fold(self, rows):
        """Every gather group's folded label parses back to exactly the
        member names, the groups partition the input, and each group is
        output-homogeneous — the clubak merge loses nothing."""
        results = [
            (f"compute-{i // 40}-{i % 40}", rc, out) for i, rc, out in rows
        ]
        by_name = {name: (rc, out) for name, rc, out in results}
        groups = gather(results)
        seen: set[str] = set()
        for group in groups:
            names = set(NodeSet.parse(group.nodes.fold()))
            assert names == set(group.nodes)
            assert not names & seen, "groups must be disjoint"
            seen |= names
            for name in names:
                assert by_name[name] == (group.rc, group.output)
        assert seen == set(by_name)


# ---------------------------------------------------------------------------
# the fan-out engine


class TestShellEngine:
    def test_all_ok_folds_into_one_group(self):
        fleet = build_fleet()
        engine = engine_for(fleet)
        report = engine.run(fleet.nodeset(), "uptime", fanout=4)
        assert report.complete
        assert report.counts() == (16, 0, 0)
        assert str(report.ok_nodes()) == "compute-0-[0-7],compute-1-[0-7]"
        assert [g.rc for g in report.groups()] == [0]
        assert engine.kernel.trace.count("shell.cmd") == 1
        assert engine.kernel.trace.count("shell.gather") == 1

    def test_unreachable_nodes_skipped_and_reported(self):
        fleet = build_fleet()
        fleet.set_flag("failed", fleet.index_of("compute-0-1"), True)
        fleet.set_flag("powered", fleet.index_of("compute-0-2"), False)
        fleet.set_flag("responsive", fleet.index_of("compute-0-3"), False)
        engine = engine_for(fleet)
        report = engine.run(fleet.nodeset() | NodeSet.parse("ghost-0"), "w")
        assert report.counts() == (13, 0, 4)
        assert str(report.skipped_nodes()) == "compute-0-[1-3],ghost-0"
        reasons = {n: r.reason for n, r in report.results.items()
                   if r.status == "skipped"}
        assert reasons == {
            "compute-0-1": "failed",
            "compute-0-2": "powered off",
            "compute-0-3": "unresponsive",
            "ghost-0": "not in fleet table",
        }

    def test_drained_nodes_are_not_skipped(self):
        """Offline/draining are scheduler states; the admin plane still
        reaches them — that is how a rolling update updates its wave."""
        fleet = build_fleet()
        fleet.set_flag("draining", fleet.index_of("compute-0-0"), True)
        fleet.set_flag("offline", fleet.index_of("compute-0-1"), True)
        engine = engine_for(fleet)
        report = engine.run("compute-0-[0-1]", "yum -y update xnit")
        assert report.counts() == (2, 0, 0)

    def test_nonzero_rc_is_a_result_not_a_retry(self):
        fleet = build_fleet()
        engine = engine_for(fleet)

        def handler(node):
            return (2, "conflict") if node == "compute-0-0" else (0, "ok")

        report = engine.run(
            fleet.nodeset(), ShellCommand("rpm -i bad", handler=handler)
        )
        result = report.results["compute-0-0"]
        assert (result.status, result.rc, result.attempts) == ("failed", 2, 1)
        assert result.reason == "rc 2"
        assert engine.kernel.trace.count("shell.retry") == 0
        assert [str(g.nodes) for g in report.groups() if g.rc == 2] == ["compute-0-0"]
        assert max(g.rc for g in report.groups()) == 2

    def test_transport_failure_retried_then_succeeds(self):
        fleet = build_fleet()
        engine = engine_for(fleet)
        calls = {"n": 0}

        def flaky(node):
            if node == "compute-0-0":
                calls["n"] += 1
                if calls["n"] < 3:
                    raise ShellError("connection refused")
            return 0, "ok"

        report = engine.run(
            fleet.nodeset(), ShellCommand("svc restart", handler=flaky)
        )
        result = report.results["compute-0-0"]
        assert (result.status, result.attempts) == ("ok", 3)
        assert engine.kernel.trace.count("shell.retry") == 2

    def test_retries_exhausted_records_transport_rc(self):
        fleet = build_fleet(racks=1, per_rack=4)
        engine = engine_for(fleet)

        def refuse(node):
            raise ShellError("connection refused")

        report = engine.run(
            fleet.nodeset(), ShellCommand("w", handler=refuse),
            policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
        )
        assert report.counts() == (0, 4, 0)
        for result in report.results.values():
            assert result.rc is None and result.attempts == 2
        assert all(rc == TRANSPORT_RC for _, rc, _ in report.executed())
        assert [(g.rc, str(g.nodes)) for g in report.groups()] == [
            (TRANSPORT_RC, "compute-0-[0-3]")
        ]

    def test_node_dying_mid_flight_is_a_transport_failure(self):
        fleet = build_fleet(racks=1, per_rack=2)
        engine = engine_for(fleet)
        kernel = engine.kernel
        kernel.at(
            5.0,
            lambda: fleet.set_flag("failed", fleet.index_of("compute-0-0"), True),
            label="fault",
        )
        report = engine.run(
            fleet.nodeset(), ShellCommand("sleep 10", duration_s=10.0),
            timeout_s=30.0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
        )
        result = report.results["compute-0-0"]
        assert (result.status, result.rc, result.reason) == (
            "failed", None, "failed"
        )
        assert report.results["compute-0-1"].status == "ok"

    def test_timeout_burns_an_attempt(self):
        fleet = build_fleet(racks=1, per_rack=1)
        engine = engine_for(fleet)
        report = engine.run(
            fleet.nodeset(), ShellCommand("hang", duration_s=100.0),
            timeout_s=10.0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
        )
        result = report.results["compute-0-0"]
        assert result.status == "failed"
        assert result.reason == "timeout after 10s"

    def test_headnode_crash_unwinds_but_partials_survive(self):
        fleet = build_fleet(racks=1, per_rack=8)
        engine = engine_for(fleet)

        def boom(node):
            if node == "compute-0-5":
                raise HeadnodeCrashError("frontend died mid-sweep")
            return 0, "ok"

        with pytest.raises(HeadnodeCrashError):
            engine.run(
                fleet.nodeset(), ShellCommand("w", handler=boom), fanout=1
            )
        partial = engine.last_report
        assert partial is not None and not partial.complete
        assert str(partial.ok_nodes()) == "compute-0-[0-4]"

    def test_validation(self):
        fleet = build_fleet(racks=1, per_rack=1)
        engine = engine_for(fleet)
        with pytest.raises(ShellError):
            engine.run(fleet.nodeset(), "w", fanout=0)
        with pytest.raises(ShellError):
            engine.run(fleet.nodeset(), "w", timeout_s=0)
        with pytest.raises(ShellError):
            ShellCommand("")
        with pytest.raises(ShellError):
            ShellCommand("w", jitter=1.5)
        with pytest.raises(ShellError):
            ShellCommand("w", duration_s=-1)

    @given(
        fanout=st.integers(1, 8),
        nodes=st.integers(1, 40),
        jitter=st.floats(0.0, 0.5),
        flaky=st.sets(st.integers(0, 39), max_size=6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_fanout_never_exceeded(self, fanout, nodes, jitter, flaky, seed):
        """At every simulated instant at most ``fanout`` worker slots are
        held — including through retries and backoff — reconstructed from
        each node's [started_s, ended_s) interval, not from the engine's
        own counter."""
        fleet = build_fleet(racks=1, per_rack=nodes)
        engine = engine_for(fleet, seed=seed)

        def handler(node):
            if int(node.rsplit("-", 1)[1]) in flaky:
                raise ShellError("connection refused")
            return 0, "ok"

        report = engine.run(
            fleet.nodeset(),
            ShellCommand("w", duration_s=5.0, jitter=jitter, handler=handler),
            fanout=fanout,
            policy=RetryPolicy(max_attempts=3, base_delay_s=2.0, jitter=0.2),
        )
        assert report.complete
        assert report.max_inflight <= fanout
        steps = []
        for result in report.results.values():
            if result.started_s is None:
                continue
            steps.append((result.started_s, 1))
            steps.append((result.ended_s, -1))
        # At equal times a freed slot is reused by the next dispatch, so
        # ends sort before starts.
        held = peak = 0
        for _, delta in sorted(steps, key=lambda s: (s[0], s[1])):
            held += delta
            peak = max(peak, held)
        assert peak <= fanout


# ---------------------------------------------------------------------------
# scheduler drain deadlines (the straggler gate)


class TestDrainDeadline:
    def setup_scheduler(self, runtime_s=500.0):
        fleet = build_fleet(racks=1, per_rack=4)
        kernel = SimKernel(seed=3)
        resources = ClusterResources.from_fleet(fleet)
        scheduler = TorqueScheduler(resources, kernel=kernel)
        scheduler.submit(
            Job(name="md-0", user="amy", cores=4, runtime_s=runtime_s,
                walltime_limit_s=4000.0)
        )
        return fleet, kernel, resources, scheduler

    def test_deadline_force_requeues_stragglers(self):
        fleet, kernel, resources, scheduler = self.setup_scheduler()
        scheduler.drain_nodes(["compute-0-0"], deadline_s=50.0)
        assert resources.is_draining("compute-0-0")
        kernel.run_until(60.0)
        assert kernel.trace.count("job.requeue") == 1
        assert resources.is_offline("compute-0-0")
        # the requeued job restarted on a free node
        assert kernel.trace.count("job.start") == 2
        scheduler.undrain_node("compute-0-0")
        assert not resources.is_draining("compute-0-0")
        assert not resources.is_offline("compute-0-0")

    def test_without_deadline_drain_waits_for_the_job(self):
        fleet, kernel, resources, scheduler = self.setup_scheduler()
        scheduler.drain_nodes(["compute-0-0"])
        kernel.run_until(499.0)
        assert resources.is_draining("compute-0-0")
        kernel.run_until(501.0)
        assert resources.is_offline("compute-0-0")
        assert kernel.trace.count("job.requeue") == 0

    def test_idle_node_drains_immediately_despite_deadline(self):
        fleet, kernel, resources, scheduler = self.setup_scheduler()
        scheduler.drain_nodes(["compute-0-3"], deadline_s=50.0)
        assert resources.is_offline("compute-0-3")
        kernel.run_until(60.0)  # the deadline event fires vacuously
        assert kernel.trace.count("job.requeue") == 0

    def test_deadline_validation(self):
        _, _, _, scheduler = self.setup_scheduler()
        with pytest.raises(ReproError):
            scheduler.drain_nodes(["compute-0-0"], deadline_s=0.0)


# ---------------------------------------------------------------------------
# rolling updates


def rolling_scenario(seed, *, flap_rack=1, max_failures=5, limit=None):
    """A 3-rack sweep where one rack's uplink flaps mid-sweep."""
    fleet = build_fleet(racks=3, per_rack=16)
    kernel = SimKernel(seed=seed)
    resources = ClusterResources.from_fleet(fleet)
    scheduler = TorqueScheduler(resources, kernel=kernel)
    scheduler.submit(
        Job(name="md-0", user="amy", cores=4, runtime_s=600.0,
            walltime_limit_s=4000.0)
    )
    tree = GmetadTree("t", kernel=kernel)
    indices = fleet.ordered_indices()
    for rack in range(3):
        tree.add_rack(
            Rack(f"rack{rack}", fleet,
                      [i for i in indices if fleet.racks[i] == rack])
        )
    window = (100.0, 400.0)

    def handler(node):
        if (fleet.racks[fleet.index_of(node)] == flap_rack
                and window[0] <= kernel.now_s < window[1]):
            raise ShellError("link flap")
        return 0, "updated"

    engine = ShellEngine(fleet, kernel=kernel)
    update = RollingUpdate(
        engine, scheduler=scheduler, tree=tree,
        wave_size=16, fanout=8, timeout_s=30.0,
        policy=RetryPolicy(max_attempts=2, base_delay_s=2.0, jitter=0.1),
        max_failures=max_failures, rack_failures_limit=limit,
        drain_deadline_s=40.0, health_cycles=1,
    )
    command = ShellCommand("yum -y update xnit", duration_s=10.0, jitter=0.1,
                           handler=handler)
    report = update.run(fleet.nodeset(), command)
    return fleet, kernel, resources, update, report, window


class TestRollingUpdate:
    def test_threshold_pauses_then_resume_completes(self):
        fleet, kernel, resources, update, report, window = rolling_scenario(11)
        assert report.state == "paused"
        assert "exceed max_failures=5" in report.pause_reason
        assert str(report.failed_nodes()) == "compute-1-[0-15]"
        assert len(report.remaining) == 16  # rack 2 untouched
        # failures are parked offline, nothing left draining
        assert resources.draining_nodes() == []
        assert resources.is_offline("compute-1-0")
        with pytest.raises(ShellError):
            update.run(fleet.nodeset(), "again")  # not idle any more

        kernel.run_until(window[1] + 1.0)
        final = update.resume()
        assert final.state == "succeeded"
        assert str(final.ok_nodes()) == "compute-0-[0-15],compute-2-[0-15]"
        assert resources.draining_nodes() == []
        assert rolling_confluence_problems(
            kernel.trace.events, resources=resources
        ) == []

    def test_rack_failure_domain_skips_the_rest_of_the_rack(self):
        fleet, kernel, resources, update, report, window = rolling_scenario(
            13, max_failures=1000, limit=8
        )
        # rack 1's first wave fails 16 >= 8 -> the rack is aborted, but the
        # sweep itself carries on and succeeds around it.
        assert report.state == "succeeded"
        assert 1 in update._aborted_racks
        assert str(report.failed_nodes()) == "compute-1-[0-15]"
        aborts = [e for e in kernel.trace.events if e.kind == "shell.abort"]
        assert len(aborts) == 1
        assert "rack 1" in aborts[0].data["reason"]
        assert rolling_confluence_problems(
            kernel.trace.events, resources=resources
        ) == []

    def test_unhealthy_after_update_counts_as_failure(self):
        """The health gate: a node whose heartbeat dies after a 'successful'
        command is a failure, and is parked instead of undrained."""
        fleet = build_fleet(racks=1, per_rack=4)
        kernel = SimKernel(seed=9)
        resources = ClusterResources.from_fleet(fleet)
        scheduler = TorqueScheduler(resources, kernel=kernel)
        tree = GmetadTree("t", kernel=kernel)
        tree.add_rack(Rack("rack0", fleet, fleet.ordered_indices()))

        def bad_update(node):
            if node == "compute-0-2":
                # the update "succeeds" but wedges the node's heartbeat
                kernel.at(
                    kernel.now_s + 1.0,
                    lambda: fleet.set_flag(
                        "responsive", fleet.index_of(node), False
                    ),
                    label="wedge",
                )
            return 0, "updated"

        update = RollingUpdate(
            ShellEngine(fleet, kernel=kernel), scheduler=scheduler, tree=tree,
            wave_size=4, fanout=4, health_cycles=4,
        )
        report = update.run(
            fleet.nodeset(), ShellCommand("fw flash", handler=bad_update)
        )
        assert report.state == "succeeded"
        wave = report.waves[0]
        assert str(wave.unhealthy) == "compute-0-2"
        assert str(wave.failed) == "compute-0-2"
        assert wave.status == "degraded"
        assert resources.is_offline("compute-0-2")
        assert not resources.is_draining("compute-0-2")

    def test_validation(self):
        fleet = build_fleet(racks=1, per_rack=2)
        engine = engine_for(fleet)
        with pytest.raises(ShellError):
            RollingUpdate(engine, wave_size=0)
        with pytest.raises(ShellError):
            RollingUpdate(engine, rack_failures_limit=0)
        with pytest.raises(ShellError):
            update = RollingUpdate(engine)
            update.resume()  # nothing paused

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_faulted_sweep_is_seed_deterministic(self, seed):
        """Same seed, same faults: the whole paused-then-resumed sweep
        serializes to byte-identical JSONL."""

        def one_run():
            fleet, kernel, _, update, report, window = rolling_scenario(seed)
            if report.state == "paused":
                kernel.run_until(window[1] + 1.0)
                update.resume()
            return kernel.trace.to_jsonl()

        assert one_run() == one_run()


# ---------------------------------------------------------------------------
# the confluence audit (chaos invariant 7)


class TestConfluenceAudit:
    def test_wave_cannot_both_succeed_and_abort(self):
        events = [
            {"kind": "shell.wave", "data": {"wave": 2, "status": "ok"}},
            {"kind": "shell.abort", "data": {"wave": 2, "reason": "rack 0"}},
        ]
        problems = rolling_confluence_problems(events)
        assert problems == ["wave 2 both succeeded and aborted (rack 0)"]

    def test_leftover_draining_is_flagged(self):
        fleet = build_fleet(racks=1, per_rack=2)
        resources = ClusterResources.from_fleet(fleet)
        resources.set_draining("compute-0-1", True)
        events = [
            {"kind": "shell.wave", "data": {"wave": 0, "status": "ok"}}
        ]
        problems = rolling_confluence_problems(events, resources=resources)
        assert problems == [
            "rolling update left node(s) draining: compute-0-1"
        ]

    def test_vacuous_without_rolling_events(self):
        fleet = build_fleet(racks=1, per_rack=2)
        resources = ClusterResources.from_fleet(fleet)
        resources.set_draining("compute-0-0", True)
        assert rolling_confluence_problems([], resources=resources) == []


# ---------------------------------------------------------------------------
# acceptance: a 1,000-node sweep under a fault plan


class TestAcceptance:
    def scenario(self, seed=42):
        """5 racks x 200 nodes; crashes plus a rack-3 uplink flap."""
        fleet = FleetTable()
        for rack in range(5):
            for rank in range(200):
                fleet.add_row(
                    name=f"compute-{rack}-{rank}", appliance="compute",
                    rack=rack, rank=rank, cores=8, state="os-installed",
                )
        kernel = SimKernel(seed=seed)
        resources = ClusterResources.from_fleet(fleet)
        scheduler = TorqueScheduler(resources, kernel=kernel)
        for k in range(4):
            scheduler.submit(
                Job(name=f"md-{k}", user="amy", cores=8, runtime_s=300.0,
                    walltime_limit_s=4000.0)
            )
        tree = GmetadTree("t", kernel=kernel)
        indices = fleet.ordered_indices()
        for rack in range(5):
            tree.add_rack(
                Rack(f"rack{rack}", fleet,
                          [i for i in indices if fleet.racks[i] == rack])
            )
        # the fault plan: 4 node crashes early, one long rack-3 flap
        for k, name in enumerate(
            ["compute-4-7", "compute-4-90", "compute-2-11", "compute-0-150"]
        ):
            kernel.at(
                40.0 + 30.0 * k,
                lambda n=name: fleet.set_flag(
                    "responsive", fleet.index_of(n), False
                ),
                label=f"crash:{name}",
            )
        window = (150.0, 1500.0)

        def handler(node):
            if (fleet.racks[fleet.index_of(node)] == 3
                    and window[0] <= kernel.now_s < window[1]):
                raise ShellError("link flap: connection reset")
            return 0, "xnit 0.0.9 applied"

        engine = ShellEngine(fleet, kernel=kernel)
        update = RollingUpdate(
            engine, scheduler=scheduler, tree=tree,
            wave_size=128, fanout=32, timeout_s=30.0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=2.0, jitter=0.1),
            max_failures=30, rack_failures_limit=20,
            drain_deadline_s=60.0, health_cycles=2,
        )
        command = ShellCommand("yum -y update xnit", duration_s=10.0,
                               jitter=0.2, handler=handler)
        report = update.run(fleet.nodeset(), command)
        return fleet, kernel, resources, update, report, window

    def test_bounded_degraded_pausable_resumable(self):
        fleet, kernel, resources, update, report, window = self.scenario()

        # crossed the sweep threshold when the flapped rack failed en masse
        assert report.state == "paused"
        assert "exceed max_failures=30" in report.pause_reason
        # rack 3 tripped its failure-domain limit
        assert 3 in update._aborted_racks
        # concurrency stayed bounded through the whole storm
        assert all(w.report.max_inflight <= 32 for w in report.waves
                   if w.report is not None)
        # pre-wave crashed nodes were skipped-and-reported, not raised
        skipped = report.skipped_nodes()
        failed = report.failed_nodes()
        assert all(str(f) for f in (skipped, failed))

        # the operator waits out the flap and resumes to completion
        kernel.run_until(max(kernel.now_s, window[1] + 1.0))
        final = update.resume()
        assert final.state == "succeeded"
        ok, failed, skipped = (
            final.ok_nodes(), final.failed_nodes(), final.skipped_nodes()
        )
        assert len(ok) + len(failed) + len(skipped) == 1000
        # every rack-3 node either failed during the flap or was skipped
        # once the rack aborted; nothing fell through the cracks
        rack3 = NodeSet.parse("compute-3-[0-199]")
        assert (rack3 - ok) == rack3
        assert (rack3 - (failed | skipped)) == NodeSet()
        # folded reporting, not 1,000-line listings
        assert "compute-3-[" in str(failed | skipped)
        # crashed nodes were skipped with a reason
        assert "compute-4-7" in skipped
        # confluence: no leftover drains, no ok-and-aborted wave
        assert rolling_confluence_problems(
            kernel.trace.events, resources=resources
        ) == []
        assert resources.draining_nodes() == []
