"""Monitoring substrate tests: RRDs, gmond sampling, gmetad aggregation."""

import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring import (
    CORE_METRICS,
    FleetRack,
    GmetadTree,
    Gmond,
    GmondRack,
    MonitoringError,
    Rrd,
    monitor_cluster,
)
from repro.rocks import install_cluster, optional_rolls
from repro.scheduler import ClusterResources, Job, MauiScheduler
from repro.sim import TraceBus


@pytest.fixture(scope="module")
def ganglia_cluster():
    from repro.hardware import build_littlefe_modified

    machine = build_littlefe_modified().machine
    cluster = install_cluster(machine, rolls=[optional_rolls()["ganglia"]])
    return machine, cluster


class TestRrd:
    def test_update_and_series(self):
        rrd = Rrd(step_s=10.0, slots=6)
        for t, v in [(0, 1.0), (5, 3.0), (12, 5.0)]:
            rrd.update(float(t), v)
        series = rrd.series()
        assert len(series) == 2
        assert series[0].value == pytest.approx(2.0)  # (1+3)/2 consolidated
        assert series[1].value == pytest.approx(5.0)

    def test_ring_wraps_keeping_constant_size(self):
        rrd = Rrd(step_s=1.0, slots=4)
        for t in range(20):
            rrd.update(float(t), float(t))
        assert len(rrd) == 4
        series = rrd.series()
        assert [p.value for p in series] == [16.0, 17.0, 18.0, 19.0]

    def test_out_of_order_rejected(self):
        rrd = Rrd()
        rrd.update(100.0, 1.0)
        with pytest.raises(MonitoringError, match="out-of-order"):
            rrd.update(50.0, 1.0)

    def test_same_slot_late_sample_overwrites(self):
        """Sub-step jitter is tolerated: a late sample landing in the
        current slot overwrites it (last write wins)."""
        rrd = Rrd(step_s=10.0, slots=6)
        rrd.update(14.0, 2.0)
        rrd.update(12.0, 8.0)  # 2s late, same slot
        latest = rrd.latest()
        assert latest.value == pytest.approx(8.0)
        assert latest.samples == 1
        rrd.update(15.0, 4.0)  # in-order again: consolidates as usual
        assert rrd.latest().value == pytest.approx(6.0)

    def test_cross_slot_regression_still_rejected(self):
        rrd = Rrd(step_s=10.0, slots=6)
        rrd.update(25.0, 1.0)
        with pytest.raises(MonitoringError, match="out-of-order"):
            rrd.update(9.0, 1.0)

    def test_statistics(self):
        rrd = Rrd(step_s=1.0, slots=10)
        for t, v in enumerate([2.0, 4.0, 6.0]):
            rrd.update(float(t), v)
        assert rrd.mean() == pytest.approx(4.0)
        assert rrd.maximum() == pytest.approx(6.0)

    def test_empty_statistics_raise(self):
        with pytest.raises(MonitoringError):
            Rrd().mean()

    def test_invalid_construction(self):
        with pytest.raises(MonitoringError):
            Rrd(step_s=0)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_property_mean_within_bounds(self, values):
        rrd = Rrd(step_s=1.0, slots=100)
        for t, v in enumerate(values):
            rrd.update(float(t), v)
        assert min(values) - 1e-9 <= rrd.mean() <= max(values) + 1e-9


class TestGmond:
    def test_poll_covers_core_metrics(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmond = Gmond(cluster.frontend, cluster.frontend_db)
        samples = {s.spec.name for s in gmond.poll(15.0)}
        assert samples == set(CORE_METRICS)

    def test_package_count_reflects_db(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmond = Gmond(cluster.frontend, cluster.frontend_db)
        pkg = next(
            s for s in gmond.poll(15.0) if s.spec.name == "pkg_count"
        )
        assert pkg.value == float(len(cluster.frontend_db))

    def test_failed_service_counted(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        host = cluster.compute["compute-0-0"][0]
        gmond = Gmond(host, cluster.compute["compute-0-0"][1])
        host.services.fail("gmond")
        failed = next(s for s in gmond.poll(1.0) if s.spec.name == "svc_failed")
        assert failed.value == 1.0
        host.services.start("gmond")

    def test_traffic_counters_accumulate(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmond = Gmond(cluster.frontend, cluster.frontend_db)
        gmond.account_traffic(bytes_in=100.0)
        gmond.account_traffic(bytes_in=50.0, bytes_out=10.0)
        samples = {s.spec.name: s.value for s in gmond.poll(1.0)}
        assert samples["bytes_in"] == 150.0
        assert samples["bytes_out"] == 10.0
        with pytest.raises(MonitoringError):
            gmond.account_traffic(bytes_in=-1)

    def test_wrong_host_db_rejected(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        other_db = cluster.compute["compute-0-0"][1]
        with pytest.raises(MonitoringError):
            Gmond(cluster.frontend, other_db)


class TestGmetad:
    def test_full_cluster_mesh(self, ganglia_cluster):
        machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        summary = gmetad.run_cycles(4)
        assert summary.hosts_up == 6
        assert summary.total_cores == 12
        assert gmetad.down_hosts() == []

    def test_scheduler_load_integration(self, ganglia_cluster):
        machine, cluster = ganglia_cluster
        scheduler = MauiScheduler(ClusterResources(machine))
        gmetad = monitor_cluster(cluster, scheduler=scheduler)
        idle = gmetad.poll_cycle()
        assert idle.load_total == 0.0
        scheduler.submit(Job("busy", "a", cores=8, walltime_limit_s=100, runtime_s=50))
        busy = gmetad.poll_cycle()
        assert busy.load_total == pytest.approx(8.0)
        scheduler.run_to_completion()
        done = gmetad.poll_cycle()
        assert done.load_total == 0.0

    def test_down_host_detected(self, ganglia_cluster):
        machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        gmetad.poll_cycle()
        node = machine.compute_nodes[-1]
        node.powered_on = False
        try:
            summary = gmetad.poll_cycle()
            assert summary.hosts_down == 1
            assert len(gmetad.down_hosts()) == 1
        finally:
            node.powered_on = True

    def test_dashboard_renders(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        gmetad.poll_cycle()
        text = gmetad.render_dashboard()
        assert "Ganglia" in text
        assert "compute-0-0" in text
        assert "6/6 up" in text

    def test_dashboard_before_polling_rejected(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        with pytest.raises(MonitoringError):
            gmetad.render_dashboard()

    def test_duplicate_attach_rejected(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmetad = GmetadTree("x")
        rack = GmondRack("x")
        gmetad.add_rack(rack)
        gmond = Gmond(cluster.frontend, cluster.frontend_db)
        rack.attach(gmond)
        with pytest.raises(MonitoringError):
            rack.attach(gmond)

    def test_unknown_metric_or_host_rejected(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        with pytest.raises(MonitoringError):
            gmetad.rrd_for(cluster.frontend.name, "bogus_metric")
        with pytest.raises(MonitoringError):
            gmetad.rrd_for("ghost-host", "load_one")

    def test_history_retained_in_rrds(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        gmetad.run_cycles(5)
        rrd = gmetad.rrd_for(cluster.frontend.name, "cpu_num")
        assert len(rrd.series()) == 5
        assert rrd.mean() == pytest.approx(2.0)  # Celeron: 2 cores

    def test_unreported_stream_has_no_archive(self, ganglia_cluster):
        _machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        with pytest.raises(MonitoringError, match="no samples archived"):
            gmetad.rrd_for(cluster.frontend.name, "load_one")

    @pytest.mark.parametrize("cycles,silent", [(0, False), (2, False), (2, True)])
    def test_reads_do_not_mutate_checkpointed_state(
        self, ganglia_cluster, cycles, silent
    ):
        """down_hosts() and render_dashboard() are lookups: the state that
        CheckpointManager compares is the same before and after them — on
        a never-polled mesh, a polled one, and one with a host that never
        reported (so has no archives to look up)."""
        _machine, cluster = ganglia_cluster
        gmetad = monitor_cluster(cluster)
        if silent:
            gmetad.gmond_for(cluster.frontend.name).fail_heartbeat()
        for _ in range(cycles):
            gmetad.poll_cycle()
        before = gmetad.state_dict()
        assert gmetad.down_hosts() == []
        if cycles:
            assert cluster.frontend.name in gmetad.render_dashboard()
        else:
            with pytest.raises(MonitoringError):
                gmetad.render_dashboard()
        assert gmetad.state_dict() == before

    def test_single_leaf_tree_summary_is_its_leaf_summary(self, ganglia_cluster):
        """Folding one leaf's deltas from zero adds no float drift: the
        merged summary equals a direct sum over the same agents exactly,
        cycle after cycle, while load (and so free memory) keeps moving."""
        machine, cluster = ganglia_cluster
        scheduler = MauiScheduler(ClusterResources(machine))
        tree = monitor_cluster(cluster, scheduler=scheduler)
        twin = GmondRack("twin")
        for host in tree.hosts():
            twin.attach(tree.gmond_for(host))
        rng = random.Random(13)
        loads = set()
        for cycle in range(50):
            scheduler.submit(
                Job(f"j{cycle}", "a", cores=rng.randint(1, 5),
                    walltime_limit_s=1000, runtime_s=rng.choice([10, 25, 40]))
            )
            merged = tree.poll_cycle()
            direct, _changed = twin.sample(tree.now_s, TraceBus())
            assert merged == direct
            loads.add(merged.load_total)
        assert len(loads) > 3


# -- the two leaf kinds agree --------------------------------------------------------

_OPS = ("power_off", "power_on", "mute", "unmute", "allocate", "release")


@pytest.fixture(scope="module")
def fleet_littlefe():
    from repro.hardware import build_littlefe_modified
    from repro.rocks import RocksInstaller

    return RocksInstaller(build_littlefe_modified().machine).run(wave_size=3)


@given(
    st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(min_value=0, max_value=5)),
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_gmond_and_fleet_leaves_agree(fleet_littlefe, ops):
    """One GmondRack (agents) and one FleetRack (table columns) over the
    same hosts see the same cluster: equal summaries (service failures
    aside — the table has no such column) and equal dead lists, every
    cycle, under power-offs, heartbeat loss, recovery and job load."""
    cluster = fleet_littlefe
    fleet = cluster.rocksdb.fleet
    resources = ClusterResources.from_fleet(fleet)
    scheduled = set(resources.node_names())
    hosts = sorted(cluster.hosts(), key=lambda h: h.name)
    rows = [fleet.by_name(h.name) for h in hosts]
    for host, row in zip(hosts, rows):  # undo the previous example
        host.node.powered_on = row.powered_on = row.responsive = True

    agents = GmondRack("agents")
    for host in hosts:  # fleet-built resources go by Rocks host name
        load = (
            partial(resources.allocated_of, host.name)
            if host.name in scheduled
            else None
        )
        agents.attach(Gmond(host, cluster.db_for(host), load_source=load))
    # same summation order as the agent leaf, so float sums match bit for bit
    columns = FleetRack("columns", fleet, [row.index for row in rows])

    trace = TraceBus()
    held = []
    try:
        for t, (op, pick) in enumerate(ops, start=1):
            host, row = hosts[pick], rows[pick]
            if op in ("power_off", "power_on"):
                host.node.powered_on = row.powered_on = op == "power_on"
            elif op in ("mute", "unmute"):
                row.responsive = op == "unmute"
                gmond = agents.gmond_for(host.name)
                gmond.restore_heartbeat() if row.responsive else gmond.fail_heartbeat()
            elif op == "allocate":
                allocation = resources.try_allocate(pick + 1)
                if allocation is not None:
                    held.append(allocation)
            elif held:
                resources.release(held.pop(pick % len(held)))
            a, _ = agents.sample(15.0 * t, trace)
            c, _ = columns.sample(15.0 * t, trace)
            assert a == replace(c, failed_services=a.failed_services)
            assert agents.dead_hosts() == columns.dead_hosts()
    finally:
        for allocation in held:
            resources.release(allocation)
