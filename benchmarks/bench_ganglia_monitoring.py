"""The ganglia roll at work: a monitored day on the XCBC LittleFe.

Regenerates the cluster dashboard (the web UI's front page, as text) after
a workload passes through Torque/Maui with the monitoring mesh attached,
including a node failure mid-run.  The timed unit is a full monitored
simulation: install-to-dashboard.
"""

import pytest

from repro.hardware import build_littlefe_modified
from repro.monitoring import monitor_cluster
from repro.rocks import install_cluster, optional_rolls
from repro.scheduler import ClusterResources, Job, MauiScheduler


def monitored_day():
    machine = build_littlefe_modified().machine
    cluster = install_cluster(machine, rolls=[optional_rolls()["ganglia"]])
    scheduler = MauiScheduler(ClusterResources(machine))
    gmetad = monitor_cluster(cluster, scheduler=scheduler)

    gmetad.run_cycles(2)  # idle baseline
    # Half an hour, so the whole day fits the archives' one-hour ring
    # (240 slots x 15 s) and the mid-day samples are not overwritten.
    scheduler.submit(Job("md-sweep", "alice", cores=8,
                         walltime_limit_s=7200, runtime_s=1800))
    loaded = gmetad.poll_cycle()
    # a node fails mid-day and comes back
    machine.compute_nodes[-1].powered_on = False
    degraded = gmetad.poll_cycle()
    machine.compute_nodes[-1].powered_on = True
    scheduler.run_to_completion()
    recovered = gmetad.run_cycles(2)
    return cluster, gmetad, (loaded, degraded, recovered)


def test_ganglia_monitoring(benchmark, save_artifact):
    cluster, gmetad, (loaded, degraded, recovered) = benchmark(monitored_day)

    save_artifact(
        "ganglia_dashboard",
        gmetad.render_dashboard()
        + "\n\nload timeline: "
        + f"idle->running {loaded.load_total:.0f} cores, "
        + f"degraded {degraded.hosts_up}/{degraded.hosts_total} up, "
        + f"recovered {recovered.hosts_up}/{recovered.hosts_total} up",
    )

    assert loaded.load_total == pytest.approx(8.0)
    assert degraded.hosts_down == 1
    assert recovered.hosts_up == 6 and recovered.load_total == 0.0
    # history survives in the archives
    rrd = gmetad.rrd_for(cluster.frontend.name, "load_one")
    assert len(rrd.series()) >= 5
