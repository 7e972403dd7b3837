#!/usr/bin/env python3
"""A rolling XNIT update across a 10,000-node fleet, under fire.

The paper's one-admin story at fleet scale: push a package update to ten
thousand nodes while the fleet misbehaves, without babysitting and
without half-bricking the machine.  This example drives
:class:`repro.shell.RollingUpdate` over a 25-rack synthetic fleet while a
declarative :class:`~repro.faults.FaultPlan` injects trouble mid-sweep:

* **node crashes** — 30 nodes die at scheduled instants; nodes that crash
  before their wave are *skipped and reported*, nodes that crash mid-wave
  burn their retries and land in the failed NodeSet;
* **a rack uplink flap** — rack 19's switch drops every connection for a
  long window; the wave that hits it fails en masse, which (a) trips the
  rack failure-domain limit (the rest of rack 19 is skipped, the sweep is
  not) and (b) crosses the sweep failure threshold, **auto-pausing** the
  update instead of marching on.

The operator waits out the flap, resumes, and the sweep completes: every
wave drained through the scheduler (straggler jobs force-requeued at the
drain deadline), executed with bounded fanout, health-verified through
the gmetad tree, and reported as folded NodeSets — never a 10,000-line
listing, never an exception.  Two runs with the same seed produce
byte-identical traces (CI's ``trace-schema`` job diffs them).
"""

import argparse
import sys

from repro.errors import ShellError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.fleet import FleetTable
from repro.monitoring.hierarchy import GmetadTree, Rack
from repro.scheduler import ClusterResources, Job, TorqueScheduler
from repro.shell import RollingUpdate, ShellCommand, ShellEngine
from repro.sim import SimKernel

RACKS = 25
NODES_PER_RACK = 400            # 10,000 compute nodes
WAVE_SIZE = 512
FANOUT = 64
FLAP_RACK = 19
FLAP_START_S = 1500.0
FLAP_DURATION_S = 4500.0
MAX_FAILURES = 100
RACK_FAILURES_LIMIT = 50
JOB_COUNT = 32


def build_fleet() -> FleetTable:
    """25 racks x 400 installed compute nodes plus a frontend row."""
    fleet = FleetTable()
    fleet.add_row(
        name="xcbc-frontend", appliance="frontend", rack=0, rank=0,
        cores=16, state="os-installed",
    )
    for rack in range(RACKS):
        for rank in range(NODES_PER_RACK):
            fleet.add_row(
                name=f"compute-{rack}-{rank}", appliance="compute",
                rack=rack, rank=rank, cores=8, state="os-installed",
            )
    return fleet


def fault_plan() -> FaultPlan:
    """30 scattered node crashes plus one long rack uplink flap."""
    specs = [
        FaultSpec(
            kind=FaultKind.NODE_CRASH,
            target=f"compute-{(7 * k) % RACKS}-{(37 * k) % NODES_PER_RACK}",
            at_s=300.0 + 75.0 * k,
        )
        for k in range(30)
    ]
    specs.append(
        FaultSpec(
            kind=FaultKind.LINK_FLAP,
            target=f"rack-{FLAP_RACK}",
            at_s=FLAP_START_S,
            duration_s=FLAP_DURATION_S,
            params={"loss_prob": 1.0},
        )
    )
    return FaultPlan(name="rolling-update-chaos", faults=tuple(specs))


def run_update(seed: int = 42, trace_path=None) -> dict:
    """One full scenario: sweep, pause under fire, resume, finish."""
    fleet = build_fleet()
    kernel = SimKernel(seed=seed)
    resources = ClusterResources.from_fleet(fleet, label="xnit-fleet")
    scheduler = TorqueScheduler(resources, kernel=kernel)
    for k in range(JOB_COUNT):
        scheduler.submit(
            Job(
                name=f"mdrun-{k:02d}", user="student", cores=8,
                runtime_s=1500.0, walltime_limit_s=7200.0,
            )
        )

    tree = GmetadTree("xnit-fleet", kernel=kernel)
    indices = fleet.ordered_indices()
    for rack in range(RACKS):
        tree.add_rack(
            Rack(
                f"rack{rack:03d}", fleet,
                [i for i in indices if fleet.racks[i] == rack
                 and fleet.appliances[i] == "compute"],
            )
        )

    plan = fault_plan()
    plan.validate()
    flap_window = {"start_s": None, "end_s": None}
    sched_names = frozenset(resources.node_names())

    def crash(name: str) -> None:
        fleet.set_flag("responsive", fleet.index_of(name), False)
        if name in sched_names and not resources.is_failed(name):
            scheduler.crash_node(name, reason="fault injection")
        kernel.trace.emit(
            "fault.inject", t_s=kernel.now_s, subsystem="faults",
            fault=FaultKind.NODE_CRASH.value, target=name,
        )

    def flap_start(target: str, duration_s: float) -> None:
        flap_window["start_s"] = kernel.now_s
        flap_window["end_s"] = kernel.now_s + duration_s
        kernel.trace.emit(
            "fault.inject", t_s=kernel.now_s, subsystem="faults",
            fault=FaultKind.LINK_FLAP.value, target=target,
        )

    for spec in plan.faults:
        if spec.kind is FaultKind.NODE_CRASH:
            kernel.at(spec.at_s, lambda name=spec.target: crash(name),
                      label=f"fault:{spec.target}")
        elif spec.kind is FaultKind.LINK_FLAP:
            kernel.at(
                spec.at_s,
                lambda t=spec.target, d=spec.duration_s: flap_start(t, d),
                label=f"fault:{spec.target}",
            )

    def xnit_update(node: str) -> tuple[int, str]:
        """The simulated command: fails transport while its rack flaps."""
        start, end = flap_window["start_s"], flap_window["end_s"]
        in_window = start is not None and start <= kernel.now_s < end
        if in_window and fleet.racks[fleet.index_of(node)] == FLAP_RACK:
            raise ShellError("link flap: connection reset by peer")
        return 0, "xnit 0.0.9 applied"

    engine = ShellEngine(fleet, kernel=kernel)
    update = RollingUpdate(
        engine,
        scheduler=scheduler,
        tree=tree,
        wave_size=WAVE_SIZE,
        fanout=FANOUT,
        timeout_s=60.0,
        max_failures=MAX_FAILURES,
        rack_failures_limit=RACK_FAILURES_LIMIT,
        drain_deadline_s=120.0,
        health_cycles=3,
    )
    command = ShellCommand(
        "yum -y update xnit-release", duration_s=30.0, jitter=0.2,
        handler=xnit_update,
    )
    report = update.run(fleet.nodeset(fleet.compute_indices()), command)
    paused_at = len(report.waves)
    pause_reason = report.pause_reason
    if report.state == "paused":
        # The operator waits out the flap, then resumes with a fresh
        # failure budget; failed nodes stay parked offline for repair.
        flap_end = flap_window["end_s"]
        if flap_end is not None and kernel.now_s < flap_end:
            kernel.run_until(flap_end)
        report = update.resume()

    if trace_path is not None:
        kernel.trace.write_jsonl(trace_path)
    return {
        "report": report,
        "update": update,
        "kernel": kernel,
        "resources": resources,
        "scheduler": scheduler,
        "tree": tree,
        "paused_at": paused_at,
        "pause_reason": pause_reason,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the JSONL trace here")
    args = parser.parse_args(argv if argv is not None else [])

    run = run_update(args.seed, trace_path=args.trace)
    report, kernel = run["report"], run["kernel"]
    trace = kernel.trace

    print(f"=== Rolling XNIT update: {RACKS * NODES_PER_RACK} nodes, "
          f"waves of {WAVE_SIZE}, fanout {FANOUT} ===")
    for event in trace.events:
        if event.kind == "shell.wave":
            d = event.data
            print(f"wave {d['wave']:>2}: {d['status']:<9} "
                  f"ok={d['ok']:<4} failed={d['failed']:<4} "
                  f"skipped={d['skipped']:<4} {d['nodes']}")
        elif event.kind == "shell.abort":
            print(f"ABORT GATE: {event.data['reason']}")

    print(f"\nauto-paused after wave {run['paused_at'] - 1}: "
          f"{run['pause_reason']}")
    print(f"final state: {report.state}")
    ok, failed, skipped = (
        report.ok_nodes(), report.failed_nodes(), report.skipped_nodes()
    )
    print(f"updated ok ({len(ok)} nodes): {str(ok)[:70]}...")
    print(f"failed   ({len(failed)} nodes): {failed}")
    print(f"skipped  ({len(skipped)} nodes): {skipped}")
    peak = max(
        (w.report.max_inflight for w in report.waves if w.report is not None),
        default=0,
    )
    print(f"peak in-flight workers: {peak} (bound: {FANOUT})")
    print(f"jobs force-requeued by drain deadlines: "
          f"{trace.count('job.requeue')}")
    counts = {k: v for k, v in sorted(trace.by_kind.items())
              if k.startswith("shell.")}
    print(f"shell.* events: {counts}")

    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(validate: python -m repro.sim {args.trace})")


def cluster_definition():
    """An equivalent synthetic site, for ``cluster-lint``."""
    from repro.analyze import ClusterDefinition
    from repro.core.deployments import build_synthetic_fleet
    from repro.scheduler import default_queue_for

    machine = build_synthetic_fleet(300)
    return ClusterDefinition(
        name="rolling-xnit-update",
        machine=machine,
        queues=(default_queue_for(machine),),
    )


if __name__ == "__main__":
    main(sys.argv[1:])
