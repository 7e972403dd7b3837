#!/usr/bin/env python3
"""Co-simulation on one timeline: scheduler + power + MPI + Ganglia.

Before the unified kernel, each of these subsystems kept its own clock —
the scheduler an ad-hoc ``now_s``, MPI a float per rank, gmetad a poll
counter — and their timelines could not interleave.  This example runs all
of them on one :class:`~repro.sim.SimKernel`:

1. a Limulus HPC200 with power management on (idle blades power off, jobs
   pay the boot delay);
2. Ganglia's gmetad sampling every host as a *periodic kernel event*, so
   polls land between job events and observe the cluster mid-flight;
3. an MPI allreduce job whose rank timelines anchor at the job's (boot
   delayed) start time on the shared kernel;
4. every subsystem publishing typed events on the kernel's trace bus.

The trace serialises to JSONL deterministically: two runs with the same
seed produce byte-identical files (the ``cosim`` row of ``tools/flows.py``;
the determinism gate compares them).

Run with ``--trace cosim.jsonl`` to write the trace, then validate it with
``python -m repro.sim cosim.jsonl``.
"""

import argparse
import sys

from repro.core import build_limulus_cluster
from repro.monitoring import POLL_PERIOD_S, monitor_cluster
from repro.mpi import run_allreduce_job, world_for_job
from repro.scheduler import Job, PowerManagedScheduler
from repro.sim import SimKernel


def run_cosim(seed: int = 42, trace_path=None):
    """One co-simulated workday on the Limulus; returns the pieces."""
    cluster = build_limulus_cluster()
    kernel = SimKernel(seed=seed)
    scheduler = PowerManagedScheduler(
        cluster.machine, manage_power=True, kernel=kernel
    )
    gmetad = monitor_cluster(cluster, scheduler=scheduler)
    gmetad.start_sampling()

    fabric = cluster.network.fabric
    profiles = {}

    def launch_mpi(job):
        """At the job's start time, run its MPI phase on the shared kernel."""

        def run():
            world = world_for_job(fabric, job, kernel=kernel)
            profiles[job.name] = run_allreduce_job(
                world, iterations=4, elements=262144,
                compute_s_per_iteration=0.05,
            )

        kernel.at(job.start_time_s, run, label=f"mpi:{job.name}")

    scheduler.on_job_start = (
        lambda job: launch_mpi(job) if job.name.startswith("mpi-") else None
    )

    # The seed shapes the workload through the kernel's RNG.
    rng = kernel.rng
    per_node = min(n.cores for n in cluster.machine.compute_nodes)
    jobs = [
        Job("mpi-allreduce", "scientist", cores=2 * per_node,
            walltime_limit_s=2 * 3600,
            runtime_s=900.0 + 60 * rng.randrange(4)),
        Job("serial-sweep", "student", cores=1,
            walltime_limit_s=3600, runtime_s=300.0 + 30 * rng.randrange(4)),
        Job("post-process", "scientist", cores=per_node,
            walltime_limit_s=3600, runtime_s=600.0 + 60 * rng.randrange(3)),
    ]
    for job in jobs:
        scheduler.submit(job)
    stats = scheduler.run_to_completion()

    # Two more polling periods so monitoring records the wind-down (nodes
    # back off), then stop the periodic sampler.
    kernel.run_until(kernel.now_s + 2 * POLL_PERIOD_S)
    gmetad.stop_sampling()

    if trace_path is not None:
        kernel.trace.write_jsonl(trace_path)
    return {
        "kernel": kernel,
        "scheduler": scheduler,
        "gmetad": gmetad,
        "stats": stats,
        "profiles": profiles,
        "jsonl": kernel.trace.to_jsonl(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the JSONL trace here")
    args = parser.parse_args(argv if argv is not None else [])

    run = run_cosim(args.seed, trace_path=args.trace)
    kernel, scheduler, gmetad = run["kernel"], run["scheduler"], run["gmetad"]
    stats = run["stats"]

    print("=== One timeline, four subsystems ===")
    print(f"jobs: {stats.completed} completed, makespan "
          f"{stats.makespan_s / 60:.1f} min (mean wait {stats.mean_wait_s:.0f}s)")
    for name, profile in sorted(run["profiles"].items()):
        print(f"MPI {name}: {profile.ranks} ranks, "
              f"{profile.communication_fraction:.1%} communication, "
              f"{profile.parallel_efficiency:.1%} efficiency")
    print(f"energy: {scheduler.energy.total_kwh:.2f} kWh, "
          f"{scheduler.energy.off_node_seconds / 3600:.1f} node-hours off, "
          f"{scheduler.energy.boot_events} boots")
    print(f"monitoring: {len(gmetad.summaries)} poll cycles interleaved")
    print(f"kernel: {kernel.events_processed} events processed\n")

    print(gmetad.render_dashboard())

    print("\n=== Trace bus ===")
    print(kernel.trace.render_counters())

    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(validate: python -m repro.sim {args.trace})")


def cluster_definition():
    """The co-simulated machine, for ``cluster-lint``."""
    from repro.analyze import ClusterDefinition
    from repro.hardware import build_limulus_hpc200
    from repro.scheduler import default_queue_for

    machine = build_limulus_hpc200().machine
    return ClusterDefinition(
        name="cosim-limulus",
        machine=machine,
        queues=(default_queue_for(machine),),
    )


if __name__ == "__main__":
    main(sys.argv[1:])
