#!/usr/bin/env python3
"""Chaos run on the modified LittleFe: crash nodes mid-workload, survive.

The XCBC paper's clusters live in classrooms and closets — nodes lose
power, NICs flap, mirrors fill their disks.  This example replays a
declarative :class:`~repro.faults.FaultPlan` against the full simulated
stack (Maui scheduler, Ganglia mesh, XSEDE repo mirror) on one seeded
kernel and shows the graceful-degradation machinery at work:

1. a disk-full window collides with the mirror sync — the retry policy
   backs off (seeded jitter) until space frees and the sync resumes from
   its partial state;
2. two compute nodes crash under running jobs — the scheduler requeues
   the affected work and finishes it on the survivors; one node recovers,
   the other (a dead PSU) stays failed;
3. gmetad counts missed heartbeats and declares the dead node DEAD while
   continuing to report a degraded-but-honest cluster summary;
4. the run ends with an invariant audit: all jobs terminal, no event or
   allocation leaks, trace schema-valid — and two same-seed runs produce
   byte-identical JSONL (the CI chaos job diffs them).

Equivalent CLI: ``python -m repro.faults --cluster littlefe`` (add
``--plan my.json`` for custom scenarios).
"""

import argparse
import sys

from repro.faults.chaos import demo_plan, run_chaos
from repro.hardware import build_littlefe_modified


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None,
                        help="write the JSONL trace here")
    args = parser.parse_args(argv)

    machine = build_littlefe_modified().machine
    plan = demo_plan(machine)
    print(f"fault plan {plan.name!r} ({len(plan)} faults):")
    for spec in plan.sorted_by_time().faults:
        recover = (f", heals after {spec.duration_s:.0f}s"
                   if spec.duration_s else ", permanent")
        print(f"  t={spec.at_s:>6.0f}s  {spec.kind.value:<16} "
              f"-> {spec.target}{recover}")

    run = run_chaos(plan, seed=args.seed, cluster="littlefe")
    print(f"\nran {run.kernel.events_processed} kernel events "
          f"to t={run.kernel.now_s:.0f}s")
    print(run.report.render())

    print("\nfinal Ganglia view:")
    print(run.gmetad.render_dashboard())

    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(run.jsonl)
        print(f"trace written to {args.trace} "
              f"(validate: python -m repro.sim {args.trace})")
    return 0 if run.report.ok else 1


def cluster_definition():
    """The chaos-tested machine, for ``cluster-lint``."""
    from repro.analyze import ClusterDefinition
    from repro.scheduler import default_queue_for

    machine = build_littlefe_modified().machine
    return ClusterDefinition(
        name="chaos-littlefe",
        machine=machine,
        queues=(default_queue_for(machine),),
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
