#!/usr/bin/env python3
"""Fleet-scale provisioning: wave installs, NodeSet addressing, rack rollups.

Table 3 tops out at 220 nodes; this example provisions a synthetic
300-node site the way a 10k-node fleet would be run:

1. **wave-scheduled installs** — insert-ethers discovers whole waves of 64
   nodes, each wave sharing one depsolver resolution and one transaction
   plan (validation cost is per *wave*, not per node);
2. **golden-image mode** — one template compute host is kickstarted; every
   other node's state lives in the columnar
   :class:`~repro.fleet.FleetTable`, materialised as a real host only if
   something touches it;
3. **NodeSet addressing** — trace events and operator output name nodes by
   folded pattern (``compute-0-[0-298]``), never by ten-thousand-line list;
4. **hierarchical monitoring** — rack-level aggregators roll up into one
   gmetad-of-gmetads tree; quiet racks are O(1) per poll via the fleet
   epoch, and a node that stops answering is declared dead after three
   missed polls.

Two runs with the same seed produce byte-identical traces (CI's
``trace-schema`` job diffs them).
"""

import argparse
import sys

from repro.core.deployments import build_synthetic_fleet
from repro.fleet import NodeSet
from repro.monitoring import monitor_fleet
from repro.rocks import RocksInstaller
from repro.sim import SimKernel

NODES = 300
WAVE_SIZE = 64


def run_fleet(seed: int = 42, trace_path=None):
    """Provision and monitor the synthetic fleet; returns the pieces."""
    machine = build_synthetic_fleet(NODES)
    kernel = SimKernel(seed=seed)
    installer = RocksInstaller(machine)
    cluster = installer.run(wave_size=WAVE_SIZE, kernel=kernel, materialize=False)

    tree = monitor_fleet(cluster, hosts_per_rack=48, kernel=kernel)
    tree.poll_cycle()          # first cycle: every rack reports
    tree.poll_cycle()          # quiet fleet: epoch fast path, zero changes

    # One node stops answering; three missed polls later it is dead.
    victim = cluster.rocksdb.compute_hosts()[17]
    victim.responsive = False
    for _ in range(3):
        tree.poll_cycle()
    summary = tree.poll_cycle()

    if trace_path is not None:
        kernel.trace.write_jsonl(trace_path)
    return {
        "cluster": cluster,
        "tree": tree,
        "kernel": kernel,
        "summary": summary,
        "victim": victim.name,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the JSONL trace here")
    args = parser.parse_args(argv if argv is not None else [])

    run = run_fleet(args.seed, trace_path=args.trace)
    cluster, tree, kernel = run["cluster"], run["tree"], run["kernel"]
    fleet = cluster.rocksdb.fleet

    print(f"=== Wave-scheduled install: {NODES} nodes, waves of {WAVE_SIZE} ===")
    waves = [e for e in kernel.trace.events if e.kind == "install.wave"]
    for event in waves:
        print(f"wave {event.data['wave']:>2}: {event.data['nodes']:<24}"
              f" ({event.data['count']} nodes, {event.data['pkgs']} pkgs each)")
    print(f"fleet address: {fleet.nodeset()}")
    print(f"materialised host objects: {len(cluster.compute)} "
          f"(golden image carries the package set)")

    print("\n=== NodeSet algebra ===")
    all_computes = NodeSet.parse(waves[0].data["nodes"])
    for event in waves[1:]:
        all_computes = all_computes | NodeSet.parse(event.data["nodes"])
    first_rack = NodeSet.parse("compute-0-[0-47]")
    print(f"all waves union:        {all_computes}")
    print(f"minus the first rack:   {all_computes - first_rack}")

    print("\n=== Hierarchical monitoring ===")
    summary = run["summary"]
    print(f"racks: {len(tree.racks())}, "
          f"hosts up: {summary.hosts_up}/{summary.hosts_total}, "
          f"dead: {tree.dead_hosts()}")
    rollups = [e for e in kernel.trace.events if e.kind == "monitor.rollup"]
    print("rollup changed-rack counts per cycle:",
          [e.data["changed"] for e in rollups])
    dead = [e for e in kernel.trace.events if e.kind == "monitor.host_dead"]
    print(f"declared dead after {dead[0].data['missed']} missed polls: "
          f"{dead[0].data['host']}")

    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(validate: python -m repro.sim {args.trace})")


def cluster_definition():
    """The synthetic fleet, for ``cluster-lint``."""
    from repro.analyze import ClusterDefinition
    from repro.scheduler import default_queue_for

    machine = build_synthetic_fleet(NODES)
    return ClusterDefinition(
        name="fleet-wave-install",
        machine=machine,
        queues=(default_queue_for(machine),),
    )


if __name__ == "__main__":
    main(sys.argv[1:])
