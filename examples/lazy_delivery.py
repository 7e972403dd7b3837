#!/usr/bin/env python3
"""Content-addressed lazy package delivery through the stratum hierarchy.

One origin (:class:`~repro.cas.Stratum0`) publishes a release as
deduplicated sha256 chunks, a regional replica
(:class:`~repro.cas.Stratum1`) syncs the chunk delta over the WAN —
surviving a mid-transfer interruption, resuming at chunk granularity —
and a fleet of campuses installs through per-site
:class:`~repro.cas.SiteChunkCache` tiers that fetch chunks lazily, on
first reference.  Then the security update lands: adjacent RPM versions
share most chunks by construction, so the update storm moves only the
~12.5% version-specific delta instead of re-shipping every package to
every campus.  A rollback is published *forward* (a new generation with
the old content, Guix-style), so every cached chunk for the old release
is already warm and the downstream serial protocol never regresses.

Two runs with the same seed produce byte-identical traces (CI's
``trace-schema`` job diffs them).  The ``cas.*`` trace events —
``cas.publish``, ``cas.replicate``, ``cas.fetch``, ``cas.rollback`` —
carry the accounting.
"""

import argparse
import sys

from repro.cas import (
    LazyDelivery,
    SiteChunkCache,
    Stratum0,
    Stratum1,
    cas_confluence_problems,
)
from repro.errors import CasError
from repro.rpm import Package
from repro.sim import SimKernel
from repro.yum import MirrorLink

CAMPUSES = 4
NODES_PER_CAMPUS = 6
PACKAGES = 20
PKG_BYTES = 1024 * 1024


def release(version: str) -> list[Package]:
    return [
        Package(f"pkg{i}", version, size_bytes=PKG_BYTES)
        for i in range(PACKAGES)
    ]


def wan_link() -> MirrorLink:
    return MirrorLink(bandwidth_bytes_s=50 * 1024 * 1024, latency_s=0.04)


def run_delivery(seed: int = 2016, *, trace_path=None):
    """One full cycle: publish v1, storm-install, update to v2, roll back."""
    kernel = SimKernel(seed=seed)
    s0 = Stratum0("xsede", kernel=kernel)
    s1 = Stratum1("us-east", s0, wan_link(), kernel=kernel)
    sites = [
        SiteChunkCache(f"campus{c}", s1, wan_link(), kernel=kernel)
        for c in range(CAMPUSES)
    ]
    deliveries = [LazyDelivery(site) for site in sites]

    def storm(packages):
        for delivery in deliveries:
            for node in range(NODES_PER_CAMPUS):
                for pkg in packages:
                    delivery.fetch_package(f"node{node}", pkg)

    # v1: publish, replicate (surviving one WAN interruption), cold install.
    v1 = s0.publish(release("1.0"))
    s1.inject_interruptions(1)
    try:
        s1.replicate()
    except CasError:
        pass  # landed chunks stay; the resume moves only the remainder
    resumed = s1.replicate()
    for site in sites:
        site.notice_release(s0.serial)
    storm(release("1.0"))
    cold_wan = sum(site.wan_bytes for site in sites)

    # v2: the security update — only the version-specific chunks move.
    v2 = s0.publish(release("2.0"))
    update_rep = s1.replicate()
    for site in sites:
        site.notice_release(s0.serial)
    storm(release("2.0"))
    update_wan = sum(site.wan_bytes for site in sites) - cold_wan

    # v2 regresses in the field: roll back.  The serial moves FORWARD and
    # every v1 chunk is still cached, so the re-install is nearly free.
    s0.rollback()
    s1.replicate()
    for site in sites:
        site.notice_release(s0.serial)
    storm(release("1.0"))
    rollback_wan = sum(site.wan_bytes for site in sites) - cold_wan - update_wan

    problems = cas_confluence_problems(
        kernel.trace.events, strata=[s0], replicas=[s1], caches=sites
    )
    if trace_path is not None:
        kernel.trace.write_jsonl(trace_path)
    return {
        "kernel": kernel,
        "s0": s0,
        "v1": v1,
        "v2": v2,
        "resumed": resumed,
        "update_rep": update_rep,
        "cold_wan": cold_wan,
        "update_wan": update_wan,
        "rollback_wan": rollback_wan,
        "deliveries": deliveries,
        "problems": problems,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the JSONL trace here")
    args = parser.parse_args(argv if argv is not None else [])

    run = run_delivery(args.seed, trace_path=args.trace)
    kernel, v1, v2 = run["kernel"], run["v1"], run["v2"]
    full = CAMPUSES * PACKAGES * PKG_BYTES

    print(f"=== Lazy delivery: {CAMPUSES} campuses x {NODES_PER_CAMPUS} "
          f"nodes, {PACKAGES} packages ===")
    print(f"publish v1: serial {v1.serial}, {v1.chunks} chunks "
          f"({v1.new_chunks} new, {v1.nbytes} bytes)")
    print(f"replicate: interrupted once, resumed "
          f"{run['resumed'].chunks} chunk(s)")
    print(f"publish v2: {v2.new_chunks}/{v2.chunks} chunks new — "
          f"{1 - v2.new_chunks / v2.chunks:.0%} deduplicated against v1")
    print(f"cold install WAN: {run['cold_wan']:,} bytes "
          f"(full re-ship would be {full:,})")
    print(f"update storm WAN: {run['update_wan']:,} bytes "
          f"({full / max(1, run['update_wan']):.1f}x less than full mirror)")
    print(f"rollback re-install WAN: {run['rollback_wan']:,} bytes "
          f"(serial moved forward to {run['s0'].serial})")
    total_lan = sum(d.stats.bytes_fetched for d in run["deliveries"])
    print(f"node LAN bytes served: {total_lan:,} "
          f"(the site tier absorbed the fan-out)")
    counts = {k: v for k, v in sorted(kernel.trace.by_kind.items())
              if k.startswith("cas.")}
    print(f"cas.* events: {counts}")
    if run["problems"]:
        print("INVARIANT VIOLATIONS:")
        for problem in run["problems"]:
            print(f"  - {problem}")
    else:
        print("confluence audit: clean (forward serials, honest hit "
              "accounting, no refcount leaks)")

    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(validate: python -m repro.sim {args.trace})")


def cluster_definition():
    """An equivalent synthetic site, for ``cluster-lint``."""
    from repro.analyze import ClusterDefinition
    from repro.core.deployments import build_synthetic_fleet
    from repro.scheduler import default_queue_for

    machine = build_synthetic_fleet(CAMPUSES * NODES_PER_CAMPUS)
    return ClusterDefinition(
        name="lazy-delivery",
        machine=machine,
        queues=(default_queue_for(machine),),
    )


if __name__ == "__main__":
    main(sys.argv[1:])
