#!/usr/bin/env python3
"""A security-release update storm against the XNIT repository service.

The advisory lands, and every Table 3 campus — workshop-scale clients at
each — starts syncing the fixed packages through its campus proxy within
minutes.  Mid-storm, the fault plan turns the screws: the origin daemon
crashes outright (``origin.crash``) and the two largest campuses' WAN
uplinks start resetting connections (``conn.reset``).  The service
survives on three robustness mechanisms from :mod:`repro.repod`:

* **admission control** — the origin's bounded slots and queue shed
  excess load explicitly (``repod.shed``) instead of queueing to death;
* **coalescing + serve-stale proxies** — N concurrent campus misses cost
  one origin fetch (``repod.coalesce``), and while the origin is down a
  proxy serves its previous copy (``repod.stale``) so campuses stay
  installable on the old release;
* **retry budgets** — each campus's clients share a token bucket; a
  retry it pays for names the bucket on its ``fault.retry`` record, and a
  denial is a ``repod.retry_budget`` record.  When it runs dry, clients
  stop retrying, so the recovering origin sees decaying load instead of a
  thundering herd.

Run with ``--naive-style`` for the ablation (no budget, hammering retry
loops) and watch origin arrivals multiply.  Two runs with the same seed
produce byte-identical traces (the ``storm`` row of ``tools/flows.py``;
the determinism gate compares them).
"""

import argparse
import sys

from repro.repod import UpdateStormScenario

CLIENTS_PER_CAMPUS = 6


def run_storm(seed: int = 2015, *, governed: bool = True, trace_path=None):
    """One full storm: build, drive to quiescence, audit."""
    scenario = UpdateStormScenario(
        seed=seed, governed=governed, clients_per_campus=CLIENTS_PER_CAMPUS
    )
    report = scenario.run()
    if trace_path is not None:
        scenario.kernel.trace.write_jsonl(trace_path)
    return scenario, report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--naive-style", action="store_true",
                        help="ablation: no retry budget, impatient clients")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the JSONL trace here")
    args = parser.parse_args(argv if argv is not None else [])

    governed = not args.naive_style
    scenario, report = run_storm(
        args.seed, governed=governed, trace_path=args.trace
    )
    trace = scenario.kernel.trace

    style = "governed (budgeted)" if governed else "NAIVE (no budget)"
    print(f"=== Update storm: {report.campuses} campuses x "
          f"{CLIENTS_PER_CAMPUS} clients, {style} ===")
    print(f"offered {report.offered} requests; "
          f"ok={report.ok} stale={report.stale} failed={report.failed} "
          f"-> goodput {report.goodput_ratio:.1%}")
    print(f"origin: arrivals={report.origin_arrivals} "
          f"served={report.origin_served} "
          f"shed={report.origin_shed_full + report.origin_shed_deadline} "
          f"refused-while-down={report.origin_refused}")
    print(f"proxies: hits={report.proxy_hits} misses={report.proxy_misses} "
          f"coalesced={report.proxy_coalesced} "
          f"stale-served={report.proxy_stale_served} "
          f"uplink-resets={report.uplink_resets}")
    print(f"retries: {report.retries} "
          f"(budget granted={report.budget_granted} "
          f"denied={report.budget_denied})")
    counts = {k: v for k, v in sorted(trace.by_kind.items())
              if k.startswith("repod.")}
    print(f"repod.* events: {counts}")
    paid = sum(1 for e in trace.events
               if e.kind == "fault.retry" and "budget" in e.data)
    print(f"fault.retry paid from a budget: {paid}")
    if report.problems:
        print("INVARIANT VIOLATIONS:")
        for problem in report.problems:
            print(f"  - {problem}")
    else:
        print("invariant audit: clean "
              "(exactly-once terminals, no leaked slots, goodput floor)")

    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(validate: python -m repro.sim {args.trace})")


def cluster_definition():
    """An equivalent synthetic site, for ``cluster-lint``."""
    from repro.analyze import ClusterDefinition
    from repro.core.deployments import build_synthetic_fleet
    from repro.scheduler import default_queue_for

    machine = build_synthetic_fleet(60)
    return ClusterDefinition(
        name="update-storm",
        machine=machine,
        queues=(default_queue_for(machine),),
    )


if __name__ == "__main__":
    main(sys.argv[1:])
