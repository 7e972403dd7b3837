"""The canonical hot-path benches.

Each bench is a plain function ``fn(quick: bool) -> BenchResult`` that
builds its own world, times the hot region with ``time.perf_counter``
(best of :data:`REPEATS` rounds), and reports ``(ops_per_s, wall_s, n)``.
Caches that the bench deliberately exercises *within* a round (the
depsolver resolution cache across the 220 Kansas nodes) are cleared
*between* rounds, so every round pays the first miss honestly.

``--quick`` shrinks the workload for CI smoke runs; quick results are
recorded under ``<name>@quick`` so full and quick baselines never mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["BenchResult", "BENCHES", "run_benches", "REPEATS"]

#: Rounds per bench; the best (minimum) wall time wins, the standard
#: noise-rejection for microbenches on shared machines.
REPEATS = 3


@dataclass(frozen=True)
class BenchResult:
    """One bench outcome (the JSON row)."""

    name: str
    ops_per_s: float
    wall_s: float
    n: int

    def to_dict(self) -> dict[str, float | int]:
        return {
            "ops_per_s": round(self.ops_per_s, 1),
            "wall_s": round(self.wall_s, 6),
            "n": self.n,
        }


def _best_of(setup: Callable[[], object], run: Callable[[object], int]) -> tuple[float, int]:
    """Time ``run(setup())`` REPEATS times; returns (best wall_s, n_ops)."""
    best = float("inf")
    n = 0
    for _ in range(REPEATS):
        world = setup()
        t0 = time.perf_counter()
        n = run(world)
        best = min(best, time.perf_counter() - t0)
    return best, n


def _xsede_repo_set():
    from ..core import xsede_packages
    from ..rocks import base_os_packages
    from ..distro import CENTOS_6_5
    from ..yum import RepoSet, Repository

    repo = Repository("xsede", priority=50)
    repo.add_all(base_os_packages(CENTOS_6_5) + xsede_packages())
    return RepoSet([repo])


def _fresh_db():
    from ..distro import CENTOS_6_5, Host
    from ..hardware import build_littlefe_modified
    from ..rpm import RpmDatabase

    head = build_littlefe_modified().machine.head
    return lambda: RpmDatabase(Host(head, CENTOS_6_5))


def bench_depsolver_closure(quick: bool = False) -> BenchResult:
    """Repeated single-package closure (``yum install gromacs``) — the
    memoised best-provider / resolution-cache fast path."""
    from ..yum import resolve_install
    from ..yum.depsolver import clear_resolution_cache

    rounds = 20 if quick else 100
    repos = _xsede_repo_set()
    make_db = _fresh_db()

    def setup():
        clear_resolution_cache()
        return None

    def run(_):
        for _i in range(rounds):
            resolve_install(["gromacs"], repos, make_db())
        return rounds

    wall, n = _best_of(setup, run)
    return BenchResult("depsolver_closure", n / wall, wall, n)


def bench_depsolver_kansas(quick: bool = False) -> BenchResult:
    """Depsolver closure at Kansas scale: the full uniform package stack
    resolved once per node (220 nodes, Table 3's largest row) against a
    fresh RepoSet per node — exactly how the Rocks installer kickstarts
    hosts.  The XCBC "same stack on every node" cache path."""
    from ..core import xsede_packages
    from ..rocks import base_os_packages
    from ..distro import CENTOS_6_5
    from ..yum import RepoSet, Repository, resolve_install
    from ..yum.depsolver import clear_resolution_cache

    nodes = 20 if quick else 220
    repo = Repository("xsede", priority=50)
    repo.add_all(base_os_packages(CENTOS_6_5) + xsede_packages())
    names = sorted({p.name for p in repo.all_packages()})
    make_db = _fresh_db()

    def setup():
        clear_resolution_cache()
        return None

    def run(_):
        for _i in range(nodes):
            # Fresh RepoSet per node, as in RocksInstaller._kickstart_host;
            # the content-addressed epoch makes the cache hit anyway.
            resolve_install(names, RepoSet([repo]), make_db())
        return nodes

    wall, n = _best_of(setup, run)
    return BenchResult("depsolver_kansas", n / wall, wall, n)


def bench_event_kernel(quick: bool = False) -> BenchResult:
    """Raw kernel throughput: schedule 20k events with a 1-in-8
    cancel/reschedule churn, then drain (the power manager's pattern)."""
    from ..sim import SimKernel

    n_events = 5_000 if quick else 20_000

    def setup():
        return None

    def run(_):
        kernel = SimKernel(seed=1)
        sink = []
        handles = []
        for i in range(n_events):
            handle = kernel.at(
                float(kernel.rng.randrange(1000)), lambda i=i: sink.append(i)
            )
            if i % 8 == 0:
                handles.append(handle)
            elif i % 8 == 4 and handles:
                victim = handles.pop()
                if victim.active:
                    kernel.reschedule(victim, victim.time_s + 10.0)
        kernel.run()
        return n_events

    wall, n = _best_of(setup, run)
    return BenchResult("event_kernel", n / wall, wall, n)


def bench_trace_bus(quick: bool = False) -> BenchResult:
    """Raw emit throughput on one bus (shape-cache fast path)."""
    from ..sim import TraceBus

    n_emits = 10_000 if quick else 50_000

    def setup():
        return TraceBus()

    def run(bus):
        emit = bus.emit
        for i in range(n_emits):
            emit(
                "metric.sample", t_s=float(i), subsystem="bench",
                host="h0", metric="load_one", value=1.0,
            )
        return n_emits

    wall, n = _best_of(setup, run)
    return BenchResult("trace_bus", n / wall, wall, n)


def bench_trace_heavy_run_until(quick: bool = False) -> BenchResult:
    """Trace-heavy ``run_until``: 20k pre-scheduled events, 10 per
    timestamp, each emitting one trace event — times the drain only
    (batched same-time pops + deferred event materialisation)."""
    from ..sim import SimKernel

    n_events = 5_000 if quick else 20_000

    def setup():
        kernel = SimKernel(seed=2)
        bus = kernel.trace
        for i in range(n_events):
            t = float(i // 10)
            kernel.at(
                t,
                lambda i=i, t=t: bus.emit(
                    "metric.sample", t_s=t, subsystem="bench",
                    host=f"h{i % 7}", metric="load_one", value=0.5,
                ),
            )
        return kernel

    def run(kernel):
        kernel.run_until(float(n_events))
        return n_events

    wall, n = _best_of(setup, run)
    return BenchResult("trace_heavy_run_until", n / wall, wall, n)


def bench_scheduler_churn(quick: bool = False) -> BenchResult:
    """Scheduler placement churn: bursts of jobs through the power-managed
    Limulus scheduler (placement, completion events, power transitions)."""
    from ..hardware import build_limulus_hpc200
    from ..scheduler import Job, PowerManagedScheduler
    from ..sim import SimKernel

    bursts = 3 if quick else 10
    jobs_per_burst = 4

    def setup():
        machine = build_limulus_hpc200().machine
        kernel = SimKernel(seed=3)
        return PowerManagedScheduler(machine, manage_power=True, kernel=kernel)

    def run(scheduler):
        for burst in range(bursts):
            scheduler.now_s = burst * 7200.0
            for i in range(jobs_per_burst):
                scheduler.submit(
                    Job(
                        f"b{burst}-j{i}", "bench", cores=4,
                        walltime_limit_s=7200, runtime_s=1800,
                    )
                )
            scheduler.run_to_completion()
        return bursts * jobs_per_burst

    wall, n = _best_of(setup, run)
    return BenchResult("scheduler_churn", n / wall, wall, n)


def bench_kansas_install(quick: bool = False) -> BenchResult:
    """End-to-end XCBC build: hardware, leaf/spine network, PXE discovery,
    and the full software install on every node.  Quick mode builds Table
    3's Marshall row (22 nodes) instead of Kansas (one timed round)."""
    from ..core import build_xcbc_cluster
    from ..core.deployments import TABLE3_SITES, rebuild_site_hardware
    from ..yum.depsolver import clear_resolution_cache

    site_name = "Marshall" if quick else "Kansas"
    site = next(s for s in TABLE3_SITES if site_name in s.site)

    # One timed round: this is a whole-cluster build, multi-second before
    # the overhaul, and round-to-round noise is small relative to that.
    clear_resolution_cache()
    machine = rebuild_site_hardware(site)
    t0 = time.perf_counter()
    report = build_xcbc_cluster(machine, include_optional_rolls=False)
    wall = time.perf_counter() - t0
    nodes = report.node_count
    return BenchResult("kansas_install", nodes / wall, wall, nodes)


def bench_scale_10k(quick: bool = False) -> BenchResult:
    """Fleet-scale cycle: a synthetic 10,000-node site through hardware
    build, golden-image wave install (waves of 256, one shared transaction
    plan per wave), and one hierarchical monitoring cycle over the
    FleetTable-backed rack tree.  The cycle runs **twice with the same
    seed** and the two traces must be byte-identical — the determinism
    contract is part of the bench, not a separate test.  Quick mode runs
    1,000 nodes.  ``n`` counts nodes through the full cycle."""
    from ..core.deployments import build_synthetic_fleet
    from ..monitoring import monitor_fleet
    from ..rocks.installer import RocksInstaller
    from ..sim import SimKernel
    from ..yum.depsolver import clear_resolution_cache

    node_count = 1_000 if quick else 10_000

    def cycle() -> tuple[float, str]:
        clear_resolution_cache()
        t0 = time.perf_counter()
        machine = build_synthetic_fleet(node_count)
        kernel = SimKernel(seed=10_000)
        cluster = RocksInstaller(machine).run(
            wave_size=256, kernel=kernel, materialize=False
        )
        monitor_fleet(cluster, kernel=kernel).poll_cycle()
        wall = time.perf_counter() - t0
        return wall, kernel.trace.to_jsonl()

    wall_a, trace_a = cycle()
    wall_b, trace_b = cycle()
    if trace_a != trace_b:
        raise AssertionError(
            "bench_scale_10k: same-seed traces differ between runs — the "
            "fleet install/monitoring path has become non-deterministic"
        )
    wall = min(wall_a, wall_b)
    return BenchResult("bench_scale_10k", node_count / wall, wall, node_count)


def bench_shell_fanout(quick: bool = False) -> BenchResult:
    """Parallel admin plane: one ``clush``-style sweep across a bare
    10,000-node FleetTable (fanout 64, jittered durations, a sprinkling of
    flaky nodes burning retries).  The sweep runs **twice with the same
    seed** and the traces must be byte-identical — determinism under
    retries is the contract.  Quick mode sweeps 1,000 nodes.  ``n`` counts
    nodes swept."""
    from ..errors import ShellError
    from ..fleet import FleetTable
    from ..shell import ShellCommand, ShellEngine
    from ..sim import SimKernel

    node_count = 1_000 if quick else 10_000
    per_rack = 400

    def build() -> FleetTable:
        fleet = FleetTable()
        for i in range(node_count):
            fleet.add_row(
                name=f"compute-{i // per_rack}-{i % per_rack}",
                appliance="compute", rack=i // per_rack, rank=i % per_rack,
                cores=8, state="os-installed",
            )
        return fleet

    def handler(node: str) -> tuple[int, str]:
        # every 97th node refuses its first conversation's worth of time
        if int(node.rsplit("-", 1)[1]) % 97 == 96:
            raise ShellError("connection refused")
        return 0, "ok"

    def sweep() -> tuple[float, str]:
        fleet = build()
        kernel = SimKernel(seed=64)
        engine = ShellEngine(fleet, kernel=kernel)
        t0 = time.perf_counter()
        report = engine.run(
            fleet.nodeset(),
            ShellCommand("uptime", duration_s=5.0, jitter=0.2,
                         handler=handler),
            fanout=64,
        )
        wall = time.perf_counter() - t0
        if not report.complete:
            raise AssertionError("bench_shell_fanout: sweep did not complete")
        return wall, kernel.trace.to_jsonl()

    wall_a, trace_a = sweep()
    wall_b, trace_b = sweep()
    if trace_a != trace_b:
        raise AssertionError(
            "bench_shell_fanout: same-seed traces differ between sweeps — "
            "the fan-out/retry path has become non-deterministic"
        )
    wall = min(wall_a, wall_b)
    return BenchResult("bench_shell_fanout", node_count / wall, wall, node_count)


def bench_repod_storm(quick: bool = False) -> BenchResult:
    """The repository service under an update storm: the full Table 3
    campus fleet syncing a security release through coalescing proxies
    while the origin crashes and uplinks flap mid-storm.  The governed
    run executes **twice with the same seed** and the traces must be
    byte-identical; a third, naive-style run (no retry budget, impatient
    clients) must show the retry-storm collapse — materially more origin
    arrivals and retries than the governed run — or the budget has
    stopped doing its job.  Quick mode shrinks the per-campus client
    fleet.  ``n`` counts terminal client requests in one governed run."""
    from ..repod import UpdateStormScenario

    clients = 3 if quick else 8

    def storm(governed: bool) -> tuple[float, object, str]:
        scenario = UpdateStormScenario(
            seed=2015, governed=governed, clients_per_campus=clients
        )
        t0 = time.perf_counter()
        report = scenario.run()
        wall = time.perf_counter() - t0
        if report.problems:
            raise AssertionError(
                "bench_repod_storm: invariant audit failed: "
                + "; ".join(report.problems)
            )
        return wall, report, scenario.kernel.trace.to_jsonl()

    wall_a, report, trace_a = storm(governed=True)
    wall_b, _, trace_b = storm(governed=True)
    if trace_a != trace_b:
        raise AssertionError(
            "bench_repod_storm: same-seed traces differ between runs — "
            "the admission/coalescing/retry path has become "
            "non-deterministic"
        )
    if report.goodput_ratio < 0.9:
        raise AssertionError(
            f"bench_repod_storm: governed goodput "
            f"{report.goodput_ratio:.1%} fell below the 90% floor"
        )
    _, naive, _ = storm(governed=False)
    if naive.origin_arrivals < 2 * report.origin_arrivals:
        raise AssertionError(
            f"bench_repod_storm: naive ablation saw only "
            f"{naive.origin_arrivals} origin arrivals vs "
            f"{report.origin_arrivals} governed — the retry budget no "
            f"longer changes the load profile"
        )
    wall = min(wall_a, wall_b)
    return BenchResult("bench_repod_storm", report.offered / wall, wall,
                       report.offered)


def bench_cas_delivery(quick: bool = False) -> BenchResult:
    """Content-addressed lazy delivery vs full mirroring, across a WAN.

    A release (v1) and a security update (v2) reach a fleet of campuses
    two ways.  **Full-mirror baseline**: every campus runs a
    :class:`~repro.yum.RepoMirror` and syncs both releases in full — the
    update storm re-ships every changed NEVRA to every campus.
    **CAS path**: one :class:`~repro.cas.Stratum0` publishes both
    releases, one :class:`~repro.cas.Stratum1` replicates the chunk
    delta, and each campus's :class:`~repro.cas.SiteChunkCache` pulls
    chunks lazily as its nodes install (cold) and upgrade (storm) through
    :class:`~repro.cas.LazyDelivery`.

    Three contracts are enforced *inside* the bench:

    * the CAS run executes twice with the same seed and the traces must
      be byte-identical;
    * update-storm WAN bytes must drop **>= 3x** vs the mirror baseline
      (dedup means only the ~12.5% version-specific chunks move);
    * under :func:`~repro.perf.naive.naive_mode` (dedup lookup disabled,
      every chunk re-fetched) the advantage must collapse — or the chunk
      store's ``missing_of`` is no longer what delivers the win.

    ``n`` counts package deliveries (cold + storm) in one CAS run.
    """
    from ..cas import LazyDelivery, SiteChunkCache, Stratum0, Stratum1
    from ..rpm.package import Package
    from ..sim import SimKernel
    from ..yum import RepoMirror, Repository
    from ..yum.mirror import MirrorLink
    from .naive import naive_mode

    campuses = 3 if quick else 6
    nodes_per_campus = 4 if quick else 10
    n_pkgs = 12 if quick else 40
    pkg_bytes = 512 * 1024

    def release(version: str) -> list[Package]:
        return [
            Package(f"pkg{i}", version, size_bytes=pkg_bytes)
            for i in range(n_pkgs)
        ]

    def mirror_baseline() -> int:
        """WAN bytes for the v2 update storm, full-mirror style."""
        update_wan = 0
        for c in range(campuses):
            kernel = SimKernel(seed=100 + c)
            repo_v1 = Repository("xsede")
            repo_v1.add_all(release("1.0"))
            mirror = RepoMirror(
                repo_v1,
                MirrorLink(bandwidth_bytes_s=50 * 1024 * 1024, latency_s=0.04),
                kernel=kernel,
            )
            mirror.sync()
            repo_v2 = Repository("xsede")
            repo_v2.add_all(release("2.0"))
            mirror.upstream = repo_v2
            update_wan += mirror.sync().bytes_transferred
        return update_wan

    def cas_run() -> tuple[float, int, int, str]:
        """(wall_s, update-storm WAN bytes, deliveries, trace jsonl)."""
        t0 = time.perf_counter()
        kernel = SimKernel(seed=77)
        s0 = Stratum0("xsede", kernel=kernel)
        s1 = Stratum1(
            "us-east", s0,
            MirrorLink(bandwidth_bytes_s=50 * 1024 * 1024, latency_s=0.04),
            kernel=kernel,
        )
        sites = [
            SiteChunkCache(
                f"campus{c}", s1,
                MirrorLink(bandwidth_bytes_s=50 * 1024 * 1024, latency_s=0.04),
                kernel=kernel,
            )
            for c in range(campuses)
        ]
        deliveries = [LazyDelivery(site) for site in sites]
        n = 0

        def storm(packages: list[Package]) -> None:
            nonlocal n
            for delivery in deliveries:
                for node in range(nodes_per_campus):
                    for pkg in packages:
                        delivery.fetch_package(f"node{node}", pkg)
                        n += 1

        s0.publish(release("1.0"))
        s1.replicate()
        for site in sites:
            site.notice_release(s0.serial)
        storm(release("1.0"))                       # cold install
        wan_before = sum(site.wan_bytes for site in sites)
        s0.publish(release("2.0"))
        rep_stats = s1.replicate()
        for site in sites:
            site.notice_release(s0.serial)
        storm(release("2.0"))                       # the update storm
        update_wan = (
            sum(site.wan_bytes for site in sites) - wan_before
            + rep_stats.nbytes
        )
        wall = time.perf_counter() - t0
        return wall, update_wan, n, kernel.trace.to_jsonl()

    mirror_update_wan = mirror_baseline()
    wall_a, cas_update_wan, n, trace_a = cas_run()
    wall_b, _, _, trace_b = cas_run()
    if trace_a != trace_b:
        raise AssertionError(
            "bench_cas_delivery: same-seed traces differ between runs — "
            "the chunk publish/replicate/fetch path has become "
            "non-deterministic"
        )
    if cas_update_wan * 3 > mirror_update_wan:
        raise AssertionError(
            f"bench_cas_delivery: update-storm WAN bytes only dropped "
            f"{mirror_update_wan / cas_update_wan:.1f}x "
            f"({mirror_update_wan} -> {cas_update_wan}); the 3x floor is "
            f"the point of content-addressed delivery"
        )
    with naive_mode():
        _, naive_update_wan, _, _ = cas_run()
    if naive_update_wan < 2 * cas_update_wan:
        raise AssertionError(
            f"bench_cas_delivery: naive ablation moved only "
            f"{naive_update_wan} update bytes vs {cas_update_wan} deduped "
            f"— disabling missing_of no longer changes the traffic, so "
            f"the dedup lookup is not what is being measured"
        )
    wall = min(wall_a, wall_b)
    return BenchResult("bench_cas_delivery", n / wall, wall, n)


#: name -> bench function (full and quick variants share one function).
BENCHES: dict[str, Callable[[bool], BenchResult]] = {
    "depsolver_closure": bench_depsolver_closure,
    "depsolver_kansas": bench_depsolver_kansas,
    "event_kernel": bench_event_kernel,
    "trace_bus": bench_trace_bus,
    "trace_heavy_run_until": bench_trace_heavy_run_until,
    "scheduler_churn": bench_scheduler_churn,
    "kansas_install": bench_kansas_install,
    "bench_scale_10k": bench_scale_10k,
    "bench_shell_fanout": bench_shell_fanout,
    "bench_repod_storm": bench_repod_storm,
    "bench_cas_delivery": bench_cas_delivery,
}


def run_benches(
    names: list[str] | None = None,
    *,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> dict[str, BenchResult]:
    """Run the named benches (default: all); returns name -> result.

    Quick results are keyed ``<name>@quick`` so a quick smoke run is only
    ever compared against a quick baseline.
    """
    selected = names if names is not None else list(BENCHES)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown bench(es): {', '.join(sorted(unknown))}")
    out: dict[str, BenchResult] = {}
    for name in selected:
        if progress is not None:
            progress(name)
        result = BENCHES[name](quick)
        key = f"{name}@quick" if quick else name
        out[key] = BenchResult(key, result.ops_per_s, result.wall_s, result.n)
    return out
