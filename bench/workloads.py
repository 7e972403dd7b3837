"""The four workloads: complete paper flows through public entry points.

Each workload generates its inputs from the seed in ``__init__`` (the
program only ever sees the generated inputs), runs one *iteration* of its
flow in :meth:`run` — the timed region — and verifies and measures the
result in :meth:`finish`, outside the timed region.  An iteration is a
closed loop in one thread: the next call starts when the previous one
returned.  Why these four, and which layers each one loads, is recorded in
``why`` (it also lands in ``BENCHMARK.json``) and in ``bench/README.md``.

Every number a workload reports is *sim* (simulated seconds, bytes,
counts — exact for a fixed seed) unless the runner measured it with the
host clock.  ``sim_digest`` is a sha256 over every trace the iteration
exported plus its result counters: a change that is meant only to make
the simulator faster must leave it bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.cas import (
    LazyDelivery,
    SiteChunkCache,
    Stratum0,
    Stratum1,
    cas_confluence_problems,
)
from repro.core import (
    LIMULUS_VENDOR_PACKAGES,
    audit_cluster,
    build_existing_cluster,
    build_xcbc_cluster,
    build_xnit_repository,
    build_xsede_roll,
    integrate_host,
    packages_for_release,
    publish_release,
    setup_via_manual_repo_file,
    setup_via_repo_rpm,
    xsede_packages,
)
from repro.core.deployments import (
    TABLE3_SITES,
    AdoptionPath,
    SiteDeployment,
    build_synthetic_fleet,
    rebuild_site_hardware,
)
from repro.monitoring import monitor_fleet
from repro.repod import UpdateStormScenario
from repro.rocks import InstallState, Roll, RollGraphFragment
from repro.rocks.installer import RocksInstaller
from repro.rocks.rolls_catalog import optional_rolls
from repro.rpm.package import Package, Requirement
from repro.scheduler import ClusterResources, Job, JobState, TorqueScheduler
from repro.shell import (
    RollingUpdate,
    ShellCommand,
    ShellEngine,
    rolling_confluence_problems,
)
from repro.sim import SimKernel, validate_jsonl
from repro.yum.depsolver import clear_resolution_cache, resolution_cache_stats
from repro.yum.mirror import MirrorLink

__all__ = ["Outcome", "WORKLOADS"]

MIB = 1024 * 1024
#: Every simulated WAN hop uses the same campus uplink.
WAN = MirrorLink(bandwidth_bytes_s=50 * MIB, latency_s=0.04)


@dataclass
class Outcome:
    """One iteration's result: filled by ``run``, completed by ``finish``."""

    ops: int = 0
    failed: int = 0
    #: live objects ``finish`` inspects; dropped once it has
    world: dict[str, Any] = field(default_factory=dict)
    #: every trace the flow exported, in order
    jsonl: list[str] = field(default_factory=list)
    #: result counters hashed into the digest beside the traces
    result: dict[str, Any] = field(default_factory=dict)
    #: sim end-to-end metrics that apply to this workload
    sim: dict[str, float] = field(default_factory=dict)
    #: per-layer counts and ratios read from public counters
    counters: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    problems: list[str] = field(default_factory=list)
    sim_digest: str = ""

    def seal(self) -> None:
        """Compute the digest and let go of the simulated world."""
        digest = hashlib.sha256()
        for text in self.jsonl:
            digest.update(text.encode())
        digest.update(json.dumps(self.result, sort_keys=True).encode())
        self.sim_digest = digest.hexdigest()
        self.counters["sim.trace_bytes"] = float(
            sum(len(text) for text in self.jsonl)
        )
        self.world.clear()
        self.jsonl.clear()


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _latency_metrics(outcome: Outcome, latencies: list[float]) -> None:
    if not latencies:
        outcome.problems.append("no operation ran to a terminal: no latencies")
        return
    latencies.sort()
    outcome.sim["sim_op_p50_s"] = _percentile(latencies, 0.50)
    outcome.sim["sim_op_p99_s"] = _percentile(latencies, 0.99)
    outcome.result["op_samples"] = len(latencies)


def _kernel_counters(outcome: Outcome, kernels: list[SimKernel]) -> None:
    """Counts every kernel-backed workload reads off its trace buses."""
    kinds: dict[str, int] = {}
    for kernel in kernels:
        for kind, count in kernel.trace.by_kind.items():
            kinds[kind] = kinds.get(kind, 0) + count
    c = outcome.counters
    c["sim.events_fired"] = float(sum(k.events_processed for k in kernels))
    c["sim.trace_emits"] = float(sum(len(k.trace) for k in kernels))
    c["rocks.waves"] = float(kinds.get("install.wave", 0))
    c["monitoring.cycles"] = float(kinds.get("monitor.rollup", 0))
    c["monitoring.rack_updates"] = float(kinds.get("monitor.rack", 0))
    c["shell.retries"] = float(kinds.get("shell.retry", 0))
    c["scheduler.drains"] = float(kinds.get("node.drain", 0))
    c["scheduler.requeues"] = float(kinds.get("job.requeue", 0))
    c["faults.injected"] = float(kinds.get("fault.inject", 0))
    c["faults.retries"] = float(kinds.get("fault.retry", 0))


def _yum_counters(outcome: Outcome, hits: int, misses: int) -> None:
    outcome.counters["yum.resolves"] = float(hits + misses)
    outcome.counters["yum.resolution_cache_hit_ratio"] = _ratio(
        hits, hits + misses
    )


def _validate_traces(outcome: Outcome) -> None:
    for index, text in enumerate(outcome.jsonl):
        _count, problems = validate_jsonl(text)
        outcome.problems.extend(
            f"trace {index}: {problem}" for problem in problems[:5]
        )


def _sites(path: AdoptionPath) -> list[SiteDeployment]:
    return [site for site in TABLE3_SITES if site.adoption is path]


# -- xcbc_build ----------------------------------------------------------------


class XcbcBuild:
    """Every XCBC-path Table 3 site built from bare hardware."""

    name = "xcbc_build"
    why = (
        "The paper's headline flow, a from-scratch Rocks build: install-only "
        "transactions on a uniform stack, so rpm/distro/recovery work and "
        "the yum caches hit; sim/cas/repod idle."
    )
    op = "node installed"

    #: fixed, so every seed builds the same amount of software; the seed
    #: draws versions, sizes and which run-alike packages they depend on
    SITE_ROLL_PACKAGES = 8

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        rng = random.Random(seed)
        sites = _sites(AdoptionPath.XCBC)
        if smoke:
            sites = [s for s in sites if "Marshall" in s.site]
        # Each campus adds a small site-local roll on top of the XSEDE one;
        # its packages hang off run-alike packages every appliance carries.
        frontend_categories = ("XSEDE Tools", "Scheduler and Resource Manager")
        self.frontend_only = {
            p.name for p in xsede_packages() if p.category in frontend_categories
        }
        anchors = sorted(
            p.name for p in xsede_packages()
            if p.name not in self.frontend_only
        )
        self.builds: list[tuple[SiteDeployment, Roll]] = []
        for site in sites:
            slug = "".join(w[0] for w in site.site.split()[:3]).lower()
            packages = tuple(
                Package(
                    name=f"{slug}-local-{i}",
                    version=f"1.{rng.randint(0, 9)}",
                    category="site-local",
                    size_bytes=rng.randint(1, 8) * MIB,
                    requires=tuple(
                        Requirement(name) for name in rng.sample(anchors, 2)
                    ),
                    commands=(f"{slug}-tool-{i}",),
                )
                for i in range(self.SITE_ROLL_PACKAGES)
            )
            roll = Roll(
                name=f"{slug}-local",
                version="1.0",
                summary=f"{site.site} site-local roll",
                packages=packages,
                fragments=(
                    RollGraphFragment(
                        node_name=f"{slug}-local",
                        packages=tuple(p.name for p in packages),
                    ),
                ),
            )
            self.builds.append((site, roll))

    def run(self) -> Outcome:
        outcome = Outcome()
        built = outcome.world["built"] = []
        for site, roll in self.builds:
            # A real one-off build pays its first resolution itself.
            clear_resolution_cache()
            machine = rebuild_site_hardware(site)
            report = build_xcbc_cluster(
                machine, include_optional_rolls=True, extra_rolls=[roll]
            )
            # the stats are three dict reads, and the next site's clear
            # resets them; the audit is a check and waits for finish()
            built.append((site, roll, report, resolution_cache_stats()))
        return outcome

    def finish(self, outcome: Outcome, *, deep: bool) -> None:
        c = outcome.counters
        hits = misses = 0
        for site, roll, report, cache in outcome.world["built"]:
            cluster = report.cluster
            audits = audit_cluster(cluster)
            fleet = cluster.rocksdb.fleet
            installed = fleet.count_state(InstallState.INSTALLED)
            outcome.ops += site.nodes
            outcome.failed += site.nodes - installed
            uniform = cluster.installed_everywhere()
            compute_fps = sorted(
                {db.fingerprint() for _host, db in cluster.compute.values()}
            )
            if len(compute_fps) != 1:
                outcome.problems.append(
                    f"{site.site}: {len(compute_fps)} distinct compute "
                    f"package sets, expected one uniform stack"
                )
            reference = next(iter(cluster.compute.values()))[1].names()
            if uniform != reference:
                outcome.problems.append(
                    f"{site.site}: installed_everywhere() is not the "
                    f"compute package set"
                )
            missing = [p.name for p in roll.packages if p.name not in uniform]
            if missing:
                outcome.problems.append(
                    f"{site.site}: site roll packages not everywhere: {missing}"
                )
            # Run-alike audit: the frontend scores 100%; a compute node may
            # lack only what the rolls place on the frontend alone.
            below = sorted(
                host for host, audit in audits.items()
                if audit.overall < 1.0 and (
                    host == cluster.frontend.name
                    or audit.dimension("version currency").score < 1.0
                    or not set(audit.dimension("package coverage").missing)
                    <= self.frontend_only
                )
            )
            if below or len(audits) != site.nodes:
                outcome.problems.append(
                    f"{site.site}: audit failed on {len(below)} host(s), "
                    f"{len(audits)}/{site.nodes} audited"
                )
            outcome.result[site.site] = {
                "installed": installed,
                "uniform": len(uniform),
                "frontend": cluster.frontend_db.fingerprint(),
                "compute": compute_fps,
            }
            hits += cache["hits"]
            misses += cache["misses"]
            c["rocks.nodes_installed"] += installed
            c["fleet.rows"] += len(fleet)
            c["rpm.pkgs_changed"] += sum(
                len(cluster.db_for(host).names()) for host in cluster.hosts()
            )
        _yum_counters(outcome, hits, misses)
        outcome.seal()


# -- xnit_update ---------------------------------------------------------------


class XnitUpdate:
    """Every XNIT-path Table 3 site retrofitted, then taken 0.0.8 -> 0.0.9."""

    name = "xnit_update"
    why = (
        "The paper's second flow, retrofit then the 0.0.9 update: upgrades "
        "against populated databases and per-host package subsets, so the "
        "depsolver and its LRU miss; no wave sharing."
    )
    op = "host brought to 0.0.9"

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        rng = random.Random(seed)
        sites = _sites(AdoptionPath.XNIT)
        if smoke:
            sites = [s for s in sites if "Limulus" in s.other_info]
        names = sorted(p.name for p in packages_for_release("0.0.8"))
        #: per site, per host: None = full toolkit, else the paper's "any
        #: particular software capability" — a 20-60 package subset
        self.plans: list[tuple[SiteDeployment, list[list[str] | None]]] = []
        for site in sites:
            self.plans.append((
                site,
                [
                    None if i % 3 == 0
                    else sorted(rng.sample(names, rng.randint(20, 60)))
                    for i in range(site.nodes)
                ],
            ))

    def run(self) -> Outcome:
        outcome = Outcome()
        done = outcome.world["sites"] = []
        for site, plan in self.plans:
            clear_resolution_cache()
            machine = rebuild_site_hardware(site)
            vendor = LIMULUS_VENDOR_PACKAGES if "Limulus" in site.other_info else ()
            cluster = build_existing_cluster(machine, vendor_packages=vendor)
            repo = build_xnit_repository("0.0.8")
            clients = cluster.all_clients()
            setup_via_repo_rpm(clients[0], repo)
            for client in clients[1:]:
                setup_via_manual_repo_file(client, repo)
            reports = [
                integrate_host(client, full_toolkit=True) if subset is None
                else integrate_host(client, packages=subset)
                for client, subset in zip(clients, plan)
            ]
            publish_release(repo, "0.0.9")
            pending = [client.check_update() for client in clients]
            for client in clients:
                client.update()
                # converge on the full 0.0.9 run-alike set
                reports.append(integrate_host(client, full_toolkit=True))
            audits = audit_cluster(cluster)
            done.append(
                (site, cluster, reports, pending, audits, resolution_cache_stats())
            )
        return outcome

    def finish(self, outcome: Outcome, *, deep: bool) -> None:
        c = outcome.counters
        hits = misses = 0
        for site, cluster, reports, pending, audits, cache in outcome.world["sites"]:
            clients = cluster.all_clients()
            below = sorted(h for h, a in audits.items() if a.overall < 1.0)
            outcome.ops += site.nodes
            outcome.failed += len(below) + (site.nodes - len(audits))
            if below:
                outcome.problems.append(
                    f"{site.site}: audit below 100% on {below[:3]}"
                )
            if not all(r.preexisting_untouched for r in reports):
                outcome.problems.append(
                    f"{site.site}: integration was destructive"
                )
            # pending[0] is the frontend, always a full-toolkit host
            if not any(u.name.startswith("java") for u in pending[0]):
                outcome.problems.append(
                    f"{site.site}: the 0.0.9 Java update was not visible to "
                    f"check-update before it was applied"
                )
            for name in cluster.vendor_stack:
                if not all(client.db.has(name) for client in clients):
                    outcome.problems.append(
                        f"{site.site}: vendor package {name} was lost"
                    )
            outcome.result[site.site] = {
                "hosts": len(clients),
                "pending": sum(len(p) for p in pending),
                "dbs": hashlib.sha256(
                    "".join(client.db.fingerprint() for client in clients).encode()
                ).hexdigest(),
                # every host ends on the same package set; the road there
                # (what each transaction installed and upgraded) is the
                # seed-dependent part of the result
                "transactions": [
                    [result.summary() for result in client.history]
                    for client in clients
                ],
            }
            hits += cache["hits"]
            misses += cache["misses"]
            c["fleet.rows"] += len(clients)
            c["rpm.pkgs_changed"] += sum(
                result.change_count
                for client in clients
                for result in client.history
            )
        _yum_counters(outcome, hits, misses)
        outcome.seal()


# -- patch_day_10k -------------------------------------------------------------


class PatchDay:
    """Install, monitor, schedule on and patch a 10,000-node fleet, on one
    kernel."""

    name = "patch_day_10k"
    why = (
        "The composed day on one kernel at 10k nodes, publish to rolling "
        "update to trace export: the cas read side, scheduler drains, shell, "
        "fleet, monitoring and trace emit all carry load together."
    )
    op = "node patched"

    NODES = 10_000
    SMOKE_NODES = 500
    JOBS = 32
    PATCHED_PACKAGES = 12

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.nodes = self.SMOKE_NODES if smoke else self.NODES
        self.rolls = [build_xsede_roll(), *optional_rolls().values()]
        self.job_runtimes = [
            float(rng.randint(1200, 1800)) for _ in range(self.JOBS)
        ]
        #: which packages the security release rebuilds (by rank in the
        #: distribution's sorted NEVRA list)
        self.patch_draws = [rng.random() for _ in range(self.PATCHED_PACKAGES)]

    def run(self) -> Outcome:
        outcome = Outcome()
        clear_resolution_cache()
        machine = build_synthetic_fleet(self.nodes)
        kernel = SimKernel(seed=self.seed)

        # The release the fleet installs from, published and replicated.
        distribution = RocksInstaller(
            machine, rolls=self.rolls
        ).build_distribution()
        release = sorted(distribution.all_packages(), key=lambda p: p.nevra)
        s0 = Stratum0("xsede", kernel=kernel)
        s0.publish(release)
        s1 = Stratum1("us-east", s0, WAN, kernel=kernel)
        s1.replicate()
        site = SiteChunkCache("fleet-site", s1, WAN, kernel=kernel)
        site.notice_release(s0.serial)
        delivery = LazyDelivery(site)

        cluster = RocksInstaller(
            machine, rolls=self.rolls, delivery=delivery
        ).run(wave_size=256, kernel=kernel, materialize=False)
        fleet = cluster.rocksdb.fleet

        tree = monitor_fleet(cluster, kernel=kernel)
        tree.run_cycles(3)

        resources = ClusterResources.from_fleet(fleet, label=machine.name)
        scheduler = TorqueScheduler(resources, kernel=kernel)
        jobs = [
            scheduler.submit(
                Job(
                    name=f"mdrun-{k:02d}", user="student", cores=8,
                    runtime_s=runtime, walltime_limit_s=7200.0,
                )
            )
            for k, runtime in enumerate(self.job_runtimes)
        ]

        # The security release: a rebuild of twelve packages.
        candidates = list(release)
        patched = []
        for draw in self.patch_draws:
            old = candidates.pop(int(draw * len(candidates)))
            patched.append(
                dataclasses.replace(old, release=f"{old.release}.sec1")
            )
        s0.publish(candidates + patched)
        s1.replicate()
        site.notice_release(s0.serial)

        def apply_patch(node: str) -> tuple[int, str]:
            for pkg in patched:
                delivery.fetch_package(node, pkg)
            return 0, f"{len(patched)} packages updated"

        update = RollingUpdate(
            ShellEngine(fleet, kernel=kernel),
            scheduler=scheduler,
            tree=tree,
            wave_size=512,
            fanout=64,
            timeout_s=60.0,
            drain_deadline_s=120.0,
            health_cycles=3,
        )
        targets = fleet.nodeset(fleet.compute_indices())
        report = update.run(
            targets,
            ShellCommand(
                "yum -y update --security", duration_s=30.0, jitter=0.2,
                handler=apply_patch,
            ),
        )
        scheduler.run_to_completion()
        outcome.jsonl.append(kernel.trace.to_jsonl())
        outcome.world.update(
            kernel=kernel, s0=s0, s1=s1, site=site, delivery=delivery,
            cluster=cluster, resources=resources, jobs=jobs, report=report,
            targets=len(targets),
        )
        return outcome

    def finish(self, outcome: Outcome, *, deep: bool) -> None:
        w = outcome.world
        kernel, site, s1, report = w["kernel"], w["site"], w["s1"], w["report"]
        delivery, fleet = w["delivery"], w["cluster"].rocksdb.fleet
        events = kernel.trace.events
        ok = len(report.ok_nodes())
        outcome.ops = w["targets"]
        outcome.failed = w["targets"] - ok
        if report.state != "succeeded":
            outcome.problems.append(f"rolling update ended {report.state}")
        outcome.problems += rolling_confluence_problems(
            events, resources=w["resources"]
        )
        outcome.problems += cas_confluence_problems(
            events, strata=[w["s0"]], replicas=[s1], caches=[site]
        )
        unfinished = [j.name for j in w["jobs"] if j.state is not JobState.COMPLETED]
        if unfinished:
            outcome.problems.append(f"jobs did not complete: {unfinished[:4]}")
        if deep:
            _validate_traces(outcome)

        results = [
            r for wave in report.waves if wave.report is not None
            for r in wave.report.results.values()
        ]
        _latency_metrics(
            outcome,
            [r.ended_s - r.started_s for r in results if r.ended_s is not None],
        )
        wan = site.wan_bytes + sum(r.nbytes for r in s1.replicate_history)
        outcome.sim["sim_makespan_s"] = kernel.now_s
        outcome.sim["wan_bytes"] = float(wan)
        outcome.result.update(
            ok=ok, makespan_s=kernel.now_s, wan_bytes=wan,
            deliveries=delivery.stats.packages,
        )
        _kernel_counters(outcome, [kernel])
        c = outcome.counters
        c["rocks.nodes_installed"] = float(fleet.count_state(InstallState.INSTALLED))
        c["fleet.rows"] = float(len(fleet))
        c["rpm.pkgs_changed"] = float(
            len(w["cluster"].frontend_db.names())
            + len(w["cluster"].golden_image[1].names())
        )
        c["shell.nodes_run"] = float(
            sum(1 for r in results if r.status != "skipped")
        )
        c["shell.skipped"] = float(len(report.skipped_nodes()))
        _cas_counters(c, [w["s0"]], [s1], [site], [delivery])
        stats = resolution_cache_stats()
        _yum_counters(outcome, stats["hits"], stats["misses"])
        outcome.seal()


def _cas_counters(c, strata, replicas, caches, deliveries) -> None:
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    stored = sum(s0.store.chunk_count for s0 in strata)
    referenced = sum(
        len(manifest.chunks) for s0 in strata for manifest in s0.live_manifests()
    )
    c["cas.fetches"] = float(sum(d.stats.packages for d in deliveries))
    c["cas.chunk_hit_ratio"] = _ratio(hits, hits + misses)
    c["cas.dedup_ratio"] = 1.0 - _ratio(stored, referenced)
    c["cas.wan_bytes"] = float(
        sum(cache.wan_bytes for cache in caches)
        + sum(r.nbytes for s1 in replicas for r in s1.replicate_history)
    )
    c["cas.lan_bytes"] = float(sum(d.stats.bytes_fetched for d in deliveries))


# -- release_storm -------------------------------------------------------------


class ReleaseStorm:
    """A release reaching every Table 3 campus: the sync storm at the
    repository service, then the content itself through the chunk tiers."""

    name = "release_storm"
    why = (
        "The arrival-driven flow, update storms then a cold chunked "
        "delivery to six campuses: repod and the sim kernel/trace substrate "
        "dominate, cas is on its write side, rpm/distro idle."
    )
    op = "client request or package delivery reaching a terminal"

    STORMS = 2
    CLIENTS_PER_CAMPUS = 1024
    SMOKE_CLIENTS = 32
    RELEASE_PACKAGES = 24

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.storm_seeds = [
            seed * 1000 + j for j in range(1 if smoke else self.STORMS)
        ]
        self.clients = self.SMOKE_CLIENTS if smoke else self.CLIENTS_PER_CAMPUS
        picked = rng.sample(xsede_packages(), self.RELEASE_PACKAGES)
        sized = [
            dataclasses.replace(p, size_bytes=rng.randint(1, 4) * MIB)
            for p in picked
        ]
        self.release_v1 = sized
        self.release_v2 = [
            dataclasses.replace(p, release=f"{p.release}.1") for p in sized
        ]
        self.campuses = [
            (f"campus{i}", site.nodes if not smoke else min(site.nodes, 8))
            for i, site in enumerate(TABLE3_SITES)
        ]

    def _storm(self, storm_seed: int) -> UpdateStormScenario:
        # The scenario's defaults are tuned for 6 clients per campus;
        # origin capacity and the campus retry budgets grow with the fleet
        # so the governed run still meets its own goodput floor.
        scale = self.clients / 6.0
        return UpdateStormScenario(
            seed=storm_seed,
            clients_per_campus=self.clients,
            slots=max(2, int(2 * scale)),
            queue_limit=max(2, int(2 * scale)),
            budget_capacity=14.0 * scale,
            budget_refill_per_s=0.04 * scale,
        )

    def run(self) -> Outcome:
        outcome = Outcome()
        storms = outcome.world["storms"] = []
        for storm_seed in self.storm_seeds:
            scenario = self._storm(storm_seed)
            scenario.build()
            report = scenario.run()
            outcome.jsonl.append(scenario.kernel.trace.to_jsonl())
            storms.append((scenario, report))

        kernel = SimKernel(seed=self.seed)
        s0 = Stratum0("xsede", kernel=kernel)
        s1 = Stratum1("us-east", s0, WAN, kernel=kernel)
        caches = [
            SiteChunkCache(name, s1, WAN, kernel=kernel)
            for name, _nodes in self.campuses
        ]
        deliveries = [LazyDelivery(cache) for cache in caches]
        for release in (self.release_v1, self.release_v2):
            s0.publish(release)
            s1.replicate()
            for cache, delivery, (_name, nodes) in zip(
                caches, deliveries, self.campuses
            ):
                cache.notice_release(s0.serial)
                for node in range(nodes):
                    for pkg in release:
                        delivery.fetch_package(f"node{node}", pkg)
        outcome.jsonl.append(kernel.trace.to_jsonl())
        outcome.world.update(
            kernel=kernel, s0=s0, s1=s1, caches=caches, deliveries=deliveries
        )
        return outcome

    def finish(self, outcome: Outcome, *, deep: bool) -> None:
        w = outcome.world
        kernel, s0, s1 = w["kernel"], w["s0"], w["s1"]
        caches, deliveries = w["caches"], w["deliveries"]
        latencies: list[float] = []
        totals: dict[str, int] = {}
        makespan = kernel.now_s
        for scenario, report in w["storms"]:
            # StormReport.problems is repod_confluence_problems() over the
            # trace and the live origin/proxies/clients.
            outcome.problems += report.problems
            outcome.ops += report.offered
            outcome.failed += report.failed
            makespan += report.elapsed_s
            for client in scenario.clients:
                latencies.extend(
                    rec.finished_s - rec.started_s
                    for rec in client.records.values()
                )
            for key, value in report.state_dict().items():
                if isinstance(value, int) and not isinstance(value, bool):
                    totals[key] = totals.get(key, 0) + value
        outcome.problems += cas_confluence_problems(
            kernel.trace.events, strata=[s0], replicas=[s1], caches=caches
        )
        delivered = sum(d.stats.packages for d in deliveries)
        expected = sum(nodes for _n, nodes in self.campuses) * (
            len(self.release_v1) + len(self.release_v2)
        )
        outcome.ops += expected
        outcome.failed += expected - delivered
        if deep:
            _validate_traces(outcome)

        _latency_metrics(outcome, latencies)
        wan = sum(c.wan_bytes for c in caches) + sum(
            r.nbytes for r in s1.replicate_history
        )
        outcome.sim["sim_makespan_s"] = makespan
        outcome.sim["wan_bytes"] = float(wan)
        outcome.result.update(
            makespan_s=makespan, wan_bytes=wan, delivered=delivered, **totals
        )
        _kernel_counters(
            outcome, [kernel] + [scenario.kernel for scenario, _r in w["storms"]]
        )
        c = outcome.counters
        offered = totals.get("offered", 0)
        c["repod.origin_arrivals"] = float(totals.get("origin_arrivals", 0))
        c["repod.coalesced"] = float(totals.get("proxy_coalesced", 0))
        c["repod.shed"] = float(
            totals.get("origin_shed_full", 0) + totals.get("origin_shed_deadline", 0)
        )
        c["repod.stale_ratio"] = _ratio(totals.get("stale", 0), offered)
        c["repod.retries"] = float(totals.get("retries", 0))
        c["repod.budget_denied"] = float(totals.get("budget_denied", 0))
        c["repod.proxy_hit_ratio"] = _ratio(
            totals.get("proxy_hits", 0),
            totals.get("proxy_hits", 0) + totals.get("proxy_misses", 0),
        )
        _cas_counters(c, [s0], [s1], caches, deliveries)
        outcome.seal()


WORKLOADS = {
    cls.name: cls for cls in (XcbcBuild, XnitUpdate, PatchDay, ReleaseStorm)
}
