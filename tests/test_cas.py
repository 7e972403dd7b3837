"""Content-addressed lazy delivery: chunking, the store, the hierarchy.

The heavyweight guarantees are property-based: no publish / rollback
churn may ever leak a chunk refcount, and under any interleaving
of publishes, replications, interruptions and two-site fetches every
tier's counters, store and ``cas.fetch`` events tell the same story.
A ``cas.fetch`` record is a fetch that missed: a pure hit (every chunk
already in the tier's store) is counted by the tier, never traced, and
``tests/oracles/tier_fetch.py`` keeps the tier that traced every fetch.
"""

import json


import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cas import (
    CHUNK_SIZE,
    ChunkingPolicy,
    ChunkStore,
    LazyDelivery,
    SiteChunkCache,
    Stratum0,
    Stratum1,
    cas_confluence_problems,
    chunk_package,
    recover_stratum0,
)
from repro.errors import CasError, CasIntegrityError, TraceError, YumError
from repro.faults.retry import RetryPolicy
from repro.recovery import Journal
from repro.rpm import Package
from repro.sim import SimKernel
from repro.yum import MirrorLink, RepoMirror, Repository

from .oracles.replica_state import stratum1_is_current, total_bytes

MB = 1024 * 1024


def make_link():
    return MirrorLink(bandwidth_bytes_s=50 * MB, latency_s=0.01)


def release(version, n=6, size=2 * MB):
    return [Package(f"pkg{i}", version, size_bytes=size) for i in range(n)]


# --- chunking ---------------------------------------------------------------------


class TestChunking:
    def test_deterministic_and_sized(self):
        pkg = Package("gcc", "4.8", size_bytes=3 * MB + 17)
        a = chunk_package(pkg)
        b = chunk_package(pkg)
        assert a == b
        assert sum(c.size for c in a.chunks) == pkg.size_bytes
        assert len(a.chunks) == -(-pkg.size_bytes // CHUNK_SIZE)

    def test_adjacent_versions_share_most_chunks(self):
        v1 = chunk_package(Package("openmpi", "1.6", size_bytes=8 * MB))
        v2 = chunk_package(Package("openmpi", "1.8", size_bytes=8 * MB))
        shared = {c.digest for c in v1.chunks} & {c.digest for c in v2.chunks}
        # delta_fraction defaults to 12.5%; sharing must clearly dominate
        assert len(shared) > len(v2.chunks) // 2
        assert {c.digest for c in v1.chunks} != {c.digest for c in v2.chunks} or v1 == v2

    def test_different_names_never_collide(self):
        a = chunk_package(Package("alpha", "1.0", size_bytes=MB))
        b = chunk_package(Package("beta", "1.0", size_bytes=MB))
        assert not {c.digest for c in a.chunks} & {c.digest for c in b.chunks}

    def test_policy_validation(self):
        with pytest.raises(CasError):
            ChunkingPolicy(chunk_size=0)
        with pytest.raises(CasError):
            ChunkingPolicy(delta_fraction=1.5)


# --- the chunk store --------------------------------------------------------------


class TestChunkStore:
    def test_put_dedups_and_verifies(self):
        store = ChunkStore()
        manifest = chunk_package(Package("a", "1.0", size_bytes=MB))
        chunk = manifest.chunks[0]
        assert store.put(chunk) is True
        assert store.put(chunk) is False  # already held
        from repro.cas.chunks import Chunk

        with pytest.raises(CasIntegrityError):
            store.put(Chunk(digest=chunk.digest, size=chunk.size + 1))

    def test_refcounts_gc(self):
        store = ChunkStore()
        manifest = chunk_package(Package("a", "1.0", size_bytes=MB))
        store.retain(manifest)
        store.retain(manifest)
        assert not store.refcount_problems([manifest, manifest])
        store.release(manifest)
        store.release(manifest)
        evicted, freed = store.gc()
        assert evicted == len(manifest.chunks)
        assert freed == MB
        assert store.chunk_count == 0
        with pytest.raises(CasError):
            store.release(manifest)  # would go negative

    def test_missing_of_preserves_order(self):
        store = ChunkStore()
        manifest = chunk_package(Package("a", "1.0", size_bytes=3 * MB))
        store.put(manifest.chunks[1])
        missing = store.missing_of(manifest.chunks)
        assert [c.digest for c in missing] == [
            c.digest for c in manifest.chunks if c != manifest.chunks[1]
        ]


# --- stratum 0: transactional publish / rollback ----------------------------------


class TestStratum0:
    def test_publish_dedups_delta(self):
        s0 = Stratum0("origin", kernel=SimKernel(seed=1))
        first = s0.publish(release("1.0"))
        second = s0.publish(release("2.0"))
        assert first.serial == 1 and second.serial == 2
        assert first.new_chunks == first.chunks
        assert second.new_chunks < second.chunks  # the dedup delta
        assert second.nbytes < first.nbytes / 3

    def test_rollback_moves_forward(self):
        kernel = SimKernel(seed=2)
        s0 = Stratum0("origin", kernel=kernel)
        s0.publish(release("1.0"))
        v1_catalog = dict(s0.catalog)
        s0.publish(release("2.0"))
        stats = s0.rollback()
        assert stats.serial == 3  # Guix-style: a NEW generation
        assert s0.catalog == v1_catalog
        assert not cas_confluence_problems(kernel.trace.events, strata=[s0])

    def test_rollback_empty_refuses(self):
        with pytest.raises(CasError):
            Stratum0("origin", kernel=SimKernel(seed=3)).rollback()

    def test_one_nevra_two_sizes_is_refused_before_the_journal(self):
        journal = Journal()
        s0 = Stratum0("origin", kernel=SimKernel(seed=5), journal=journal)
        twin = Package("pkg0", "1.0", size_bytes=MB)
        assert s0.publish([twin, twin]).packages == 1  # equal duplicates collapse
        bigger = Package("pkg0", "1.0", size_bytes=MB + 1)
        with pytest.raises(CasError, match=rf"{twin.nevra}.* {MB} and {MB + 1} bytes"):
            s0.publish([twin, bigger])
        assert s0.serial == 1 and s0.catalog == {twin.nevra: chunk_package(twin)}
        assert len(journal.transactions("cas.publish")) == 1  # nothing half-published
        assert not s0.store.refcount_problems(s0.live_manifests())

    def test_crash_mid_publish_recovers(self):
        journal = Journal()
        s0 = Stratum0("origin", kernel=SimKernel(seed=5), journal=journal)
        s0.publish(release("1.0"))
        # Simulate a crash between applied and commit: run the flip but
        # leave the journal transaction open.
        committed = s0.serial
        catalog = {p.nevra: s0.policy.manifest(p) for p in release("2.0")}
        txn = journal.begin("cas.publish", catalog=s0.name, note="publish")
        journal.intent(txn, "flip", serial=s0.serial + 1, nevras=sorted(catalog))
        for nevra in sorted(catalog):
            s0.store.retain(catalog[nevra])
        s0._catalogs[s0.serial + 1] = catalog
        s0.serial += 1
        # ... crash: no applied/commit.  Recovery undoes the half-flip.
        resolved = recover_stratum0(journal, s0)
        assert len(resolved) == 1
        assert s0.serial == committed
        assert not journal.open_txns("cas.publish")
        assert not s0.store.refcount_problems(s0.live_manifests())


# --- stratum 1: chunk-delta replication -------------------------------------------


class TestStratum1:
    def test_replicates_only_the_delta(self):
        kernel = SimKernel(seed=6)
        s0 = Stratum0("origin", kernel=kernel)
        s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
        s0.publish(release("1.0"))
        cold = s1.replicate()
        s0.publish(release("2.0"))
        update = s1.replicate()
        assert not update.skipped
        assert update.nbytes < cold.nbytes / 3
        again = s1.replicate()
        assert again.skipped and again.nbytes == 0
        assert not s1.problems()

    def test_interruption_resumes_at_chunk_granularity(self):
        kernel = SimKernel(seed=7)
        s0 = Stratum0("origin", kernel=kernel)
        s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
        s0.publish(release("1.0"))
        s1.inject_interruptions(1)
        with pytest.raises(CasError):
            s1.replicate()
        landed = s1.store.chunk_count
        assert landed > 0  # half the missing chunks stayed
        resumed = s1.replicate()
        assert resumed.chunks + landed == s0.store.chunk_count
        assert stratum1_is_current(s1)
        assert not s1.problems()
        # the half that landed before the cut crossed the WAN too
        assert [r.interrupted for r in s1.replicate_history] == [True, False]
        assert sum(r.nbytes for r in s1.replicate_history) == total_bytes(s1.store)
        assert s1.wan_bytes == total_bytes(s1.store)

    def test_retry_policy_drives_resume(self):
        kernel = SimKernel(seed=8)
        s0 = Stratum0("origin", kernel=kernel)
        s1 = Stratum1(
            "replica", s0, make_link(), kernel=kernel,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.5),
        )
        s0.publish(release("1.0"))
        s1.inject_interruptions(2)
        stats = s1.replicate()  # retries internally
        assert stratum1_is_current(s1)
        assert stats.serial == s0.serial


# --- the site tier + lazy delivery ------------------------------------------------


class TestSiteCache:
    def chain(self, seed=9):
        kernel = SimKernel(seed=seed)
        s0 = Stratum0("origin", kernel=kernel)
        s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
        site = SiteChunkCache("campus", s1, make_link(), kernel=kernel)
        return kernel, s0, s1, site

    def test_wave_of_nodes_shares_one_upstream_pull(self):
        kernel, s0, s1, site = self.chain()
        pkgs = release("1.0")
        s0.publish(pkgs)
        s1.replicate()
        delivery = LazyDelivery(site)
        for node in range(8):
            for pkg in pkgs:
                delivery.fetch_package(f"node{node}", pkg)
        total = sum(p.size_bytes for p in pkgs)
        assert site.wan_bytes == total          # one copy crossed the uplink
        assert delivery.stats.bytes_fetched == 8 * total  # LAN fan-out
        assert not cas_confluence_problems(
            kernel.trace.events, strata=[s0], replicas=[s1], caches=[site]
        )

    @staticmethod
    def counting_steps(monkeypatch) -> list:
        steps = []
        real = LazyDelivery._step

        def counting(self, held, manifest):
            steps.append((held, manifest.nevra))
            return real(self, held, manifest)

        monkeypatch.setattr(LazyDelivery, "_step", counting)
        return steps

    def test_delivery_chunks_each_published_package_once(self, monkeypatch):
        """Scaling guard: the read side looks manifests up in the catalog;
        only the origin's publish ever chunks (a count, so it cannot flake).
        The 200 nodes fetch the same packages in the same order, so they
        share every holdings object and 2,400 fetches are 12 steps."""
        import repro.cas.chunks as chunks_module

        chunked = []
        real = chunks_module.chunk_package

        def counting(pkg, **kwargs):
            chunked.append(pkg.nevra)
            return real(pkg, **kwargs)

        monkeypatch.setattr(chunks_module, "chunk_package", counting)
        steps = self.counting_steps(monkeypatch)
        _, s0, s1, site = self.chain()
        pkgs = release("1.0", n=12, size=MB)
        s0.publish(pkgs)
        s1.replicate()
        delivery = LazyDelivery(site)
        for node in range(200):
            for pkg in pkgs:
                delivery.fetch_package(f"node{node}", pkg)
        assert delivery.stats.packages == 200 * len(pkgs)
        assert sorted(chunked) == sorted(p.nevra for p in pkgs)
        assert len(steps) == len(pkgs)
        assert len({id(held) for held in delivery._held.values()}) == 1

    def test_distinct_orders_compute_one_step_per_fetch_never_more(
        self, monkeypatch
    ):
        """Node r fetches the 12 packages rotated by r: no (holdings, package)
        pair repeats, so each fetch is one step; the interned holdings still
        meet in one object once every node holds all twelve."""
        steps = self.counting_steps(monkeypatch)
        _, s0, s1, site = self.chain()
        pkgs = release("1.0", n=12, size=MB)
        s0.publish(pkgs)
        s1.replicate()
        delivery = LazyDelivery(site)
        for node in range(len(pkgs)):
            for pkg in pkgs[node:] + pkgs[:node]:
                delivery.fetch_package(f"node{node}", pkg)
        assert len(steps) == len(pkgs) ** 2 == delivery.stats.packages
        assert len(set(steps)) == len(steps)
        assert len({id(held) for held in delivery._held.values()}) == 1

    def test_update_moves_only_delta_chunks(self):
        kernel, s0, s1, site = self.chain()
        s0.publish(release("1.0"))
        s1.replicate()
        delivery = LazyDelivery(site)
        for pkg in release("1.0"):
            delivery.fetch_package("node0", pkg)
        cold_wan = site.wan_bytes
        s0.publish(release("2.0"))
        s1.replicate()
        site.notice_release(s0.serial)
        for pkg in release("2.0"):
            delivery.fetch_package("node0", pkg)
        assert site.wan_bytes - cold_wan < cold_wan / 3
        assert delivery.stats.bytes_reused > 0

    def test_release_serial_never_regresses(self):
        _, s0, _, site = self.chain()
        s0.publish(release("1.0"))
        site.notice_release(3)
        with pytest.raises(CasError):
            site.notice_release(2)


# --- installer integration --------------------------------------------------------


class TestLazyInstall:
    def test_transaction_fetch_failure_rolls_back(self):
        from repro.distro import CENTOS_6_5, Host
        from repro.errors import TransactionError
        from repro.hardware import build_littlefe_modified
        from repro.rpm import RpmDatabase, Transaction

        host = Host(build_littlefe_modified().machine.head, CENTOS_6_5)
        db = RpmDatabase(host)
        # The origin published the previous version only and the site cache
        # is warm with it: installing the unpublished 1.0, the shared chunks
        # hit and the origin refuses the delta chunks.
        old = Package("solo", "0.9", size_bytes=MB)
        s0 = Stratum0("origin", kernel=SimKernel(seed=14))
        s0.publish([old])
        site = SiteChunkCache("island", s0, make_link())
        site.fetch_package(old)
        warm = (site.hits, site.misses, site.hit_bytes, site.wan_bytes)
        delivery = LazyDelivery(site)
        txn = Transaction(db, delivery=delivery)
        new = Package("solo", "1.0", size_bytes=MB)
        txn.install(new)
        with pytest.raises(TransactionError):
            txn.commit()
        assert not db.has("solo")  # rolled back, nothing half-landed
        # ...and nothing counted as delivered or served
        assert delivery.stats.packages == 0
        assert delivery.stats.chunks_requested == 0
        assert (site.hits, site.misses, site.hit_bytes, site.wan_bytes) == warm
        # ...and the node's holdings did not advance: once the origin has the
        # build, the node's next fetch asks the site for every chunk of it
        s0.publish([new])
        fetch = delivery.fetch_package(host.name, new)
        assert fetch.chunks == len(s0.manifest_of(new).chunks) > 0
        assert delivery.stats.bytes_reused == 0

    def test_installer_delivery_matches_plain_install(self):
        from repro.hardware import build_littlefe_modified
        from repro.rocks.installer import RocksInstaller

        machine = build_littlefe_modified().machine
        plain = RocksInstaller(machine).run()

        kernel = SimKernel(seed=15)
        s0 = Stratum0("xsede", kernel=kernel)
        s0.publish(list(RocksInstaller(machine).build_distribution().all_packages()))
        s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
        s1.replicate()
        site = SiteChunkCache("campus", s1, make_link(), kernel=kernel)
        delivery = LazyDelivery(site)
        lazy = RocksInstaller(machine, delivery=delivery).run()

        assert lazy.installed_everywhere() == plain.installed_everywhere()
        assert delivery.stats.packages > 0
        # wave sharing: the campus uplink moved far fewer bytes than the LAN
        assert site.wan_bytes < delivery.stats.bytes_fetched
        assert not cas_confluence_problems(
            kernel.trace.events, strata=[s0], replicas=[s1], caches=[site]
        )


# --- the delivery contract: update storm vs full mirroring ------------------------


def test_update_storm_wan_is_3x_below_full_mirroring_and_deterministic():
    """A release (v1, cold) and a security update (v2, the storm) reach
    6 campuses x 10 nodes x 40 packages of 512 KiB two ways.  Whole-NEVRA
    ``RepoMirror`` syncs are the "ship every chunk" world; through the
    chunk hierarchy only the version-specific chunks cross the WAN, so
    the storm must move >= 3x fewer bytes — and the same seed must give
    a byte-identical trace."""
    campuses, nodes_per_campus, n_pkgs = 6, 10, 40

    def mirrored_storm_wan():
        total = 0
        for c in range(campuses):
            v1 = Repository("xsede")
            v1.add_all(release("1.0", n=n_pkgs, size=MB // 2))
            mirror = RepoMirror(v1, make_link(), kernel=SimKernel(seed=100 + c))
            mirror.sync()
            v2 = Repository("xsede")
            v2.add_all(release("2.0", n=n_pkgs, size=MB // 2))
            mirror.upstream = v2
            total += mirror.sync().bytes_transferred
        return total

    def chunked_run():
        kernel = SimKernel(seed=77)
        s0 = Stratum0("xsede", kernel=kernel)
        s1 = Stratum1("us-east", s0, make_link(), kernel=kernel)
        sites = [
            SiteChunkCache(f"campus{c}", s1, make_link(), kernel=kernel)
            for c in range(campuses)
        ]
        deliveries = [LazyDelivery(site) for site in sites]

        def roll_out(version):
            packages = release(version, n=n_pkgs, size=MB // 2)
            s0.publish(packages)
            replicated = s1.replicate()
            for site in sites:
                site.notice_release(s0.serial)
            for delivery in deliveries:
                for node in range(nodes_per_campus):
                    for pkg in packages:
                        delivery.fetch_package(f"node{node}", pkg)
            return replicated.nbytes

        roll_out("1.0")
        cold_wan = sum(site.wan_bytes for site in sites)
        replicated = roll_out("2.0")
        storm_wan = replicated + sum(site.wan_bytes for site in sites) - cold_wan
        assert all(
            d.stats.packages == 2 * nodes_per_campus * n_pkgs
            for d in deliveries
        )
        return storm_wan, kernel.trace.to_jsonl()

    storm_wan, trace = chunked_run()
    assert 0 < storm_wan * 3 <= mirrored_storm_wan()
    assert chunked_run() == (storm_wan, trace)


# --- whole-NEVRA mirror accounting (the baseline the hierarchy is compared to) ----


class TestChunkedMirror:
    def test_zero_landed_interruption_charges_probe_only(self):
        # Regression: an interrupted sync that landed nothing used to be
        # charged requests=max(1, cutoff) round trips anyway.
        kernel = SimKernel(seed=16)
        upstream = Repository("one")
        upstream.add(Package("solo", "1.0", size_bytes=4 * MB))
        link = make_link()
        mirror = RepoMirror(upstream, link, kernel=kernel)
        mirror.inject_interruptions(1)
        t0 = kernel.now_s
        with pytest.raises(YumError):
            mirror.sync()
        assert kernel.now_s - t0 == pytest.approx(
            link.transfer_time_s(16 * 1024)
        )

    def test_requests_follow_fetched_plus_refetched(self):
        kernel = SimKernel(seed=17)
        upstream = Repository("xsede")
        upstream.add_all(release("1.0", n=4))
        link = make_link()
        mirror = RepoMirror(upstream, link, kernel=kernel)
        mirror.corrupt_next({"pkg0-1.0-1.x86_64"})
        t0 = kernel.now_s
        stats = mirror.sync()
        expected = link.transfer_time_s(16 * 1024) + link.transfer_time_s(
            stats.bytes_transferred, requests=4 + 1
        )
        assert kernel.now_s - t0 == pytest.approx(expected)


# --- properties -------------------------------------------------------------------

stratum_ops = st.lists(
    st.sampled_from(["publish", "rollback", "replicate", "interrupt"]),
    min_size=1,
    max_size=12,
)


@given(stratum_ops)
@settings(max_examples=25, deadline=None)
def test_property_refcounts_never_leak(ops):
    """Any interleaving of publish / rollback / replicate leaves
    the origin's and replica's refcounts exactly matching their live
    catalogs — and the confluence audit agrees."""
    kernel = SimKernel(seed=7)
    s0 = Stratum0("origin", kernel=kernel)
    s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
    version = 0
    for op in ops:
        if op == "publish":
            version += 1
            s0.publish(release(f"{version}.0", n=3, size=MB))
        elif op == "rollback":
            if s0.serial > 0:
                s0.rollback()
        elif op == "interrupt":
            s1.inject_interruptions(1)
        else:
            try:
                s1.replicate()
            except CasError:
                pass
    s1.inject_interruptions(0)
    s1.replicate()
    assert not s0.store.refcount_problems(s0.live_manifests())
    assert not s1.problems()
    assert not cas_confluence_problems(
        kernel.trace.events, strata=[s0], replicas=[s1]
    )


LOOKUP_POLICY = ChunkingPolicy(chunk_size=64 * 1024, delta_fraction=0.5)
lookup_packages = st.builds(
    Package,
    st.sampled_from(["alpha", "bravo", "charlie"]),
    st.sampled_from(["1.0", "2.0"]),
    size_bytes=st.one_of(
        st.sampled_from([0, 1, 64 * 1024, 3 * 64 * 1024]), st.integers(0, 300_000)
    ),
)
lookup_ops = st.lists(
    st.one_of(
        st.lists(lookup_packages, max_size=4, unique_by=lambda p: p.nevra),
        st.sampled_from(["rollback", "replicate", "interrupt"]),
    ),
    min_size=1,
    max_size=10,
)
_A1, _B1, _A2 = (
    Package("alpha", "1.0", size_bytes=100_000),
    Package("bravo", "1.0", size_bytes=0),
    Package("alpha", "2.0", size_bytes=64 * 1024 + 1),
)


@given(lookup_ops)
# published+replicated, dropped (bravo), lagging replica (alpha-2.0), then a
# republish of alpha-1.0's NEVRA at another size the replica has not seen
@example([[_A1, _B1], "replicate", [_A1, _A2], "interrupt", "replicate",
          [Package("alpha", "1.0", size_bytes=1)], "rollback"])
@settings(max_examples=40, deadline=None)
def test_property_manifest_lookup_equals_chunking(ops):
    """Catalog lookup vs the chunker: after every step of a random
    publish / rollback / replicate / interrupt run, every tier's
    ``manifest_of`` is exactly ``chunk_package`` under the *origin's*
    policy — for packages current, dropped, not yet replicated, never
    published, and reusing a published NEVRA at another size.  A stale or
    lagging catalog may miss; it may never answer with another build."""
    kernel = SimKernel(seed=13)
    s0 = Stratum0("origin", kernel=kernel, policy=LOOKUP_POLICY)
    s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
    site = SiteChunkCache("campus", s1, make_link(), kernel=kernel)
    probes = [Package("ghost", "1.0", size_bytes=70_000)]  # never published
    for op in ops:
        if op == "rollback":
            if s0.serial > 0:
                s0.rollback()
        elif op == "interrupt":
            s1.inject_interruptions(1)
        elif op == "replicate":
            try:
                s1.replicate()
            except CasError:
                pass
        else:
            s0.publish(op)
            for pkg in op:
                resized = Package(pkg.name, pkg.version, size_bytes=pkg.size_bytes + 1)
                probes += [pkg, resized]
        for pkg in probes:
            expected = chunk_package(
                pkg,
                chunk_size=LOOKUP_POLICY.chunk_size,
                delta_fraction=LOOKUP_POLICY.delta_fraction,
            )
            for tier in (s0, s1, site):
                assert tier.manifest_of(pkg) == expected, (tier.name, pkg.nevra)


tier_ops = st.lists(
    st.sampled_from(["publish", "replicate", "interrupt", "fetch_a", "fetch_b"]),
    min_size=1,
    max_size=12,
)


@given(tier_ops)
@settings(max_examples=25, deadline=None)
def test_property_tier_accounting_is_conserved(ops):
    """Any interleaving of publish / replicate / interrupt / two-site
    fetches: on every tier the bytes pulled over its link are the bytes
    its store gained, hits + misses is the chunks it was asked for, and
    the ``cas.fetch`` records are exactly the fetches that missed — their
    misses are the tier's misses, their bytes its fetch WAN bytes, and
    none of them is a pure hit."""
    kernel = SimKernel(seed=11)
    s0 = Stratum0("origin", kernel=kernel)
    s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
    sites = {
        "fetch_a": SiteChunkCache("campus-a", s1, make_link(), kernel=kernel),
        "fetch_b": SiteChunkCache("campus-b", s1, make_link(), kernel=kernel),
    }
    asked = {site.name: 0 for site in sites.values()}
    version = 0
    for op in ops:
        if op == "publish":
            version += 1
            s0.publish(release(f"{version}.0", n=3, size=MB))
        elif op == "interrupt":
            s1.inject_interruptions(1)
        elif op == "replicate":
            try:
                s1.replicate()
            except CasError:
                pass
        elif version:
            site = sites[op]
            for pkg in release(f"{version}.0", n=3, size=MB):
                asked[site.name] += site.fetch_package(pkg).chunks
    fetched = {}
    for event in kernel.trace.events:
        if event.kind == "cas.fetch":
            data = event.data
            assert data["hit_chunks"] < data["chunks"], event
            missed, nbytes = fetched.get(data["tier"], (0, 0))
            fetched[data["tier"]] = (
                missed + data["chunks"] - data["hit_chunks"], nbytes + data["nbytes"]
            )
    replicated = sum(r.nbytes for r in s1.replicate_history)
    for tier in (s1, *sites.values()):
        missed, nbytes = fetched.get(tier.name, (0, 0))
        assert tier.wan_bytes == total_bytes(tier.store)
        assert tier.misses == missed
        assert nbytes == tier.wan_bytes - (replicated if tier is s1 else 0)
    for site in sites.values():
        assert site.hits + site.misses == asked[site.name]
    assert not cas_confluence_problems(
        kernel.trace.events, strata=[s0], caches=sites.values()
    )


STEP_POLICY = ChunkingPolicy(chunk_size=64 * 1024, delta_fraction=0.5)
STEP_VERSIONS = ("1.0", "1.1", "2.0")


def step_package(index, version):
    # versions differ in size too, so their tail chunks never match
    size = 3 * 64 * 1024 + 1000 * index + 700 * STEP_VERSIONS.index(version)
    return Package(f"pkg{index}", version, size_bytes=size)


fetch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.sampled_from(STEP_VERSIONS)),
        st.sampled_from(["replicate", "interrupt", "notice"]),
        st.tuples(
            st.sampled_from(["campus-a", "campus-b"]),
            st.sampled_from(["list", "n0", "n1"]),
            st.integers(0, 2),
            st.sampled_from(STEP_VERSIONS),
        ),
    ),
    min_size=1,
    max_size=30,
)


@given(fetch_ops)
# a site miss that is a replica pure hit, a site pure hit by chunk list,
# then one by ChunkRun through LazyDelivery
@example([("publish", "1.0"), "replicate", "notice",
          ("campus-a", "list", 0, "1.0"), ("campus-b", "list", 0, "1.0"),
          ("campus-a", "list", 0, "1.0"), ("campus-a", "n0", 0, "1.0")])
@settings(max_examples=60, deadline=None)
def test_property_only_pure_hits_left_the_trace(ops):
    """The tiers vs the traced-every-fetch oracle: over random publish /
    replicate / interrupt / notice / two-site fetches (by chunk list and by
    ``LazyDelivery``'s ChunkRun, including fetches the origin refuses), both
    give the same return values (or the same error), tier counters and
    store contents, and the live trace is the oracle's with every pure-hit
    ``cas.fetch`` removed, compared without ``seq``."""
    from .oracles.tier_fetch import TracedSite, TracedStratum1

    def world(replica_class, site_class):
        kernel = SimKernel(seed=23)
        s0 = Stratum0("origin", kernel=kernel, policy=STEP_POLICY)
        s1 = replica_class("replica", s0, make_link(), kernel=kernel)
        sites = {
            name: site_class(name, s1, make_link(), kernel=kernel)
            for name in ("campus-a", "campus-b")
        }
        deliveries = {name: LazyDelivery(site) for name, site in sites.items()}
        return kernel, s0, s1, sites, deliveries

    worlds = [world(Stratum1, SiteChunkCache), world(TracedStratum1, TracedSite)]

    def tiers(s1, sites):
        return (s1, *sites.values())

    for op in ops:
        seen = []
        for kernel, s0, s1, sites, deliveries in worlds:
            try:
                if op == "replicate":
                    outcome = s1.replicate()
                elif op == "interrupt":
                    outcome = s1.inject_interruptions(1)
                elif op == "notice":
                    outcome = [site.notice_release(s0.serial) for site in sites.values()]
                elif op[0] == "publish":
                    outcome = s0.publish([step_package(i, op[1]) for i in range(3)])
                else:
                    name, how, index, version = op
                    pkg = step_package(index, version)
                    if how == "list":
                        outcome = sites[name].fetch_package(pkg)
                    else:
                        outcome = deliveries[name].fetch_package(how, pkg)
            except CasError as exc:
                outcome = ("refused", str(exc))
            counters = [
                (t.hits, t.misses, t.hit_bytes, t.wan_bytes) for t in tiers(s1, sites)
            ]
            seen.append((outcome, counters))
        assert seen[0] == seen[1], op

    def records(kernel, *, drop_pure_hits):
        return [
            (e.t_s, e.kind, e.subsystem, dict(e.data))
            for e in kernel.trace.events
            if not (
                drop_pure_hits
                and e.kind == "cas.fetch"
                and e.data["hit_chunks"] == e.data["chunks"]
            )
        ]

    live, oracle = worlds
    assert records(live[0], drop_pure_hits=False) == records(
        oracle[0], drop_pure_hits=True
    )
    for tier, twin in zip(tiers(live[2], live[3]), tiers(oracle[2], oracle[3])):
        assert tier.store._chunks == twin.store._chunks, tier.name
        assert tier.store._refs == twin.store._refs, tier.name


step_ops = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.sampled_from(STEP_VERSIONS)),
        st.sampled_from(["replicate", "notice"]),
        st.tuples(
            st.sampled_from(["n0", "n1", "n2"]),
            st.integers(0, 2),
            st.sampled_from(STEP_VERSIONS),
        ),
    ),
    min_size=1,
    max_size=30,
)


@given(step_ops)
# warm v1 on n0, then v2 before it is published (the origin refuses its
# delta chunks, as in test_transaction_fetch_failure_rolls_back), then
# published: n0 must re-request every chunk it did not get
@example([("publish", "1.0"), "replicate", "notice", ("n0", 0, "1.0"),
          ("n1", 0, "1.0"), ("n0", 0, "2.0"), ("publish", "2.0"),
          ("n0", 0, "2.0"), "replicate", ("n1", 0, "2.0"), ("n0", 0, "2.0")])
@settings(max_examples=60, deadline=None)
def test_property_delivery_steps_match_the_scan(ops):
    """Shared holdings + memoised steps vs the per-node scan oracle: over
    random node/package fetches drawn from three versions that share
    chunks, interleaved with publish / replicate / notice_release and
    fetches the origin refuses, both give the same return values (or the
    same error), ``DeliveryStats``, tier counters and trace JSONL, and the
    steps computed never outnumber the fetches."""
    from .oracles.delivery_scan import ScanDelivery

    def world(delivery_class):
        kernel = SimKernel(seed=21)
        s0 = Stratum0("origin", kernel=kernel, policy=STEP_POLICY)
        s1 = Stratum1("replica", s0, make_link(), kernel=kernel)
        site = SiteChunkCache("campus", s1, make_link(), kernel=kernel)
        return kernel, s0, s1, site, delivery_class(site)

    worlds = [world(LazyDelivery), world(ScanDelivery)]
    fetches = 0

    def counters(tier):
        return (tier.hits, tier.misses, tier.hit_bytes, tier.wan_bytes)

    for op in ops:
        seen = []
        for kernel, s0, s1, site, delivery in worlds:
            if op == "replicate":
                outcome = s1.replicate()
            elif op == "notice":
                outcome = site.notice_release(s0.serial)
            elif op[0] == "publish":
                outcome = s0.publish(
                    [step_package(i, op[1]) for i in range(3)]
                )
            else:
                node, index, version = op
                try:
                    outcome = delivery.fetch_package(
                        node, step_package(index, version)
                    )
                except CasError as exc:
                    outcome = ("refused", str(exc))
            seen.append(
                (outcome, delivery.stats, counters(site), counters(s1))
            )
        assert seen[0] == seen[1], op
        fetches += isinstance(op, tuple) and op[0] != "publish"
    lazy, scan = worlds[0][0], worlds[1][0]
    assert lazy.trace.to_jsonl() == scan.trace.to_jsonl()
    assert len(worlds[0][4]._steps) <= fetches


# --- chaos invariant 9 ------------------------------------------------------------


class TestConfluenceAudit:
    def test_backwards_serial_detected(self):
        from repro.sim import TraceBus

        bus = TraceBus()
        bus.emit(
            "cas.publish", t_s=0.0, subsystem="cas", catalog="o", serial=2,
            packages=1, chunks=1, new_chunks=1, nbytes=1,
        )
        bus.emit(
            "cas.publish", t_s=1.0, subsystem="cas", catalog="o", serial=1,
            packages=1, chunks=1, new_chunks=1, nbytes=1,
        )
        problems = cas_confluence_problems(bus.events)
        assert any("did not advance" in p for p in problems)

    def test_overcounted_hits_detected(self):
        from repro.sim import TraceBus

        bus = TraceBus()
        bus.emit(
            "cas.fetch", t_s=0.0, subsystem="cas", tier="campus",
            artifact="a", chunks=2, hit_chunks=3, nbytes=0,
        )
        problems = cas_confluence_problems(bus.events)
        assert any("hits" in p for p in problems)

    def test_recorded_pure_hit_detected(self):
        # The seeded corrupt trace: one hierarchy, run once on the live tiers
        # and once on the oracle that traces every fetch.  The replica's
        # first-pass hits and the site's second pass are pure hits; each is
        # named by seq, from the live events and from the decoded JSONL.
        from .oracles.tier_fetch import TracedSite, TracedStratum1

        def run(replica_class, site_class):
            kernel = SimKernel(seed=7)
            s0 = Stratum0("origin", kernel=kernel)
            s1 = replica_class("replica", s0, make_link(), kernel=kernel)
            site = site_class("campus", s1, make_link(), kernel=kernel)
            s0.publish(release("1.0", n=3, size=MB))
            s1.replicate()
            site.notice_release(s0.serial)
            for _ in range(2):
                for pkg in release("1.0", n=3, size=MB):
                    site.fetch_package(pkg)
            return kernel.trace

        assert cas_confluence_problems(run(Stratum1, SiteChunkCache).events) == []
        corrupt = run(TracedStratum1, TracedSite)
        pure = [
            e.seq for e in corrupt.events
            if e.kind == "cas.fetch" and e.data["hit_chunks"] == e.data["chunks"]
        ]
        problems = cas_confluence_problems(corrupt.events)
        assert len(pure) == 6 and len(problems) == 6
        for seq, problem in zip(pure, problems):
            assert "pure hit recorded" in problem and problem.endswith(f"at seq {seq}")
        decoded = [json.loads(line) for line in corrupt.to_jsonl().splitlines()]
        assert cas_confluence_problems(decoded) == problems

    def test_vacuous_on_cas_free_trace(self):
        from repro.sim import TraceBus

        assert cas_confluence_problems(TraceBus().events) == []

    def test_malformed_decoded_event_is_a_typed_error(self):
        with pytest.raises(TraceError, match="hit_chunks|tier"):
            cas_confluence_problems([{"kind": "cas.fetch", "data": {}}])
        with pytest.raises(TraceError, match="not a trace event"):
            cas_confluence_problems(["cas.fetch"])

    def test_three_audits_agree_on_live_events_and_decoded_jsonl(self):
        from repro.repod import repod_confluence_problems
        from repro.shell import rolling_confluence_problems
        from repro.sim import TraceBus

        bus = TraceBus()
        for serial in (2, 1):  # a catalog serial that moves backwards
            bus.emit(
                "cas.publish", t_s=0.0, subsystem="cas", catalog="o",
                serial=serial, packages=1, chunks=1, new_chunks=1, nbytes=1,
            )
        bus.emit(
            "cas.fetch", t_s=1.0, subsystem="cas", tier="campus",
            artifact="a", chunks=2, hit_chunks=3, nbytes=0,
        )
        for outcome in ("ok", "failed"):  # one request, two terminals
            bus.emit(
                "repod.request", t_s=2.0, subsystem="repod", req="c0:a",
                client="c0", artifact="a", outcome=outcome, source="origin",
                elapsed_s=0.1,
            )
        bus.emit(
            "shell.wave", t_s=3.0, subsystem="shell", wave=4, nodes="n[0-1]",
            count=2, ok=2, failed=0, skipped=0, status="ok",
        )
        bus.emit(
            "shell.abort", t_s=3.0, subsystem="shell", reason="rack 0",
            wave=4, nodes="n[0-1]",
        )
        decoded = [json.loads(line) for line in bus.to_jsonl().splitlines()]
        for audit, expected in (
            (cas_confluence_problems, 2),
            (repod_confluence_problems, 1),
            (rolling_confluence_problems, 1),
        ):
            live = audit(bus.events)
            assert len(live) == expected
            assert audit(decoded) == live
