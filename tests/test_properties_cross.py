"""Cross-cutting property-based tests over the bigger invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_littlefe_modified
from repro.rpm import Package
from repro.scheduler import ClusterResources, Job, MauiScheduler, TorqueScheduler
from repro.yum import MirrorLink, RepoMirror, RepoSet, Repository

from .oracles.replica_state import mirror_is_current


# --- EASY backfill dominates FIFO under exact runtimes ---------------------------

trace_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10),          # cores
        st.floats(min_value=1.0, max_value=300.0),       # runtime
        st.floats(min_value=0.0, max_value=100.0),       # submit offset
    ),
    min_size=1,
    max_size=12,
)


@given(trace_strategy)
@settings(max_examples=30, deadline=None)
def test_property_backfill_dominates_fifo(trace):
    """With exact runtimes (our jobs always run exactly as declared), EASY
    backfill never hurts: same completions, no worse makespan, no worse
    mean wait."""
    machine = build_littlefe_modified().machine

    def run(scheduler_cls):
        scheduler = scheduler_cls(ClusterResources(machine))
        for i, (cores, runtime, offset) in enumerate(sorted(trace, key=lambda t: t[2])):
            scheduler.now_s = max(scheduler.now_s, offset)
            scheduler.submit(
                Job(f"j{i}", "u", cores=cores, walltime_limit_s=runtime * 2,
                    runtime_s=runtime)
            )
        return scheduler.run_to_completion()

    fifo = run(TorqueScheduler)
    maui = run(MauiScheduler)
    assert maui.completed == fifo.completed
    assert maui.total_core_seconds == pytest.approx(fifo.total_core_seconds)
    assert maui.makespan_s <= fifo.makespan_s + 1e-6
    assert maui.mean_wait_s <= fifo.mean_wait_s + 1e-6


# --- mirrors converge to upstream content ------------------------------------------

package_edits = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=0, max_value=15),   # which package name
        st.integers(min_value=1, max_value=3),    # which version
    ),
    min_size=1,
    max_size=25,
)


@given(package_edits)
@settings(max_examples=30, deadline=None)
def test_property_mirror_converges(edits):
    """However the upstream churns between syncs, one sync makes the mirror
    content-identical."""
    upstream = Repository("up")
    mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=1e9))
    for i, (op, name_index, version) in enumerate(edits):
        pkg = Package(name=f"pkg{name_index}", version=f"{version}.0")
        if op == "add":
            if not any(
                v.nevra == pkg.nevra for v in upstream.versions_of(pkg.name)
            ):
                upstream.add(pkg)
        else:
            versions = upstream.versions_of(f"pkg{name_index}")
            if versions:
                upstream.remove(versions[0].nevra)
        if i % 7 == 3:  # occasional mid-churn syncs
            mirror.sync()
    mirror.sync()
    assert mirror_is_current(mirror)
    assert {p.nevra for p in mirror.local.all_packages()} == {
        p.nevra for p in upstream.all_packages()
    }


# --- priorities only ever shrink the candidate pool -----------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),   # package name index
            st.integers(min_value=1, max_value=9),   # version
            st.integers(min_value=1, max_value=99),  # repo priority
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_priorities_filter_is_a_subset(entries):
    repos_by_priority: dict[int, Repository] = {}
    for name_index, version, priority in entries:
        repo = repos_by_priority.setdefault(
            priority, Repository(f"repo{priority}", priority=priority)
        )
        pkg = Package(name=f"pkg{name_index}", version=f"{version}.0")
        if not any(v.nevra == pkg.nevra for v in repo.versions_of(pkg.name)):
            repo.add(pkg)
    repos = list(repos_by_priority.values())
    filtered = RepoSet(repos, use_priorities=True)
    unfiltered = RepoSet(repos, use_priorities=False)

    for name_index in {e[0] for e in entries}:
        name = f"pkg{name_index}"
        with_plugin = {p.nevra for p in filtered.candidates_by_name(name)}
        without = {p.nevra for p in unfiltered.candidates_by_name(name)}
        assert with_plugin <= without
        if without:
            assert with_plugin  # the plugin never empties a served name
            # and every surviving candidate comes from the best priority
            best = min(
                r.priority for r in repos if r.has(name)
            )
            for repo in repos:
                if repo.priority == best and repo.has(name):
                    assert {
                        p.nevra for p in repo.versions_of(name)
                    } <= with_plugin


# --- manifests are stable under capture-serialise-capture ------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_property_manifest_roundtrip_stable(seed):
    """Manifest JSON round-trips to a diff-identical manifest (seed exists
    to force several executions through hypothesis' shrinker)."""
    from repro.core import ClusterManifest, manifest_of_cluster
    from repro.core.xcbc import build_xcbc_cluster

    del seed
    cluster = build_xcbc_cluster(
        build_littlefe_modified().machine, include_optional_rolls=False
    ).cluster
    manifest = manifest_of_cluster(cluster)
    again = ClusterManifest.from_json(manifest.to_json())
    assert manifest.diff(again) == {}
