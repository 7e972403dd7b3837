"""The public surface of the two delivery planes, pinned.

``repro.repod`` and ``repro.cas`` share no logic and no seam; what each
exports and which values a caller can set are listed here exactly, so a
new knob (or a returning one) fails a test instead of drifting in.
``bench/workloads.py`` folds every int of ``StormReport.state_dict()`` into
``release_storm``'s ``sim_digest``, so that dict's shape is pinned too.
"""

import dataclasses
import inspect
import json

import repro.cas
import repro.repod
from repro.cas import ChunkTier, DeliveryStats, LazyDelivery, SiteChunkCache
from repro.repod import RepoClient, SiteProxy, StormReport, UpdateStormScenario


def _parameters(cls) -> list[str]:
    return list(inspect.signature(cls.__init__).parameters)[1:]  # drop self


def test_delivery_plane_exports_and_constructor_options_are_exact():
    assert sorted(repro.repod.__all__) == [
        "FetchResult", "RepoClient", "RepoServer", "RequestRecord",
        "SiteProxy", "StormReport", "UpdateStormScenario", "payload_for",
        "repod_confluence_problems",
    ]
    assert sorted(repro.cas.__all__) == [
        "CHUNK_SIZE", "Chunk", "ChunkFetchStats", "ChunkStore", "ChunkTier",
        "ChunkingPolicy", "DeliveryStats", "LazyDelivery", "PackageManifest",
        "PublishStats", "ReplicateStats", "SiteChunkCache", "Stratum0",
        "Stratum1", "cas_confluence_problems", "chunk_package",
        "recover_stratum0",
    ]
    assert _parameters(SiteProxy) == ["name", "origin", "kernel"]
    assert _parameters(RepoClient) == [
        "name", "proxy", "kernel", "policy", "budget",
    ]
    assert _parameters(SiteChunkCache) == ["name", "upstream", "link", "kernel"]
    assert _parameters(UpdateStormScenario) == [
        "seed", "campuses", "clients_per_campus", "governed", "slots",
        "queue_limit", "budget_capacity", "budget_refill_per_s", "goodput_floor",
    ]


def test_serve_path_parameters_are_exact():
    """A delivery step reaches the tier through ``fetch_chunks`` as it is:
    its digest set and byte total ride on the chunk run, not a parameter."""
    def parameters(fn):
        return [
            (p.name, p.kind.name, p.default)
            for p in inspect.signature(fn).parameters.values()
        ]

    serve = [
        ("self", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("chunks", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("artifact", "KEYWORD_ONLY", inspect.Parameter.empty),
        ("requester", "KEYWORD_ONLY", "node"),
    ]
    assert parameters(ChunkTier.fetch_chunks) == serve
    assert parameters(SiteChunkCache.fetch_chunks) == serve
    assert _parameters(LazyDelivery) == ["site"]
    assert [name for name, _, _ in parameters(LazyDelivery.fetch_package)] == [
        "self", "node", "pkg",
    ]
    assert [f.name for f in dataclasses.fields(DeliveryStats)] == [
        "packages", "chunks_requested", "bytes_fetched", "bytes_reused",
    ]


def test_storm_report_state_dict_is_the_dataclass_plus_goodput_ratio():
    report = StormReport(
        seed=1, governed=True, campuses=2, clients=3, offered=7, ok=3, stale=2,
        failed=2, elapsed_s=12.34567, problems=["p"],
    )
    state = report.state_dict()
    fields = [f.name for f in dataclasses.fields(StormReport)]
    assert sorted(state) == sorted(fields + ["goodput_ratio"])
    assert state["elapsed_s"] == 12.346
    assert state["goodput_ratio"] == 0.7143  # 5/7
    for name in fields:
        if name != "elapsed_s":
            assert state[name] == getattr(report, name)
    assert state["problems"] is not report.problems  # a snapshot, not a view
    assert json.loads(json.dumps(state)) == state
