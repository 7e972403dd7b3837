"""The benchmark's metric definitions — the one place names, units,
directions and bounds are written down.

``BENCHMARK.json`` at the repo root is :func:`contract` serialised (a test
keeps them equal).  ``bench/README.md`` explains each metric and carries
the table of which per-layer metric is expected to move which end-to-end
metric on which workload.

Every metric is *host* (wall time or memory of this Python process, noisy)
or *sim* (simulated seconds, bytes, counts — exact for a fixed seed).  A
host metric regresses when it gets worse than the parent's median by more
than its bound; a sim metric has no tolerance at all (``bound`` None):
``python -m bench --agree`` demands bit-equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spans import LAYERS
from .workloads import WORKLOADS

__all__ = [
    "Metric", "END_TO_END", "CONTRACT_END_TO_END", "EXTRA_END_TO_END",
    "PER_LAYER", "RUN_SECONDS", "contract",
]

#: Seconds one contract run measures for (``--seconds`` default).
RUN_SECONDS = 20

_KERNEL_WORKLOADS = ("patch_day_10k", "release_storm")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    kind: str = "host"                # "host" | "sim"
    bound: float | None = None        # share of the parent's median; None = exact
    workloads: tuple[str, ...] | None = None   # None = every workload

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: What a user of the system sees.  The first four apply to every workload
#: and are never zero, so they are the driver contract's ``end_to_end``
#: list; the rest apply to the kernel-backed workloads or are exact sim
#: numbers (zero is a legal value, no relative bound makes sense), so the
#: contract carries them in ``per_layer`` under an ``e2e.`` prefix.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("ops_per_s", "ops/s", "higher", bound=0.25),
    Metric("iter_s_p50", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.15),
    Metric("events_per_s", "1/s", "higher", bound=0.25, workloads=_KERNEL_WORKLOADS),
    Metric("sim_makespan_s", "s", "lower", "sim", workloads=_KERNEL_WORKLOADS),
    Metric("sim_op_p50_s", "s", "lower", "sim", workloads=_KERNEL_WORKLOADS),
    Metric("sim_op_p99_s", "s", "lower", "sim", workloads=_KERNEL_WORKLOADS),
    Metric("wan_bytes", "bytes", "lower", "sim", workloads=_KERNEL_WORKLOADS),
    Metric("fail_ratio", "ratio", "lower", "sim"),
)

CONTRACT_END_TO_END: tuple[Metric, ...] = END_TO_END[:4]
#: the end-to-end metrics the contract carries as ``e2e.<name>`` per-layer ones
EXTRA_END_TO_END: tuple[Metric, ...] = END_TO_END[4:]

#: Counts and useful/attempted ratios per layer, beside the four span
#: numbers every layer gets.  ``(name, unit, better)``.
_LAYER_COUNTS: tuple[tuple[str, str, str], ...] = (
    ("sim.events_fired", "count", "lower"),
    ("sim.trace_emits", "count", "lower"),
    ("sim.trace_bytes", "bytes", "lower"),
    ("sim.export_s", "s", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("rpm.txns", "count", "lower"),
    ("rpm.pkgs_changed", "count", "higher"),
    ("rpm.plan_shared_ratio", "ratio", "higher"),
    ("yum.resolves", "count", "lower"),
    ("yum.resolution_cache_hit_ratio", "ratio", "higher"),
    ("rocks.waves", "count", "lower"),
    ("rocks.nodes_installed", "count", "higher"),
    ("network.pxe_boots", "count", "lower"),
    ("distro.fs_writes", "count", "lower"),
    ("recovery.journal_intents", "count", "lower"),
    ("fleet.rows", "count", "higher"),
    ("monitoring.cycles", "count", "lower"),
    ("monitoring.rack_updates", "count", "lower"),
    ("shell.nodes_run", "count", "higher"),
    ("shell.retries", "count", "lower"),
    ("shell.skipped", "count", "lower"),
    ("scheduler.drains", "count", "lower"),
    ("scheduler.requeues", "count", "lower"),
    ("cas.fetches", "count", "higher"),
    ("cas.chunk_hit_ratio", "ratio", "higher"),
    ("cas.dedup_ratio", "ratio", "higher"),
    ("cas.wan_bytes", "bytes", "lower"),
    ("cas.lan_bytes", "bytes", "lower"),
    ("repod.origin_arrivals", "count", "lower"),
    ("repod.coalesced", "count", "higher"),
    ("repod.shed", "count", "lower"),
    ("repod.stale_ratio", "ratio", "lower"),
    ("repod.retries", "count", "lower"),
    ("repod.budget_denied", "count", "lower"),
    ("repod.proxy_hit_ratio", "ratio", "higher"),
    ("faults.injected", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    tuple(
        Metric(f"{layer}.{suffix}", unit, "lower")
        for layer in LAYERS
        for suffix, unit in (
            ("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
            ("self_share", "ratio"),
        )
    )
    + tuple(Metric(name, unit, better) for name, unit, better in _LAYER_COUNTS)
    + tuple(
        Metric(f"e2e.{m.name}", m.unit, m.better, m.kind, workloads=m.workloads)
        for m in EXTRA_END_TO_END
    )
)


def contract() -> dict:
    """The driver-facing description of the benchmark (``BENCHMARK.json``)."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in CONTRACT_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
