"""Metric model for the Ganglia-like monitoring substrate.

Table 1 ships the **ganglia** roll ("Cluster monitoring system"), and the
conclusion counts monitoring among the skills a student cluster teaches.
The model mirrors Ganglia's: a *metric* is a named, typed, unit-carrying
sample attached to a host; gmond collects them per host, gmetad aggregates
per cluster (:mod:`repro.monitoring.gmond` / ``hierarchy``); history is kept in
round-robin archives (:mod:`repro.monitoring.rrd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..errors import MonitoringError

__all__ = ["MetricKind", "MetricSample", "MetricSpec", "CORE_METRICS", "MonitoringError",
           "free_memory_kb"]


class MetricKind(str, Enum):
    """Value semantics, as Ganglia distinguishes them."""

    GAUGE = "gauge"        # instantaneous (load, free memory)
    COUNTER = "counter"    # monotone (bytes in/out)
    CONSTANT = "constant"  # machine facts (cores, boottime)


@dataclass(frozen=True)
class MetricSpec:
    """Schema of one metric."""

    name: str
    kind: MetricKind
    unit: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise MonitoringError("metric name must be non-empty")


@dataclass(frozen=True)
class MetricSample:
    """One observation of one metric on one host."""

    spec: MetricSpec
    host: str
    value: float
    timestamp_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timestamp_s) and self.timestamp_s >= 0):
            raise MonitoringError(
                f"timestamp {self.timestamp_s} for {self.spec.name}@{self.host}"
                " is not a finite non-negative time"
            )


def free_memory_kb(mem_total_kb: float, load: float, cores: int) -> float:
    """Free memory of a host: pressure follows busy cores, floored at 10%."""
    return mem_total_kb * max(0.1, 1.0 - 0.8 * load / max(cores, 1))


#: The metric set the ganglia roll's default gmond.conf collects.
CORE_METRICS: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        MetricSpec("load_one", MetricKind.GAUGE, "", "1-minute load average"),
        MetricSpec("cpu_num", MetricKind.CONSTANT, "CPUs", "core count"),
        MetricSpec("cpu_user", MetricKind.GAUGE, "%", "user CPU"),
        MetricSpec("mem_total", MetricKind.CONSTANT, "KB", "installed memory"),
        MetricSpec("mem_free", MetricKind.GAUGE, "KB", "free memory"),
        MetricSpec("disk_total", MetricKind.CONSTANT, "GB", "local disk"),
        MetricSpec("bytes_in", MetricKind.COUNTER, "bytes/sec", "network in"),
        MetricSpec("bytes_out", MetricKind.COUNTER, "bytes/sec", "network out"),
        MetricSpec("proc_run", MetricKind.GAUGE, "", "running processes"),
        MetricSpec("pkg_count", MetricKind.GAUGE, "", "installed RPMs"),
        MetricSpec("svc_failed", MetricKind.GAUGE, "", "failed services"),
        MetricSpec("powered_on", MetricKind.GAUGE, "", "1 if the node is up"),
    )
}
