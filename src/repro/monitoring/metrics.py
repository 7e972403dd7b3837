"""Metric model for the Ganglia-like monitoring substrate.

Table 1 ships the **ganglia** roll ("Cluster monitoring system"), and the
conclusion counts monitoring among the skills a student cluster teaches.
The model mirrors Ganglia's: a *metric* is a named sample attached to a
host; gmond collects them per host, gmetad aggregates
per cluster (:mod:`repro.monitoring.gmond` / ``hierarchy``); history is kept in
round-robin archives (:mod:`repro.monitoring.rrd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import MonitoringError

__all__ = ["MetricSample", "CORE_METRICS", "MonitoringError", "free_memory_kb"]


@dataclass(frozen=True)
class MetricSample:
    """One observation of one metric on one host."""

    metric: str
    host: str
    value: float
    timestamp_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timestamp_s) and self.timestamp_s >= 0):
            raise MonitoringError(
                f"timestamp {self.timestamp_s} for {self.metric}@{self.host}"
                " is not a finite non-negative time"
            )


def free_memory_kb(mem_total_kb: float, load: float, cores: int) -> float:
    """Free memory of a host: pressure follows busy cores, floored at 10%."""
    return mem_total_kb * max(0.1, 1.0 - 0.8 * load / max(cores, 1))


#: The metrics the ganglia roll's default gmond.conf collects, in the
#: order a poll reports them.
CORE_METRICS: tuple[str, ...] = (
    "load_one", "cpu_num", "cpu_user", "mem_total", "mem_free", "disk_total",
    "bytes_in", "bytes_out", "proc_run", "pkg_count", "svc_failed", "powered_on",
)
