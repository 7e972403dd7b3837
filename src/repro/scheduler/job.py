"""Batch jobs and their lifecycle.

The XCBC build ships "Torque, SLURM, sge (choose one)" (Table 1) plus Maui
(Table 2's scheduler row).  A :class:`Job` is scheduler-agnostic: cores
requested, a walltime limit, and the actual runtime the simulation will
charge (unknown to the scheduler until the job ends, like real life).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

from ..errors import JobError

__all__ = ["JobState", "Job", "Allocation"]


class JobState(str, Enum):
    """Lifecycle states (qstat letters in parentheses)."""

    PENDING = "pending"      # (Q)
    RUNNING = "running"      # (R)
    COMPLETED = "completed"  # (C)
    FAILED = "failed"


_job_serial = itertools.count(1)


@dataclass
class Job:
    """One batch job.

    ``runtime_s`` is what the job will actually take; ``walltime_limit_s``
    is what the user asked for.  A job whose runtime exceeds its limit is
    killed at the limit and marked FAILED (the scheduler enforces this).
    """

    name: str
    user: str
    cores: int
    walltime_limit_s: float
    runtime_s: float
    priority: int = 0
    job_id: int = field(default_factory=lambda: next(_job_serial))

    # lifecycle bookkeeping, owned by the scheduler
    state: JobState = JobState.PENDING
    submit_time_s: float = 0.0
    start_time_s: float | None = None
    end_time_s: float | None = None
    allocation: "Allocation | None" = None

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise JobError(f"job {self.name}: cores must be positive")
        if not (math.isfinite(self.walltime_limit_s) and math.isfinite(self.runtime_s)):
            raise JobError(
                f"job {self.name}: walltime limit and runtime must be finite"
            )
        if self.walltime_limit_s <= 0:
            raise JobError(f"job {self.name}: walltime limit must be positive")
        if self.runtime_s < 0:
            raise JobError(f"job {self.name}: negative runtime")

    @property
    def exceeded_walltime(self) -> bool:
        """True if the job's real runtime exceeds its declared limit."""
        return self.runtime_s > self.walltime_limit_s

    @property
    def charged_runtime_s(self) -> float:
        """Time the job will occupy the machine (capped at the limit)."""
        return min(self.runtime_s, self.walltime_limit_s)

    @property
    def wait_time_s(self) -> float:
        """Queue wait (start - submit); raises if not yet started."""
        if self.start_time_s is None:
            raise JobError(f"job {self.name} has not started")
        return self.start_time_s - self.submit_time_s

    @property
    def core_seconds(self) -> float:
        """Machine time consumed (cores x charged runtime)."""
        return self.cores * self.charged_runtime_s

    def state_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot of the job (checkpoint participation).

        ``job_id`` is deliberately excluded: it comes from a process-global
        serial, so two identically-replayed worlds assign different ids —
        names are the stable identity everywhere that matters (traces,
        allocations, snapshots).
        """
        return {
            "name": self.name,
            "user": self.user,
            "cores": self.cores,
            "walltime_limit_s": self.walltime_limit_s,
            "runtime_s": self.runtime_s,
            "priority": self.priority,
            "state": self.state.value,
            "submit_time_s": self.submit_time_s,
            "start_time_s": self.start_time_s,
            "end_time_s": self.end_time_s,
            "allocation": str(self.allocation) if self.allocation else None,
        }


@dataclass(frozen=True)
class Allocation:
    """Cores granted to a job: ``{node_name: core_count}``."""

    by_node: tuple[tuple[str, int], ...]

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n for n, _c in self.by_node)

    def __str__(self) -> str:
        return "+".join(f"{n}:{c}" for n, c in self.by_node)
