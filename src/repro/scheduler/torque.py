"""Torque + Maui: the default XCBC resource manager and scheduler.

Table 2 lists "maui, torque" under Scheduler and Resource Manager — Torque
tracks the nodes and jobs (pbs_server/pbs_mom) while Maui makes the
decisions.  Plain Torque (no Maui) is strict FIFO; Maui adds priority
ordering and EASY backfill.  Both flavours are exposed so the backfill
ablation bench can compare them.
"""

from __future__ import annotations

from .base import BaseScheduler
from .job import Job

__all__ = ["TorqueScheduler", "MauiScheduler"]


class TorqueScheduler(BaseScheduler):
    """pbs_server's built-in scheduler: strict FIFO, no backfill."""

    scheduler_name = "torque"
    backfill = False

    def _schedulable_order(self) -> list[Job]:
        return sorted(self.pending, key=lambda j: (j.submit_time_s, j.job_id))


class MauiScheduler(BaseScheduler):
    """Maui on top of Torque: priority + queue time ordering, EASY backfill.

    Priority is ``job.priority`` (higher first) with submit time as the
    tie-break.
    """

    scheduler_name = "torque+maui"
    backfill = True

    def _schedulable_order(self) -> list[Job]:
        return sorted(
            self.pending, key=lambda j: (-j.priority, j.submit_time_s, j.job_id)
        )
