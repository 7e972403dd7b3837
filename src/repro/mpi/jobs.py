"""Running MPI work on a scheduler allocation: the layers joined up.

A batch job's allocation (which cores on which nodes) decides where its MPI
ranks land, and rank placement decides communication cost — the reason
admins care about node allocation policy at all.  :func:`world_for_job`
builds an :class:`~repro.mpi.simulator.MpiWorld` whose ranks sit exactly on
a job's allocated cores; :func:`run_allreduce_job` is the canonical
workload: iterate compute + allreduce, returning modelled time split into
compute and communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MpiError
from ..network.fabric import Fabric
from ..scheduler.job import Job
from ..sim import SimKernel
from .collectives import allreduce
from .simulator import MpiWorld

__all__ = ["world_for_job", "MpiJobProfile", "run_allreduce_job"]


def world_for_job(
    fabric: Fabric, job: Job, *, kernel: SimKernel | None = None
) -> MpiWorld:
    """An MPI world with one rank per allocated core of ``job``.

    The job must be running or completed (it must *have* an allocation).
    Rank order follows the allocation's node order — the same contiguous
    placement mpirun gets from a Torque nodefile.  Pass the scheduler's
    ``kernel`` to put the ranks on the shared timeline, anchored at the
    job's start time.
    """
    if job.allocation is None:
        raise MpiError(f"job {job.name} has no allocation (state {job.state.value})")
    rank_hosts = [
        node_name
        for node_name, cores in job.allocation.by_node
        for _ in range(cores)
    ]
    return MpiWorld(fabric, rank_hosts, kernel=kernel, start_s=job.start_time_s)


@dataclass(frozen=True)
class MpiJobProfile:
    """Modelled execution profile of one MPI job."""

    ranks: int
    iterations: int
    compute_s: float
    communication_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.communication_s

    @property
    def communication_fraction(self) -> float:
        return self.communication_s / self.total_s if self.total_s > 0 else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """compute / total: what fraction of the allocation did real work."""
        return self.compute_s / self.total_s if self.total_s > 0 else 0.0


def run_allreduce_job(
    world: MpiWorld,
    *,
    iterations: int = 10,
    elements: int = 4096,
    compute_s_per_iteration: float = 0.05,
) -> MpiJobProfile:
    """The canonical iterate-then-allreduce workload (CG, MD, ...).

    Each iteration charges every rank ``compute_s_per_iteration`` of local
    work, then performs a data-correct allreduce of ``elements`` doubles;
    the world's clocks supply the communication time.
    """
    if iterations <= 0 or elements <= 0:
        raise MpiError("iterations and elements must be positive")
    world.reset_clocks()
    payload_template = [1.0] * elements
    for _ in range(iterations):
        # local compute: every rank's clock advances in lockstep
        for rank in range(world.size):
            world.compute(rank, compute_s_per_iteration)
        data = [list(payload_template) for _ in range(world.size)]
        merged = allreduce(
            world, data, lambda a, b: [x + y for x, y in zip(a, b)]
        )
        expected = float(world.size)
        if abs(merged[0][0] - expected) > 1e-9:
            raise MpiError("allreduce returned a wrong reduction")
    compute = iterations * compute_s_per_iteration
    total = world.elapsed_s
    return MpiJobProfile(
        ranks=world.size,
        iterations=iterations,
        compute_s=compute,
        communication_s=max(total - compute, 0.0),
    )
