"""Simulated MPI: ranks on hosts, point-to-point messaging, timing.

The HPC substrate of the paper's machines is MPI over gigabit Ethernet
(Table 1's hpc roll carries openmpi/mpich2).  We model an
:class:`MpiWorld` — a set of ranks placed on the hosts of a fabric — with:

* **correctness**: :meth:`send`/:meth:`recv` move real Python payloads
  through per-(src, dst, tag) FIFO queues, so algorithms written against the
  API compute real answers;
* **timing**: every transfer is costed with the fabric's alpha-beta model
  (:class:`~repro.network.fabric.PathCost`), and ranks on the same host pay
  loopback cost only.  Times are *accounted*, not slept.

Rank clocks are :class:`~repro.sim.Timeline` objects on a
:class:`~repro.sim.SimKernel` — pass the scheduler's kernel (and anchor
``start_s`` at the job's start) to interleave MPI traffic with scheduler
and monitoring events on one timeline; every transfer publishes a
``msg.xfer`` trace event.  Without a kernel the world creates its own.

Collective algorithms live in :mod:`repro.mpi.collectives`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import MpiError
from ..network.fabric import Fabric
from ..sim import SimKernel

__all__ = ["MpiWorld", "bytes_of"]

#: payload size accounting: 8 bytes per float (MPI_DOUBLE convention)
_DOUBLE = 8


def bytes_of(data: object) -> int:
    """Approximate wire size of a payload.

    Lists/tuples of numbers are counted as doubles; bytes/str by length;
    anything else as one double.  Deterministic and cheap — this feeds the
    cost model, not a serialiser.
    """
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, str):
        return len(data.encode())
    if isinstance(data, (list, tuple)):
        # a plain number is one double; only other elements recurse
        if {int, float}.issuperset(map(type, data)):
            return len(data) * _DOUBLE
        return sum(
            _DOUBLE if type(x) in (int, float) else bytes_of(x) for x in data
        )
    if hasattr(data, "nbytes"):  # numpy arrays
        return int(data.nbytes)  # type: ignore[attr-defined]
    return _DOUBLE


@dataclass
class _Message:
    payload: object
    nbytes: int
    arrival_s: float


class MpiWorld:
    """A communicator: ``size`` ranks placed on fabric hosts.

    ``rank_hosts[i]`` names the host rank *i* runs on.  Several ranks may
    share a host (one per core is the usual placement).  Each rank's clock
    is a kernel timeline; sends charge the sender, receives complete at
    ``max(receiver clock, message arrival)`` — a simple but standard
    post-office timing model.  ``start_s`` anchors all rank timelines (a
    job's start time in co-simulation); :attr:`clocks` exposes absolute
    timeline values, :attr:`elapsed_s` is relative to the anchor.
    """

    def __init__(
        self,
        fabric: Fabric,
        rank_hosts: list[str],
        *,
        kernel: SimKernel | None = None,
        start_s: float | None = None,
    ) -> None:
        if not rank_hosts:
            raise MpiError("a world needs at least one rank")
        attached = set(fabric.hosts())
        for host in rank_hosts:
            if host not in attached:
                raise MpiError(f"rank host {host} is not attached to the fabric")
        self.fabric = fabric
        self.rank_hosts = list(rank_hosts)
        self.kernel = kernel if kernel is not None else SimKernel()
        self._epoch_s = self.kernel.now_s if start_s is None else start_s
        self._timelines = [
            self.kernel.timeline(f"mpi.rank{i}", start_s=self._epoch_s)
            for i in range(len(rank_hosts))
        ]
        self._queues: dict[tuple[int, int, int], deque[_Message]] = {}
        self.bytes_sent = 0
        self.message_count = 0

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.rank_hosts)

    @property
    def clocks(self) -> tuple[float, ...]:
        """Each rank's current (absolute) time.

        Read-only by design: local work goes through :meth:`compute`, so
        every clock mutation flows through the kernel timelines.
        """
        return tuple(t.now_s for t in self._timelines)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} out of range 0..{self.size - 1}")

    def host_of(self, rank: int) -> str:
        """Host a rank is placed on."""
        self._check_rank(rank)
        return self.rank_hosts[rank]

    def transfer_time_s(self, src: int, dst: int, nbytes: int) -> float:
        """Pure cost query: time to move ``nbytes`` from ``src`` to ``dst``."""
        self._check_rank(src)
        self._check_rank(dst)
        cost = self.fabric.path_cost(self.host_of(src), self.host_of(dst))
        return cost.transfer_time_s(nbytes)

    # -- local work --------------------------------------------------------------

    def compute(self, rank: int, seconds: float) -> float:
        """Charge ``seconds`` of local work to one rank's timeline."""
        self._check_rank(rank)
        if seconds < 0:
            raise MpiError(f"negative compute time {seconds}")
        return self._timelines[rank].advance(seconds)

    # -- point to point ---------------------------------------------------------

    def send(self, src: int, dst: int, payload: object, *, tag: int = 0) -> float:
        """Post a message; returns the sender-side completion time.

        The sender's clock advances by the full transfer time (rendezvous
        semantics — honest for the large messages HPL exchanges).
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise MpiError("send to self: use local data instead")
        nbytes = bytes_of(payload)
        elapsed = self.transfer_time_s(src, dst, nbytes)
        depart = self._timelines[src].now_s
        arrival = depart + elapsed
        self._timelines[src].advance(elapsed)
        self._queues.setdefault((src, dst, tag), deque()).append(
            _Message(payload=payload, nbytes=nbytes, arrival_s=arrival)
        )
        self.bytes_sent += nbytes
        self.message_count += 1
        self.kernel.trace.emit(
            "msg.xfer", t_s=arrival, subsystem="mpi",
            src=src, dst=dst, nbytes=nbytes, elapsed_s=elapsed, tag=tag,
        )
        return arrival

    def recv(self, dst: int, src: int, *, tag: int = 0) -> object:
        """Receive the next queued message from ``src`` (FIFO per tag).

        Raises :class:`MpiError` if nothing has been sent — the simulation
        is deterministic, so a missing message is a program bug, not a race.
        """
        self._check_rank(src)
        self._check_rank(dst)
        queue = self._queues.get((src, dst, tag))
        if not queue:
            raise MpiError(
                f"rank {dst}: no message pending from rank {src} (tag {tag})"
            )
        message = queue.popleft()
        self._timelines[dst].meet(message.arrival_s)
        return message.payload

    def sendrecv(
        self, a: int, b: int, payload_a: object, payload_b: object, *, tag: int = 0
    ) -> tuple[object, object]:
        """Symmetric exchange between two ranks (both directions overlap, so
        both clocks advance by one transfer time, not two)."""
        na, nb = bytes_of(payload_a), bytes_of(payload_b)
        elapsed = self.transfer_time_s(a, b, max(na, nb))
        start = max(self._timelines[a].now_s, self._timelines[b].now_s)
        finish = start + elapsed
        self._timelines[a].meet(finish)
        self._timelines[b].meet(finish)
        self.bytes_sent += na + nb
        self.message_count += 2
        self.kernel.trace.emit(
            "msg.xfer", t_s=finish, subsystem="mpi",
            src=a, dst=b, nbytes=na, elapsed_s=elapsed, tag=tag,
        )
        self.kernel.trace.emit(
            "msg.xfer", t_s=finish, subsystem="mpi",
            src=b, dst=a, nbytes=nb, elapsed_s=elapsed, tag=tag,
        )
        return payload_b, payload_a  # what a receives, what b receives

    # -- synchronisation --------------------------------------------------------

    def barrier(self) -> float:
        """Synchronise all clocks to the slowest rank plus a small cost.

        Cost model: a dissemination barrier is ~ceil(log2 p) zero-byte
        rounds at worst-case latency.
        """
        import math

        worst = max(t.now_s for t in self._timelines)
        if self.size > 1:
            alpha = max(
                self.fabric.path_cost(self.host_of(0), self.host_of(r)).latency_s
                for r in range(1, self.size)
            )
            worst += math.ceil(math.log2(self.size)) * alpha
        for timeline in self._timelines:
            timeline.meet(worst)
        self.kernel.trace.emit(
            "mpi.barrier", t_s=worst, subsystem="mpi", ranks=self.size
        )
        return worst

    @property
    def elapsed_s(self) -> float:
        """Wall-clock of the slowest rank so far (relative to the anchor)."""
        return max(t.now_s for t in self._timelines) - self._epoch_s

    def reset_clocks(self) -> None:
        """Re-anchor all rank timelines and zero the traffic counters
        (between benchmark phases)."""
        for timeline in self._timelines:
            timeline.reset(self._epoch_s)
        self.bytes_sent = 0
        self.message_count = 0
