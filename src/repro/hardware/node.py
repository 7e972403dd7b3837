"""Assembled compute/head nodes.

A :class:`Node` is a validated assembly of board + CPU + DIMMs + storage +
cooler (+ optionally its own PSU, as in the modified LittleFe).  Validation
happens eagerly in :func:`assemble_node`, so any :class:`Node` object you can
hold is a physically buildable machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import AssemblyError
from .cooling import CoolerModel, check_cooler_fit
from .cpu import CpuModel
from .gpu import GpuModel
from .memory import DimmModel
from .motherboard import MotherboardModel
from .nic import NicModel
from .power import PsuModel, check_budget, total_draw
from .storage import MountKind, StorageModel

__all__ = ["Node", "assemble_node", "NodeRole"]


class NodeRole:
    """Role constants; Rocks distinguishes the frontend from compute nodes."""

    FRONTEND = "frontend"
    COMPUTE = "compute"


_node_serial = itertools.count(1)


@dataclass
class Node:
    """A fully assembled node.

    Construct via :func:`assemble_node`, which enforces the physical rules;
    the attributes here are plain data.  ``psu`` is ``None`` when the node is
    powered by a chassis-level supply (historical LittleFe, Limulus).
    """

    name: str
    role: str
    board: MotherboardModel
    cpu: CpuModel
    dimms: tuple[DimmModel, ...]
    storage: tuple[StorageModel, ...]
    cooler: CoolerModel | None
    psu: PsuModel | None
    gpus: tuple[GpuModel, ...] = ()
    mac_address: str = ""
    powered_on: bool = True

    def __post_init__(self) -> None:
        if not self.mac_address:
            # Deterministic locally administered MAC derived from a serial.
            serial = next(_node_serial)
            self.mac_address = "02:xc:bc:%02x:%02x:%02x" % (
                (serial >> 16) & 0xFF,
                (serial >> 8) & 0xFF,
                serial & 0xFF,
            )

    # -- derived characteristics ------------------------------------------

    @property
    def cores(self) -> int:
        """Physical cores in the node (single socket in all paper machines)."""
        return self.cpu.cores

    @property
    def clock_ghz(self) -> float:
        """CPU base clock."""
        return self.cpu.clock_ghz

    @property
    def memory_bytes(self) -> int:
        """Total installed RAM."""
        return sum(d.capacity_bytes for d in self.dimms)

    @property
    def storage_bytes(self) -> int:
        """Total installed storage (0 for diskless nodes)."""
        return sum(s.capacity_bytes for s in self.storage)

    @property
    def diskless(self) -> bool:
        """True if the node has no local drive (Limulus compute nodes)."""
        return not self.storage

    @property
    def nics(self) -> tuple[NicModel, ...]:
        """The node's network interfaces (all on-board in the paper builds)."""
        return self.board.nics

    @property
    def dual_homed_capable(self) -> bool:
        """True if the node can front two networks (head-node requirement)."""
        return self.board.dual_homed_capable

    @property
    def rpeak_gflops(self) -> float:
        """Theoretical peak of this node (CPU plus any accelerators)."""
        return self.cpu.rpeak_gflops + sum(g.rpeak_gflops for g in self.gpus)

    @property
    def draw_watts(self) -> float:
        """Worst-case component power draw of this node (at the DC rail)."""
        parts = [self.cpu.tdp_watts, self.board.power_watts]
        parts += [d.power_watts for d in self.dimms]
        parts += [s.power_watts for s in self.storage]
        parts += [n.power_watts for n in self.board.nics]
        parts += [g.tdp_watts for g in self.gpus]
        if self.cooler is not None:
            parts.append(self.cooler.power_watts)
        return total_draw(parts)

    @property
    def idle_watts(self) -> float:
        """Approximate idle draw: boards and fans stay on, CPU drops to ~30 %."""
        return self.draw_watts - self.cpu.tdp_watts * 0.7

    @property
    def price_usd(self) -> float:
        """Sum of component street prices."""
        total = self.board.price_usd + self.cpu.price_usd
        total += sum(d.price_usd for d in self.dimms)
        total += sum(s.price_usd for s in self.storage)
        total += sum(g.price_usd for g in self.gpus)
        if self.cooler is not None:
            total += self.cooler.price_usd
        if self.psu is not None:
            total += self.psu.price_usd
        return total


def assemble_node(
    name: str,
    *,
    role: str,
    board: MotherboardModel,
    cpu: CpuModel,
    dimms: tuple[DimmModel, ...],
    storage: tuple[StorageModel, ...] = (),
    cooler: CoolerModel | None = None,
    psu: PsuModel | None = None,
    gpus: tuple[GpuModel, ...] = (),
) -> Node:
    """Assemble and validate a node.

    Enforced rules (each mirrors a constraint the paper discusses):

    * socketed CPUs must match the board socket; system-on-board boards
      (``board.socket is None``) accept only their soldered CPU model;
    * DIMM count must not exceed the board's slots;
    * board-mounted (mSATA) drives must not exceed the board's mSATA slots,
      chassis drives must not exceed SATA ports;
    * a socketed CPU needs a cooler, and the cooler must clear the board's
      height limit and the CPU's TDP (:func:`check_cooler_fit`);
    * a per-node PSU, when present, must carry the node's draw with headroom;
    * a frontend node must be dual-homed capable.
    """
    if role not in (NodeRole.FRONTEND, NodeRole.COMPUTE):
        raise AssemblyError(f"{name}: unknown node role {role!r}")

    if board.socket is None:
        # System-on-board: the CPU is part of the board; accept only a CPU
        # marked with a BGA-style socket (soldered) to keep models honest.
        if not cpu.socket.startswith("FCBGA"):
            raise AssemblyError(
                f"{name}: board {board.model!r} has a soldered CPU; cannot "
                f"install socketed {cpu.model!r}"
            )
    elif cpu.socket != board.socket:
        raise AssemblyError(
            f"{name}: CPU {cpu.model!r} is {cpu.socket} but board "
            f"{board.model!r} is {board.socket}"
        )

    if not dimms:
        raise AssemblyError(f"{name}: a node needs at least one DIMM")
    if len(dimms) > board.dimm_slots:
        raise AssemblyError(
            f"{name}: {len(dimms)} DIMMs exceed the {board.dimm_slots} slots "
            f"on {board.model!r}"
        )

    board_drives = [s for s in storage if s.mount is MountKind.BOARD]
    chassis_drives = [s for s in storage if s.mount is MountKind.CHASSIS]
    if len(board_drives) > board.msata_slots:
        raise AssemblyError(
            f"{name}: {len(board_drives)} mSATA drives exceed the "
            f"{board.msata_slots} mSATA slots on {board.model!r}"
        )
    if len(chassis_drives) > board.sata_ports:
        raise AssemblyError(
            f"{name}: {len(chassis_drives)} SATA drives exceed the "
            f"{board.sata_ports} SATA ports on {board.model!r}"
        )

    needs_cooler = board.socket is not None
    if needs_cooler and cooler is None:
        raise AssemblyError(
            f"{name}: socketed CPU {cpu.model!r} requires a cooler"
        )
    if cooler is not None:
        check_cooler_fit(cooler, cpu, board, what=name)

    node = Node(
        name=name,
        role=role,
        board=board,
        cpu=cpu,
        dimms=tuple(dimms),
        storage=tuple(storage),
        cooler=cooler,
        psu=psu,
        gpus=tuple(gpus),
    )

    if psu is not None:
        check_budget(psu, node.draw_watts, what=name)

    if role == NodeRole.FRONTEND and not node.dual_homed_capable:
        raise AssemblyError(
            f"{name}: a frontend must be dual-homed (public + cluster "
            f"network) but {board.model!r} has {board.nic_count} NIC(s)"
        )

    return node
