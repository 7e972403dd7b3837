"""Motherboard models.

Two boards carry the paper's narrative:

* The historical LittleFe system-on-board Atom mini-ITX boards (CPU soldered,
  no mSATA, single NIC).
* The Gigabyte **GA-Q87TN** (Section 5.1, ref [28]): mini-ITX, LGA-1150,
  dual NIC, on-board mSATA — the board that makes the modified LittleFe
  possible (socketed Haswell CPUs, a drive per node for Rocks, and a
  dual-homed head node with no add-in card).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError
from .nic import NicModel, GIGE_ONBOARD, FASTE_ONBOARD

__all__ = [
    "MotherboardModel",
    "GA_Q87TN",
    "LITTLEFE_ATOM_BOARD",
    "LIMULUS_NODE_BOARD",
    "BOARD_CATALOG",
]


@dataclass(frozen=True)
class MotherboardModel:
    """A motherboard SKU.

    ``socket`` of ``None`` means the CPU is soldered on (system-on-board);
    such a board has an implied CPU and refuses socketed CPU installs.
    ``cpu_clearance_mm`` is the vertical space above the CPU socket available
    for a cooler once the board sits in its chassis slot; the LittleFe frame
    allots very little, which is why the stock Celeron fan does not fit
    (Section 5.1) and the build uses a low-profile cooler.
    """

    model: str
    form_factor: str  # "mini-ITX", "ATX", ...
    socket: str | None
    dimm_slots: int
    msata_slots: int
    sata_ports: int
    nics: tuple[NicModel, ...]
    cpu_clearance_mm: float
    power_watts: float  # chipset + VRM overhead
    price_usd: float

    def __post_init__(self) -> None:
        if self.dimm_slots <= 0:
            raise CatalogError(f"board {self.model} has no DIMM slots")
        if not self.nics:
            raise CatalogError(f"board {self.model} has no NICs")

    @property
    def nic_count(self) -> int:
        """Number of on-board network interfaces."""
        return len(self.nics)

    @property
    def dual_homed_capable(self) -> bool:
        """True if the board alone can serve as a dual-homed head node."""
        return self.nic_count >= 2


#: The modified-LittleFe board: mini-ITX, LGA-1150, dual GigE, mSATA on-board.
GA_Q87TN = MotherboardModel(
    model="Gigabyte GA-Q87TN",
    form_factor="mini-ITX",
    socket="LGA-1150",
    dimm_slots=2,
    msata_slots=1,
    sata_ports=4,
    nics=(GIGE_ONBOARD, GIGE_ONBOARD),
    cpu_clearance_mm=47.0,  # LittleFe shelf pitch leaves ~47 mm above socket
    power_watts=12.0,
    price_usd=165.0,  # Q87 thin-mini-ITX boards carried a premium in 2015
)

#: Historical LittleFe v4 board: Atom D510 soldered on, single NIC, no mSATA.
LITTLEFE_ATOM_BOARD = MotherboardModel(
    model="Intel D510MO (Atom SoC board)",
    form_factor="mini-ITX",
    socket=None,
    dimm_slots=2,
    msata_slots=0,
    sata_ports=2,
    nics=(GIGE_ONBOARD,),
    cpu_clearance_mm=25.0,
    power_watts=8.0,
    price_usd=80.0,
)

#: Limulus HPC200 node board (LGA-1150 micro-ATX; diskless compute design).
LIMULUS_NODE_BOARD = MotherboardModel(
    model="Limulus node board (LGA-1150)",
    form_factor="micro-ATX",
    socket="LGA-1150",
    dimm_slots=4,
    msata_slots=0,
    sata_ports=4,
    nics=(GIGE_ONBOARD, GIGE_ONBOARD),
    cpu_clearance_mm=70.0,  # deskside case: stock coolers fit
    power_watts=15.0,
    price_usd=150.0,
)

BOARD_CATALOG: dict[str, MotherboardModel] = {
    b.model: b for b in (GA_Q87TN, LITTLEFE_ATOM_BOARD, LIMULUS_NODE_BOARD)
}
