"""CPU coolers and the clearance/fit rules.

Straight from Section 5.1: the Atom D510 got by with a passive heat sink plus
a small add-on fan, but the 43 W Celeron needs a real CPU fan — and "the fan
that comes packaged with the Celeron G1840 processor ... is too large to fit
in the space allocated per LittleFe node.  You need to use a lower-profile
fan assembly.  We chose the Rosewill RCX-Z775-LP 80mm Sleeve Low Profile CPU
Cooler as it fits well in the allotted space."

Fit is checked two ways:

* geometric: ``cooler.height_mm <= board.cpu_clearance_mm``
* thermal: ``cooler.max_tdp_watts >= cpu.tdp_watts``
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CatalogError, ClearanceError
from .cpu import CpuModel
from .motherboard import MotherboardModel

__all__ = [
    "CoolerModel",
    "PASSIVE_SINK_PLUS_FAN",
    "INTEL_STOCK_LGA1150",
    "ROSEWILL_RCX_Z775_LP",
    "COOLER_CATALOG",
    "check_cooler_fit",
]


@dataclass(frozen=True)
class CoolerModel:
    """A CPU cooler SKU."""

    model: str
    height_mm: float
    max_tdp_watts: float
    power_watts: float  # fan draw
    price_usd: float

    def __post_init__(self) -> None:
        if self.height_mm <= 0:
            raise CatalogError(f"cooler {self.model} has non-positive height")
        if self.max_tdp_watts <= 0:
            raise CatalogError(f"cooler {self.model} has non-positive capacity")


#: The original LittleFe arrangement: heat sink + small add-on fan over fins.
PASSIVE_SINK_PLUS_FAN = CoolerModel(
    model="heatsink + 40mm add-on fan",
    height_mm=20.0,
    max_tdp_watts=15.0,
    power_watts=0.6,
    price_usd=8.0,
)

#: The boxed cooler bundled with the Celeron G1840 — too tall for LittleFe.
INTEL_STOCK_LGA1150 = CoolerModel(
    model="Intel stock LGA-1150 cooler",
    height_mm=60.0,
    max_tdp_watts=84.0,
    power_watts=1.8,
    price_usd=0.0,  # bundled
)

#: The low-profile cooler the paper actually used (Section 5.1).
ROSEWILL_RCX_Z775_LP = CoolerModel(
    model="Rosewill RCX-Z775-LP 80mm Low Profile",
    height_mm=37.0,
    max_tdp_watts=89.0,
    power_watts=1.6,
    price_usd=15.0,
)

COOLER_CATALOG: dict[str, CoolerModel] = {
    c.model: c
    for c in (PASSIVE_SINK_PLUS_FAN, INTEL_STOCK_LGA1150, ROSEWILL_RCX_Z775_LP)
}


def check_cooler_fit(
    cooler: CoolerModel,
    cpu: CpuModel,
    board: MotherboardModel,
    *,
    what: str = "node",
) -> None:
    """Validate a cooler against both the CPU's heat and the board's clearance.

    Raises :class:`~repro.errors.ClearanceError` naming the failing
    dimension.  This is the check that rejects the stock Celeron cooler in
    the LittleFe frame and accepts the Rosewill low-profile unit.
    """
    if cooler.height_mm > board.cpu_clearance_mm:
        raise ClearanceError(
            f"{what}: cooler {cooler.model!r} is {cooler.height_mm:.0f} mm tall "
            f"but {board.model!r} in its chassis slot allows only "
            f"{board.cpu_clearance_mm:.0f} mm"
        )
    if cooler.max_tdp_watts < cpu.tdp_watts:
        raise ClearanceError(
            f"{what}: cooler {cooler.model!r} is rated for "
            f"{cooler.max_tdp_watts:.0f} W but {cpu.model!r} dissipates "
            f"{cpu.tdp_watts:.2f} W"
        )
