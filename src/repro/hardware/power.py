"""Power supplies and power-budget accounting.

Power is a first-class constraint in Section 5.1: the jump from the Atom D510
(10.56 W) to the Celeron G1840 (43.06 W) — plus a drive and a fan per node —
is exactly why the modified LittleFe "had to diverge from the single power
supply LittleFe calls for" and add an individual supply per node.  The
Limulus HPC200 instead ships a single 850 W supply for all four nodes.

:func:`check_budget` enforces supply >= draw x headroom and is called by the
node/chassis builders; violating it raises :class:`PowerBudgetError` rather
than producing a silently impossible machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import CatalogError, PowerBudgetError

__all__ = [
    "PsuModel",
    "PICO_PSU_80",
    "PICO_PSU_160",
    "ATX_450W",
    "LIMULUS_850W",
    "PSU_CATALOG",
    "check_budget",
    "total_draw",
]

#: Engineering headroom: the supply must exceed the worst-case draw by this
#: factor (PSUs are neither perfectly efficient nor happy at 100 %).
HEADROOM = 1.2


@dataclass(frozen=True)
class PsuModel:
    """A power-supply SKU."""

    model: str
    rating_watts: float
    efficiency: float  # fraction of wall power delivered (0-1]
    price_usd: float

    def __post_init__(self) -> None:
        if self.rating_watts <= 0:
            raise CatalogError(f"PSU {self.model} has non-positive rating")
        if not 0.0 < self.efficiency <= 1.0:
            raise CatalogError(f"PSU {self.model} efficiency out of (0,1]")


#: Historical LittleFe per-frame DC brick: enough for six Atom boards only.
PICO_PSU_80 = PsuModel("picoPSU-80", rating_watts=80.0, efficiency=0.90, price_usd=30.0)
#: Per-node supply used by the modified LittleFe (one per board).
PICO_PSU_160 = PsuModel("picoPSU-160-XT", rating_watts=160.0, efficiency=0.92, price_usd=50.0)
#: Generic ATX supply for rack servers / head nodes.
ATX_450W = PsuModel("ATX 450W 80+ Bronze", rating_watts=450.0, efficiency=0.85, price_usd=55.0)
#: The Limulus HPC200's single case supply (Section 5.2: "an 850W power
#: supply, allowing for more powerful CPUs").
LIMULUS_850W = PsuModel("Limulus 850W case PSU", rating_watts=850.0, efficiency=0.90, price_usd=120.0)

PSU_CATALOG: dict[str, PsuModel] = {
    p.model: p for p in (PICO_PSU_80, PICO_PSU_160, ATX_450W, LIMULUS_850W)
}


def total_draw(watt_values: Iterable[float]) -> float:
    """Sum component draws, rejecting negative entries (a modelling bug)."""
    total = 0.0
    for w in watt_values:
        if w < 0:
            raise PowerBudgetError(f"negative component draw: {w}")
        total += w
    return total


def check_budget(psu: PsuModel, draw_watts: float, *, what: str = "build") -> float:
    """Verify ``psu`` can carry ``draw_watts`` with :data:`HEADROOM` margin.

    Returns the remaining margin in watts.  Raises
    :class:`~repro.errors.PowerBudgetError` with a diagnostic naming the
    build when the budget is violated — this is the check the historical
    LittleFe single-PSU design fails once Haswell CPUs, drives, and fans are
    added (see ``repro.paper``'s ``littlefe_modification`` artefact).
    """
    required = draw_watts * HEADROOM
    if required > psu.rating_watts:
        raise PowerBudgetError(
            f"{what}: draw {draw_watts:.2f} W x headroom {HEADROOM:.2f} "
            f"= {required:.2f} W exceeds {psu.model} rating "
            f"{psu.rating_watts:.0f} W"
        )
    return psu.rating_watts - required
