"""Memory (DIMM) models.

Memory capacity matters to the reproduction in two places:

* HPL problem sizing — the Linpack N is chosen to fill ~80 % of aggregate
  memory (see :mod:`repro.linpack.hpl`), so per-node RAM feeds Rmax.
* The power budget — DIMMs draw a few watts each and the modified LittleFe's
  per-node PSU sizing (Section 5.1) has to account for every component.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CatalogError

__all__ = ["DimmModel", "DDR3_4G_SODIMM", "DDR3_8G_UDIMM", "DIMM_CATALOG"]


@dataclass(frozen=True)
class DimmModel:
    """A memory module SKU."""

    model: str
    capacity_bytes: int
    generation: str  # e.g. "DDR3"
    speed_mt_s: int  # mega-transfers per second (DDR3-1600 -> 1600)
    power_watts: float
    price_usd: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise CatalogError(f"DIMM {self.model} has non-positive capacity")
        if self.speed_mt_s <= 0:
            raise CatalogError(f"DIMM {self.model} has non-positive speed")


#: 4 GiB DDR3 SO-DIMM as used on mini-ITX boards in the LittleFe build.
DDR3_4G_SODIMM = DimmModel(
    model="DDR3-1600 4GiB SO-DIMM",
    capacity_bytes=4 * 1024**3,
    generation="DDR3",
    speed_mt_s=1600,
    power_watts=3.0,
    price_usd=32.0,
)

#: 8 GiB DDR3 UDIMM as used in the Limulus HPC200 nodes.
DDR3_8G_UDIMM = DimmModel(
    model="DDR3-1600 8GiB UDIMM",
    capacity_bytes=8 * 1024**3,
    generation="DDR3",
    speed_mt_s=1600,
    power_watts=4.0,
    price_usd=58.0,
)

DIMM_CATALOG: dict[str, DimmModel] = {
    d.model: d for d in (DDR3_4G_SODIMM, DDR3_8G_UDIMM)
}
