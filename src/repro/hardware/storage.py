"""Storage device models (HDD / SSD / mSATA).

Storage is load-bearing in Section 5.1: Rocks does not support diskless
installation, so turning a LittleFe into an XCBC training machine *requires*
adding a drive to every node.  The paper weighs a 2.5-inch laptop drive
against an internal mSATA module (the build uses Crucial 128 GB mSATA drives,
ref [29]) — mSATA wins on space and mechanical simplicity at the cost of a
little extra power per node.

The :class:`StorageModel.form_factor` drives the chassis fit check and
``mount`` distinguishes board-mounted (mSATA) from chassis-mounted drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import CatalogError

__all__ = [
    "StorageKind",
    "MountKind",
    "StorageModel",
    "CRUCIAL_M550_128_MSATA",
    "LAPTOP_HDD_500",
    "WD_RED_2TB",
    "STORAGE_CATALOG",
]


class StorageKind(str, Enum):
    """Broad device technology."""

    HDD = "hdd"
    SSD = "ssd"


class MountKind(str, Enum):
    """Where the device physically lives."""

    #: plugs into an mSATA slot directly on the motherboard
    BOARD = "board"
    #: occupies a drive bay / must be physically secured in the chassis
    CHASSIS = "chassis"


@dataclass(frozen=True)
class StorageModel:
    """A storage device SKU."""

    model: str
    kind: StorageKind
    mount: MountKind
    capacity_bytes: int
    form_factor: str  # "mSATA", "2.5in", "3.5in"
    power_watts: float
    price_usd: float
    read_mb_s: float = 300.0
    write_mb_s: float = 200.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise CatalogError(f"storage {self.model} has non-positive capacity")
        if self.power_watts < 0:
            raise CatalogError(f"storage {self.model} has negative power draw")


#: The drive the modified LittleFe uses (Section 5.1, ref [29]).
CRUCIAL_M550_128_MSATA = StorageModel(
    model="Crucial M550 128GB mSATA",
    kind=StorageKind.SSD,
    mount=MountKind.BOARD,
    capacity_bytes=128 * 10**9,
    form_factor="mSATA",
    power_watts=3.0,
    price_usd=75.0,
    read_mb_s=550.0,
    write_mb_s=350.0,
)

#: The alternative the paper considers: a physically mounted 2.5" laptop drive.
LAPTOP_HDD_500 = StorageModel(
    model="2.5in laptop HDD 500GB",
    kind=StorageKind.HDD,
    mount=MountKind.CHASSIS,
    capacity_bytes=500 * 10**9,
    form_factor="2.5in",
    power_watts=2.5,
    price_usd=45.0,
    read_mb_s=100.0,
    write_mb_s=90.0,
)

#: Bulk storage for head nodes (Limulus ships with local RAID storage).
WD_RED_2TB = StorageModel(
    model="WD Red 2TB 3.5in",
    kind=StorageKind.HDD,
    mount=MountKind.CHASSIS,
    capacity_bytes=2 * 10**12,
    form_factor="3.5in",
    power_watts=5.0,
    price_usd=95.0,
    read_mb_s=150.0,
    write_mb_s=140.0,
)

STORAGE_CATALOG: dict[str, StorageModel] = {
    s.model: s for s in (CRUCIAL_M550_128_MSATA, LAPTOP_HDD_500, WD_RED_2TB)
}
