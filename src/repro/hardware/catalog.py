"""The unified parts catalogue.

A thin aggregation layer over the per-component catalogues so tools (and the
examples) can price a bill of materials by part name without knowing which
component family a part belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import CatalogError
from .cooling import COOLER_CATALOG
from .cpu import CPU_CATALOG
from .memory import DIMM_CATALOG
from .motherboard import BOARD_CATALOG
from .nic import NIC_CATALOG
from .power import PSU_CATALOG
from .storage import STORAGE_CATALOG

__all__ = ["PartEntry", "all_parts", "find_part", "price_bom", "BomLine"]


@dataclass(frozen=True)
class PartEntry:
    """A catalogue row: name, family, unit price, and the model object."""

    name: str
    family: str
    price_usd: float
    model: object


def all_parts() -> dict[str, PartEntry]:
    """Every known part, keyed by its model name.

    Raises :class:`CatalogError` if two families ever claim the same model
    name — the catalogue must stay unambiguous.
    """
    families: list[tuple[str, Mapping[str, object]]] = [
        ("cpu", CPU_CATALOG),
        ("dimm", DIMM_CATALOG),
        ("storage", STORAGE_CATALOG),
        ("nic", NIC_CATALOG),
        ("board", BOARD_CATALOG),
        ("psu", PSU_CATALOG),
        ("cooler", COOLER_CATALOG),
    ]
    parts: dict[str, PartEntry] = {}
    for family, catalog in families:
        for name, model in catalog.items():
            if name in parts:
                raise CatalogError(
                    f"part name {name!r} appears in both "
                    f"{parts[name].family!r} and {family!r}"
                )
            parts[name] = PartEntry(
                name=name,
                family=family,
                price_usd=float(getattr(model, "price_usd")),
                model=model,
            )
    return parts


def find_part(name: str) -> PartEntry:
    """Look up one part across all families.

    Raises :class:`CatalogError` for an unknown name, listing the known
    ones to make typos easy to spot.
    """
    parts = all_parts()
    try:
        return parts[name]
    except KeyError:
        known = ", ".join(sorted(parts))
        raise CatalogError(f"unknown part {name!r}; known: {known}") from None


@dataclass(frozen=True)
class BomLine:
    """One bill-of-materials line."""

    part: PartEntry
    quantity: int

    @property
    def extended_usd(self) -> float:
        return self.part.price_usd * self.quantity


def price_bom(items: Iterable[tuple[str, int]]) -> tuple[list[BomLine], float]:
    """Price a bill of materials given ``(part name, quantity)`` pairs.

    Returns the expanded lines and the grand total.  Unknown parts raise
    :class:`CatalogError`; non-positive quantities are rejected.
    """
    lines: list[BomLine] = []
    total = 0.0
    for name, qty in items:
        if qty <= 0:
            raise CatalogError(f"BOM quantity for {name!r} must be positive: {qty}")
        part = find_part(name)
        line = BomLine(part=part, quantity=qty)
        lines.append(line)
        total += line.extended_usd
    return lines, total
