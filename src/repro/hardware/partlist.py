"""Parts lists: the shopping list the LittleFe site publishes.

Section 5.1: "Instructions for XCBC on LittleFe clusters and the parts list
and building instructions are included in the LittleFe web site and class
materials."  :func:`render_parts_list` derives that document from a built
machine — quantities aggregated across nodes, per-line and grand totals —
so the published list can never drift from what the builder actually
assembles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .builder import BuildQuote, NETWORK_KIT_USD
from .chassis import Machine

__all__ = ["PartsLine", "parts_list", "render_parts_list"]


@dataclass(frozen=True)
class PartsLine:
    """One shopping-list row."""

    part: str
    family: str
    quantity: int
    unit_usd: float

    @property
    def extended_usd(self) -> float:
        return self.quantity * self.unit_usd


def parts_list(machine: Machine) -> list[PartsLine]:
    """Aggregate a machine into shopping-list lines (stable order)."""
    counts: Counter[tuple[str, str, float]] = Counter()
    for node in machine.nodes:
        counts[(node.board.model, "board", node.board.price_usd)] += 1
        if node.board.socket is not None:
            counts[(node.cpu.model, "cpu", node.cpu.price_usd)] += 1
        else:
            counts[(node.board.model + " (CPU on board)", "cpu", 0.0)] += 1
        for dimm in node.dimms:
            counts[(dimm.model, "memory", dimm.price_usd)] += 1
        for drive in node.storage:
            counts[(drive.model, "storage", drive.price_usd)] += 1
        if node.cooler is not None:
            counts[(node.cooler.model, "cooling", node.cooler.price_usd)] += 1
        if node.psu is not None:
            counts[(node.psu.model, "power", node.psu.price_usd)] += 1
        for gpu in node.gpus:
            counts[(gpu.model, "gpu", gpu.price_usd)] += 1
    counts[(machine.chassis.model, "chassis", machine.chassis.price_usd)] += 1
    if machine.shared_psu is not None:
        counts[(machine.shared_psu.model, "power", machine.shared_psu.price_usd)] += 1
    lines = [
        PartsLine(part=part, family=family, quantity=qty, unit_usd=price)
        for (part, family, price), qty in counts.items()
    ]
    return sorted(lines, key=lambda l: (l.family, l.part))


def render_parts_list(quote: BuildQuote) -> str:
    """The published document: rows, totals, and the quoted comparison."""
    machine = quote.machine
    lines = [
        f"Parts list — {machine.name} "
        f"({machine.node_count} nodes, {machine.total_cores} cores)",
        "",
        f"{'qty':>4}  {'part':<42}{'family':<10}{'unit':>9}{'ext':>10}",
    ]
    total = 0.0
    for row in parts_list(machine):
        lines.append(
            f"{row.quantity:>4}  {row.part:<42}{row.family:<10}"
            f"${row.unit_usd:>8.2f}${row.extended_usd:>9.2f}"
        )
        total += row.extended_usd
    lines.append(
        f"{1:>4}  {'switch, cabling, AC bricks, hardware':<42}"
        f"{'network':<10}${NETWORK_KIT_USD:>8.2f}${NETWORK_KIT_USD:>9.2f}"
    )
    total += NETWORK_KIT_USD
    lines.append("")
    lines.append(f"{'parts total':<58}${total:>9.2f}")
    lines.append(f"{'published price':<58}${quote.quoted_usd:>9.2f}")
    return "\n".join(lines)
