"""Network interface models.

Section 5.1: "We used a hard-wired connection using a dual-homed headnode.
All nodes utilize the same motherboard, but only one of the two network
interfaces will be used on compute nodes."  NIC counts per board therefore
matter: the GA-Q87TN's two interfaces are what make the dual-homed head node
possible without an add-in card.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CatalogError

__all__ = ["NicModel", "GIGE_ONBOARD", "FASTE_ONBOARD", "NIC_CATALOG"]


@dataclass(frozen=True)
class NicModel:
    """A network interface SKU (usually on-board)."""

    model: str
    speed_gbps: float
    latency_us: float
    power_watts: float
    price_usd: float = 0.0  # on-board NICs carry no marginal cost

    def __post_init__(self) -> None:
        if self.speed_gbps <= 0:
            raise CatalogError(f"NIC {self.model} has non-positive speed")
        if self.latency_us <= 0:
            raise CatalogError(f"NIC {self.model} has non-positive latency")

    @property
    def bandwidth_bytes_s(self) -> float:
        """Usable bandwidth in bytes/s (line rate; protocol overhead is
        applied by the fabric model, not here)."""
        return self.speed_gbps * 1e9 / 8.0


#: Gigabit Ethernet, the interconnect of both LittleFe and Limulus.
GIGE_ONBOARD = NicModel(
    model="Intel I217 GigE (onboard)",
    speed_gbps=1.0,
    latency_us=50.0,
    power_watts=1.0,
)

#: Fast Ethernet, for modelling truly ancient teaching hardware.
FASTE_ONBOARD = NicModel(
    model="100Mb Fast Ethernet (onboard)",
    speed_gbps=0.1,
    latency_us=90.0,
    power_watts=0.5,
)

NIC_CATALOG: dict[str, NicModel] = {n.model: n for n in (GIGE_ONBOARD, FASTE_ONBOARD)}
