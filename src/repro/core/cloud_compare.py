"""Small-cluster capex vs commercial-cloud opex (Section 8).

"With a small cluster, one-time monies can be pooled to purchase a hardware
resource ... Cost is fixed at purchase time ... Use of commercial cloud is
typically an ongoing service expense ... It can be surprisingly
straightforward for an enterprising student to use more resources (and
commit more university funds) than intended, since not all commercial
services support proactive capping of usage."

The model: a cluster costs its purchase price plus electricity; cloud costs
core-hours consumed times the instance rate.  :func:`crossover_utilisation`
finds the duty cycle at which the cluster pays for itself, and
:func:`runaway_student_scenario` prices the uncapped-usage failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..hardware.chassis import Machine

__all__ = [
    "ClusterCostModel",
    "CloudCostModel",
    "CostComparison",
    "compare",
    "crossover_utilisation",
    "runaway_student_scenario",
]

#: hours in a (non-leap) year
HOURS_PER_YEAR = 8760.0

#: 2015-era on-demand compute: roughly $0.05 per core-hour (c4-class).
DEFAULT_CLOUD_RATE_PER_CORE_HOUR = 0.05
#: US average electricity, $/kWh.
DEFAULT_ELECTRICITY_RATE = 0.12


@dataclass(frozen=True)
class ClusterCostModel:
    """Owning a small cluster."""

    purchase_usd: float
    draw_watts: float
    lifetime_years: float = 4.0
    electricity_usd_per_kwh: float = DEFAULT_ELECTRICITY_RATE
    maintenance_usd_per_year: float = 0.0

    def total_cost_usd(self, *, utilisation: float) -> float:
        """Lifetime cost at a duty cycle (power scales with utilisation;
        idle draw is folded into the 35 % floor)."""
        if not 0.0 <= utilisation <= 1.0:
            raise ReproError(f"utilisation out of [0,1]: {utilisation}")
        duty = 0.35 + 0.65 * utilisation  # idle floor + load-proportional
        kwh = self.draw_watts / 1000.0 * HOURS_PER_YEAR * self.lifetime_years * duty
        return (
            self.purchase_usd
            + kwh * self.electricity_usd_per_kwh
            + self.maintenance_usd_per_year * self.lifetime_years
        )

    def core_hours(self, cores: int, *, utilisation: float) -> float:
        """Useful core-hours delivered over the lifetime."""
        return cores * HOURS_PER_YEAR * self.lifetime_years * utilisation


@dataclass(frozen=True)
class CloudCostModel:
    """Renting the same computation."""

    usd_per_core_hour: float = DEFAULT_CLOUD_RATE_PER_CORE_HOUR
    #: monthly spending cap; None models providers without proactive capping
    monthly_cap_usd: float | None = None

    def cost_for(self, core_hours: float) -> float:
        if core_hours < 0:
            raise ReproError("negative core-hours")
        return core_hours * self.usd_per_core_hour


@dataclass(frozen=True)
class CostComparison:
    """Both options priced for the same delivered computation."""

    utilisation: float
    cluster_usd: float
    cloud_usd: float
    core_hours: float

    @property
    def cluster_wins(self) -> bool:
        return self.cluster_usd < self.cloud_usd


def compare(
    machine: Machine,
    purchase_usd: float,
    *,
    utilisation: float,
    cloud: CloudCostModel | None = None,
    lifetime_years: float = 4.0,
) -> CostComparison:
    """Price a machine against the cloud at one duty cycle."""
    cloud = cloud or CloudCostModel()
    cluster = ClusterCostModel(
        purchase_usd=purchase_usd,
        draw_watts=machine.draw_watts,
        lifetime_years=lifetime_years,
    )
    core_hours = cluster.core_hours(machine.total_cores, utilisation=utilisation)
    return CostComparison(
        utilisation=utilisation,
        cluster_usd=cluster.total_cost_usd(utilisation=utilisation),
        cloud_usd=cloud.cost_for(core_hours),
        core_hours=core_hours,
    )


def crossover_utilisation(
    machine: Machine,
    purchase_usd: float,
    *,
    cloud: CloudCostModel | None = None,
    lifetime_years: float = 4.0,
    tolerance: float = 1e-4,
) -> float | None:
    """The duty cycle above which owning beats renting (bisection).

    Returns ``None`` if the cluster never wins within [0, 1] (e.g. a very
    expensive machine at very low rates).
    """
    def margin(u: float) -> float:
        c = compare(
            machine, purchase_usd, utilisation=u, cloud=cloud,
            lifetime_years=lifetime_years,
        )
        return c.cloud_usd - c.cluster_usd  # positive = cluster wins

    lo, hi = 0.0, 1.0
    if margin(hi) < 0:
        return None
    if margin(lo) > 0:
        return 0.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def runaway_student_scenario(
    *,
    cores: int = 64,
    days: int = 30,
    cloud: CloudCostModel | None = None,
) -> tuple[float, float]:
    """The uncapped-usage failure mode: a student leaves ``cores`` running
    for ``days``.

    Returns ``(uncapped cost, billed cost)`` — they differ only when the
    provider supports a proactive cap.  On a purchased cluster the same
    mistake costs nothing beyond electricity already budgeted.
    """
    cloud = cloud or CloudCostModel()
    core_hours = cores * 24.0 * days
    uncapped = cloud.cost_for(core_hours)
    if cloud.monthly_cap_usd is None:
        return uncapped, uncapped
    months = days / 30.0
    return uncapped, min(uncapped, cloud.monthly_cap_usd * months)
