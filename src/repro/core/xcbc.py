"""XCBC: the XSEDE-compatible basic cluster, built from scratch.

The paper's first distribution channel: "a Rocks Roll that does an 'all at
once, from scratch' installation of core components" (Abstract).  This
module builds that roll from the Table 2 catalogue and drives the full
installation — Rocks base + job management + Table 1 optional rolls + the
XSEDE roll — producing a cluster whose software surface the compatibility
audit can score.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyze.spec import ClusterDefinition
from ..errors import RocksError
from ..hardware.chassis import Machine
from ..network.dhcp import DhcpPlan
from ..rocks.installer import ProvisionedCluster, RocksInstaller, install_cluster
from ..rocks.kickstart import Profile
from ..rocks.roll import Roll, RollGraphFragment
from ..rocks.rolls_catalog import optional_rolls
from ..scheduler.queues import default_queue_for
from .packages_xsede import CATEGORY_XSEDE
from .release import CURRENT_RELEASE, get_xcbc_release, packages_for_release

__all__ = [
    "build_xsede_roll",
    "build_xcbc_cluster",
    "xcbc_cluster_definition",
    "XcbcBuildReport",
]


def build_xsede_roll(version: str = CURRENT_RELEASE.version) -> Roll:
    """The XSEDE roll at a given release.

    Everything installs on both appliances except the XSEDE Tools category
    (Globus Connect Server, Genesis II, GFFS) — grid endpoints live on the
    frontend.  Scheduler packages (torque/maui) are omitted here because the
    job-management roll owns them; the roll validates that assumption.
    """
    packages = [
        p
        for p in packages_for_release(version)
        if p.category != "Scheduler and Resource Manager"
    ]
    everywhere = tuple(
        p.name for p in packages if p.category != CATEGORY_XSEDE
    )
    frontend_only = tuple(p.name for p in packages if p.category == CATEGORY_XSEDE)
    fragments = (
        RollGraphFragment(
            node_name="xsede-runalike",
            packages=everywhere,
            attach_to=(Profile.FRONTEND, Profile.COMPUTE),
        ),
        RollGraphFragment(
            node_name="xsede-grid-services",
            packages=frontend_only,
            attach_to=(Profile.FRONTEND,),
            post_actions=("configure globus endpoint", "join GFFS namespace"),
        ),
    )
    return Roll(
        name="xsede",
        version=version,
        summary=f"XSEDE-compatible basic cluster roll {version}",
        packages=tuple(packages),
        fragments=fragments,
        optional=False,
    )


@dataclass
class XcbcBuildReport:
    """What a from-scratch XCBC build produced."""

    cluster: ProvisionedCluster
    roll_version: str
    scheduler: str

    @property
    def uniform_package_count(self) -> int:
        return len(self.cluster.installed_everywhere())


def build_xcbc_cluster(
    machine: Machine,
    *,
    scheduler: str = "torque",
    roll_version: str = CURRENT_RELEASE.version,
    include_optional_rolls: bool = True,
    extra_rolls: list[Roll] | None = None,
) -> XcbcBuildReport:
    """Run the complete XCBC from-scratch installation on a machine.

    This is the path Section 3 describes: Rocks install with the XSEDE roll
    selected, a job-management roll chosen, and (by default) the full Table
    1 optional roll set.  The machine must have a disk in every node —
    Rocks refuses diskless hardware (Section 5.1).
    """
    release = get_xcbc_release(roll_version)  # validates the version
    rolls: list[Roll] = [build_xsede_roll(roll_version)]
    if include_optional_rolls:
        rolls.extend(optional_rolls().values())
    for roll in extra_rolls or []:
        if any(r.name == roll.name for r in rolls):
            raise RocksError(f"roll {roll.name} selected twice")
        rolls.append(roll)
    cluster = install_cluster(
        machine,
        rolls=rolls,
        scheduler=scheduler,
        release=release.os_release,
    )
    return XcbcBuildReport(
        cluster=cluster, roll_version=roll_version, scheduler=scheduler
    )


def xcbc_cluster_definition(
    machine: Machine,
    *,
    scheduler: str = "torque",
    roll_version: str = CURRENT_RELEASE.version,
    include_optional_rolls: bool = True,
    name: str | None = None,
) -> ClusterDefinition:
    """The pre-flight view of an XCBC build: everything the static analyzer
    needs, with **nothing installed**.

    Mirrors :func:`build_xcbc_cluster`'s roll selection but stops after
    planning — graph and distribution come from the installer's
    side-effect-free build steps, so ``cluster-lint`` can vet the recipe
    before the (simulated) deployment spends any time on it.
    """
    get_xcbc_release(roll_version)  # validates the version
    rolls: list[Roll] = [build_xsede_roll(roll_version)]
    if include_optional_rolls:
        rolls.extend(optional_rolls().values())
    installer = RocksInstaller(machine, rolls=rolls, scheduler=scheduler)
    distribution = installer.build_distribution()
    return ClusterDefinition(
        name=name or machine.name,
        graph=installer.build_graph(),
        rolls=tuple(installer.rolls.values()),
        repositories=(distribution,),
        required_repo_ids=(distribution.repo_id,),
        machine=machine,
        dhcp_plan=DhcpPlan(),
        macs=tuple(n.mac_address for n in machine.compute_nodes),
        queues=(default_queue_for(machine),),
    )
