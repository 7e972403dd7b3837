"""Stampede-mini: the XSEDE reference cluster.

Section 2 pins "current best practices" to "the current Stampede system":
XCBC's whole point is that a campus cluster *runs alike* it.  This module
builds a scaled-down Stampede — Sandy Bridge rack nodes, SLURM, the full
run-alike catalogue plus grid services — so compatibility can be audited
against a live reference instead of a static list, and the campus-bridging
examples have a real far end for job scripts and data.
"""

from __future__ import annotations

from ..core.packages_xsede import xsede_packages
from ..core.machines import ExistingCluster, build_existing_cluster
from ..distro.distribution import CENTOS_6_5
from ..errors import ReproError
from ..hardware.chassis import ChassisModel, populate
from ..hardware.cooling import CoolerModel
from ..hardware.cpu import XEON_E5_2670
from ..hardware.memory import DDR3_8G_UDIMM
from ..hardware.motherboard import MotherboardModel
from ..hardware.nic import GIGE_ONBOARD
from ..hardware.node import NodeRole, assemble_node
from ..hardware.power import PsuModel
from ..hardware.storage import WD_RED_2TB
from ..rpm.package import Package
from ..rpm.transaction import Transaction

__all__ = ["build_stampede_mini"]

_SNB_BOARD = MotherboardModel(
    model="Stampede node board (LGA-2011)",
    form_factor="ATX",
    socket="LGA-2011",
    dimm_slots=8,
    msata_slots=0,
    sata_ports=4,
    nics=(GIGE_ONBOARD, GIGE_ONBOARD),
    cpu_clearance_mm=90.0,
    power_watts=35.0,
    price_usd=500.0,
)

_SNB_COOLER = CoolerModel(
    model="Stampede 2U cooler", height_mm=70.0, max_tdp_watts=160.0,
    power_watts=8.0, price_usd=30.0,
)

_SNB_PSU = PsuModel(
    model="Stampede node PSU", rating_watts=1400.0, efficiency=0.93,
    price_usd=250.0,
)

#: SLURM as the reference scheduler (Stampede ran SLURM).
_SLURM_STACK = (
    Package(
        name="slurm",
        version="14.03.0",
        category="vendor",
        summary="SLURM workload manager",
        commands=("sbatch", "squeue", "scancel", "sinfo", "srun"),
        services=("slurmctld", "slurmd"),
    ),
    Package(
        name="munge",
        version="0.5.11",
        category="vendor",
        summary="MUNGE auth",
        services=("munged",),
    ),
    # Stampede fronts its software through environment modules, same as the
    # Rocks base roll does on campus clusters.
    Package(
        name="modules",
        version="3.2.10",
        category="vendor",
        summary="Environment modules",
        commands=("module", "modulecmd"),
    ),
)


def build_stampede_mini(name: str = "stampede-mini", *, nodes: int = 8) -> ExistingCluster:
    """A scaled Stampede: E5-2670 nodes, SLURM, the full run-alike stack.

    ``nodes`` includes the login (frontend) node.  Every node carries the
    whole Table 2 catalogue (XSEDE installs it everywhere) plus the grid
    services on the login node — making the cluster a valid far end for
    GridFTP/GFFS and a 100 %-scoring audit reference.
    """
    if nodes < 2:
        raise ReproError("stampede-mini needs at least a login and one compute node")
    rack = ChassisModel(
        model="Stampede rack (scaled)",
        slots=nodes,
        max_board_form_factor="ATX",
        weight_lb=40.0 * nodes,
        portable=False,
        shared_psu=None,
        price_usd=2000.0,
    )
    built = [
        assemble_node(
            f"{name}-{'login' if i == 0 else f'c{i:03d}'}",
            role=NodeRole.FRONTEND if i == 0 else NodeRole.COMPUTE,
            board=_SNB_BOARD,
            cpu=XEON_E5_2670,
            dimms=(DDR3_8G_UDIMM,) * 4,
            storage=(WD_RED_2TB,),
            cooler=_SNB_COOLER,
            psu=_SNB_PSU,
        )
        for i in range(nodes)
    ]
    machine = populate(name, rack, built)
    cluster = build_existing_cluster(
        machine, release=CENTOS_6_5, vendor_packages=_SLURM_STACK
    )
    # XSEDE installs its software everywhere; grid endpoints on the login node.
    for host in cluster.hosts():
        db = cluster.client_for(host).db
        txn = Transaction(db)
        for pkg in xsede_packages():
            if pkg.category == "Scheduler and Resource Manager":
                continue  # SLURM site: no torque/maui
            if pkg.category == "XSEDE Tools" and host is not cluster.frontend:
                continue
            if not db.has(pkg.name):
                txn.install(pkg)
        if not txn.is_empty:
            txn.commit()
    return cluster
