"""The Table 3 deployment registry, rebuilt in simulation.

Table 3 lists the campus clusters deployed with XSEDE Campus Bridging team
involvement: site, nodes, cores, Rpeak, and notes.  Section 4 adds the
adoption split: Howard, Michigan State and Marshall built from the ground up
with the XCBC Rocks media; Montana State and Hawaii used the package
repository (XNIT).  The IU LittleFe and Limulus rows are the Section 5
machines.

Each :class:`SiteDeployment` can be **rebuilt**: hardware from the parts
catalogue (calibrated CPUs for the unnamed campus silicon — see
:func:`~repro.hardware.cpu.calibrated_cpu`'s docstring for the substitution
policy), then software through the site's actual adoption path (XCBC
from-scratch or XNIT retrofit).  The Table 3 bench checks the rebuilt Rpeak
against the published numbers and the published totals (304 nodes, 2708
cores, 49.61 TFLOPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import DeploymentError
from ..hardware.chassis import Machine, populate
from ..hardware.cooling import CoolerModel
from ..hardware.cpu import calibrated_cpu
from ..hardware.gpu import calibrated_gpu
from ..hardware.memory import DDR3_8G_UDIMM
from ..hardware.motherboard import MotherboardModel
from ..hardware.nic import GIGE_ONBOARD
from ..hardware.node import Node, NodeRole, assemble_node
from ..hardware.power import PsuModel
from ..hardware.builder import build_limulus_hpc200, build_littlefe_modified

__all__ = [
    "AdoptionPath",
    "SiteDeployment",
    "TABLE3_SITES",
    "build_synthetic_fleet",
    "rebuild_site_hardware",
    "table3_totals",
    "PETAFLOPS_GOAL_2020_GFLOPS",
]

#: "By the end of 2020 ... exceed half a PetaFLOPS" (Section 4).
PETAFLOPS_GOAL_2020_GFLOPS = 500_000.0


class AdoptionPath(str, Enum):
    """How a site adopted the toolkit (Section 4)."""

    XCBC = "xcbc-from-scratch"
    XNIT = "xnit-repository"


@dataclass(frozen=True)
class SiteDeployment:
    """One Table 3 row."""

    site: str
    nodes: int
    cores: int
    rpeak_tflops: float
    adoption: AdoptionPath
    other_info: str = ""
    gpu_nodes: int = 0
    gpu_cuda_cores: int = 0

    def __post_init__(self) -> None:
        if self.nodes <= 0 or self.cores <= 0:
            raise DeploymentError(f"{self.site}: nodes/cores must be positive")
        if self.cores % self.nodes != 0:
            raise DeploymentError(
                f"{self.site}: {self.cores} cores do not divide evenly over "
                f"{self.nodes} nodes"
            )

    @property
    def cores_per_node(self) -> int:
        return self.cores // self.nodes

    @property
    def rpeak_gflops(self) -> float:
        return self.rpeak_tflops * 1000.0


#: Table 3, verbatim (plus the Section 4 adoption split).
TABLE3_SITES: tuple[SiteDeployment, ...] = (
    SiteDeployment(
        site="University of Kansas",
        nodes=220, cores=1760, rpeak_tflops=26.0,
        adoption=AdoptionPath.XCBC,
        other_info="Will be in production in summer 2015",
    ),
    SiteDeployment(
        site="Montana State University",
        nodes=36, cores=576, rpeak_tflops=11.98,
        adoption=AdoptionPath.XNIT,
        other_info="300 TB of Lustre storage",
    ),
    SiteDeployment(
        site="Marshall University",
        nodes=22, cores=264, rpeak_tflops=6.0,
        adoption=AdoptionPath.XCBC,
        other_info="8 GPU Nodes, 3584 CUDA Cores",
        gpu_nodes=8, gpu_cuda_cores=3584,
    ),
    SiteDeployment(
        site="Pacific Basin Agricultural Research Center (Univ. of Hawaii - Hilo)",
        nodes=16, cores=80, rpeak_tflops=4.3,
        adoption=AdoptionPath.XNIT,
        other_info="40TB storage, 60TB scratch",
    ),
    SiteDeployment(
        site="Indiana University (LittleFe)",
        nodes=6, cores=12, rpeak_tflops=0.54,
        adoption=AdoptionPath.XCBC,
        other_info="LittleFe Teaching Cluster",
    ),
    SiteDeployment(
        site="Indiana University (Limulus)",
        nodes=4, cores=16, rpeak_tflops=0.79,
        adoption=AdoptionPath.XNIT,
        other_info="Limulus HPC 200 Cluster",
    ),
)


#: Section 4's adopter narrative, beyond the Table 3 rows: sites that ran a
#: prior management system and were "taken down and rebuilt from scratch
#: with XCBC".
SECTION4_REBUILT_SITES: tuple[str, ...] = (
    "Howard University",       # "operated by a professor of chemistry ...
                               # rebuilt from scratch with XCBC, to the
                               # significant satisfaction of the professor"
    "Marshall University",     # "leveraged the XCBC to replace a prior
                               # cluster management system"
)



def capacity_goal_projection(
    *,
    start_year: float = 2015.5,
    goal_year: float = 2020.0,
) -> tuple[float, float]:
    """The Section 4 goal, quantified.

    "By the end of 2020, nearing the end of the second XSEDE funding, our
    goal is to have the aggregate processing capacity of the clusters making
    use of XCBC and XNIT exceed half a PetaFLOPS."

    Returns ``(required growth factor, required annual growth rate)`` from
    the Table 3 aggregate to the goal — the number the Campus Bridging team
    implicitly signed up for (about 10x, ~67 %/year).
    """
    if goal_year <= start_year:
        raise DeploymentError("goal year must be after the start year")
    _nodes, _cores, tflops = table3_totals()
    current_gflops = tflops * 1000.0
    factor = PETAFLOPS_GOAL_2020_GFLOPS / current_gflops
    years = goal_year - start_year
    annual = factor ** (1.0 / years) - 1.0
    return factor, annual


def table3_totals() -> tuple[int, int, float]:
    """The published totals row: (nodes, cores, Rpeak TFLOPS)."""
    return (
        sum(s.nodes for s in TABLE3_SITES),
        sum(s.cores for s in TABLE3_SITES),
        round(sum(s.rpeak_tflops for s in TABLE3_SITES), 2),
    )


def _server_board(socket: str) -> MotherboardModel:
    """A generic dual-NIC server board matched to a calibrated CPU socket."""
    return MotherboardModel(
        model=f"generic server board ({socket})",
        form_factor="ATX",
        socket=socket,
        dimm_slots=8,
        msata_slots=0,
        sata_ports=6,
        nics=(GIGE_ONBOARD, GIGE_ONBOARD),
        cpu_clearance_mm=80.0,
        power_watts=30.0,
        price_usd=400.0,
    )


_SERVER_COOLER = CoolerModel(
    model="2U server cooler", height_mm=64.0, max_tdp_watts=150.0,
    power_watts=6.0, price_usd=25.0,
)

_SERVER_PSU = PsuModel(
    model="server 1100W PSU", rating_watts=1100.0, efficiency=0.92, price_usd=180.0
)


def rebuild_site_hardware(site: SiteDeployment) -> Machine:
    """Rebuild a site's hardware so its Rpeak matches the published figure.

    The two IU rows rebuild as the actual Section 5 machines; campus sites
    get rack nodes around a calibrated CPU (and, for Marshall, calibrated
    GPUs distributed over the stated GPU-node count).
    """
    if "LittleFe" in site.other_info:
        return build_littlefe_modified("littlefe-iu").machine
    if "Limulus" in site.other_info:
        return build_limulus_hpc200("limulus-hpc200").machine

    cpu_rpeak_gflops = site.rpeak_gflops
    gpus_per_node: dict[int, int] = {}
    gpu_model = None
    if site.gpu_nodes:
        # Split the published Rpeak between CPU cores and the GPU pool using
        # a Westmere-class CPU contribution (4 flops/cycle at 2.8 GHz, which
        # matches Section 4's "2.8TF theoretical" description of Marshall's
        # CPU partition); GPUs absorb the remainder.
        cpu_rpeak_gflops = site.cores * 2.8 * 4
        gpu_total = site.rpeak_gflops - cpu_rpeak_gflops
        if gpu_total <= 0:
            raise DeploymentError(f"{site.site}: GPU share is non-positive")
        per_gpu = gpu_total / site.gpu_nodes
        gpu_model = calibrated_gpu(
            f"{site.site} GPU",
            cuda_cores=site.gpu_cuda_cores // site.gpu_nodes,
            target_rpeak_gflops=per_gpu,
        )
        for i in range(site.gpu_nodes):
            gpus_per_node[site.nodes - 1 - i] = 1  # GPUs in the last racks

    per_socket = cpu_rpeak_gflops / site.nodes
    flops_per_cycle = 4 if site.gpu_nodes else 8
    cpu = calibrated_cpu(
        f"{site.site} CPU",
        cores=site.cores_per_node,
        target_rpeak_gflops=per_socket,
        flops_per_cycle=flops_per_cycle,
    )
    board = _server_board(cpu.socket)

    slug = "".join(w[0] for w in site.site.split()[:3]).lower()
    nodes: list[Node] = []
    from ..hardware.storage import WD_RED_2TB

    for i in range(site.nodes):
        gpu_count = gpus_per_node.get(i, 0)
        nodes.append(
            assemble_node(
                f"{slug}-n{i}",
                role=NodeRole.FRONTEND if i == 0 else NodeRole.COMPUTE,
                board=board,
                cpu=cpu,
                dimms=(DDR3_8G_UDIMM,) * 4,
                storage=(WD_RED_2TB,),
                cooler=_SERVER_COOLER,
                psu=_SERVER_PSU,
                gpus=(gpu_model,) * gpu_count if gpu_model else (),
            )
        )
    # Racks are one node per 1U chassis; model the site as one Machine with
    # a rack "chassis" large enough for the node count.
    from ..hardware.chassis import ChassisModel

    rack = ChassisModel(
        model=f"{site.site} rack",
        slots=site.nodes,
        max_board_form_factor="ATX",
        weight_lb=30.0 * site.nodes,
        portable=False,
        shared_psu=None,
        price_usd=150.0 * ((site.nodes + 41) // 42),
    )
    return populate(slug, rack, nodes)


def build_synthetic_fleet(
    node_count: int, *, cores_per_node: int = 8, name: str = "fleet"
) -> Machine:
    """A synthetic fleet-scale site: ``node_count`` uniform rack nodes
    (node 0 is the frontend) around one calibrated Westmere-class CPU.

    Table 3 tops out at Kansas's 220 nodes; the scale benches and the
    wave-install path need sites an order of magnitude past that.  This
    builds them the same way :func:`rebuild_site_hardware` builds a campus
    row — same parts catalogue, same ``populate`` wiring — just without a
    published Rpeak to calibrate against (2.8 GHz x 8 flops/cycle, the
    Westmere figure the Marshall split uses).
    """
    if node_count < 2:
        raise DeploymentError(
            f"{name}: a fleet needs a frontend plus at least one compute "
            f"node, got {node_count} node(s)"
        )
    if cores_per_node <= 0:
        raise DeploymentError(f"{name}: cores per node must be positive")
    cpu = calibrated_cpu(
        f"{name} CPU",
        cores=cores_per_node,
        target_rpeak_gflops=cores_per_node * 2.8 * 8,
        flops_per_cycle=8,
    )
    board = _server_board(cpu.socket)
    from ..hardware.storage import WD_RED_2TB

    nodes = [
        assemble_node(
            f"{name}-n{i}",
            role=NodeRole.FRONTEND if i == 0 else NodeRole.COMPUTE,
            board=board,
            cpu=cpu,
            dimms=(DDR3_8G_UDIMM,) * 4,
            storage=(WD_RED_2TB,),
            cooler=_SERVER_COOLER,
            psu=_SERVER_PSU,
        )
        for i in range(node_count)
    ]
    from ..hardware.chassis import ChassisModel

    rack = ChassisModel(
        model=f"{name} rack",
        slots=node_count,
        max_board_form_factor="ATX",
        weight_lb=30.0 * node_count,
        portable=False,
        shared_psu=None,
        price_usd=150.0 * ((node_count + 41) // 42),
    )
    return populate(name, rack, nodes)
