"""Simulated cluster hardware: parts, nodes, chassis, and reference builds.

This package models the physical machines the paper evaluates — the modified
LittleFe v4 and the Limulus HPC200 (Sections 5, 7) — plus generic rack
hardware for rebuilding the Table 3 campus deployments.  Assembly functions
validate physical constraints eagerly (socket match, cooler clearance, power
budget), so any object you can hold is a buildable machine.
"""

from .builder import (
    BuildQuote,
    LIMULUS_QUOTED_PRICE_USD,
    LITTLEFE_QUOTED_PRICE_USD,
    build_limulus_hpc200,
    build_littlefe_modified,
    build_littlefe_original,
)
from .chassis import (
    LIMULUS_DESKSIDE,
    LITTLEFE_V4_FRAME,
    RACK_1U,
    ChassisModel,
    Machine,
    populate,
)
from .cooling import (
    INTEL_STOCK_LGA1150,
    PASSIVE_SINK_PLUS_FAN,
    ROSEWILL_RCX_Z775_LP,
    CoolerModel,
    check_cooler_fit,
)
from .cpu import (
    ATOM_D510,
    BCM2835,
    CELERON_G1840,
    CPU_CATALOG,
    I7_4770S,
    XEON_E5_2670,
    CpuModel,
    calibrated_cpu,
)
from .gpu import GpuModel, TESLA_C2050, calibrated_gpu
from .memory import DDR3_4G_SODIMM, DDR3_8G_UDIMM, DimmModel
from .motherboard import (
    GA_Q87TN,
    LIMULUS_NODE_BOARD,
    LITTLEFE_ATOM_BOARD,
    MotherboardModel,
)
from .nic import FASTE_ONBOARD, GIGE_ONBOARD, NicModel
from .partlist import PartsLine, parts_list, render_parts_list
from .node import Node, NodeRole, assemble_node
from .power import (
    ATX_450W,
    LIMULUS_850W,
    PICO_PSU_80,
    PICO_PSU_160,
    PsuModel,
    check_budget,
)
from .render import render_limulus, render_littlefe, render_machine
from .storage import (
    CRUCIAL_M550_128_MSATA,
    LAPTOP_HDD_500,
    WD_RED_2TB,
    MountKind,
    StorageKind,
    StorageModel,
)

__all__ = [
    "BuildQuote",
    "build_littlefe_original",
    "build_littlefe_modified",
    "build_limulus_hpc200",
    "LITTLEFE_QUOTED_PRICE_USD",
    "LIMULUS_QUOTED_PRICE_USD",
    "ChassisModel",
    "Machine",
    "populate",
    "LITTLEFE_V4_FRAME",
    "LIMULUS_DESKSIDE",
    "RACK_1U",
    "CoolerModel",
    "check_cooler_fit",
    "PASSIVE_SINK_PLUS_FAN",
    "INTEL_STOCK_LGA1150",
    "ROSEWILL_RCX_Z775_LP",
    "CpuModel",
    "calibrated_cpu",
    "CPU_CATALOG",
    "ATOM_D510",
    "BCM2835",
    "CELERON_G1840",
    "I7_4770S",
    "XEON_E5_2670",
    "GpuModel",
    "TESLA_C2050",
    "calibrated_gpu",
    "DimmModel",
    "DDR3_4G_SODIMM",
    "DDR3_8G_UDIMM",
    "MotherboardModel",
    "GA_Q87TN",
    "LITTLEFE_ATOM_BOARD",
    "LIMULUS_NODE_BOARD",
    "NicModel",
    "GIGE_ONBOARD",
    "FASTE_ONBOARD",
    "Node",
    "NodeRole",
    "assemble_node",
    "PsuModel",
    "check_budget",
    "PICO_PSU_80",
    "PICO_PSU_160",
    "ATX_450W",
    "LIMULUS_850W",
    "PartsLine",
    "parts_list",
    "render_parts_list",
    "render_machine",
    "render_littlefe",
    "render_limulus",
    "StorageModel",
    "StorageKind",
    "MountKind",
    "CRUCIAL_M550_128_MSATA",
    "LAPTOP_HDD_500",
    "WD_RED_2TB",
]
