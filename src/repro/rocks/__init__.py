"""The Rocks-like provisioner: rolls, kickstart graph, node database,
insert-ethers discovery, the from-scratch installer, and update rolls.

This is the machinery under XCBC's "all at once, from scratch" path.
"""

from .database import InstallState, RocksDatabase
from .distribution import apply_update_roll, create_update_roll
from .insert_ethers import InsertEthers
from .installer import ProvisionedCluster, RocksInstaller, install_cluster
from .kickstart import GraphNode, KickstartGraph, Profile
from .roll import Roll, RollGraphFragment
from .rolls_catalog import (
    TABLE1_BASICS,
    TABLE1_OPTIONAL_ROLLS,
    all_standard_rolls,
    base_os_packages,
    base_roll,
    job_management_rolls,
    optional_rolls,
)

__all__ = [
    "Roll",
    "RollGraphFragment",
    "KickstartGraph",
    "GraphNode",
    "Profile",
    "RocksDatabase",
    "InstallState",
    "InsertEthers",
    "RocksInstaller",
    "ProvisionedCluster",
    "install_cluster",
    "create_update_roll",
    "apply_update_roll",
    "all_standard_rolls",
    "base_roll",
    "base_os_packages",
    "job_management_rolls",
    "optional_rolls",
    "TABLE1_BASICS",
    "TABLE1_OPTIONAL_ROLLS",
]
