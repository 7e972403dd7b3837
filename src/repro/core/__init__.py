"""The paper's contribution: XCBC (from-scratch builds) and XNIT
(repository-based integration), plus the compatibility audit, the Table 3
deployment registry, the training curriculum, and the cloud cost model.
"""

from .cloud_compare import (
    CloudCostModel,
    ClusterCostModel,
    CostComparison,
    compare,
    crossover_utilisation,
    runaway_student_scenario,
)
from .compatibility import (
    SCHEDULER_COMMANDS,
    audit_cluster,
    CompatibilityReport,
    DimensionScore,
    EnvironmentDiff,
    audit_host,
    diff_environments,
    portability_check,
)
from .deployments import (
    PETAFLOPS_GOAL_2020_GFLOPS,
    SECTION4_REBUILT_SITES,
    capacity_goal_projection,
    AdoptionPath,
    SiteDeployment,
    TABLE3_SITES,
    rebuild_site_hardware,
    table3_totals,
)
from .machines import (
    LIMULUS_VENDOR_PACKAGES,
    ExistingCluster,
    build_existing_cluster,
    build_limulus_cluster,
)
from .manifest import (
    ClusterManifest,
    HostManifest,
    manifest_for_hosts,
    manifest_of_cluster,
)
from .playbook import Playbook, PlaybookStep, RecordingSession, replay
from .xnit_groups import DOMAIN_GROUPS, xnit_group_catalog
from .packages_xsede import (
    TABLE2_CATEGORIES,
    XNIT_EXTRAS,
    packages_by_category,
    xnit_extra_packages,
    xsede_package_names,
    xsede_packages,
)
from .release import (
    ADDED_IN_0_0_8,
    ADDED_IN_0_0_9,
    CURRENT_RELEASE,
    RELEASES,
    XcbcRelease,
    get_xcbc_release,
    packages_for_release,
)
from .training import (
    CurriculumModule,
    limulus_xnit_module,
    CurriculumStep,
    StepOutcome,
    TrainingSession,
    littlefe_xcbc_module,
)
from .xcbc import (
    XcbcBuildReport,
    build_xcbc_cluster,
    build_xsede_roll,
    xcbc_cluster_definition,
)
from .xnit import (
    IntegrationReport,
    XSEDE_RELEASE_RPM,
    YUM_PLUGIN_PRIORITIES,
    build_xnit_repository,
    integrate_host,
    publish_release,
    setup_via_manual_repo_file,
    setup_via_repo_rpm,
)

__all__ = [
    # xcbc
    "build_xsede_roll",
    "build_xcbc_cluster",
    "xcbc_cluster_definition",
    "XcbcBuildReport",
    # xnit
    "build_xnit_repository",
    "publish_release",
    "setup_via_repo_rpm",
    "setup_via_manual_repo_file",
    "integrate_host",
    "IntegrationReport",
    "XSEDE_RELEASE_RPM",
    "YUM_PLUGIN_PRIORITIES",
    "Playbook",
    "PlaybookStep",
    "RecordingSession",
    "replay",
    "ClusterManifest",
    "HostManifest",
    "manifest_for_hosts",
    "manifest_of_cluster",
    "xnit_group_catalog",
    "DOMAIN_GROUPS",
    # catalogue & releases
    "xsede_packages",
    "xsede_package_names",
    "packages_by_category",
    "TABLE2_CATEGORIES",
    "XNIT_EXTRAS",
    "xnit_extra_packages",
    "XcbcRelease",
    "RELEASES",
    "CURRENT_RELEASE",
    "get_xcbc_release",
    "packages_for_release",
    "ADDED_IN_0_0_8",
    "ADDED_IN_0_0_9",
    # compatibility
    "audit_host",
    "audit_cluster",
    "CompatibilityReport",
    "DimensionScore",
    "diff_environments",
    "EnvironmentDiff",
    "portability_check",
    "SCHEDULER_COMMANDS",
    # machines
    "ExistingCluster",
    "build_existing_cluster",
    "build_limulus_cluster",
    "LIMULUS_VENDOR_PACKAGES",
    # deployments
    "SiteDeployment",
    "AdoptionPath",
    "TABLE3_SITES",
    "rebuild_site_hardware",
    "table3_totals",
    "PETAFLOPS_GOAL_2020_GFLOPS",
    # training
    "CurriculumModule",
    "CurriculumStep",
    "TrainingSession",
    "StepOutcome",
    "littlefe_xcbc_module",
    "limulus_xnit_module",
    "capacity_goal_projection",
    "SECTION4_REBUILT_SITES",
    # cloud
    "ClusterCostModel",
    "CloudCostModel",
    "CostComparison",
    "compare",
    "crossover_utilisation",
    "runaway_student_scenario",
]
