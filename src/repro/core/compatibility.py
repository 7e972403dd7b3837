"""The XSEDE-compatibility audit.

Section 2's definition of "run-alike" compatibility is concrete: "libraries
are in the same place as on XSEDE clusters, versions are the same, and
commands work as they do on XSEDE-supported clusters."  The audit scores a
host against the catalogue on exactly those axes plus the scheduler command
surface and environment modules, and the portability check verifies the
paper's "a user's knowledge ... becomes portable from one cluster built
with XCBC to another" claim between two hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..distro.host import Host
from ..rpm.database import RpmDatabase
from ..rpm.package import Package
from .packages_xsede import xsede_packages

__all__ = [
    "DimensionScore",
    "CompatibilityReport",
    "audit_host",
    "audit_cluster",
    "diff_environments",
    "EnvironmentDiff",
    "portability_check",
    "SCHEDULER_COMMANDS",
]

#: The batch commands a portable user's muscle memory relies on.
SCHEDULER_COMMANDS = ("qsub", "qstat", "qdel")


@dataclass(frozen=True)
class DimensionScore:
    """One audited axis: achieved / expected with the missing items."""

    name: str
    achieved: int
    expected: int
    missing: tuple[str, ...]

    @property
    def score(self) -> float:
        return self.achieved / self.expected if self.expected else 1.0


@dataclass
class CompatibilityReport:
    """The full audit of one host."""

    host: str
    dimensions: list[DimensionScore] = field(default_factory=list)

    @property
    def overall(self) -> float:
        """Unweighted mean of dimension scores."""
        if not self.dimensions:
            return 0.0
        return sum(d.score for d in self.dimensions) / len(self.dimensions)

    def dimension(self, name: str) -> DimensionScore:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise KeyError(name)

    def render(self) -> str:
        lines = [f"XSEDE compatibility audit: {self.host}"]
        for d in self.dimensions:
            lines.append(
                f"  {d.name:<22} {d.achieved:>4}/{d.expected:<4}  {d.score:6.1%}"
            )
        lines.append(f"  {'OVERALL':<22} {'':>9}  {self.overall:6.1%}")
        return "\n".join(lines)


def audit_host(
    host: Host,
    db: RpmDatabase,
    *,
    catalogue: list[Package] | None = None,
) -> CompatibilityReport:
    """Score one host against the XSEDE run-alike catalogue."""
    catalogue = catalogue if catalogue is not None else xsede_packages()
    report = CompatibilityReport(host=host.name)

    # 1. package coverage (by name)
    names = [p.name for p in catalogue]
    missing_pkgs = tuple(n for n in names if not db.has(n))
    report.dimensions.append(
        DimensionScore(
            "package coverage", len(names) - len(missing_pkgs), len(names), missing_pkgs
        )
    )

    # 2. versions are the same (installed packages at catalogue EVR)
    version_misses = []
    version_hits = 0
    for pkg in catalogue:
        if db.has(pkg.name):
            if db.get(pkg.name).evr >= pkg.evr:
                version_hits += 1
            else:
                version_misses.append(f"{pkg.name} ({db.get(pkg.name).evr_string} < {pkg.evr_string})")
    installed_count = version_hits + len(version_misses)
    report.dimensions.append(
        DimensionScore(
            "version currency", version_hits, max(installed_count, 1), tuple(version_misses)
        )
    )

    # 3. commands work the same way
    expected_commands = sorted({c for p in catalogue for c in p.commands})
    missing_commands = tuple(c for c in expected_commands if not host.has_command(c))
    report.dimensions.append(
        DimensionScore(
            "command surface",
            len(expected_commands) - len(missing_commands),
            len(expected_commands),
            missing_commands,
        )
    )

    # 4. libraries in the same place (/usr/lib64, the XSEDE convention)
    expected_libs = sorted({lib for p in catalogue for lib in p.libraries})
    missing_libs = tuple(
        lib for lib in expected_libs if not host.fs.exists(f"/usr/lib64/{lib}")
    )
    report.dimensions.append(
        DimensionScore(
            "library placement",
            len(expected_libs) - len(missing_libs),
            len(expected_libs),
            missing_libs,
        )
    )

    # 5. environment modules
    expected_modules = sorted({p.modulefile for p in catalogue if p.modulefile})
    missing_modules = tuple(
        m for m in expected_modules if not host.modules.has(m)
    )
    report.dimensions.append(
        DimensionScore(
            "environment modules",
            len(expected_modules) - len(missing_modules),
            len(expected_modules),
            missing_modules,
        )
    )

    # 6. scheduler command surface — only when the catalogue includes a
    # batch system at all (custom catalogues may not)
    if any(c in SCHEDULER_COMMANDS for p in catalogue for c in p.commands):
        missing_sched = tuple(
            c for c in SCHEDULER_COMMANDS if not host.has_command(c)
        )
        report.dimensions.append(
            DimensionScore(
                "scheduler commands",
                len(SCHEDULER_COMMANDS) - len(missing_sched),
                len(SCHEDULER_COMMANDS),
                missing_sched,
            )
        )
    return report


def audit_cluster(cluster, *, catalogue: list[Package] | None = None) -> dict[str, CompatibilityReport]:
    """Audit every host of a cluster; returns reports keyed by hostname.

    Accepts either cluster shape (:class:`ProvisionedCluster` /
    :class:`ExistingCluster`): both answer ``hosts()`` and ``db_for(host)``.
    """
    try:
        hosts, db_for = cluster.hosts, cluster.db_for
    except AttributeError:
        raise TypeError(f"cannot audit {type(cluster)!r}") from None
    return {
        host.name: audit_host(host, db_for(host), catalogue=catalogue)
        for host in hosts()
    }


@dataclass
class EnvironmentDiff:
    """Differences between two hosts' software environments."""

    only_on_a: list[str] = field(default_factory=list)
    only_on_b: list[str] = field(default_factory=list)
    version_mismatches: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when the run-alike surfaces match (no shared-package version
        skew and no one-sided run-alike packages — vendor/base extras on
        either side are reported but don't block convergence; callers decide
        what matters via the lists)."""
        return not self.version_mismatches

    @property
    def is_identical(self) -> bool:
        return not (self.only_on_a or self.only_on_b or self.version_mismatches)


def diff_environments(db_a: RpmDatabase, db_b: RpmDatabase) -> EnvironmentDiff:
    """Package-level diff between two hosts."""
    names_a, names_b = db_a.names(), db_b.names()
    diff = EnvironmentDiff(
        only_on_a=sorted(names_a - names_b),
        only_on_b=sorted(names_b - names_a),
    )
    for name in sorted(names_a & names_b):
        evr_a, evr_b = db_a.get(name).evr, db_b.get(name).evr
        if evr_a != evr_b:
            diff.version_mismatches.append(f"{name}: {evr_a} vs {evr_b}")
    return diff


def portability_check(
    host_a: Host, host_b: Host, workflow_commands: list[str]
) -> tuple[float, list[str]]:
    """Does a user's workflow move between two clusters unchanged?

    Returns ``(fraction portable, commands that break)``.  A command is
    portable when it resolves on both hosts.
    """
    broken = [
        c
        for c in workflow_commands
        if not (host_a.has_command(c) and host_b.has_command(c))
    ]
    total = len(workflow_commands) or 1
    return (total - len(broken)) / total, broken
