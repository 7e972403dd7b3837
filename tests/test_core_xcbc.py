"""XCBC tests: the XSEDE roll, the from-scratch build, and release history."""

import pytest

from repro.core import (
    ADDED_IN_0_0_8,
    ADDED_IN_0_0_9,
    CURRENT_RELEASE,
    RELEASES,
    build_xcbc_cluster,
    build_xsede_roll,
    get_xcbc_release,
    packages_by_category,
    packages_for_release,
    xsede_package_names,
    xsede_packages,
)
from repro.core.packages_xsede import (
    CATEGORY_COMPILERS,
    CATEGORY_MISC,
    CATEGORY_SCHEDULER,
    CATEGORY_SCIENCE,
    CATEGORY_XSEDE,
    TABLE2_CATEGORIES,
)
from repro.errors import ReproError, RocksError


class TestCatalogue:
    def test_every_table2_category_populated(self):
        grouped = packages_by_category()
        for category in TABLE2_CATEGORIES:
            assert grouped[category], category

    def test_headline_packages_present(self):
        names = set(xsede_package_names())
        for name in (
            "gcc", "openmpi", "mpich2", "fftw", "hdf5", "R", "python",
            "gromacs", "lammps", "petsc", "ncbi-blast", "mpiblast", "gatk",
            "trinity", "numpy", "octave", "torque", "maui",
            "globus-connect-server", "genesis2", "gffs",
        ):
            assert name in names, name

    def test_no_duplicate_names(self):
        names = xsede_package_names()
        assert len(names) == len(set(names))

    def test_all_dependencies_resolve_within_catalogue_plus_base(self):
        from repro.distro import CENTOS_6_5
        from repro.rocks import base_os_packages

        available = {p.name for p in xsede_packages()}
        available |= {p.name for p in base_os_packages(CENTOS_6_5)}
        for pkg in xsede_packages():
            for req in pkg.requires:
                assert req.name in available, f"{pkg.name} requires {req.name}"

    def test_scheduler_category_is_maui_torque(self):
        names = {p.name for p in packages_by_category()[CATEGORY_SCHEDULER]}
        assert names == {"maui", "torque"}

    def test_xsede_tools_category(self):
        names = {p.name for p in packages_by_category()[CATEGORY_XSEDE]}
        assert names == {"globus-connect-server", "genesis2", "gffs"}

    def test_apps_get_opt_trees_and_modules(self):
        gromacs = next(p for p in xsede_packages() if p.name == "gromacs")
        assert gromacs.modulefile == "gromacs/4.6.5"
        assert "/opt/gromacs/.keep" in gromacs.files


class TestReleaseHistory:
    def test_paper_addition_counts(self):
        # Section 2: "27 scientific and supporting packages have been added"
        assert len(ADDED_IN_0_0_8) == 27
        # "The 0.0.9 release ... saw 41 additions"
        assert len(ADDED_IN_0_0_9) == 41

    def test_additions_are_catalogue_members_and_disjoint(self):
        names = set(xsede_package_names())
        assert set(ADDED_IN_0_0_8) <= names
        assert set(ADDED_IN_0_0_9) <= names
        assert not set(ADDED_IN_0_0_8) & set(ADDED_IN_0_0_9)

    def test_named_additions_from_the_text(self):
        # "including GenomeAnalysisTK, gromacs, mpiblast" (gatk = GenomeAnalysisTK)
        for name in ("gatk", "gromacs", "mpiblast"):
            assert name in ADDED_IN_0_0_8
        # "including TrinityRNASeq, R" (trinity = TrinityRNASeq)
        for name in ("trinity", "R"):
            assert name in ADDED_IN_0_0_9

    def test_os_bump_at_0_0_8(self):
        # "a major OS release update from Centos 6.3 to 6.5"
        assert get_xcbc_release("0.0.7").os_release.version == "6.3"
        assert get_xcbc_release("0.0.8").os_release.version == "6.5"

    def test_releases_cumulative(self):
        n7 = len(packages_for_release("0.0.7"))
        n8 = len(packages_for_release("0.0.8"))
        n9 = len(packages_for_release("0.0.9"))
        assert n8 == n7 + 27
        assert n9 == n8 + 41

    def test_java_updates_across_releases(self):
        # "significant Java updates" = version bumps, not additions
        def java_version(version):
            return next(
                p.version
                for p in packages_for_release(version)
                if p.name == "java-1.7.0-openjdk"
            )

        v7, v8, v9 = java_version("0.0.7"), java_version("0.0.8"), java_version("0.0.9")
        assert v7 < v8 < v9

    def test_unknown_release_rejected(self):
        with pytest.raises(ReproError, match="known"):
            get_xcbc_release("1.0.0")

    def test_current_release_is_0_0_9(self):
        assert CURRENT_RELEASE.version == "0.0.9"
        assert RELEASES[-1] is CURRENT_RELEASE


class TestXsedeRoll:
    def test_roll_carries_catalogue_minus_scheduler(self):
        roll = build_xsede_roll()
        names = set(roll.package_names())
        assert "gromacs" in names and "R" in names
        # scheduler packages come from the job-management roll instead
        assert "torque" not in names and "maui" not in names

    def test_grid_services_frontend_only(self):
        roll = build_xsede_roll()
        grid = next(f for f in roll.fragments if f.node_name == "xsede-grid-services")
        assert grid.attach_to == ("frontend",)
        assert "globus-connect-server" in grid.packages

    def test_roll_versioned_by_release(self):
        roll = build_xsede_roll("0.0.8")
        assert roll.version == "0.0.8"
        assert "trinity" not in set(roll.package_names())


class TestXcbcBuild:
    def test_full_build_on_littlefe(self, xcbc_littlefe):
        cluster = xcbc_littlefe.cluster
        assert len(xcbc_littlefe.cluster.hosts()) == 6
        assert "xsede" in cluster.roll_names()
        fe = cluster.frontend
        # run-alike surface everywhere
        for command in ("mdrun", "R", "qsub", "mpirun"):
            assert fe.has_command(command), command
        for host in cluster.hosts()[1:]:
            assert host.has_command("mdrun")
            # grid services are frontend-only
            assert not host.has_command("globus-url-copy")

    def test_modules_installed(self, xcbc_littlefe):
        fe = xcbc_littlefe.cluster.frontend
        for module in ("gromacs/4.6.5", "openmpi/1.6.4", "R/3.1.2"):
            assert fe.modules.has(module), module

    def test_os_release_follows_roll_version(self, littlefe_machine):
        report = build_xcbc_cluster(
            littlefe_machine, roll_version="0.0.7", include_optional_rolls=False
        )
        assert report.cluster.frontend.release_string() == "CentOS 6.3"

    def test_diskless_machine_cannot_take_xcbc(self, limulus_machine):
        from repro.errors import ProvisionError

        with pytest.raises(ProvisionError, match="XNIT instead"):
            build_xcbc_cluster(limulus_machine)

    def test_duplicate_extra_roll_rejected(self, littlefe_machine):
        from repro.rocks import optional_rolls

        with pytest.raises(RocksError, match="twice"):
            build_xcbc_cluster(
                littlefe_machine, extra_rolls=[optional_rolls()["hpc"]]
            )

    def test_uniform_environment_across_nodes(self, xcbc_littlefe):
        cluster = xcbc_littlefe.cluster
        common = cluster.installed_everywhere()
        # the run-alike set (minus frontend-only grid tools) is uniform
        assert "gromacs" in common
        assert "openmpi" in common
        assert xcbc_littlefe.uniform_package_count > 100


class TestReleaseNotesAndRebuilds:
    def test_section4_rebuilt_sites_recorded(self):
        from repro.core import SECTION4_REBUILT_SITES

        assert "Howard University" in SECTION4_REBUILT_SITES
        assert "Marshall University" in SECTION4_REBUILT_SITES
