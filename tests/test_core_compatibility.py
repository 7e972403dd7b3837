"""Compatibility-audit tests: scoring, convergence, and portability."""

import pytest

from repro.core import (
    audit_host,
    diff_environments,
    portability_check,
)
from repro.rpm import Package, RpmDatabase, Transaction


class TestAuditScoring:
    def test_bare_host_scores_low(self, frontend_host):
        db = RpmDatabase(frontend_host)
        report = audit_host(frontend_host, db)
        assert report.overall < 0.2

    def test_xcbc_frontend_scores_perfect(self, xcbc_littlefe):
        cluster = xcbc_littlefe.cluster
        report = audit_host(cluster.frontend, cluster.frontend_db)
        assert report.overall == pytest.approx(1.0)
        for dim in report.dimensions:
            assert dim.score == pytest.approx(1.0), dim.name

    def test_xnit_frontend_scores_perfect(self, xnit_limulus):
        client = xnit_limulus.client_for(xnit_limulus.frontend)
        report = audit_host(xnit_limulus.frontend, client.db)
        assert report.overall == pytest.approx(1.0)

    def test_partial_install_scores_partial(self, frontend_host):
        db = RpmDatabase(frontend_host)
        from repro.core import xsede_packages

        subset = [p for p in xsede_packages() if not p.requires][:10]
        txn = Transaction(db)
        for p in subset:
            txn.install(p)
        txn.commit()
        report = audit_host(frontend_host, db)
        assert 0.0 < report.dimension("package coverage").score < 0.2

    def test_stale_version_flagged(self, frontend_host):
        db = RpmDatabase(frontend_host)
        Transaction(db).install(Package(name="fftw", version="2.0")).commit()
        report = audit_host(frontend_host, db)
        currency = report.dimension("version currency")
        assert currency.score == 0.0
        assert any("fftw" in miss for miss in currency.missing)

    def test_render_contains_dimensions(self, frontend_host):
        report = audit_host(frontend_host, RpmDatabase(frontend_host))
        text = report.render()
        assert "package coverage" in text and "OVERALL" in text

    def test_custom_catalogue(self, frontend_host):
        db = RpmDatabase(frontend_host)
        pkg = Package(name="onlything", version="1.0", commands=("onlything",))
        Transaction(db).install(pkg).commit()
        report = audit_host(frontend_host, db, catalogue=[pkg])
        assert report.overall == pytest.approx(1.0)


class TestConvergence:
    """The central claim: both paths produce the same environment."""

    def test_run_alike_sets_identical(self, xcbc_littlefe, xnit_limulus):
        xcbc_db = xcbc_littlefe.cluster.frontend_db
        xnit_db = xnit_limulus.client_for(xnit_limulus.frontend).db
        diff = diff_environments(xcbc_db, xnit_db)
        # zero version skew on shared packages
        assert diff.converged, diff.version_mismatches
        # one-sided packages are explainable: Rocks-side tooling vs vendor stack
        from repro.core import xsede_package_names

        runalike = set(xsede_package_names())
        assert not (set(diff.only_on_a) & runalike - {"torque", "maui"})
        assert not (set(diff.only_on_b) & runalike - {"torque", "maui"})

    def test_identical_detection(self, frontend_host, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host

        other = Host(littlefe_machine.compute_nodes[0], CENTOS_6_5)
        db_a, db_b = RpmDatabase(frontend_host), RpmDatabase(other)
        pkg = Package(name="x", version="1.0")
        Transaction(db_a).install(pkg).commit()
        Transaction(db_b).install(pkg).commit()
        diff = diff_environments(db_a, db_b)
        assert not (diff.only_on_a or diff.only_on_b or diff.version_mismatches)

    def test_version_skew_detected(self, frontend_host, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host

        other = Host(littlefe_machine.compute_nodes[0], CENTOS_6_5)
        db_a, db_b = RpmDatabase(frontend_host), RpmDatabase(other)
        Transaction(db_a).install(Package(name="x", version="1.0")).commit()
        Transaction(db_b).install(Package(name="x", version="2.0")).commit()
        diff = diff_environments(db_a, db_b)
        assert not diff.converged
        assert diff.version_mismatches == ["x: 1.0-1 vs 2.0-1"]


class TestPortability:
    def test_workflow_moves_between_xcbc_and_xnit(self, xcbc_littlefe, xnit_limulus):
        # "A user's knowledge of software, system commands, etc., becomes
        # portable from one cluster built with XCBC to another"
        workflow = ["qsub", "qstat", "qdel", "module", "mpirun", "mdrun", "R",
                    "python", "octave", "blastn"]
        # note: module command is Rocks-side only on the Limulus unless XNIT
        # brought modules; drop it from the cross-cluster check
        workflow = [c for c in workflow if c != "module"]
        frac, broken = portability_check(
            xcbc_littlefe.cluster.frontend, xnit_limulus.frontend, workflow
        )
        assert frac == 1.0, broken

    def test_broken_commands_reported(self, frontend_host, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host

        other = Host(littlefe_machine.compute_nodes[0], CENTOS_6_5)
        frontend_host.fs.write("/usr/bin/mdrun", "x", mode=0o755)
        frac, broken = portability_check(frontend_host, other, ["mdrun", "bash"])
        assert broken == ["mdrun"]
        assert frac == pytest.approx(0.5)

    def test_empty_workflow_is_vacuously_portable(self, frontend_host):
        frac, broken = portability_check(frontend_host, frontend_host, [])
        assert frac == 1.0 and broken == []
