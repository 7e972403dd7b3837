"""XNIT tests: repository contents, both setup paths, integration semantics,
and the update lifecycle of Section 3."""

import pytest

from repro.core import (
    LIMULUS_VENDOR_PACKAGES,
    build_limulus_cluster,
    build_xnit_repository,
    integrate_host,
    publish_release,
    setup_via_manual_repo_file,
    setup_via_repo_rpm,
    xsede_package_names,
)
from repro.errors import YumError
from repro.yum import NotifyPolicy


class TestRepositoryContents:
    def test_contains_full_xcbc_set(self):
        repo = build_xnit_repository()
        for name in xsede_package_names():
            assert repo.has(name), name

    def test_contains_extras_beyond_xcbc(self):
        # "XNIT also includes software not included in the basic XCBC build"
        repo = build_xnit_repository()
        for extra in ("paraview", "visit", "tau", "nwchem"):
            assert repo.has(extra)
            assert extra not in xsede_package_names()

    def test_setup_rpms_published(self):
        repo = build_xnit_repository()
        assert repo.has("xsede-release")
        assert repo.has("yum-plugin-priorities")

    def test_priority_is_50(self):
        assert build_xnit_repository().priority == 50

    def test_publish_release_adds_newer_versions(self):
        repo = build_xnit_repository("0.0.8")
        assert not repo.has("trinity")
        added = publish_release(repo, "0.0.9")
        assert repo.has("trinity")
        assert any("java-1.7.0-openjdk" in n for n in added)  # the Java bump


class TestSetupPaths:
    def test_repo_rpm_path(self):
        cluster = build_limulus_cluster()
        client = cluster.client_for(cluster.frontend)
        repo = build_xnit_repository()
        setup_via_repo_rpm(client, repo)
        assert client.db.has("xsede-release")
        assert cluster.frontend.fs.exists("/etc/yum.repos.d/xsede.repo")
        assert "xsede" in [r[0] for r in client.repolist()]

    def test_manual_path_installs_priorities_plugin(self):
        cluster = build_limulus_cluster()
        client = cluster.client_for(cluster.frontend)
        repo = build_xnit_repository()
        setup_via_manual_repo_file(client, repo)
        assert client.db.has("yum-plugin-priorities")
        assert client.repos.use_priorities
        text = cluster.frontend.fs.read("/etc/yum.repos.d/xsede.repo")
        assert "cb-repo.iu.xsede.org" in text

    def test_both_paths_equivalent_repolist(self):
        a, b = build_limulus_cluster("lima"), build_limulus_cluster("limb")
        ca, cb = a.client_for(a.frontend), b.client_for(b.frontend)
        setup_via_repo_rpm(ca, build_xnit_repository())
        setup_via_manual_repo_file(cb, build_xnit_repository())
        assert [r[:2] for r in ca.repolist()] == [r[:2] for r in cb.repolist()]


class TestIntegration:
    def integrated_frontend(self):
        cluster = build_limulus_cluster()
        client = cluster.client_for(cluster.frontend)
        setup_via_manual_repo_file(client, build_xnit_repository())
        return cluster, client

    def test_subset_install(self):
        _cluster, client = self.integrated_frontend()
        report = integrate_host(client, packages=["gromacs", "R"])
        # gromacs pulls openmpi/fftw/...; R pulls R-core
        assert "gromacs" in report.installed
        assert "openmpi" in report.installed
        assert client.host.has_command("mdrun")
        assert not client.db.has("lammps")  # only what was asked for (+deps)

    def test_full_toolkit(self):
        _cluster, client = self.integrated_frontend()
        report = integrate_host(client, full_toolkit=True)
        assert len(report.installed) + len(report.upgraded) >= len(xsede_package_names())
        assert report.preexisting_untouched

    def test_vendor_stack_survives(self):
        cluster, client = self.integrated_frontend()
        integrate_host(client, full_toolkit=True)
        for pkg in LIMULUS_VENDOR_PACKAGES:
            if pkg.name != "sge":
                assert client.db.has(pkg.name), pkg.name
        assert cluster.frontend.services.is_running("limulus-powerd")

    def test_vendor_sge_upgraded_not_removed(self):
        # vendor ships sge 8.1.6; XNIT integration may upgrade but never
        # erase it (non-destructive property)
        _cluster, client = self.integrated_frontend()
        integrate_host(client, full_toolkit=True)
        assert client.db.has("sge")

    def test_changing_scheduler_via_xnit(self):
        # Section 8: "with XNIT add software, change the schedulers"
        _cluster, client = self.integrated_frontend()
        integrate_host(client, packages=["torque", "maui"])
        assert client.host.has_command("showq")
        assert client.db.has("torque")

    def test_selection_arguments_validated(self):
        _cluster, client = self.integrated_frontend()
        with pytest.raises(YumError):
            integrate_host(client)
        with pytest.raises(YumError):
            integrate_host(client, packages=["R"], full_toolkit=True)

    def test_integration_is_idempotent_like(self):
        _cluster, client = self.integrated_frontend()
        integrate_host(client, full_toolkit=True)
        # second run: nothing missing, nothing newer -> no changes
        report = integrate_host(client, full_toolkit=True)
        assert not (report.installed or report.upgraded)


class TestUpdateLifecycle:
    def test_new_release_flows_to_subscribed_cluster(self):
        cluster = build_limulus_cluster()
        repo = build_xnit_repository("0.0.8")
        clients = cluster.all_clients()
        for client in clients:
            setup_via_manual_repo_file(client, repo)
            integrate_host(client, full_toolkit=True)
        # upstream publishes 0.0.9
        publish_release(repo, "0.0.9")
        notifier = NotifyPolicy(clients[0])
        report = notifier.run_cycle()
        assert report.has_updates  # at least the Java bump
        names = {u.name for u in report.pending}
        assert "java-1.7.0-openjdk" in names
        # the admin reviews, then applies everywhere
        for client in clients:
            client.update()
        for client in clients:
            assert client.db.get("java-1.7.0-openjdk").version == "1.7.0.79"

    def test_whole_cluster_integration(self, xnit_limulus):
        for host in xnit_limulus.hosts():
            client = xnit_limulus.client_for(host)
            assert client.db.has("gromacs"), host.name
            assert host.has_command("mdrun"), host.name
