"""Depsolver and YumClient tests: the Section 3 administrator verbs."""

import pytest

from repro.errors import DependencyError, YumError
from repro.rpm import Capability, Flag, Package, Requirement, RpmDatabase
from repro.yum import (
    RepoSet,
    Repository,
    XSEDE_REPO_STANZA,
    YumClient,
    best_provider,
    resolve_install,
)


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


@pytest.fixture
def repo():
    r = Repository("xsede", priority=50)
    r.add(mk("openmpi", "1.6.4", commands=("mpirun",), libraries=("libmpi.so.1",)))
    r.add(mk("fftw", "3.3.3", libraries=("libfftw3.so.3",)))
    r.add(
        mk(
            "gromacs",
            "4.6.5",
            requires=(Requirement("openmpi", Flag.GE, "1.6"), Requirement("fftw")),
            commands=("mdrun",),
            modulefile="gromacs/4.6.5",
        )
    )
    return r


@pytest.fixture
def client(frontend_host, repo):
    c = YumClient(frontend_host)
    c.configure_repo_file(
        "xsede.repo", XSEDE_REPO_STANZA.render(), available={"xsede": repo}
    )
    return c


class TestDepsolver:
    def test_closure_pulls_dependencies(self, repo, frontend_host):
        db = RpmDatabase(frontend_host)
        res = resolve_install(["gromacs"], RepoSet([repo]), db)
        assert {p.name for p in res.to_install} == {"gromacs", "openmpi", "fftw"}

    def test_installed_deps_not_repulled(self, repo, frontend_host):
        db = RpmDatabase(frontend_host)
        from repro.rpm import Transaction

        Transaction(db).install(mk("fftw", "3.3.3")).commit()
        res = resolve_install(["gromacs"], RepoSet([repo]), db)
        assert {p.name for p in res.to_install} == {"gromacs", "openmpi"}
        assert any(r.name == "fftw" for r in res.already_satisfied)

    def test_missing_provider_reports_chain(self, frontend_host):
        repo = Repository("r")
        repo.add(mk("app", requires=(Requirement("libmagic"),)))
        db = RpmDatabase(frontend_host)
        with pytest.raises(DependencyError, match="libmagic"):
            resolve_install(["app"], RepoSet([repo]), db)

    def test_unknown_goal_rejected(self, repo, frontend_host):
        db = RpmDatabase(frontend_host)
        with pytest.raises(DependencyError, match="no package ghost"):
            resolve_install(["ghost"], RepoSet([repo]), db)

    def test_best_provider_prefers_name_match(self, frontend_host):
        repo = Repository("r")
        repo.add(mk("mpi-selector", provides=(Capability("openmpi"),)))
        repo.add(mk("openmpi", "1.6.4"))
        chosen = best_provider(Requirement("openmpi"), RepoSet([repo]))
        assert chosen.name == "openmpi"

    def test_best_provider_newest_evr(self, frontend_host):
        repo = Repository("r")
        repo.add(mk("openmpi", "1.6.4"))
        repo.add(mk("openmpi", "1.8.1"))
        chosen = best_provider(Requirement("openmpi"), RepoSet([repo]))
        assert chosen.version == "1.8.1"


class TestYumClient:
    def test_install_materialises_everything(self, client):
        result = client.install("gromacs")
        assert result.change_count == 3
        assert client.host.has_command("mdrun")
        assert client.host.has_command("mpirun")
        assert client.host.modules.has("gromacs/4.6.5")

    def test_install_already_installed_nothing_to_do(self, client):
        client.install("fftw")
        with pytest.raises(YumError, match="already installed"):
            client.install("fftw")

    def test_check_update_then_update(self, client, repo):
        client.install("gromacs")
        repo.add(mk("gromacs", "5.0.4", requires=(Requirement("openmpi"),)))
        pending = client.check_update()
        assert [u.name for u in pending] == ["gromacs"]
        assert pending[0].available_evr == "5.0.4-1"
        result = client.update()
        assert result is not None and len(result.upgraded) == 1
        assert client.update() is None  # now current

    def test_update_subset_only(self, client, repo):
        client.install("gromacs")
        repo.add(mk("fftw", "3.3.4"))
        repo.add(mk("openmpi", "1.8.1"))
        client.update("fftw")
        assert client.db.get("fftw").version == "3.3.4"
        assert client.db.get("openmpi").version == "1.6.4"

    def test_update_not_installed_rejected(self, client):
        with pytest.raises(DependencyError, match="not installed"):
            client.update("gromacs")

    def test_erase_protects_dependants(self, client):
        client.install("gromacs")
        with pytest.raises(DependencyError, match="required by"):
            client.erase("openmpi")

    def test_erase_cascade(self, client):
        client.install("gromacs")
        result = client.erase("openmpi", remove_dependants=True)
        assert {p.name for p in result.erased} == {"openmpi", "gromacs"}
        assert client.db.has("fftw")

    def test_obsoletes_replace_across_rename(self, client, repo):
        client.install("gromacs")
        repo.add(
            mk(
                "gromacs5",
                "5.0.4",
                requires=(Requirement("openmpi"),),
                obsoletes=(Requirement("gromacs", Flag.LT, "5.0"),),
            )
        )
        client.update()
        assert client.db.has("gromacs5")
        assert not client.db.has("gromacs")

    def test_repo_file_with_unreachable_baseurl_rejected(self, frontend_host):
        client = YumClient(frontend_host)
        with pytest.raises(YumError, match="unreachable"):
            client.configure_repo_file(
                "xsede.repo", XSEDE_REPO_STANZA.render(), available={}
            )

    def test_repo_file_lands_on_host(self, client):
        assert client.host.fs.exists("/etc/yum.repos.d/xsede.repo")

    def test_groupinstall_one_transaction(self, client):
        result = client.groupinstall("hpc", ["gromacs", "fftw"])
        assert result.change_count == 3
        assert len(client.history) == 1

    def test_history_accumulates(self, client, repo):
        client.install("fftw")
        client.install("openmpi")
        assert len(client.history) == 2

    def test_mismatched_db_host_rejected(self, frontend_host, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host

        other = Host(littlefe_machine.compute_nodes[0], CENTOS_6_5)
        with pytest.raises(YumError):
            YumClient(frontend_host, RpmDatabase(other))
