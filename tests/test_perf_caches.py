"""Cache correctness across epochs.

The depsolver caches whole resolutions per (goals, repo epoch, db
fingerprint); ``best_provider`` and the RepoSet queries under it hold no
state of their own.  The dangerous bug class is a *stale hit*: a
resolution cached before a mirror sync (or a package install) being
served afterwards.  These tests mutate the world through every supported
channel — direct repo edits, ``RepoMirror.sync``, db install/erase — and
assert the next resolve sees it.
"""

import pytest

from repro.distro import CENTOS_6_5, Host
from repro.errors import DependencyError
from repro.rpm import Capability, Package, Requirement, RpmDatabase
from repro.yum import MirrorLink, RepoMirror, RepoSet, Repository, resolve_install
from repro.yum.depsolver import (
    best_provider,
    clear_resolution_cache,
    resolution_cache_stats,
    resolve_update,
)


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


@pytest.fixture(autouse=True)
def _isolated_resolution_cache():
    clear_resolution_cache()
    yield
    clear_resolution_cache()


@pytest.fixture
def db(frontend_host):
    return RpmDatabase(frontend_host)


class TestBestProviderSeesMutation:
    def test_better_named_provider_wins_once_published(self):
        repo = Repository("r")
        repo.add(mk("openmpi", "1.6", provides=(Capability("mpi-impl"),)))
        repos = RepoSet([repo])
        req = Requirement("mpi-impl")
        assert best_provider(req, repos).name == "openmpi"
        # A better-named provider arrives; openmpi must not be served again.
        repo.add(mk("mpi-impl", "2.0"))
        assert best_provider(req, repos).name == "mpi-impl"

    def test_miss_does_not_outlive_a_new_provider(self):
        repo = Repository("r")
        repo.add(mk("alpha"))
        repos = RepoSet([repo])
        req = Requirement("libghost")
        with pytest.raises(DependencyError):
            best_provider(req, repos)
        repo.add(mk("ghost-lib", provides=(Capability("libghost"),)))
        assert best_provider(req, repos).name == "ghost-lib"


class TestResolutionCacheEpochs:
    def test_mirror_sync_with_newer_evr_invalidates(self, db):
        """The ISSUE's canary: cache a resolution against a mirror, then
        sync a newer EVR from upstream — the next resolve must see it."""
        upstream = Repository("xsede", priority=50)
        upstream.add(mk("gromacs", "4.6.5"))
        mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=1e9))
        mirror.sync()
        repos = RepoSet([mirror.local])

        first = resolve_install(["gromacs"], repos, db)
        assert [p.version for p in first.to_install] == ["4.6.5"]

        upstream.add(mk("gromacs", "5.0.4"))
        mirror.sync()
        second = resolve_install(["gromacs"], repos, db)
        assert [p.version for p in second.to_install] == ["5.0.4"]

    def test_db_install_invalidates(self, db):
        repo = Repository("r")
        repo.add(mk("gromacs", "5.0.4"))
        repos = RepoSet([repo])
        first = resolve_install(["gromacs"], repos, db)
        assert not first.is_empty()
        db._install_unchecked(mk("gromacs", "5.0.4"))
        second = resolve_install(["gromacs"], repos, db)
        assert second.is_empty()  # already installed; a stale hit would re-plan

    def test_db_erase_invalidates(self, db):
        repo = Repository("r")
        repo.add(mk("gromacs", "5.0.4"))
        repos = RepoSet([repo])
        db._install_unchecked(mk("gromacs", "5.0.4"))
        assert resolve_install(["gromacs"], repos, db).is_empty()
        db._erase_unchecked("gromacs")
        assert not resolve_install(["gromacs"], repos, db).is_empty()

    def test_cache_hits_across_fresh_reposet_instances(self, db):
        """The Kansas fast path: the installer builds a new RepoSet per
        node, and the content-addressed epoch makes the cache hit anyway."""
        repo = Repository("r")
        repo.add(mk("gromacs", "5.0.4"))
        resolve_install(["gromacs"], RepoSet([repo]), db)
        before = resolution_cache_stats()
        result = resolve_install(["gromacs"], RepoSet([repo]), db)
        after = resolution_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert [p.name for p in result.to_install] == ["gromacs"]

    def test_cached_resolution_is_a_defensive_copy(self, db):
        repo = Repository("r")
        repo.add(mk("gromacs", "5.0.4"))
        repos = RepoSet([repo])
        first = resolve_install(["gromacs"], repos, db)
        first.to_install.clear()  # caller mangles its copy
        second = resolve_install(["gromacs"], repos, db)
        assert [p.name for p in second.to_install] == ["gromacs"]

    def test_resolve_update_sees_post_sync_world(self, db):
        repo = Repository("r")
        repo.add(mk("torque", "4.2.9"))
        repos = RepoSet([repo])
        db._install_unchecked(mk("torque", "4.2.9"))
        assert resolve_update(repos, db).is_empty()
        repo.add(mk("torque", "4.2.10"))
        update = resolve_update(repos, db)
        assert [p.version for p in update.to_install] == ["4.2.10"]

