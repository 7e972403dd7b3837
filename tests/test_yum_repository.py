"""Repository, priorities, and .repo config tests."""

import pytest

from repro.errors import (
    PackageNotFoundError,
    RepoConfigError,
    RepoPriorityError,
    YumError,
)
from repro.rpm import Package, Requirement
from repro.yum import (
    DEFAULT_PRIORITY,
    RepoSet,
    RepoStanza,
    Repository,
    XSEDE_REPO_STANZA,
    parse_repo_file,
)


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


class TestRepository:
    def test_add_and_latest(self):
        repo = Repository("xsede")
        repo.add(mk("gromacs", "4.6.5"))
        repo.add(mk("gromacs", "5.0.4"))
        assert repo.latest("gromacs").version == "5.0.4"
        assert [p.version for p in repo.versions_of("gromacs")] == ["4.6.5", "5.0.4"]

    def test_duplicate_nevra_rejected(self):
        repo = Repository("xsede")
        repo.add(mk("x"))
        with pytest.raises(YumError, match="already published"):
            repo.add(mk("x"))

    def test_latest_missing_raises(self):
        with pytest.raises(PackageNotFoundError):
            Repository("r").latest("ghost")

    def test_remove_nevra(self):
        repo = Repository("r")
        repo.add(mk("x", "1.0"))
        repo.remove("x-1.0-1.x86_64")
        assert not repo.has("x")
        with pytest.raises(PackageNotFoundError):
            repo.remove("x-1.0-1.x86_64")

    def test_providers_of_capability(self):
        from repro.rpm import Capability

        repo = Repository("r")
        repo.add(mk("openmpi", provides=(Capability("mpi-impl"),)))
        repo.add(mk("mpich", provides=(Capability("mpi-impl"),)))
        providers = repo.providers_of(Requirement("mpi-impl"))
        assert [p.name for p in providers] == ["mpich", "openmpi"]

    def test_repomd_checksum_tracks_content(self):
        repo = Repository("r")
        before = repo.repomd_checksum()
        repo.add(mk("x"))
        after = repo.repomd_checksum()
        assert before != after
        assert after == repo.repomd_checksum()  # stable

    def test_priority_bounds(self):
        with pytest.raises(RepoPriorityError):
            Repository("r", priority=0)
        with pytest.raises(RepoPriorityError):
            Repository("r", priority=100)


class TestRepoSetPriorities:
    def make_pair(self, *, use_priorities=True):
        base = Repository("centos-base", priority=90)
        xsede = Repository("xsede", priority=50)
        # base carries a NEWER python than the XSEDE build
        base.add(mk("python", "2.7.99"))
        xsede.add(mk("python", "2.7.9"))
        xsede.add(mk("gromacs", "4.6.5"))
        return RepoSet([base, xsede], use_priorities=use_priorities)

    def test_priorities_shield_xsede_builds(self):
        repos = self.make_pair()
        # with the plugin, the xsede repo (better priority) wins the name
        assert repos.latest_by_name("python").version == "2.7.9"

    def test_without_plugin_newest_wins_regardless(self):
        repos = self.make_pair(use_priorities=False)
        assert repos.latest_by_name("python").version == "2.7.99"

    def test_names_union(self):
        repos = self.make_pair()
        assert repos.all_names() == {"python", "gromacs"}

    def test_disabled_repo_excluded(self):
        repos = self.make_pair()
        xsede = next(r for r in repos.enabled_repos() if r.repo_id == "xsede")
        xsede.enabled = False
        assert repos.latest_by_name("python").version == "2.7.99"
        with pytest.raises(PackageNotFoundError):
            repos.latest_by_name("gromacs")

    def test_duplicate_repo_id_rejected(self):
        repos = self.make_pair()
        with pytest.raises(YumError):
            repos.add_repo(Repository("xsede"))

    def test_repolist_sorted_by_priority(self):
        repos = self.make_pair()
        ids = [r[0] for r in repos.repolist()]
        assert ids == ["xsede", "centos-base"]


class TestRepoConfig:
    def test_parse_canonical_xsede_stanza(self):
        stanzas = parse_repo_file(XSEDE_REPO_STANZA.render())
        assert len(stanzas) == 1
        s = stanzas[0]
        assert s.repo_id == "xsede"
        assert s.baseurl == "http://cb-repo.iu.xsede.org/xsederepo/"
        assert s.priority == 50
        assert s.enabled and not s.gpgcheck

    def test_roundtrip(self):
        original = [
            XSEDE_REPO_STANZA,
            RepoStanza("epel", "Extra Packages", "http://epel/", priority=80),
        ]
        assert parse_repo_file("\n".join(s.render() for s in original)) == original

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n; another\n" + XSEDE_REPO_STANZA.render()
        assert len(parse_repo_file(text)) == 1

    def test_default_priority_when_absent(self):
        text = "[r]\nname=R\nbaseurl=http://r/\n"
        assert parse_repo_file(text)[0].priority == DEFAULT_PRIORITY

    @pytest.mark.parametrize(
        "text, message",
        [
            ("name=x\n", "before any"),
            ("[r]\nbaseurl=http://r/\n", "missing required key 'name'"),
            ("[r]\nname=R\n", "missing required key 'baseurl'"),
            ("[r]\nname=R\nbaseurl=u\nname=S\n", "duplicate key"),
            ("[r]\nname=R\nbaseurl=u\n[r]\nname=R\nbaseurl=u\n", "duplicate section"),
            ("[r]\nname=R\nbaseurl=u\nbogus=1\n", "unknown key"),
            ("[r]\nname=R\nbaseurl=u\nenabled=maybe\n", "boolean"),
            ("[r]\nname=R\nbaseurl=u\nnot a kv\n", "key=value"),
            ("", "no repository stanzas"),
            ("[]\nname=R\n", "empty section"),
        ],
    )
    def test_malformed_rejected(self, text, message):
        with pytest.raises(RepoConfigError, match=message):
            parse_repo_file(text)
