"""Yum groups, the XNIT group catalogue, and playbook reproducibility."""

import pytest

from repro.core import (
    DOMAIN_GROUPS,
    Playbook,
    PlaybookStep,
    RecordingSession,
    build_limulus_cluster,
    build_xnit_repository,
    diff_environments,
    replay,
    xnit_group_catalog,
    xsede_package_names,
)
from repro.errors import ReproError, YumError
from repro.yum import GroupCatalog, PackageGroup, groupinstall


@pytest.fixture
def limulus_client():
    cluster = build_limulus_cluster()
    client = cluster.client_for(cluster.frontend)
    repo = build_xnit_repository()
    from repro.core import setup_via_manual_repo_file

    setup_via_manual_repo_file(client, repo)
    return cluster, client, repo


class TestPackageGroups:
    def test_group_validation(self):
        with pytest.raises(YumError, match="mandatory"):
            PackageGroup(group_id="g", name="G")
        with pytest.raises(YumError, match="both mandatory and optional"):
            PackageGroup(
                group_id="g", name="G", mandatory=("a",), optional=("a",)
            )

    def test_catalog_lookup_and_duplicates(self):
        catalog = GroupCatalog()
        catalog.add(PackageGroup("g", "G", mandatory=("a",)))
        assert catalog.get("g").name == "G"
        with pytest.raises(YumError, match="duplicate"):
            catalog.add(PackageGroup("g", "G2", mandatory=("b",)))
        with pytest.raises(YumError, match="known"):
            catalog.get("ghost")

    def test_groupinfo_renders(self):
        catalog = GroupCatalog()
        catalog.add(
            PackageGroup("g", "Group G", description="demo",
                         mandatory=("a",), optional=("b",))
        )
        info = catalog.groupinfo("g")
        assert "Mandatory Packages" in info and "Optional Packages" in info

    def test_xnit_catalog_covers_categories_and_domains(self):
        catalog = xnit_group_catalog()
        ids = {g.group_id for g in catalog.grouplist()}
        assert "xnit-scientific-applications" in ids
        assert set(DOMAIN_GROUPS) <= ids

    def test_domain_groups_reference_real_packages(self):
        names = set(xsede_package_names())
        for _gid, (_name, mandatory, optional) in DOMAIN_GROUPS.items():
            assert set(mandatory) <= names
            assert set(optional) <= names

    def test_groupinstall_bio_pipeline(self, limulus_client):
        _cluster, client, _repo = limulus_client
        catalog = xnit_group_catalog()
        result = groupinstall(client, catalog, "xnit-bio-pipeline")
        for name in ("ncbi-blast", "bowtie", "Samtools"):
            assert client.db.has(name), name
        assert not client.db.has("trinity")  # optional, not requested

    def test_groupinstall_with_optional(self, limulus_client):
        _cluster, client, _repo = limulus_client
        catalog = xnit_group_catalog()
        groupinstall(client, catalog, "xnit-bio-pipeline", with_optional=True)
        assert client.db.has("trinity")

    def test_groupinstall_nothing_to_do(self, limulus_client):
        _cluster, client, _repo = limulus_client
        catalog = xnit_group_catalog()
        groupinstall(client, catalog, "xnit-statistics", with_optional=True)
        with pytest.raises(YumError, match="nothing to do"):
            groupinstall(client, catalog, "xnit-statistics", with_optional=True)


class TestPlaybook:
    def test_step_validation(self):
        with pytest.raises(ReproError, match="unknown playbook action"):
            PlaybookStep(action="reboot")

    def test_recording_captures_actions(self, limulus_client):
        _cluster, client, repo = limulus_client
        # fresh client without the repo attached
        session = RecordingSession(
            client, repo, title="Limulus to XSEDE-compatible"
        )
        session.install("gromacs", comment="MD capability")
        session.install("R")
        rendered = session.playbook.render()
        assert "install gromacs" in rendered
        assert "# MD capability" in rendered
        assert client.db.has("gromacs") and client.db.has("R")

    def test_json_roundtrip(self):
        playbook = Playbook(
            title="t",
            steps=[
                PlaybookStep("setup-repo-rpm"),
                PlaybookStep("install", ("gromacs", "R"), comment="apps"),
            ],
        )
        again = Playbook.from_json(playbook.to_json())
        assert again == playbook

    def test_malformed_json_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            Playbook.from_json("{not json")
        with pytest.raises(ReproError, match="malformed"):
            Playbook.from_json('{"title": "x"}')

    def test_replay_reproduces_environment(self):
        """The Section 8 claim: the documented approach is reproducible."""
        repo = build_xnit_repository()

        # Machine A: an admin works interactively, recording as they go.
        cluster_a = build_limulus_cluster("lim-a")
        client_a = cluster_a.client_for(cluster_a.frontend)
        session = RecordingSession(client_a, repo, title="dept setup")
        session.setup_repo_manual()
        session.install("gromacs", comment="the chemist's request")
        session.install("torque", "maui", comment="change the schedulers")
        session.install("R")

        # Machine B: replay the document on identical delivered hardware.
        cluster_b = build_limulus_cluster("lim-b")
        client_b = cluster_b.client_for(cluster_b.frontend)
        outcomes = replay(session.playbook, client_b, build_xnit_repository())
        assert len(outcomes) == 4

        diff = diff_environments(client_a.db, client_b.db)
        assert not (diff.only_on_a or diff.only_on_b or diff.version_mismatches), (
            diff.only_on_a, diff.only_on_b)

    def test_replay_fails_loudly_with_step_identified(self):
        repo = build_xnit_repository()
        cluster = build_limulus_cluster()
        client = cluster.client_for(cluster.frontend)
        playbook = Playbook(
            title="broken",
            steps=[
                PlaybookStep("setup-repo-manual"),
                PlaybookStep("install", ("no-such-package",)),
            ],
        )
        with pytest.raises(ReproError, match="step 2"):
            replay(playbook, client, repo)
