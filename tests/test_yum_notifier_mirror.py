"""Update-notification policies and repository mirroring tests."""

import re

import pytest

from repro.errors import YumError
from repro.rpm import Package, Requirement
from repro.yum import (
    AutoApplyPolicy,
    MirrorLink,
    NotifyPolicy,
    RepoMirror,
    Repository,
    StagedRollout,
    XSEDE_REPO_STANZA,
    YumClient,
)

from .oracles.replica_state import mirror_is_current


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


def make_client(host):
    repo = Repository("xsede", priority=50)
    repo.add(mk("torque", "4.2.9", services=("pbs_server",), commands=("qsub",)))
    client = YumClient(host)
    client.configure_repo_file(
        "xsede.repo", XSEDE_REPO_STANZA.render(), available={"xsede": repo}
    )
    client.install("torque")
    client.host.services.enable("pbs_server")
    client.host.services.boot()
    return client, repo


class TestNotifyPolicy:
    def test_no_updates_quiet_report(self, frontend_host):
        client, _repo = make_client(frontend_host)
        policy = NotifyPolicy(client)
        report = policy.run_cycle()
        assert not report.has_updates
        assert "no updates pending" in report.render()

    def test_pending_update_reported_not_applied(self, frontend_host):
        client, repo = make_client(frontend_host)
        repo.add(mk("torque", "4.2.10", services=("pbs_server",)))
        policy = NotifyPolicy(client)
        report = policy.run_cycle()
        assert report.has_updates
        assert "torque" in report.render()
        assert client.db.get("torque").version == "4.2.9"  # untouched

    def test_cycles_counted(self, frontend_host):
        client, _ = make_client(frontend_host)
        policy = NotifyPolicy(client)
        policy.run_cycle()
        policy.run_cycle()
        assert [r.cycle for r in policy.reports] == [1, 2]


class TestAutoApplyPolicy:
    def test_applies_pending(self, frontend_host):
        client, repo = make_client(frontend_host)
        repo.add(mk("torque", "4.2.10", services=("pbs_server",)))
        policy = AutoApplyPolicy(client)
        result = policy.run_cycle()
        assert result is not None
        assert client.db.get("torque").version == "4.2.10"

    def test_broken_update_takes_service_down(self, frontend_host):
        # the Section 3 warning: unattended updates in production
        client, repo = make_client(frontend_host)
        bad = mk("torque", "4.2.10", services=("pbs_server",))
        repo.add(bad)
        policy = AutoApplyPolicy(client, broken_nevras={bad.nevra})
        policy.run_cycle()
        assert client.host.services.get("pbs_server").state.value == "failed"
        assert policy.incidents


class TestStagedRollout:
    def make_fleet(self, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host

        repo = Repository("xsede", priority=50)
        repo.add(mk("torque", "4.2.9", services=("pbs_server",)))
        clients = []
        for node in littlefe_machine.nodes[:3]:
            host = Host(node, CENTOS_6_5)
            c = YumClient(host)
            c.configure_repo_file(
                "xsede.repo", XSEDE_REPO_STANZA.render(), available={"xsede": repo}
            )
            c.install("torque")
            host.services.enable("pbs_server")
            host.services.boot()
            clients.append(c)
        return clients, repo

    def test_good_update_promotes(self, littlefe_machine):
        clients, repo = self.make_fleet(littlefe_machine)
        repo.add(mk("torque", "4.2.10", services=("pbs_server",)))
        rollout = StagedRollout(clients[0], clients[1:])
        outcome = rollout.run_cycle()
        assert outcome["promoted"]
        for c in clients:
            assert c.db.get("torque").version == "4.2.10"

    def test_broken_update_held_at_test_host(self, littlefe_machine):
        clients, repo = self.make_fleet(littlefe_machine)
        bad = mk("torque", "4.2.10", services=("pbs_server",))
        repo.add(bad)
        rollout = StagedRollout(clients[0], clients[1:], broken_nevras={bad.nevra})
        outcome = rollout.run_cycle()
        assert not outcome["promoted"]
        # production untouched; only the sacrificial test host is broken
        for c in clients[1:]:
            assert c.db.get("torque").version == "4.2.9"
        assert bad.nevra in rollout.held_back


class TestMirror:
    def test_initial_sync_transfers_everything(self):
        upstream = Repository("xsede")
        upstream.add(mk("a", size_bytes=10 * 1024**2))
        upstream.add(mk("b", size_bytes=5 * 1024**2))
        mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=10e6))
        stats = mirror.sync()
        assert len(stats.fetched_nevras) == 2
        assert stats.bytes_transferred == 15 * 1024**2
        assert mirror_is_current(mirror)

    def test_noop_resync_skips(self):
        upstream = Repository("xsede")
        upstream.add(mk("a"))
        mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=10e6))
        mirror.sync()
        stats = mirror.sync()
        assert stats.skipped and not stats.fetched_nevras

    def test_delta_sync_fetches_only_new(self):
        upstream = Repository("xsede")
        upstream.add(mk("a"))
        mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=10e6))
        mirror.sync()
        upstream.add(mk("b"))
        stats = mirror.sync()
        assert stats.fetched_nevras == ["b-1.0-1.x86_64"]

    def test_withdrawn_packages_removed(self):
        upstream = Repository("xsede")
        upstream.add(mk("a"))
        upstream.add(mk("b"))
        mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=10e6))
        mirror.sync()
        upstream.remove("a-1.0-1.x86_64")
        stats = mirror.sync()
        assert stats.removed_nevras == ["a-1.0-1.x86_64"]
        assert not mirror.local.has("a")

    def test_transfer_time_scales_with_size(self):
        link = MirrorLink(bandwidth_bytes_s=1e6, latency_s=0.01)
        small = link.transfer_time_s(1_000)
        large = link.transfer_time_s(10_000_000)
        assert large > small
        assert large == pytest.approx(0.01 + 10.0)

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_impossible_link_refused_at_construction(self, value):
        # a zero bandwidth divided by zero in transfer_time_s, and a negative
        # latency failed only later, in spend(), as time moving backwards
        with pytest.raises(YumError, match=re.escape(f"got {value} B/s")):
            MirrorLink(bandwidth_bytes_s=value)
        if value == 0:
            assert MirrorLink(bandwidth_bytes_s=1e6, latency_s=0).transfer_time_s(0) == 0
        else:
            with pytest.raises(YumError, match=re.escape(f"and {value} s")):
                MirrorLink(bandwidth_bytes_s=1e6, latency_s=value)

    def test_mirror_usable_as_repo(self, frontend_host):
        upstream = Repository("xsede", priority=50)
        upstream.add(mk("fftw", commands=()))
        mirror = RepoMirror(upstream, MirrorLink(bandwidth_bytes_s=10e6))
        mirror.sync()
        client = YumClient(frontend_host)
        client.repos.add_repo(mirror.local)
        client.install("fftw")
        assert client.db.has("fftw")
