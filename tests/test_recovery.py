"""repro.recovery: journal, snapshots, checkpoint/restore, supervisor.

Covers the write-ahead journal lifecycle (intent before mutation, the one
rollback loop, the JSONL write-ahead file), WAL-hardened RPM
transactions and Rocks installs (no phantom packages, no half-registered
nodes after a crash), crash-consistent snapshots with digest
verification, state-verified deterministic replay restore (including the
hypothesis property: restoring at *any* step boundary reproduces the
remaining trace byte-for-byte), each self-healing supervisor policy, and
the ISSUE's headnode-crash/resume acceptance scenario end to end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CheckpointError,
    HeadnodeCrashError,
    JournalError,
    RecoveryError,
    TransactionError,
)
from repro.faults.chaos import CLUSTERS, ChaosWorld, demo_plan
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.recovery import (
    CheckpointManager,
    Journal,
    OpState,
    RecoveryPolicy,
    Snapshot,
    Supervisor,
    TxnState,
    canonical_json,
    diff_states,
    recover_incomplete,
    state_digest,
    world_factories,
)
from repro.rocks.database import InstallState
from repro.rocks.installer import RocksInstaller, recover_install
from repro.rpm import Package, RpmDatabase, Transaction
from repro.rpm.transaction import recover_transaction
from repro.scheduler import ClusterResources, Job, JobState, MauiScheduler
from repro.sim import SimKernel


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


def _job(name, cores, runtime_s=600.0, **kw):
    return Job(name, "chaos", cores=cores, walltime_limit_s=7200.0,
               runtime_s=runtime_s, **kw)


def _crash_plan(machine, at_s):
    base = demo_plan(machine)
    return FaultPlan(
        name=f"{base.name}+crash",
        faults=base.faults
        + (FaultSpec(FaultKind.HEADNODE_CRASH, "frontend", at_s=at_s),),
    )


# --- the write-ahead journal ----------------------------------------------------


class TestJournal:
    def test_lifecycle_intent_applied_commit(self):
        journal = Journal()
        txn = journal.begin("rpm.txn", host="fe")
        op = journal.intent(txn, "install", name="a", nevra="a-1.0")
        assert op.state is OpState.INTENT
        journal.applied(txn, op)
        assert op.state is OpState.APPLIED
        journal.commit(txn)
        assert txn.state is TxnState.COMMITTED
        assert journal.open_txns() == []
        assert len(journal) == 1

    def test_open_txns_filters_by_kind(self):
        journal = Journal()
        journal.begin("rpm.txn", host="fe")
        journal.begin("mirror.sync", repo="xsede")
        assert len(journal.open_txns()) == 2
        assert [t.kind for t in journal.open_txns("mirror.sync")] == ["mirror.sync"]

    def test_closed_txn_rejects_ops(self):
        journal = Journal()
        txn = journal.begin("rpm.txn")
        journal.commit(txn)
        with pytest.raises(JournalError, match="committed"):
            journal.intent(txn, "install", name="a")
        with pytest.raises(JournalError, match="cannot commit"):
            journal.commit(txn)

    def test_undone_valid_from_intent_and_applied_but_not_twice(self):
        journal = Journal()
        txn = journal.begin("rpm.txn")
        op_a = journal.intent(txn, "install", name="a")
        op_b = journal.intent(txn, "install", name="b")
        journal.applied(txn, op_b)
        journal.undone(txn, op_a)   # crashed between intent and applied
        journal.undone(txn, op_b)   # normal rollback path
        with pytest.raises(JournalError, match="already undone"):
            journal.undone(txn, op_a)

    def test_wal_file_roundtrip_reconstructs_in_flight_work(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path=path)
        done = journal.begin("rpm.txn", host="fe")
        op = journal.intent(done, "install", name="a", nevra="a-1.0")
        journal.applied(done, op)
        journal.commit(done)
        crashed = journal.begin("rocks.install", mac="aa:bb")
        reg = journal.intent(crashed, "register", name="compute-0-0")
        journal.applied(crashed, reg)
        journal.intent(crashed, "install", name="compute-0-0")
        # ...process dies here; a fresh process replays the WAL file:
        loaded = Journal.load(path)
        assert len(loaded) == 2
        open_txns = loaded.open_txns()
        assert [t.kind for t in open_txns] == ["rocks.install"]
        txn = open_txns[0]
        assert txn.meta == {"mac": "aa:bb"}
        assert [op.state for op in txn.ops] == [OpState.APPLIED, OpState.INTENT]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError, match="line 1"):
            Journal.load(path)
        path.write_text('{"event":"applied","txn_id":1,"seq":9}\n')
        with pytest.raises(JournalError, match="unknown transaction"):
            Journal.load(path)

    def test_recover_incomplete_rolls_back_in_strict_reverse_order(self):
        journal = Journal()
        txn = journal.begin("rpm.txn")
        ops = []
        for name in ("a", "b", "c"):
            op = journal.intent(txn, "install", name=name)
            journal.applied(txn, op)
            ops.append(op)
        undone = []
        resolved = recover_incomplete(
            journal, {"rpm.txn": lambda op: undone.append(op.payload["name"])}
        )
        assert undone == ["c", "b", "a"]
        assert resolved == [txn]
        assert txn.state is TxnState.ROLLED_BACK

    def test_recover_incomplete_strict_raises_on_unhandled_kind(self):
        journal = Journal()
        txn = journal.begin("mystery.kind")
        with pytest.raises(JournalError, match="no recovery handler"):
            recover_incomplete(journal, {})
        assert txn.open

    def test_roll_back_undoes_intent_ops_too_and_skips_undone(self):
        journal = Journal()
        txn = journal.begin("rpm.txn")
        landed = journal.intent(txn, "install", name="landed")
        journal.applied(txn, landed)
        gone = journal.intent(txn, "install", name="gone")
        journal.undone(txn, gone)
        journal.intent(txn, "install", name="half")   # raised mid-mutation
        seen = []
        journal.roll_back(txn, lambda op: seen.append(op.payload["name"]))
        assert seen == ["half", "landed"]
        assert txn.state is TxnState.ROLLED_BACK
        assert {op.state for op in txn.ops} == {OpState.UNDONE}
        with pytest.raises(JournalError, match="cannot roll back"):
            journal.roll_back(txn, seen.append)

    def test_roll_back_leaves_txn_open_when_undo_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path=path)
        txn = journal.begin("rpm.txn")
        for name in ("a", "b"):
            journal.applied(txn, journal.intent(txn, "install", name=name))

        def undo(op):
            if op.payload["name"] == "a":
                raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            journal.roll_back(txn, undo)
        assert txn.open
        assert [op.state for op in txn.ops] == [OpState.APPLIED, OpState.UNDONE]
        # The WAL carries the same half-resolved shape to the next process,
        # which finishes the job.
        loaded = Journal.load(path)
        (again,) = loaded.open_txns()
        loaded.roll_back(again, lambda op: None)
        assert Journal.load(path).open_txns() == []


# --- WAL-hardened RPM transactions ----------------------------------------------


class TestTransactionWal:
    @pytest.fixture
    def db(self, frontend_host):
        return RpmDatabase(frontend_host)

    def test_committed_transaction_is_journaled(self, db):
        journal = Journal()
        Transaction(db, journal=journal).install(mk("a")).commit()
        (txn,) = journal.transactions("rpm.txn")
        assert txn.state is TxnState.COMMITTED
        assert [(op.op, op.state) for op in txn.ops] == [
            ("install", OpState.APPLIED)
        ]

    def test_mid_commit_failure_rolls_back_through_journal(self, db, monkeypatch):
        journal = Journal()
        txn = Transaction(db, journal=journal).install(mk("a")).install(mk("boom"))
        real = db._install_unchecked

        def explode(pkg):
            if pkg.name == "boom":
                raise RuntimeError("disk full")
            real(pkg)

        monkeypatch.setattr(db, "_install_unchecked", explode)
        with pytest.raises(TransactionError, match="rolled back"):
            txn.commit()
        assert db.names() == set()
        (jtxn,) = journal.transactions("rpm.txn")
        assert jtxn.state is TxnState.ROLLED_BACK

    def test_headnode_crash_mid_commit_leaves_open_txn_no_rollback(
        self, db, monkeypatch
    ):
        journal = Journal()
        txn = Transaction(db, journal=journal).install(mk("a")).install(mk("b"))
        real = db._install_unchecked

        def crash(pkg):
            if pkg.name == "b":
                raise HeadnodeCrashError("power cut")
            real(pkg)

        monkeypatch.setattr(db, "_install_unchecked", crash)
        with pytest.raises(HeadnodeCrashError):
            txn.commit()
        # The corpse ran no cleanup: "a" half-landed, the journal txn is OPEN.
        assert db.has("a")
        (jtxn,) = journal.open_txns("rpm.txn")
        assert [op.state for op in jtxn.ops] == [OpState.APPLIED, OpState.INTENT]

    def test_recover_transaction_removes_phantom_packages(self, db, monkeypatch):
        journal = Journal()
        txn = Transaction(db, journal=journal).install(mk("a")).install(mk("b"))
        real = db._install_unchecked
        monkeypatch.setattr(
            db, "_install_unchecked",
            lambda pkg: (_ for _ in ()).throw(HeadnodeCrashError("power cut"))
            if pkg.name == "b" else real(pkg),
        )
        with pytest.raises(HeadnodeCrashError):
            txn.commit()
        monkeypatch.undo()
        resolved = recover_transaction(journal, db)
        assert len(resolved) == 1
        assert resolved[0].state is TxnState.ROLLED_BACK
        assert not db.has("a")          # no phantom packages
        assert journal.open_txns() == []

    @pytest.mark.parametrize("reload", [False, True])
    def test_recover_an_open_adopt_restores_the_host(
        self, littlefe_machine, tmp_path, reload
    ):
        """A crash after a reused plan's layer landed, before its ``adopt``
        op was marked applied, leaves that one intent open; recovery —
        from the live journal or its write-ahead file — erases every
        package the op lists, and the host is its pre-commit self."""
        from repro.distro import CENTOS_6_5, Host

        class DiesBeforeApplied(Journal):
            def applied(self, txn, op):
                raise HeadnodeCrashError("power cut after the layer landed")

        pkgs = (
            mk("fftw", libraries=("libfftw3.so.3",), files=("/etc/fftw.conf",)),
            mk("gromacs", commands=("mdrun", "grompp"), services=("gmxd",)),
        )

        def queued(db, journal=None):
            txn = Transaction(db, journal=journal)
            for pkg in pkgs:
                txn.install(pkg)
            return txn

        def state(db):
            host = db.host
            return (
                db.fingerprint(),
                [(n.path, n.kind, n.owner_package, n.content, n.mode)
                 for n in host.fs.walk()],
                [(s.name, s.package) for s in host.services.all_services()],
                host.modules.avail(),
            )

        first = queued(RpmDatabase(Host(littlefe_machine.head, CENTOS_6_5)))
        plan = first.plan()
        first.commit_planned(plan)
        db = RpmDatabase(Host(littlefe_machine.head, CENTOS_6_5))
        before = state(db)
        journal = DiesBeforeApplied(path=tmp_path / "wal.jsonl")
        with pytest.raises(HeadnodeCrashError):
            queued(db, journal).commit_planned(plan)
        assert db.names() == {"fftw", "gromacs"}
        (jtxn,) = journal.open_txns("rpm.txn")
        assert [(op.op, op.state) for op in jtxn.ops] == [
            ("adopt", OpState.INTENT)
        ]
        if reload:
            journal = Journal.load(tmp_path / "wal.jsonl")
        (resolved,) = recover_transaction(journal, db)
        assert resolved.state is TxnState.ROLLED_BACK
        assert [op.state for op in resolved.ops] == [OpState.UNDONE]
        assert state(db) == before
        assert journal.open_txns() == []

    def test_check_reports_tx707_until_recovered(self, db, monkeypatch):
        journal = Journal()
        txn = Transaction(db, journal=journal).install(mk("a"))
        monkeypatch.setattr(
            db, "_install_unchecked",
            lambda pkg: (_ for _ in ()).throw(HeadnodeCrashError("power cut")),
        )
        with pytest.raises(HeadnodeCrashError):
            txn.commit()
        monkeypatch.undo()
        fresh = Transaction(db, journal=journal).install(mk("c"))
        assert any(d.code == "TX707" for d in fresh.check_diagnostics())
        with pytest.raises(TransactionError, match="TX707|still open"):
            fresh.commit()
        recover_transaction(journal, db)
        assert not any(d.code == "TX707" for d in fresh.check_diagnostics())
        fresh.commit()
        assert db.has("c")

    def test_recover_erase_rebuilds_package_from_registry(self, db, monkeypatch):
        journal = Journal()
        keep = mk("keep", commands=("keep",))
        Transaction(db).install(keep).commit()
        txn = Transaction(db, journal=journal)
        txn.erase("keep")
        txn.install(mk("next"))
        monkeypatch.setattr(
            db, "_install_unchecked",
            lambda pkg: (_ for _ in ()).throw(HeadnodeCrashError("power cut")),
        )
        with pytest.raises(HeadnodeCrashError):
            txn.commit()
        monkeypatch.undo()
        assert not db.has("keep")       # the erase landed before the crash
        recover_transaction(journal, db)
        assert db.has("keep")           # rollback re-installed the erased pkg
        assert db.host.has_command("keep")


# --- WAL-hardened Rocks installs ------------------------------------------------


class TestRocksInstallWal:
    def test_full_install_commits_one_txn_per_compute(self, littlefe_machine):
        journal = Journal()
        installer = RocksInstaller(littlefe_machine, journal=journal)
        installer.run()
        txns = journal.transactions("rocks.install")
        assert len(txns) == len(littlefe_machine.compute_nodes)
        assert all(t.state is TxnState.COMMITTED for t in txns)

    def test_kickstart_failure_aborts_cleanly(self, littlefe_machine):
        journal = Journal()
        installer = RocksInstaller(littlefe_machine, journal=journal)
        installer.inject_kickstart_crash(
            littlefe_machine.compute_nodes[0].mac_address
        )
        installer.run(continue_on_error=True)
        aborted = [
            t for t in journal.transactions("rocks.install")
            if t.state is TxnState.ABORTED
        ]
        assert len(aborted) == 1
        assert "kickstart failed" in aborted[0].meta["abort_note"]
        assert journal.open_txns() == []

    @staticmethod
    def _failing_install(machine, monkeypatch, *, wave_size, fail_at, error):
        """Run an install whose ``fail_at``-th compute kickstart raises
        ``error``; returns the journal and the insert-ethers session (the
        handle on the hosts table, DHCP and PXE the dead run leaves)."""
        from repro.rocks import installer as installer_mod

        journal = Journal()
        installer = RocksInstaller(machine, journal=journal)
        sessions = []
        real_session = installer_mod.InsertEthers

        def capture(**kw):
            sessions.append(real_session(**kw))
            return sessions[-1]

        monkeypatch.setattr(installer_mod, "InsertEthers", capture)
        kickstart = installer._kickstart_host
        calls = {"n": 0}

        def failing(*args, **kw):
            calls["n"] += 1
            if calls["n"] == fail_at + 2:  # call 1 is the frontend
                raise error
            return kickstart(*args, **kw)

        monkeypatch.setattr(installer, "_kickstart_host", failing)
        with pytest.raises(type(error)):
            installer.run(wave_size=wave_size)
        return journal, sessions[0]

    @pytest.mark.parametrize("crash_at", [0, 1, 4])
    @pytest.mark.parametrize("wave_size", [1, 3, 32])
    def test_crash_mid_wave_recovers_to_a_clean_table(
        self, littlefe_machine, monkeypatch, wave_size, crash_at
    ):
        """Every row a dead frontend leaves behind has an open transaction,
        whatever the wave size: recovery removes them all and the MACs
        re-register."""
        from repro.rocks import InsertEthers

        journal, session = self._failing_install(
            littlefe_machine, monkeypatch, wave_size=wave_size,
            fail_at=crash_at, error=HeadnodeCrashError("power cut"),
        )
        assert journal.open_txns("rocks.install")
        recover_install(journal, session.db)
        assert journal.open_txns("rocks.install") == []
        assert [r.name for r in session.db.compute_hosts()] == [
            f"compute-0-{i}" for i in range(crash_at)
        ]
        assert {r.state for r in session.db.compute_hosts()} <= {
            InstallState.INSTALLED, InstallState.FAILED,
        }
        rolled_back = [
            n.mac_address for n in littlefe_machine.compute_nodes[crash_at:]
        ]
        fresh = InsertEthers(db=session.db, dhcp=session.dhcp, pxe=session.pxe)
        assert [r.name for r in fresh.discover_wave(rolled_back)] == [
            f"compute-0-{i}" for i in range(crash_at, 5)
        ]

    def test_crash_during_discovery_recovers(self, littlefe_machine, monkeypatch):
        """A frontend that dies while the wave is still PXE-booting holds
        register intents whose rows never landed; recovery closes them."""
        from repro.network import PxeServer
        from repro.rocks.database import RocksDatabase

        journal = Journal()
        boot_once = PxeServer._boot_once
        third = littlefe_machine.compute_nodes[2].mac_address

        def dying(pxe, mac, hostname):
            if mac == third:
                raise HeadnodeCrashError("power cut")
            return boot_once(pxe, mac, hostname)

        monkeypatch.setattr(PxeServer, "_boot_once", dying)
        with pytest.raises(HeadnodeCrashError):
            RocksInstaller(littlefe_machine, journal=journal).run()
        open_txns = journal.open_txns("rocks.install")
        assert len(open_txns) == 5
        assert all(not t.applied_ops() for t in open_txns)
        recover_install(journal, RocksDatabase())
        assert journal.open_txns() == []

    @pytest.mark.parametrize("wave_size", [1, 3, 32])
    def test_node_failure_does_not_strand_the_wave(
        self, littlefe_machine, monkeypatch, wave_size
    ):
        """Only a crash leaves transactions open: a kickstart failure that
        stops the install aborts the rest of its wave too, and drops the
        rows of nodes that were discovered but never kickstarted."""
        from repro.errors import ProvisionError

        journal, session = self._failing_install(
            littlefe_machine, monkeypatch, wave_size=wave_size,
            fail_at=1, error=ProvisionError("disk died mid-install"),
        )
        assert journal.open_txns() == []
        states = [r.state for r in session.db.compute_hosts()]
        assert states == [InstallState.INSTALLED, InstallState.INSTALLING]
        # compute-0-0 committed; the failed node and whatever else its
        # wave had already discovered aborted.
        discovered = {1: 2, 3: 3, 32: 5}[wave_size]
        assert [t.state for t in journal.transactions("rocks.install")] == (
            [TxnState.COMMITTED] + [TxnState.ABORTED] * (discovered - 1)
        )

    def test_recover_install_removes_half_registered_host(self):
        from repro.rocks.database import RocksDatabase

        journal = Journal()
        rocksdb = RocksDatabase()
        rocksdb.add_host(
            name="compute-0-1", mac="aa:bb:cc:00:00:02", ip="10.1.255.253",
            appliance="compute", rack=0, rank=1,
            state=InstallState.INSTALLING,
        )
        # The exact shape installer.run() leaves behind when the frontend
        # dies between insert-ethers' row write and the kickstart finish.
        txn = journal.begin("rocks.install", mac="aa:bb:cc:00:00:02")
        reg = journal.intent(txn, "register", name="compute-0-1",
                             mac="aa:bb:cc:00:00:02")
        journal.applied(txn, reg)
        journal.intent(txn, "install", name="compute-0-1")

        resolved = recover_install(journal, rocksdb)
        assert [t.txn_id for t in resolved] == [txn.txn_id]
        assert txn.state is TxnState.ROLLED_BACK
        assert rocksdb.hosts() == []          # no half-registered phantom
        assert journal.open_txns() == []

    def test_recover_install_tolerates_row_that_never_landed(self):
        from repro.rocks.database import RocksDatabase

        journal = Journal()
        rocksdb = RocksDatabase()
        txn = journal.begin("rocks.install", mac="aa:bb:cc:00:00:03")
        journal.intent(txn, "register", name="compute-0-2",
                       mac="aa:bb:cc:00:00:03")
        # Crash hit between intent and the row write: recovery must force
        # the op to definitely-not-happened without raising.
        recover_install(journal, rocksdb)
        assert txn.state is TxnState.ROLLED_BACK
        assert rocksdb.hosts() == []


# --- snapshots ------------------------------------------------------------------


class TestSnapshot:
    def _snap(self, state):
        return Snapshot(
            world="chaos", steps=3, now_s=42.0, events_processed=5,
            config={"seed": 1}, state=state, trace_len=0,
            trace_sha256="0" * 64, digest=state_digest(state),
        )

    def test_json_roundtrip(self):
        snap = self._snap({"a": [1, 2], "b": {"c": None}})
        again = Snapshot.from_json(snap.to_json())
        assert again == snap

    def test_save_load(self, tmp_path):
        snap = self._snap({"x": 1.5})
        path = tmp_path / "world.ckpt"
        snap.save(path)
        assert Snapshot.load(path) == snap

    def test_corrupted_state_is_rejected(self):
        snap = self._snap({"x": 1})
        bad = dict(snap.to_dict())
        bad["state"] = {"x": 2}
        with pytest.raises(CheckpointError, match="digest mismatch"):
            Snapshot.from_dict(bad)

    def test_missing_fields_and_bad_version_rejected(self):
        snap = self._snap({})
        truncated = {k: v for k, v in snap.to_dict().items() if k != "state"}
        with pytest.raises(CheckpointError, match="missing fields"):
            Snapshot.from_dict(truncated)
        stale = dict(snap.to_dict())
        stale["version"] = 99
        with pytest.raises(CheckpointError, match="v99"):
            Snapshot.from_dict(stale)
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Snapshot.from_json("{nope")

    def test_canonical_json_rejects_nan_and_objects(self):
        with pytest.raises(CheckpointError, match="not canonical"):
            canonical_json(float("nan"))
        with pytest.raises(CheckpointError, match="not canonical"):
            canonical_json(object())

    def test_diff_states_pinpoints_divergence(self):
        a = {"kernel": {"now_s": 10.0}, "jobs": [1, 2, 3]}
        b = {"kernel": {"now_s": 12.0}, "jobs": [1, 2, 3]}
        assert diff_states(a, b) == ["kernel.now_s: 10.0 != 12.0"]
        assert diff_states({"x": [1]}, {"x": [1, 2]}) == ["x: length 1 != 2"]
        assert diff_states({"a": 1}, {"b": 1}) == [
            "a: missing from actual", "b: unexpected (only in actual)"
        ]


# --- checkpoint/restore ---------------------------------------------------------


class TestCheckpointManager:
    def test_interval_validation(self):
        world = ChaosWorld({"seed": 0, "job_count": 2})
        with pytest.raises(CheckpointError, match=">= 1"):
            CheckpointManager(world, every=0)

    def test_maybe_capture_cadence(self):
        world = ChaosWorld({"seed": 0, "job_count": 2})
        manager = CheckpointManager(world, every=10)
        taken = []
        for _ in range(25):
            world.step()
            snap = manager.maybe_capture()
            if snap is not None:
                taken.append(snap.steps)
        assert taken == [10, 20]
        assert manager.latest.steps == 20

    def test_restore_unknown_world_raises(self):
        state = {"x": 1}
        snap = Snapshot(
            world="atlantis", steps=1, now_s=0.0, events_processed=0,
            config={}, state=state, trace_len=0, trace_sha256="0" * 64,
            digest=state_digest(state),
        )
        with pytest.raises(CheckpointError, match="atlantis"):
            CheckpointManager.restore(snap)
        assert "chaos" in world_factories()

    def test_restore_detects_divergent_config(self):
        world = ChaosWorld({"seed": 5, "job_count": 4})
        manager = CheckpointManager(world)
        for _ in range(40):
            world.step()
        snap = manager.capture()
        # A different seed replays a different world; the digest check
        # must refuse to hand it back as if nothing happened.
        with pytest.raises(CheckpointError, match="verification failed"):
            CheckpointManager.restore(snap, seed=snap.config["seed"] + 1)

    def test_restore_resumes_byte_identical(self):
        reference = ChaosWorld({"seed": 11, "job_count": 6})
        reference.run()
        expected = reference.kernel.trace.to_jsonl()

        world = ChaosWorld({"seed": 11, "job_count": 6})
        manager = CheckpointManager(world)
        for _ in range(120):
            assert world.step()
        snap = manager.capture()
        resumed = CheckpointManager.restore(Snapshot.from_json(snap.to_json()))
        resumed.run()
        assert resumed.kernel.trace.to_jsonl() == expected
        assert resumed.result().report.ok


# --- property: restore at ANY step boundary is byte-exact -----------------------


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cut=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=8, deadline=None)
def test_snapshot_restore_at_random_boundary_is_byte_identical(seed, cut):
    """Checkpoint a seeded chaos run at an arbitrary driver-step boundary,
    restore it, run both to completion: the remaining traces must agree
    byte for byte (and the audited report must stay green)."""
    config = {"seed": seed, "job_count": 4}
    reference = ChaosWorld(config)
    reference.run()
    expected = reference.kernel.trace.to_jsonl()
    total_steps = reference.steps

    world = ChaosWorld(config)
    boundary = cut % max(1, total_steps - 1) + 1
    for _ in range(boundary):
        world.step()
    snap = CheckpointManager(world).capture()
    resumed = CheckpointManager.restore(snap)
    resumed.run()
    assert resumed.kernel.trace.to_jsonl() == expected
    assert resumed.result().report.ok, resumed.result().report.violations


# --- the supervisor -------------------------------------------------------------


def _mini_stack(machine):
    kernel = SimKernel(seed=0)
    scheduler = MauiScheduler(ClusterResources(machine), kernel=kernel)
    return kernel, scheduler


class TestSupervisorPolicies:
    def test_policy_validation(self):
        with pytest.raises(RecoveryError, match="unknown recovery action"):
            RecoveryPolicy("reboot.universe")
        with pytest.raises(RecoveryError, match="negative"):
            RecoveryPolicy("reboot.node", delay_s=-1.0)
        with pytest.raises(RecoveryError, match="max_attempts"):
            RecoveryPolicy("reboot.node", max_attempts=0)
        kernel = SimKernel()
        with pytest.raises(RecoveryError, match="positive"):
            Supervisor(kernel, period_s=0)
        sup = Supervisor(kernel)
        sup.start()
        with pytest.raises(RecoveryError, match="already running"):
            sup.start()
        sup.stop()
        sup.stop()  # idempotent
        with pytest.raises(RecoveryError, match="no policy"):
            sup.policy("made.up")

    def test_reboot_node_recovers_failed_node(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler, machine=littlefe_machine,
                         period_s=60.0)
        victim = littlefe_machine.compute_nodes[0].name
        scheduler.crash_node(victim, reason="test")
        sup.sweep()
        assert victim in sup._pending_reboots
        kernel.run_until(kernel.now_s + sup.policy("reboot.node").delay_s + 1)
        assert not scheduler.resources.is_failed(victim)
        assert victim in sup.repaired_nodes
        assert kernel.trace.count("recover.node") == 1
        assert [r.action for r in sup.repairs] == ["reboot.node"]

    def test_reboot_tolerates_node_outside_the_mesh(self, littlefe_machine):
        """MonitoringError from gmond_for (no agent for the node) is the one
        failure the reboot absorbs."""
        from repro.monitoring import GmetadTree

        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler,
                         gmetad=GmetadTree("empty", kernel=kernel),
                         period_s=60.0)
        victim = littlefe_machine.compute_nodes[0].name
        scheduler.crash_node(victim, reason="test")
        sup.sweep()
        kernel.run_until(kernel.now_s + sup.policy("reboot.node").delay_s + 1)
        assert not scheduler.resources.is_failed(victim)
        assert victim in sup.repaired_nodes

    def test_reboot_propagates_programming_errors(self, littlefe_machine):
        """A non-ReproError out of the monitoring handle is a bug, not a
        node outside the mesh: it must not be swallowed."""

        class BrokenGmond:
            def restore_heartbeat(self):
                raise RuntimeError("bug in the agent")

        class StubMesh:
            def hosts(self):
                return []

            def gmond_for(self, host):
                return BrokenGmond()

        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler, gmetad=StubMesh(),
                         period_s=60.0)
        victim = littlefe_machine.compute_nodes[0].name
        scheduler.crash_node(victim, reason="test")
        sup.sweep()
        with pytest.raises(RuntimeError, match="bug in the agent"):
            kernel.run_until(
                kernel.now_s + sup.policy("reboot.node").delay_s + 1
            )

    def test_reboot_skipped_when_power_is_dead(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler,
                         power_probe=lambda node: False, period_s=60.0)
        victim = littlefe_machine.compute_nodes[0].name
        scheduler.crash_node(victim, reason="psu")
        sup.sweep()
        assert sup._pending_reboots == set()
        assert scheduler.resources.is_failed(victim)
        assert sup.repairs == []

    def test_reboot_attempts_are_bounded(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        policies = (RecoveryPolicy("reboot.node", max_attempts=1,
                                   delay_s=10.0),)
        sup = Supervisor(kernel, scheduler=scheduler, policies=policies,
                         period_s=60.0)
        victim = littlefe_machine.compute_nodes[0].name
        scheduler.crash_node(victim, reason="flaky")
        sup.sweep()
        kernel.run_until(kernel.now_s + 11)
        assert not scheduler.resources.is_failed(victim)
        scheduler.crash_node(victim, reason="flaky again")
        sup.sweep()   # bound spent: no second reboot
        kernel.run_until(kernel.now_s + 100)
        assert scheduler.resources.is_failed(victim)
        assert len(sup.repairs) == 1

    def test_restart_gmond_restores_heartbeat(self, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host
        from repro.monitoring import GmetadTree, Gmond, Rack

        kernel, scheduler = _mini_stack(littlefe_machine)
        gmetad = GmetadTree(littlefe_machine.name, kernel=kernel)
        rack = Rack(littlefe_machine.name)
        gmetad.add_rack(rack)
        for node in littlefe_machine.nodes:
            rack.attach(Gmond(Host(node, CENTOS_6_5)))
        sup = Supervisor(kernel, scheduler=scheduler, gmetad=gmetad,
                         period_s=60.0)
        victim = littlefe_machine.compute_nodes[0].name
        gmetad.gmond_for(victim).fail_heartbeat()
        sup.sweep()
        assert gmetad.gmond_for(victim).responsive
        assert kernel.trace.count("recover.gmond") == 1

    def test_restart_gmond_skips_powered_off_hosts(self, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host
        from repro.monitoring import GmetadTree, Gmond, Rack

        kernel, scheduler = _mini_stack(littlefe_machine)
        gmetad = GmetadTree(littlefe_machine.name, kernel=kernel)
        rack = Rack(littlefe_machine.name)
        gmetad.add_rack(rack)
        for node in littlefe_machine.nodes:
            rack.attach(Gmond(Host(node, CENTOS_6_5)))
        victim = littlefe_machine.compute_nodes[0]
        victim.powered_on = False
        gmetad.gmond_for(victim.name).fail_heartbeat()
        sup = Supervisor(kernel, gmetad=gmetad)
        sup.sweep()
        assert not gmetad.gmond_for(victim.name).responsive
        assert sup.repairs == []

    def test_undrain_returns_healthy_node_to_service(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler, period_s=60.0)
        node = littlefe_machine.compute_nodes[0].name
        scheduler.resources.set_draining(node, True)
        sup.sweep()
        assert node not in scheduler.resources.draining_nodes()
        assert kernel.trace.count("recover.undrain") == 1

    def test_resubmit_failed_in_queue_job(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler, period_s=60.0)
        total = scheduler.resources.usable_cores
        # Fail every compute node so a wide job dies in the queue...
        for node in [n.name for n in littlefe_machine.compute_nodes][1:]:
            scheduler.crash_node(node, reason="test")
        job = _job("wide", total)
        scheduler.submit(job)
        assert job.state is JobState.FAILED and job.start_time_s is None
        # ...then restore capacity and let the supervisor resubmit it.
        for node in [n.name for n in littlefe_machine.compute_nodes][1:]:
            scheduler.recover_node(node)
        sup.sweep()
        assert job.state is not JobState.FAILED
        assert kernel.trace.count("recover.resubmit") == 1
        kernel.run_until(kernel.now_s + job.runtime_s + 60)
        assert job.state is JobState.COMPLETED

    def test_resubmit_skips_jobs_that_cannot_fit(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler, period_s=60.0)
        total = scheduler.resources.usable_cores
        for node in [n.name for n in littlefe_machine.compute_nodes][1:]:
            scheduler.crash_node(node, reason="test")
        job = _job("wide", total)
        scheduler.submit(job)
        assert job.state is JobState.FAILED and job.start_time_s is None
        # Capacity never comes back: the job still cannot fit, so the
        # supervisor must leave it failed rather than resubmit-thrash.
        sup.sweep()
        assert job.state is JobState.FAILED
        assert sup.repairs == []

    def test_reinstall_failed_node(self, littlefe_machine):
        journal = Journal()
        installer = RocksInstaller(littlefe_machine, journal=journal)
        victim = littlefe_machine.compute_nodes[0]
        installer.inject_kickstart_crash(victim.mac_address)
        cluster = installer.run(continue_on_error=True)
        failed = [r for r in cluster.rocksdb.compute_hosts()
                  if r.state is InstallState.FAILED]
        assert len(failed) == 1
        kernel = SimKernel(seed=0)
        sup = Supervisor(kernel, installer=installer, cluster=cluster,
                         machine=littlefe_machine)
        repairs = sup.sweep()
        assert [r.action for r in repairs] == ["reinstall.node"]
        assert repairs[0].ok
        assert all(r.state is InstallState.INSTALLED
                   for r in cluster.rocksdb.compute_hosts())
        assert kernel.trace.count("recover.reinstall") == 1

    def test_state_dict_is_canonical_jsonable(self, littlefe_machine):
        kernel, scheduler = _mini_stack(littlefe_machine)
        sup = Supervisor(kernel, scheduler=scheduler)
        scheduler.crash_node(littlefe_machine.compute_nodes[0].name,
                             reason="test")
        sup.sweep()
        canonical_json(sup.state_dict())  # must not raise


# --- the acceptance scenario: crash, resume, byte-identical ---------------------


class TestCrashResumeAcceptance:
    def test_headnode_crash_resume_matches_uninterrupted_run(self):
        machine = CLUSTERS["littlefe"]()
        plan = _crash_plan(machine, at_s=1200.0)
        config = {"seed": 3, "plan": plan.to_dict()}

        # The reference: identical plan, crash disarmed (same event
        # sequence, no raise).
        baseline = ChaosWorld({**config, "crash_armed": False})
        baseline.run()
        expected = baseline.kernel.trace.to_jsonl()
        assert baseline.result().report.ok

        # The crashing run, checkpointing as it goes.
        world = ChaosWorld(config)
        manager = CheckpointManager(world, every=25)
        with pytest.raises(HeadnodeCrashError):
            while world.step():
                manager.maybe_capture()
        assert manager.latest is not None

        # Resume from the last checkpoint with the crash disarmed.
        resumed = CheckpointManager.restore(manager.latest, crash_armed=False)
        resumed.run()
        assert resumed.kernel.trace.to_jsonl() == expected
        report = resumed.result().report
        assert report.ok, report.violations
        # The disarmed crash still emits its fault.inject marker.
        assert report.faults_injected == 6

    def test_crash_mid_mirror_sync_leaves_recoverable_journal(self):
        machine = CLUSTERS["littlefe"]()
        plan = _crash_plan(machine, at_s=25.0)   # inside the sync window
        world = ChaosWorld({"seed": 3, "plan": plan.to_dict()})
        with pytest.raises(HeadnodeCrashError):
            world.run()
        (txn,) = world.journal.open_txns("mirror.sync")
        # The mirror resync is resumable: the undo keeps the staged files.
        resolved = recover_incomplete(
            world.journal, {"mirror.sync": lambda op: None}
        )
        assert resolved == [txn]
        assert txn.state is TxnState.ROLLED_BACK
        assert world.journal.open_txns() == []

    def test_supervisor_repairs_appear_in_chaos_trace(self):
        from repro.faults.chaos import run_chaos

        run = run_chaos(seed=0, cluster="littlefe")
        assert run.report.ok
        assert run.report.repairs >= 1
        kinds = {e.kind for e in run.kernel.trace.events}
        assert any(k.startswith("recover.") for k in kinds)
        # Audit green with zero open journal transactions.
        assert run.journal.open_txns() == []

    def test_cli_crash_checkpoint_resume_cycle(self, tmp_path, capsys):
        from repro.faults.__main__ import main

        ckpt = tmp_path / "chaos.ckpt"
        resumed = tmp_path / "resumed.jsonl"
        baseline = tmp_path / "baseline.jsonl"
        assert main([
            "--seed", "3", "--checkpoint-every", "50",
            "--checkpoint-path", str(ckpt), "--crash-at", "1800", "--quiet",
        ]) == 3
        err = capsys.readouterr().err
        assert "CRASH" in err and "resume with --resume" in err
        assert ckpt.exists()
        assert main([
            "--seed", "3", "--checkpoint-path", str(ckpt), "--resume",
            "--trace", str(resumed), "--quiet",
        ]) == 0
        assert main([
            "--seed", "3", "--crash-at", "1800", "--no-crash",
            "--trace", str(baseline), "--quiet",
        ]) == 0
        assert resumed.read_bytes() == baseline.read_bytes()

    def test_cli_flag_validation(self, capsys):
        from repro.faults.__main__ import main

        assert main(["--resume"]) == 2
        assert main(["--checkpoint-every", "0"]) == 2
