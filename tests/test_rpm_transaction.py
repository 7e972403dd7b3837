"""RPM database and transaction tests: ordering, atomicity, integrity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConflictError,
    DependencyError,
    PackageNotFoundError,
    RpmError,
    TransactionError,
)
from repro.distro.filesystem import FileKind
from repro.recovery import Journal, OpState, TxnState
from repro.rpm import Flag, Package, Requirement, RpmDatabase, Transaction


@pytest.fixture
def db(frontend_host):
    return RpmDatabase(frontend_host)


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


def host_state(db):
    """What the rpm layer keeps on a host: the installed set, every file
    and owned directory (unowned directories a write created on its way
    are nobody's payload — erase leaves them, so rollback does), which
    package registered which service, and the module tree."""
    host = db.host
    return (
        db.fingerprint(),
        {
            n.path: (n.kind, n.owner_package, n.content, n.mode)
            for n in host.fs.walk()
            if n.kind is not FileKind.DIRECTORY or n.owner_package
        },
        sorted((s.name, s.package) for s in host.services.all_services()),
        host.modules.avail(),
    )


class TestDatabase:
    def test_install_materialises_payload(self, db):
        txn = Transaction(db)
        txn.install(
            mk("gromacs", commands=("mdrun",), libraries=("libgmx.so.8",),
               modulefile="gromacs/1.0")
        )
        txn.commit()
        host = db.host
        assert host.has_command("mdrun")
        assert host.fs.exists("/usr/lib64/libgmx.so.8")
        assert host.modules.has("gromacs/1.0")

    def test_erase_removes_payload(self, db):
        Transaction(db).install(mk("tool", commands=("tool",))).commit()
        Transaction(db).erase("tool").commit()
        assert not db.has("tool")
        assert not db.host.has_command("tool")

    def test_get_missing_raises(self, db):
        with pytest.raises(PackageNotFoundError):
            db.get("nope")

    def test_double_install_rejected_at_primitive(self, db):
        db._install_unchecked(mk("x"))
        with pytest.raises(RpmError, match="already installed"):
            db._install_unchecked(mk("x", "2.0"))

    def test_whatrequires_finds_sole_dependants(self, db):
        txn = Transaction(db)
        txn.install(mk("openmpi"))
        txn.install(mk("gromacs", requires=(Requirement("openmpi"),)))
        txn.commit()
        assert [p.name for p in db.whatrequires("openmpi")] == ["gromacs"]
        assert db.whatrequires("gromacs") == []

    def test_whatrequires_ignores_multi_provider_reqs(self, db):
        cap = Requirement("mpi-impl")
        from repro.rpm import Capability

        txn = Transaction(db)
        txn.install(mk("openmpi", provides=(Capability("mpi-impl"),)))
        txn.install(mk("mpich", provides=(Capability("mpi-impl"),)))
        txn.install(mk("app", requires=(cap,)))
        txn.commit()
        # either provider alone satisfies app; erasing one breaks nothing
        assert db.whatrequires("openmpi") == []

    def test_unsatisfied_requirements_empty_on_healthy_db(self, db):
        txn = Transaction(db)
        txn.install(mk("a"))
        txn.install(mk("b", requires=(Requirement("a"),)))
        txn.commit()
        assert db.unsatisfied_requirements() == []


class TestTransactionValidation:
    def test_missing_dependency_rejected(self, db):
        txn = Transaction(db).install(
            mk("gromacs", requires=(Requirement("openmpi"),))
        )
        with pytest.raises(DependencyError, match="nothing provides"):
            txn.commit()
        assert len(db) == 0

    def test_erase_breaking_dependant_rejected(self, db):
        Transaction(db).install(mk("openmpi")).install(
            mk("gromacs", requires=(Requirement("openmpi"),))
        ).commit()
        with pytest.raises(DependencyError):
            Transaction(db).erase("openmpi").commit()
        assert db.has("openmpi")

    def test_conflict_rejected(self, db):
        txn = Transaction(db)
        txn.install(mk("torque", conflicts=(Requirement("slurm"),)))
        txn.install(mk("slurm"))
        with pytest.raises(ConflictError):
            txn.commit()

    def test_conflict_with_installed_rejected(self, db):
        Transaction(db).install(mk("slurm")).commit()
        txn = Transaction(db).install(
            mk("torque", conflicts=(Requirement("slurm"),))
        )
        with pytest.raises(ConflictError):
            txn.commit()

    def test_empty_transaction_rejected(self, db):
        with pytest.raises(TransactionError, match="empty"):
            Transaction(db).commit()

    def test_already_installed_rejected(self, db):
        Transaction(db).install(mk("x")).commit()
        with pytest.raises(TransactionError, match="already installed"):
            Transaction(db).install(mk("x")).commit()

    def test_erase_not_installed_rejected(self, db):
        with pytest.raises(TransactionError, match="not installed"):
            Transaction(db).erase("ghost").commit()

    def test_downgrade_refused_without_flag(self, db):
        Transaction(db).install(mk("x", "2.0")).commit()
        with pytest.raises(TransactionError, match="not newer"):
            Transaction(db).upgrade(mk("x", "1.0"))

    def test_downgrade_allowed_with_flag(self, db):
        Transaction(db).install(mk("x", "2.0")).commit()
        Transaction(db, allow_downgrade=True).upgrade(mk("x", "1.0")).commit()
        assert db.get("x").version == "1.0"

    def test_conflicting_double_queue_rejected(self, db):
        txn = Transaction(db)
        txn.install(mk("x", "1.0"))
        with pytest.raises(TransactionError, match="also install"):
            txn.install(mk("x", "2.0"))


class TestCheckDiagnostics:
    """check() is a thin shim over check_diagnostics(): the structured
    records carry stable TX7xx codes; str() of each is the legacy string."""

    def codes(self, txn):
        return [d.code for d in txn.check_diagnostics()]

    def test_check_strings_are_diagnostic_messages(self, db):
        txn = Transaction(db).install(
            mk("gromacs", requires=(Requirement("openmpi"),))
        )
        diags = txn.check_diagnostics()
        assert txn.check() == [str(d) for d in diags]
        assert txn.check() == [d.message for d in diags]

    def test_tx701_wrong_arch(self, db):
        txn = Transaction(db).install(mk("tool", arch="ppc64"))
        assert self.codes(txn) == ["TX701"]
        assert "built for ppc64" in txn.check()[0]

    def test_tx702_erase_missing(self, db):
        txn = Transaction(db).erase("ghost")
        assert self.codes(txn) == ["TX702"]
        assert txn.check() == ["cannot erase ghost: not installed"]

    def test_tx703_reinstall(self, db):
        Transaction(db).install(mk("x")).commit()
        txn = Transaction(db).install(mk("x"))
        assert self.codes(txn) == ["TX703"]

    def test_tx704_implicit_upgrade(self, db):
        Transaction(db).install(mk("x", "1.0")).commit()
        txn = Transaction(db).install(mk("x", "2.0"))
        assert self.codes(txn) == ["TX704"]
        assert "Transaction.upgrade" in txn.check()[0]

    def test_tx705_missing_dependency(self, db):
        txn = Transaction(db).install(
            mk("gromacs", requires=(Requirement("openmpi"),))
        )
        assert self.codes(txn) == ["TX705"]

    def test_tx706_conflict(self, db):
        txn = Transaction(db)
        txn.install(mk("torque", conflicts=(Requirement("slurm"),)))
        txn.install(mk("slurm"))
        assert self.codes(txn) == ["TX706"]

    def test_diagnostics_carry_location_and_severity(self, db):
        txn = Transaction(db).erase("ghost")
        (diag,) = txn.check_diagnostics()
        assert diag.location == "transaction:erase/ghost"
        assert diag.severity.value == "error"
        assert diag.subsystem == "transaction"

    def test_commit_exception_type_follows_codes(self, db):
        # TX705 -> DependencyError even though other problems also queue.
        txn = Transaction(db).erase("ghost").install(
            mk("gromacs", requires=(Requirement("openmpi"),))
        )
        assert set(self.codes(txn)) == {"TX702", "TX705"}
        with pytest.raises(DependencyError):
            txn.commit()

    def test_clean_transaction_has_no_diagnostics(self, db):
        txn = Transaction(db).install(mk("openmpi"))
        assert txn.check_diagnostics() == []
        assert txn.check() == []


class TestTransactionOrderingAndAtomicity:
    def test_install_order_dependencies_first(self, db):
        txn = Transaction(db)
        txn.install(mk("app", requires=(Requirement("lib"),)))
        txn.install(mk("lib", requires=(Requirement("base"),)))
        txn.install(mk("base"))
        order = [p.name for p in txn._install_order()]
        assert order.index("base") < order.index("lib") < order.index("app")

    def test_cycles_co_installed(self, db):
        txn = Transaction(db)
        txn.install(mk("a", requires=(Requirement("b"),)))
        txn.install(mk("b", requires=(Requirement("a"),)))
        result = txn.commit()
        assert len(result.installed) == 2

    def test_upgrade_records_old_and_new(self, db):
        Transaction(db).install(mk("x", "1.0")).commit()
        result = Transaction(db).upgrade(mk("x", "2.0")).commit()
        assert len(result.upgraded) == 1
        old, new = result.upgraded[0]
        assert old.version == "1.0" and new.version == "2.0"

    def test_upgrade_of_missing_package_installs(self, db):
        result = Transaction(db).upgrade(mk("x", "2.0")).commit()
        assert [p.name for p in result.installed] == ["x"]

    def test_mid_commit_failure_rolls_back(self, db, monkeypatch):
        Transaction(db).install(mk("keep", "1.0")).commit()
        txn = Transaction(db)
        txn.install(mk("a"))
        txn.install(mk("boom"))
        real = db._install_unchecked

        def explode(pkg):
            if pkg.name == "boom":
                raise RuntimeError("disk full")
            real(pkg)

        monkeypatch.setattr(db, "_install_unchecked", explode)
        with pytest.raises(TransactionError, match="rolled back"):
            txn.commit()
        monkeypatch.undo()
        assert db.names() == {"keep"}
        assert db.unsatisfied_requirements() == []

    def test_failure_inside_a_primitive_leaves_no_phantom_package(self, db):
        """No monkeypatch: the second package's modulefile is taken, so the
        primitive itself refuses — and neither it nor the survivor's module
        may show on the host afterwards."""
        gnu = mk("openmpi-gnu", "1.6", commands=("mpirun-gnu",),
                 modulefile="openmpi/1.6")
        intel = mk("openmpi-intel", "1.6", commands=("mpirun-intel",),
                   modulefile="openmpi/1.6")
        Transaction(db).install(gnu).commit()
        before = host_state(db)
        journal = Journal()
        with pytest.raises(TransactionError, match="modulefile exists"):
            Transaction(db, journal=journal).install(intel).commit()
        assert not db.has("openmpi-intel")
        assert not db.host.has_command("mpirun-intel")
        assert host_state(db) == before
        assert db.host.modules.avail() == ["openmpi/1.6(default)"]
        (txn,) = journal.transactions("rpm.txn")
        assert txn.state is TxnState.ROLLED_BACK
        assert [op.state for op in txn.ops] == [OpState.UNDONE]

    def test_failure_after_payload_writes_is_undone(self, db):
        """The service belongs to another package, so ``register`` raises
        after the DB entry and every file of the newcomer have landed."""
        Transaction(db).install(mk("sge", services=("sched",))).commit()
        before = host_state(db)
        rival = mk("torque", commands=("qsub",), libraries=("libtorque.so.2",),
                   services=("pbs_mom", "sched"))
        with pytest.raises(TransactionError, match="rolled back"):
            Transaction(db).install(mk("dep")).install(rival).commit()
        assert db.names() == {"sge"}
        assert host_state(db) == before
        assert db.verify_all() == {}

    def test_verify_reports_a_deleted_modulefile(self, db):
        pkg = mk("gromacs", commands=("mdrun",), modulefile="gromacs/4.6.5")
        assert "/etc/modulefiles/gromacs/4.6.5" in pkg.default_paths()
        assert "/etc/modulefiles/fftw/1.0" in mk(
            "fftw", modulefile="fftw").default_paths()
        Transaction(db).install(pkg).commit()
        assert db.verify("gromacs") == []
        db.host.fs.remove("/etc/modulefiles/gromacs/4.6.5")
        assert db.verify("gromacs") == [
            "missing   /etc/modulefiles/gromacs/4.6.5"
        ]

    def test_summary_counts(self, db):
        result = Transaction(db).install(mk("a")).install(mk("b")).commit()
        assert "Install 2" in result.summary()
        assert result.change_count == 2

    def test_plan_satisfies_calls_scale_linearly(self, db, monkeypatch):
        """The contract that keeps the whole-set scan from creeping back:
        planning a 300-package chain over 300 unrelated installed packages
        asks ``Package.satisfies`` a constant number of times per declared
        requirement or conflict — a count, not a wall time.  The scanning
        validator and orderer asked ~10^5 times here."""
        for i in range(300):
            db._install_unchecked(mk(f"site-{i:03d}"))
        txn = Transaction(db)
        chain = [mk("link-000", conflicts=(Requirement("vendor-mpi"),))]
        chain += [
            mk(f"link-{i:03d}", requires=(Requirement(f"link-{i - 1:03d}"),))
            for i in range(1, 300)
        ]
        for pkg in reversed(chain):
            txn.install(pkg)
        declared = sum(len(p.requires) + len(p.conflicts) for p in chain)
        calls = 0
        real = Package.satisfies

        def counting(self, req):
            nonlocal calls
            calls += 1
            return real(self, req)

        monkeypatch.setattr(Package, "satisfies", counting)
        plan = txn.plan()
        assert plan.order_nevras == tuple(p.nevra for p in chain)
        assert 0 < calls <= 4 * declared


# --- property: closure integrity over random dependency DAGs --------------------


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_random_dag_installs_satisfy_all_requirements(n, data):
    """Installing a random dependency DAG in one transaction always yields a
    DB with zero unsatisfied requirements, regardless of queue order."""
    from repro.distro import CENTOS_6_5, Host
    from repro.hardware import build_littlefe_modified

    host = Host(build_littlefe_modified().machine.head, CENTOS_6_5)
    db = RpmDatabase(host)
    packages = []
    for i in range(n):
        # each package may depend on any lower-numbered package (acyclic)
        deps = tuple(
            Requirement(f"p{j}")
            for j in range(i)
            if data.draw(st.booleans(), label=f"dep-{i}-{j}")
        )
        packages.append(mk(f"p{i}", requires=deps))
    order = data.draw(st.permutations(packages), label="queue-order")
    txn = Transaction(db)
    for p in order:
        txn.install(p)
    txn.commit()
    assert db.unsatisfied_requirements() == []
    assert len(db) == n


# --- property: a commit that fails anywhere inside any primitive is a no-op -----


def _fail_primitive(db, k, j):
    """Make primitive call number ``k`` on ``db`` fail part-way: it raises
    in place of its side effect number ``j`` (a file write, a payload
    removal, a service or module (un)registration), or after its real body
    has run in full if it has no more than ``j`` of them.  Later calls —
    the rollback's own — run untouched."""
    host = db.host
    calls = 0
    effects = None  # side effects seen so far inside call k; None outside it

    def primitive(real):
        def wrapped(arg):
            nonlocal calls, effects
            calls += 1
            if calls - 1 != k:
                return real(arg)
            effects = 0
            try:
                real(arg)
            finally:
                effects = None
            raise RuntimeError("primitive failed after its body")
        return wrapped

    def effect(real):
        def wrapped(*args, **kwargs):
            nonlocal effects
            if effects is not None:
                if effects == j:
                    effects = None
                    raise RuntimeError(f"primitive failed at side effect {j}")
                effects += 1
            return real(*args, **kwargs)
        return wrapped

    db._install_unchecked = primitive(db._install_unchecked)
    db._erase_unchecked = primitive(db._erase_unchecked)
    for owner, names in (
        (host.fs, ("write", "remove_owned")),
        (host.services, ("register", "unregister_package")),
        (host.modules, ("install", "remove")),
    ):
        for name in names:
            setattr(owner, name, effect(getattr(owner, name)))


def _payload_pkg(data, name, version):
    """``name``-``version`` with a drawn subset of every payload kind."""
    def has(kind):
        return data.draw(st.booleans(), label=f"{name}-{version}-{kind}")

    return mk(
        name,
        version,
        files=(f"/opt/{name}/share/data",) if has("file") else (),
        commands=(f"{name}-run", f"{name}-ctl") if has("commands") else (),
        libraries=(f"lib{name}.so.1",) if has("library") else (),
        services=(f"{name}d",) if has("service") else (),
        modulefile=f"{name}/{version}" if has("module") else "",
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_commit_failing_inside_any_primitive_restores_the_host(data):
    """Random install / upgrade / erase transactions on a populated host,
    primitive ``k`` failing after ``j`` of its side effects: the host is
    its pre-transaction self and the journal says so op by op."""
    from repro.distro import CENTOS_6_5, Host
    from repro.hardware import build_littlefe_modified

    db = RpmDatabase(Host(build_littlefe_modified().machine.head, CENTOS_6_5))
    populate = Transaction(db)
    for i in range(data.draw(st.integers(1, 4), label="installed")):
        populate.install(_payload_pkg(data, f"p{i}", "1.0"))
    populate.commit()

    journal = Journal()
    txn = Transaction(db, journal=journal)
    primitives = 0
    for name in sorted(db.names()):
        action = data.draw(
            st.sampled_from(["keep", "erase", "upgrade"]), label=f"{name}-action"
        )
        if action == "erase":
            txn.erase(name)
            primitives += 1
        elif action == "upgrade":
            txn.upgrade(_payload_pkg(data, name, "2.0"))
            primitives += 2
    fresh = data.draw(st.integers(0 if primitives else 1, 2), label="fresh")
    for i in range(fresh):
        txn.install(_payload_pkg(data, f"n{i}", "1.0"))
    primitives += fresh

    before = host_state(db)
    _fail_primitive(
        db,
        data.draw(st.integers(0, primitives - 1), label="k"),
        data.draw(st.integers(0, 7), label="j"),
    )
    with pytest.raises(TransactionError, match="rolled back"):
        txn.commit()
    assert host_state(db) == before
    assert db.verify_all() == {}
    (jtxn,) = journal.transactions("rpm.txn")
    assert jtxn.state is TxnState.ROLLED_BACK
    assert jtxn.ops and all(op.state is OpState.UNDONE for op in jtxn.ops)
