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
from repro.rpm import Flag, Package, Requirement, RpmDatabase, Transaction


@pytest.fixture
def db(frontend_host):
    return RpmDatabase(frontend_host)


def mk(name, version="1.0", **kw):
    return Package(name=name, version=version, **kw)


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
