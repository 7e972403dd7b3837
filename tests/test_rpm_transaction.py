"""RPM database and transaction tests: ordering, atomicity, integrity."""

from functools import partial

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

from .oracles.fs_writes import install_per_file
from .oracles.rpm_scans import unsatisfied_requirements


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
        assert unsatisfied_requirements(db) == []


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
    """check_diagnostics(): the structured records carry stable TX7xx
    codes; str() of each is its message."""

    def codes(self, txn):
        return [d.code for d in txn.check_diagnostics()]

    def strings(self, txn):
        return [str(d) for d in txn.check_diagnostics()]

    def test_check_strings_are_diagnostic_messages(self, db):
        txn = Transaction(db).install(
            mk("gromacs", requires=(Requirement("openmpi"),))
        )
        diags = txn.check_diagnostics()
        assert self.strings(txn) == [d.message for d in diags]
        assert len(diags) == 1

    def test_tx701_wrong_arch(self, db):
        txn = Transaction(db).install(mk("tool", arch="ppc64"))
        assert self.codes(txn) == ["TX701"]
        assert "built for ppc64" in self.strings(txn)[0]

    def test_tx702_erase_missing(self, db):
        txn = Transaction(db).erase("ghost")
        assert self.codes(txn) == ["TX702"]
        assert self.strings(txn) == ["cannot erase ghost: not installed"]

    def test_tx703_reinstall(self, db):
        Transaction(db).install(mk("x")).commit()
        txn = Transaction(db).install(mk("x"))
        assert self.codes(txn) == ["TX703"]

    def test_tx704_implicit_upgrade(self, db):
        Transaction(db).install(mk("x", "1.0")).commit()
        txn = Transaction(db).install(mk("x", "2.0"))
        assert self.codes(txn) == ["TX704"]
        assert "Transaction.upgrade" in self.strings(txn)[0]

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
        assert unsatisfied_requirements(db) == []

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

    @staticmethod
    def _plan_chain(db, monkeypatch, *version):
        """Plan a 300-package chain, each link requiring the one before
        (``>= 1.0`` when ``version`` is ``(Flag.GE, "1.0")``), over 300
        unrelated installed packages; return the ``Package.satisfies``
        calls and the requirements and conflicts the chain declares."""
        for i in range(300):
            db._install_unchecked(mk(f"site-{i:03d}"))
        txn = Transaction(db)
        chain = [mk("link-000", conflicts=(Requirement("vendor-mpi"),))]
        chain += [
            mk(f"link-{i:03d}",
               requires=(Requirement(f"link-{i - 1:03d}", *version),))
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
        assert plan.ordered == tuple(chain)
        return calls, declared

    def test_plan_satisfies_calls_scale_linearly(self, db, monkeypatch):
        """The contract that keeps the whole-set scan from creeping back:
        planning a 300-package chain of versioned requirements over 300
        unrelated installed packages asks ``Package.satisfies`` a constant
        number of times per declared requirement or conflict — a count,
        not a wall time.  The scanning validator and orderer asked ~10^5
        times here."""
        calls, declared = self._plan_chain(db, monkeypatch, Flag.GE, "1.0")
        assert 0 < calls <= 4 * declared

    def test_plan_of_unversioned_chain_calls_no_satisfies(self, db, monkeypatch):
        """An unversioned requirement or conflict is answered from the
        index bucket alone: every package in it provides the name."""
        calls, _declared = self._plan_chain(db, monkeypatch)
        assert calls == 0

    @pytest.mark.parametrize("hosts", [1, 50])
    def test_payload_paths_normalised_once_per_package(
        self, littlefe_machine, monkeypatch, hosts
    ):
        """The contract that keeps per-host re-normalisation from creeping
        back: installing one package on 1 or on 50 hosts normalises each of
        its paths once, when the package is first used — a count, not a
        wall time.  Every host used to normalise every path twice (conflict
        scan, then write)."""
        from repro.distro import CENTOS_6_5, Host, filesystem
        from repro.rpm import package

        dbs = [RpmDatabase(Host(littlefe_machine.head, CENTOS_6_5)) for _ in range(hosts)]
        pkg = mk(
            "gromacs", "4.6.5", files=("/opt/gromacs/.keep",),
            commands=("mdrun", "grompp"), libraries=("libgmx.so.8",),
            modulefile="gromacs/4.6.5",
        )
        calls = 0
        real = filesystem.normpath

        def counting(path):
            nonlocal calls
            calls += 1
            return real(path)

        monkeypatch.setattr(filesystem, "normpath", counting)
        monkeypatch.setattr(package, "normpath", counting)
        for db in dbs:
            txn = Transaction(db)
            txn.install(pkg)
            txn.commit()
        assert all(db.has("gromacs") for db in dbs)
        assert calls == len(pkg.payload) == 5


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
    assert unsatisfied_requirements(db) == []
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
        (host.fs, ("_write_normal", "remove_owned")),
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


# --- a reused plan's layer: adopted whole, equal to the package-by-package commit


#: payload paths drawn with overlaps: a file that is another's ancestor, a
#: file under /home (an NFS mount when drawn), /usr/bin/tool (also a
#: command's key), and ``/`` itself
_LAYER_FILES = ("/opt/a", "/opt/a/x", "/opt/b/y", "/usr/bin/tool", "/home/u/f", "/")


def _layer_pkg(data, i):
    def draw(strategy, kind):
        return data.draw(strategy, label=f"p{i}-{kind}")

    return mk(
        f"p{i}",
        files=tuple(draw(st.lists(st.sampled_from(_LAYER_FILES), max_size=2,
                                  unique=True), "files")),
        commands=tuple(draw(st.lists(st.sampled_from(("tool", f"p{i}-run")),
                                     max_size=2, unique=True), "commands")),
        services=tuple(draw(st.lists(st.sampled_from(("shared", f"p{i}d")),
                                     max_size=2, unique=True), "services")),
        modulefile=draw(st.sampled_from(("", "m/1", "m/2", f"p{i}/1.0")),
                        "module"),
    )


def _prepare(db, pre):
    """Give ``db``'s host the drawn pre-state ``pre``, outside its RPM
    database (so its DB fingerprint still matches a plan) bar a
    ``vendor-pkg``; a step the tree or the service manager refuses is
    skipped the same way on a host and on its twin."""
    from repro.distro import ModuleFile
    from repro.errors import FilesystemError, ServiceError

    host = db.host
    steps = {
        "non-dir": lambda: host.fs.write(pre["non-dir"], "squatter"),
        "foreign": lambda: host.fs.write(pre["foreign"], "vendor", owner="vendor"),
        # an installed vendor package owning a payload key: a file conflict
        "vendor-pkg": lambda: db._install_unchecked(
            mk("vendor", files=(pre["vendor-pkg"],))),
        "mount": lambda: host.fs.mount("/home", pre["mount"], "/export/home"),
        "module": lambda: host.modules.install(ModuleFile(*pre["module"].split("/"))),
        "service": lambda: host.services.register("shared", package="vendor"),
        # a layer package's own service, already registered and enabled:
        # registering it again keeps this record, so the layer is not adopted
        "own-service": lambda: host.services.enable(host.services.register(
            pre["own-service"][0], package=pre["own-service"][1]).name),
    }
    for kind, step in steps.items():
        if kind in pre:
            try:
                step()
            except (FilesystemError, ServiceError):
                pass


def _outcome(commit):
    try:
        result = commit()
    except Exception as exc:  # the type and message are compared
        return "error", type(exc), str(exc)
    return (
        "ok",
        [p.nevra for p in result.installed],
        result.upgraded,
        result.erased,
        result.file_conflicts,
    )


def _end_state(db):
    host = db.host
    remote = host.fs._mounts.get("/home", (None,))[0]
    return (
        [(n.path, n.kind, n.owner_package, n.content, n.mode)
         for n in host.fs.walk()],
        [(n.path, n.kind, n.owner_package) for n in remote.walk()]
        if remote is not None else None,
        db.fingerprint(),
        db.verify_all(),
        [(s.name, s.package, s.state, s.enabled)
         for s in host.services.all_services()],
        host.modules.avail(),
        [db.is_satisfied(Requirement(f"p{i}")) for i in range(4)],
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_property_adopted_layer_equals_per_package_commit(data):
    """One shared plan committed on host A, then on hosts B and C: each
    ends — tree, DB, ``rpm -Va``, services, modules, capability index, and
    the result or the error — exactly as its twin committed through
    ``commit()``.  Drawn: packages whose files, commands, services and
    modulefiles overlap (colliding ones included), and host pre-states
    with a vendor-owned file at a layer key, a non-directory at a layer
    ancestor, an NFS mount on /home, an installed modulefile, a vendor
    service, or a layer package's own service, enabled.  The twin installs
    each package one payload path at a time (``install_per_file``).  A
    clean host whose twin commits cleanly adopts the layer."""
    from repro.distro import CENTOS_6_5, Host
    from repro.hardware import build_littlefe_modified

    machine = build_littlefe_modified().machine
    pkgs = [_layer_pkg(data, i) for i in range(data.draw(st.integers(1, 4),
                                                         label="packages"))]

    def queued(db, journal=None):
        txn = Transaction(db, journal=journal)
        for pkg in pkgs:
            txn.install(pkg)
        return txn

    first = queued(RpmDatabase(Host(machine.head, CENTOS_6_5)))
    plan = first.plan()
    _outcome(lambda: first.commit_planned(plan))
    for node in machine.compute_nodes[:2]:
        kinds = data.draw(st.lists(st.sampled_from(
            ("non-dir", "foreign", "mount", "module", "service", "own-service")),
            max_size=2, unique=True), label=f"{node.name}-pre")
        pre = {kind: None for kind in kinds}
        if "non-dir" in pre:
            pre["non-dir"] = data.draw(st.sampled_from(("/opt/a", "/opt/b")))
        if "foreign" in pre:
            pre["foreign"] = data.draw(st.sampled_from(_LAYER_FILES[:-1]))
        if "module" in pre:
            pre["module"] = data.draw(st.sampled_from(("m/1", "m/0")))
        if "own-service" in pre:
            owned = [(s, p.name) for p in pkgs for s in p.services]
            pre["own-service"] = data.draw(st.sampled_from(owned or [("p0d", "p0")]))
        dbs = _twins(node, pre)
        dbs[1]._install_unchecked = partial(install_per_file, dbs[1])
        journal = Journal()
        adopted = _outcome(lambda: queued(dbs[0], journal).commit_planned(plan))
        reference = _outcome(lambda: queued(dbs[1]).commit())
        assert adopted == reference
        assert _end_state(dbs[0]) == _end_state(dbs[1])
        (jtxn,) = journal.transactions("rpm.txn")
        if not kinds and reference[0] == "ok":
            assert [op.op for op in jtxn.ops] == ["adopt"]


def _twins(node, pre):
    """Two databases on fresh hosts of ``node``, each given the pre-state
    ``pre`` (its own remote tree for a mount) and a built capability index."""
    from repro.distro import CENTOS_6_5, Filesystem, Host

    dbs = []
    for _twin in range(2):
        db = RpmDatabase(Host(node, CENTOS_6_5))
        if "mount" in pre:
            remote = Filesystem()
            remote.mkdir("/export/home")
            pre["mount"] = remote
        _prepare(db, pre)
        db.is_satisfied(Requirement("anything"))  # build the index
        dbs.append(db)
    return dbs


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_property_node_table_install_equals_per_file_writes(data):
    """Packages committed on a host, where each payload whose keys are
    free goes down as the package's node table, end — tree, DB, ``rpm
    -Va``, services, modules, capability index, file conflicts, and the
    result or the error — exactly as on a twin that writes each payload
    path through ``tests/oracles/fs_writes.py`` and then registers the
    services and the modulefile.  Drawn: packages whose files, commands,
    services and modulefiles overlap (colliding ones included), and host
    pre-states with an installed vendor package or a bare vendor file at
    a payload key, a non-directory at an ancestor, an NFS mount on /home,
    an installed modulefile and a service held by another package.  The
    file conflicts are also those the oracle's routed lookups find."""
    from repro.hardware import build_littlefe_modified

    from .oracles.fs_writes import _route, raw_payload

    node = build_littlefe_modified().machine.compute_nodes[0]
    pkgs = [_layer_pkg(data, i) for i in range(data.draw(st.integers(1, 3),
                                                         label="packages"))]
    kinds = data.draw(st.lists(st.sampled_from(
        ("vendor-pkg", "foreign", "non-dir", "mount", "module", "service")),
        max_size=3, unique=True), label="pre")
    pre = {kind: None for kind in kinds}
    keys = sorted({key for pkg in pkgs for key in pkg.default_paths()} - {"/"})
    for kind in ("vendor-pkg", "foreign"):
        if kind in pre:
            pre[kind] = data.draw(st.sampled_from(keys or _LAYER_FILES[:-1]),
                                  label=kind)
    if "non-dir" in pre:
        pre["non-dir"] = data.draw(st.sampled_from(("/opt/a", "/opt/b")))
    if "module" in pre:
        pre["module"] = data.draw(st.sampled_from(("m/1", "m/0")))
    dbs = _twins(node, pre)
    dbs[1]._install_unchecked = partial(install_per_file, dbs[1])
    fs = dbs[1].host.fs
    conflicts = []
    for pkg in pkgs:
        for path, _content, _mode in raw_payload(pkg):
            target, key = _route(fs, path)
            found = target._nodes.get(key)
            owner = found.owner_package if found is not None else None
            if owner and owner != pkg.name and dbs[1].has(owner):
                conflicts.append(f"{key} ({owner} -> {pkg.name})")

    def commit(db):
        txn = Transaction(db)
        for pkg in pkgs:
            txn.install(pkg)
        return txn.commit()

    outcome = _outcome(lambda: commit(dbs[0]))
    assert outcome == _outcome(lambda: commit(dbs[1]))
    assert _end_state(dbs[0]) == _end_state(dbs[1])
    if outcome[0] == "ok":
        assert outcome[-1] == conflicts


def test_reused_plan_writes_its_payload_once(littlefe_machine, monkeypatch):
    """The contract that keeps per-host payload writes from creeping back:
    one plan committed on 50 fresh hosts makes no payload ``_write_normal``
    call on a host whose payload keys are free — each package's own node
    table goes down whole, so every host holds the package's node objects
    — and calls ``ServiceManager.register`` for its services and
    ``ModuleSystem.install`` for its modulefiles on the first host only;
    every later host journals one ``adopt`` op and ends with the same
    installed set — a count, not a wall time."""
    _commit_one_plan_on_fifty_hosts(littlefe_machine, monkeypatch, None)


def test_a_vendor_file_sends_one_host_down_the_per_file_path(
    littlefe_machine, monkeypatch
):
    """As above, with a vendor file at one payload key of host 7: just
    that host commits package by package, and just the package owning
    the key is written one path at a time."""
    _commit_one_plan_on_fifty_hosts(littlefe_machine, monkeypatch, 7)


def _commit_one_plan_on_fifty_hosts(littlefe_machine, monkeypatch, vendor_host):
    """Commit one two-package plan on 50 fresh hosts, ``vendor_host`` (if
    any) holding a vendor file at ``/usr/bin/mdrun``, counting payload
    writes, service registrations and modulefile installs per host."""
    from repro.distro import CENTOS_6_5, Filesystem, Host, ModuleSystem
    from repro.distro.services import ServiceManager

    fftw = mk("fftw", "3.3.3", libraries=("libfftw3.so.3",))
    gromacs = mk("gromacs", "4.6.5", files=("/opt/gromacs/share/top/oplsaa.ff",),
                 commands=("mdrun", "grompp"), services=("gmxd",),
                 modulefile="gromacs/4.6.5", requires=(Requirement("fftw"),))
    pkgs = (fftw, gromacs)
    hosts = [Host(littlefe_machine.head, CENTOS_6_5) for _ in range(50)]
    if vendor_host is not None:
        hosts[vendor_host].fs.write("/usr/bin/mdrun", "vendor", owner="vendor")
    writers = []
    real = Filesystem._write_normal

    def counting(fs, *args):
        writers.append(fs)
        return real(fs, *args)

    monkeypatch.setattr(Filesystem, "_write_normal", counting)
    registrars, module_installers = [], []

    def recording(calls, real):
        def record(owner, *args, **kwargs):
            calls.append(owner)
            return real(owner, *args, **kwargs)
        return record

    monkeypatch.setattr(ServiceManager, "register",
                        recording(registrars, ServiceManager.register))
    monkeypatch.setattr(ModuleSystem, "install",
                        recording(module_installers, ModuleSystem.install))
    plan = None
    journals, fingerprints = [], []
    for host in hosts:
        db = RpmDatabase(host)
        journal = Journal()
        txn = Transaction(db, journal=journal)
        for pkg in pkgs:
            txn.install(pkg)
        plan = plan or txn.plan()
        txn.commit_planned(plan)
        journals.append(journal)
        fingerprints.append(db.fingerprint())
    per_package = [hosts[0]]
    if vendor_host is None:
        assert writers == []
    else:
        per_package.append(hosts[vendor_host])
        assert writers == [hosts[vendor_host].fs] * len(gromacs.payload)
    assert registrars == [host.services for host in per_package]
    assert module_installers == [host.modules for host in per_package]
    for i, host in enumerate(hosts):
        assert [(s.name, s.package) for s in host.services.all_services()] == [
            ("gmxd", "gromacs")
        ]
        assert host.modules.avail() == ["gromacs/4.6.5(default)"]
        for pkg in pkgs:
            for key, node in pkg.node_table[1].items():
                held = host.fs.lookup(key)
                if i == vendor_host and pkg is gromacs:
                    assert held == node and held is not node
                else:
                    assert held is node
    for i, journal in enumerate(journals[1:], start=1):
        (jtxn,) = journal.transactions("rpm.txn")
        assert jtxn.state is TxnState.COMMITTED
        ops = ["install", "install"] if i == vendor_host else ["adopt"]
        assert [op.op for op in jtxn.ops] == ops
    assert len(set(fingerprints)) == 1


@pytest.mark.parametrize("case", ["db-state", "arch", "install-set", "contents"])
def test_commit_planned_refuses_a_transaction_the_plan_does_not_match(
    littlefe_machine, case
):
    """A transaction that differs from a reused plan's — in its DB state,
    its host's architecture, its install set, or a queued package with
    the plan's NEVRA but other requirements — raises before anything
    changes, even once the plan has a layer to adopt."""
    from repro.distro import CENTOS_6_5, Host

    from .test_extensions import raspberry_pi_host

    lib = mk("lib", libraries=("libx.so.1",))
    app = mk("app", files=("/opt/app/bin/run",), requires=(Requirement("lib"),))

    def queued(db, pkgs):
        txn = Transaction(db)
        for pkg in pkgs:
            txn.install(pkg)
        return txn

    plan = None
    for _ in range(2):  # the second commit builds the plan's layer
        txn = queued(RpmDatabase(Host(littlefe_machine.head, CENTOS_6_5)),
                     (lib, app))
        plan = plan or txn.plan()
        txn.commit_planned(plan)

    host = raspberry_pi_host() if case == "arch" else Host(
        littlefe_machine.head, CENTOS_6_5
    )
    db = RpmDatabase(host)
    queue = (lib, app)
    if case == "db-state":
        db._install_unchecked(mk("vendor"))
    elif case == "install-set":
        queue = (lib,)
    elif case == "contents":
        queue = (lib, mk("app", files=("/opt/app/bin/run",),
                         requires=(Requirement("missing"),)))
        assert queue[1].nevra == app.nevra
    before = (db.fingerprint(), list(host.fs.walk()))
    with pytest.raises(TransactionError, match="does not match the"):
        queued(db, queue).commit_planned(plan)
    assert (db.fingerprint(), list(host.fs.walk())) == before
