"""Property tests: indexed query paths vs the retained scan oracles.

The hot-path overhaul gave Repository / RepoSet / RpmDatabase inverted
capability indexes, keeping every pre-index implementation as a reference
(``tests/oracles/yum_scans.py`` for the repository classes,
``tests/oracles/rpm_scans.py`` for the RPM database, the transaction and the
depsolver closure).  A derived value is either absent or current: the
mutators update or drop it, and nothing else guards it.  These tests drive
random add/remove/install/erase sequences through each container and, after
a drawn subset of the steps (and the last one), compare the indexed answers
and the memoised digests the resolution cache is keyed on against the scans.
Steps left unqueried leave an index unbuilt or a digest unread, so mutations
land on both states; a stale index or digest diverges here.  The transaction
and ``_closure`` properties do the same over random package universes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DependencyError,
    PackageNotFoundError,
    RpmError,
    TraceError,
    TransactionError,
    YumError,
)
from repro.rpm import Capability, Flag, Package, Requirement, Transaction
from repro.yum import RepoSet, Repository
from repro.yum.depsolver import _closure

from .oracles import yum_scans
from .oracles.rpm_scans import (
    scan_check_diagnostics,
    scan_closure,
    scan_fingerprint,
    scan_install_order,
    scan_is_satisfied,
    scan_providers_of,
)

NAMES = ["alpha", "bravo", "charlie", "delta"]
CAPS = ["mpi-impl", "libfoo.so", "batch-system"]


def _package(name_i, version_i, cap_i, obsoletes_i, release="1"):
    kw = {"release": release}
    if cap_i is not None:
        # Past CAPS the index wraps onto NAMES: a package may provide another
        # package's name, or (explicitly, a second time) its own.
        kw["provides"] = (Capability((CAPS + NAMES)[cap_i]),)
    if obsoletes_i is not None and NAMES[obsoletes_i] != NAMES[name_i]:
        kw["obsoletes"] = (Requirement(NAMES[obsoletes_i]),)
    return Package(NAMES[name_i], f"{version_i}.0", **kw)


packages = st.builds(
    _package,
    st.integers(0, len(NAMES) - 1),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, len(CAPS) + len(NAMES) - 1)),
    st.one_of(st.none(), st.integers(0, len(NAMES) - 1)),
)

#: (action, package, query after this step?)
edit_sequences = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), packages, st.booleans()),
    min_size=1,
    max_size=12,
)

#: a package as ``packages`` draws one, with a release drawn too — an
#: empty one compares equal to every release of its version under ``<``;
#: sorts place it before every release of its version (``EVR_ORDER``)
released_packages = st.builds(
    _package,
    st.integers(0, len(NAMES) - 1),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, len(CAPS) + len(NAMES) - 1)),
    st.one_of(st.none(), st.integers(0, len(NAMES) - 1)),
    st.sampled_from(["1", "2", ""]),
)

#: as ``edit_sequences``, over ``released_packages``
released_edit_sequences = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), released_packages, st.booleans()),
    min_size=1,
    max_size=12,
)


def _queried(steps):
    """Each step with its trailing query flag kept as drawn, except that the
    last step is always queried."""
    last = len(steps) - 1
    return [(*step[:-1], step[-1] or i == last) for i, step in enumerate(steps)]


QUERIES = [Requirement(n) for n in NAMES + CAPS] + [
    Requirement("alpha", Flag.GE, "2.0"),
    Requirement("bravo", Flag.LT, "3.0"),
]


_MACHINE = None


def _machine():
    """One shared hardware build; the db tests create fresh Hosts on it."""
    global _MACHINE
    if _MACHINE is None:
        from repro.hardware import build_littlefe_modified

        _MACHINE = build_littlefe_modified().machine
    return _MACHINE


def _apply(repo, action, pkg):
    try:
        if action == "add":
            repo.add(pkg)
        else:
            repo.remove(pkg.nevra)
    except (YumError, PackageNotFoundError):
        pass  # duplicate add / missing remove: legal no-ops for this test


class TestRepositoryIndex:
    @given(edit_sequences)
    @settings(max_examples=60, deadline=None)
    def test_queries_match_scans_under_mutation(self, edits):
        repo = Repository("r")
        for action, pkg, query in _queried(edits):
            _apply(repo, action, pkg)
            if not query:
                continue
            assert repo.repomd_checksum() == yum_scans.scan_repomd_checksum(repo)
            for req in QUERIES:
                assert repo.providers_of(req) == yum_scans.scan_providers_of(repo, req)
            for name in NAMES:
                assert repo.versions_of(name) == yum_scans.scan_versions_of(repo, name)
            for target in repo.all_packages():
                assert repo.obsoleters_of(target) == yum_scans.scan_obsoleters_of(
                    repo, target
                )


#: (step, repository, change): before the drawn step of the script, flip
#: a repository's ``enabled`` flag or set its ``priority`` — the third
#: repository's too, before and after it joins the set
config_changes = st.lists(
    st.tuples(
        st.integers(0, 23),
        st.sampled_from(["base", "xsede", "extra"]),
        st.sampled_from(["enabled", 10, 50, 90]),
    ),
    max_size=4,
)


class TestRepoSetIndex:
    @given(
        released_edit_sequences,
        released_edit_sequences,
        st.sampled_from([(90, 50, True), (50, 50, True), (90, 50, False)]),
        config_changes,
        st.one_of(st.none(), st.integers(0, 23)),
        st.lists(released_packages, max_size=3),
    )
    @example(  # dropping the release-less version between 1.0-2 and 1.0-1
        [("add", _package(0, 1, None, None, release), False)
         for release in ("2", "", "1")]
        + [("remove", _package(0, 1, None, None, ""), True)],
        [],
        (90, 50, True),
        [],
        None,
        [],
    )
    @settings(max_examples=120, deadline=None)
    def test_queries_match_scans_under_mutation(
        self, base_edits, xsede_edits, config, changes, join_at, extra_pkgs
    ):
        """Drawn: priorities that differ or are equal, the priorities
        plugin on or off, releases (an empty one included), ``enabled`` and
        ``priority`` changes part-way through, and a third repository that
        joins the set part-way (``add_repo``)."""
        base_priority, xsede_priority, use_priorities = config
        base = Repository("base", priority=base_priority)
        xsede = Repository("xsede", priority=xsede_priority)
        extra = Repository("extra", priority=70)
        for pkg in extra_pkgs:
            _apply(extra, "add", pkg)
        members = {"base": base, "xsede": xsede, "extra": extra}
        repos = RepoSet([base, xsede], use_priorities=use_priorities)
        script = [(base, *step) for step in base_edits] + [
            (xsede, *step) for step in xsede_edits
        ]
        for i, (repo, action, pkg, query) in enumerate(_queried(script)):
            for step, member, change in changes:
                if step == i:
                    target = members[member]
                    if change == "enabled":
                        target.enabled = not target.enabled
                    else:
                        target.priority = change
            if i == join_at:
                repos.add_repo(extra)
            _apply(repo, action, pkg)
            if not query:
                continue
            assert list(repos.enabled_repos()) == yum_scans.scan_enabled_repos(repos)
            assert repos.fingerprint() == yum_scans.scan_reposet_fingerprint(repos)
            for req in QUERIES:
                assert repos.providers_of(req) == yum_scans.scan_reposet_providers_of(
                    repos, req
                )
            for name in NAMES:
                assert repos.candidates_by_name(
                    name
                ) == yum_scans.scan_candidates_by_name(repos, name)

    def test_epoch_is_content_addressed_across_instances(self):
        """Two RepoSets over repos with identical content share a
        fingerprint — the property that lets the resolution cache hit across
        the fresh per-node RepoSet the Rocks installer builds."""
        one = Repository("xsede", priority=50)
        two = Repository("xsede", priority=50)
        for repo in (one, two):
            repo.add(Package("alpha", "1.0"))
        assert RepoSet([one]).fingerprint() == RepoSet([two]).fingerprint()
        two.add(Package("bravo", "1.0"))
        assert RepoSet([one]).fingerprint() != RepoSet([two]).fingerprint()


class TestRpmDatabaseIndex:
    @given(edit_sequences)
    @settings(max_examples=60, deadline=None)
    def test_queries_match_scans_under_mutation(self, edits):
        from repro.distro import CENTOS_6_5, Host
        from repro.rpm import RpmDatabase

        db = RpmDatabase(Host(_machine().head, CENTOS_6_5))
        for action, pkg, query in _queried(edits):
            try:
                if action == "add":
                    db._install_unchecked(pkg)
                else:
                    db._erase_unchecked(pkg.name)
            except RpmError:
                pass  # duplicate install / missing erase
            if not query:
                continue
            assert db.fingerprint() == scan_fingerprint(db)
            for req in QUERIES:
                providers = sorted(db._index().providers(req), key=lambda p: p.name)
                assert providers == scan_providers_of(db, req)
                assert db.is_satisfied(req) == scan_is_satisfied(db, req)

    def test_fingerprint_tracks_content_not_identity(self, littlefe_machine):
        from repro.distro import CENTOS_6_5, Host
        from repro.rpm import RpmDatabase

        a = RpmDatabase(Host(littlefe_machine.head, CENTOS_6_5))
        b = RpmDatabase(Host(littlefe_machine.head, CENTOS_6_5))
        assert a.fingerprint() == b.fingerprint()
        a._install_unchecked(Package("alpha", "1.0"))
        assert a.fingerprint() != b.fingerprint()
        b._install_unchecked(Package("alpha", "1.0"))
        assert a.fingerprint() == b.fingerprint()


# --- transaction + depsolver closure: ProvidesIndex ≡ whole-set scans -------------

UNIVERSE_NAMES = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]


def _requirement(name, flag, version_i):
    if flag is Flag.ANY:
        return Requirement(name)
    return Requirement(name, flag, f"{version_i}.0")


def _universe_packages(names, versions):
    """Packages over ``names`` whose provides/requires/conflicts draw from
    the package names themselves plus ``CAPS``: provides are unversioned,
    versioned, or an explicit second self-provide; requirements are bare or
    ``=``/``<``/``>=``.  Fewer names and versions mean more collisions."""
    caps = names + CAPS
    requirements = st.builds(
        _requirement,
        st.sampled_from(caps),
        st.sampled_from([Flag.ANY, Flag.ANY, Flag.EQ, Flag.LT, Flag.GE]),
        st.integers(1, versions),
    )
    capabilities = st.builds(
        lambda name, version_i: Capability(name, f"{version_i}.0" if version_i else ""),
        st.sampled_from(caps),
        st.integers(0, versions),
    )
    return st.builds(
        lambda name, version_i, provides, requires, conflicts: Package(
            name, f"{version_i}.0", provides=tuple(provides),
            requires=tuple(requires), conflicts=tuple(conflicts),
        ),
        st.sampled_from(names),
        st.integers(1, versions),
        st.lists(capabilities, max_size=2),
        st.lists(requirements, max_size=3),
        st.lists(requirements, max_size=2),
    )


universe_packages = _universe_packages(UNIVERSE_NAMES, versions=3)
#: three names, two versions: goal lists keep naming one package twice
crowded_packages = _universe_packages(UNIVERSE_NAMES[:3], versions=2)


def _fresh_db(installed):
    from repro.distro import CENTOS_6_5, Host
    from repro.rpm import RpmDatabase

    db = RpmDatabase(Host(_machine().head, CENTOS_6_5))
    for pkg in installed:
        if not db.has(pkg.name):
            db._install_unchecked(pkg)
    return db


txn_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["install", "upgrade"]), universe_packages),
        st.tuples(st.just("erase"), st.sampled_from(UNIVERSE_NAMES)),
    ),
    min_size=1,
    max_size=8,
)


class TestTransactionIndex:
    @given(st.lists(universe_packages, max_size=8), txn_steps)
    @settings(max_examples=150, deadline=None)
    def test_diagnostics_and_order_match_scans(self, installed, steps):
        """Random universes — multi-provider names, versioned requires,
        one- and two-sided conflicts, cycles, erases under a dependant,
        upgrades — validate and order exactly as the whole-set scans did."""
        txn = Transaction(_fresh_db(installed))
        for verb, arg in steps:
            try:
                getattr(txn, verb)(arg)
            except TransactionError:
                pass  # second NEVRA of a queued name / not-newer upgrade
        problems = txn.check_diagnostics()
        assert problems == scan_check_diagnostics(txn)
        order = [p.nevra for p in scan_install_order(txn)]
        assert [p.nevra for p in txn._install_order()] == order
        if not problems and not txn.is_empty:
            assert [p.nevra for p in txn.plan().ordered] == order


def _resolve(closure, goals, repos, db):
    try:
        return closure(goals, repos, db)
    except DependencyError as exc:
        return (str(exc), exc.missing)


#: delta-1.0 provides ``mpi-impl``, delta-2.0 does not: once ``select`` swaps
#: them, charlie's requirement must pull bravo in rather than look satisfied
_REPLACED = [
    Package("delta", "1.0", provides=(Capability("mpi-impl"),)),
    Package("delta", "2.0"),
    Package("charlie", "1.0", requires=(Requirement("mpi-impl"),)),
    Package("bravo", "1.0", provides=(Capability("mpi-impl"),)),
]


class TestClosureIndex:
    @given(
        st.lists(crowded_packages, min_size=1, max_size=10),
        st.lists(crowded_packages, max_size=3),
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
    )
    @example(published=_REPLACED, installed=[], goal_picks=[2, 3, 1])
    @settings(max_examples=300, deadline=None)
    def test_resolution_matches_scan(self, published, installed, goal_picks):
        """Goals are arbitrary published NEVRAs, so two versions of one
        name often meet in ``select`` and the newer replaces the held one."""
        repo = Repository("r")
        for pkg in published:
            _apply(repo, "add", pkg)
        available = repo.all_packages()
        goals = [available[i % len(available)] for i in goal_picks]
        db = _fresh_db(installed)
        repos = RepoSet([repo])
        assert _resolve(_closure, goals, repos, db) == _resolve(
            scan_closure, goals, repos, db
        )


# --- run_until under a raising callback ------------------------------------------


def test_run_until_callback_exception_restores_queue():
    """If a callback raises, the same-time events behind it stay pending
    with their original (time, seq) identity."""
    from repro.sim import SimKernel

    kernel = SimKernel()
    log = []
    kernel.at(1.0, lambda: log.append("a"))

    def boom():
        raise RuntimeError("boom")

    kernel.at(1.0, boom)
    kernel.at(1.0, lambda: log.append("c"))
    with pytest.raises(RuntimeError):
        kernel.run_until(5.0)
    assert log == ["a"]
    # "c" is still pending and fires on the next drain, before later events.
    kernel.at(1.0, lambda: log.append("d"))
    kernel.run_until(5.0)
    assert log == ["a", "c", "d"]


# --- trace-bus shape cache --------------------------------------------------------


#: Payload values of the types call sites pass, and a few they must not.
_VALUES = st.one_of(
    st.text(max_size=2), st.integers(-2, 2), st.floats(-1.0, 1.0),
    st.booleans(), st.none(), st.lists(st.integers(), max_size=1),
)
_TYPED = {
    str: st.text(max_size=2), int: st.integers(-2, 2),
    float: st.floats(-1.0, 1.0), bool: st.booleans(),
}


@st.composite
def _emits(draw):
    """A few payloads of one kind: its schema fields plus an extra one, in
    one drawn order, most present, each value of the schema's type about
    half the time and of any drawn type otherwise."""
    from repro.sim import EVENT_SCHEMA

    kind = draw(st.sampled_from(sorted(EVENT_SCHEMA)))
    schema = EVENT_SCHEMA[kind]
    fields = draw(st.permutations([*schema, "tag"]))

    def value(name):
        typed = _TYPED.get(schema.get(name))
        return draw(_VALUES if typed is None else st.one_of(typed, _VALUES))

    return [
        (kind, {name: value(name) for name in fields if draw(st.integers(0, 9))})
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestTraceShapeCache:
    def test_emit_checks_new_shapes_and_the_file_check_catches_the_rest(self):
        """Emit validates each new shape (data keys and value types) once,
        so a same-keys emit with a wrongly typed value is refused; the
        envelope's ``sub``, which emit does not check, is left to
        ``validate_jsonl`` on the export."""
        from repro.sim import TraceBus, validate_jsonl

        bus = TraceBus()
        bus.emit("job.submit", t_s=0.0, subsystem="sched", job="j0", user="u", cores=4)
        with pytest.raises(TraceError, match="'cores' has type str, wanted int"):
            bus.emit("job.submit", t_s=1.0, subsystem="sched",
                     job="j1", user="u", cores="four")
        bus.emit("job.submit", t_s=2.0, subsystem=7, job="j2", user="u", cores=4)
        assert validate_jsonl(bus.to_jsonl()) == (
            2, ["line 2: envelope field 'sub' has type int"],
        )

    @given(st.lists(_emits(), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_property_emit_raises_exactly_when_validate_event_does(self, runs):
        """The shape cache admits exactly what the field check admits: on
        one bus, each emit raises iff ``validate_event`` on the same
        envelope reports a problem."""
        from repro.sim import TraceBus, validate_event

        bus = TraceBus()
        for kind, data in (emit for run in runs for emit in run):
            problems = validate_event(
                {"seq": len(bus), "t": 1.0, "kind": kind, "sub": "s", "data": data}
            )
            try:
                bus.emit(kind, t_s=1.0, subsystem="s", **data)
            except TraceError:
                assert problems
            else:
                assert problems == []

    def test_new_shape_for_known_kind_is_revalidated(self):
        from repro.sim import TraceBus

        bus = TraceBus()
        bus.emit(
            "metric.sample", t_s=0.0, subsystem="mon",
            host="h0", metric="load_one", value=1.0,
        )
        # Same kind, different key set missing a required field: the shape
        # memo must not let it through.
        with pytest.raises(TraceError, match="missing data field"):
            bus.emit("metric.sample", t_s=1.0, subsystem="mon", host="h0", value=1.0)
        # And the failed shape is not remembered as valid.
        with pytest.raises(TraceError):
            bus.emit("metric.sample", t_s=2.0, subsystem="mon", host="h0", value=1.0)

    def test_extra_fields_still_validated_for_types(self):
        from repro.sim import TraceBus

        bus = TraceBus()
        with pytest.raises(TraceError, match="wanted float"):
            bus.emit(
                "metric.sample", t_s=0.0, subsystem="mon",
                host="h0", metric="load_one", value="high",
            )
