"""The fleet-scale substrate: FleetTable/NodeSet properties, wave-scheduled
installs, golden-image mode, and the hierarchical monitoring tree.

The hypothesis suites are the load-bearing contracts of the columnar
refactor: row proxies must agree with a legacy per-node reference model
under arbitrary mutation sequences, and NodeSet fold/expand must round-trip
for arbitrary range unions — the folded address in ``install.wave`` events
is only trustworthy if parsing it back yields exactly the wave's members.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, RocksError
from repro.fleet import FleetTable, NodeSet, RangeSet, fold_names
from repro.monitoring import monitor_fleet
from repro.rocks import InstallState, RocksInstaller
from repro.scheduler import ClusterResources
from repro.sim import SimKernel


# -- NodeSet / RangeSet properties -----------------------------------------------


range_unions = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 30)), min_size=0, max_size=12
)


@given(range_unions)
@settings(max_examples=60, deadline=None)
def test_rangeset_fold_parse_roundtrip(spans):
    """parse(fold(r)) == r for arbitrary interval unions."""
    rset = RangeSet((lo, lo + width) for lo, width in spans)
    assert set(RangeSet.parse(rset.fold())) == set(rset) if rset else not rset
    if rset:
        assert RangeSet.parse(rset.fold()) == rset


@given(range_unions, range_unions)
@settings(max_examples=60, deadline=None)
def test_rangeset_algebra_matches_set_semantics(a_spans, b_spans):
    """Interval-merge algebra agrees with Python set algebra member-for-member."""
    a = RangeSet((lo, lo + w) for lo, w in a_spans)
    b = RangeSet((lo, lo + w) for lo, w in b_spans)
    sa, sb = set(a), set(b)
    assert set(a | b) == sa | sb
    assert set(a - b) == sa - sb


node_names = st.lists(
    st.one_of(
        st.builds(
            lambda p, n: f"{p}{n}",
            st.sampled_from(["compute-0-", "compute-1-", "gpu-", "n"]),
            st.integers(0, 9999),
        ),
        st.sampled_from(["head", "nas", "login"]),
    ),
    min_size=0,
    max_size=60,
)


@given(node_names)
@settings(max_examples=60, deadline=None)
def test_nodeset_fold_expand_roundtrip(names):
    """from_names -> fold -> parse -> expand recovers exactly the name set."""
    ns = NodeSet.from_names(names)
    assert len(ns) == len(set(names))
    parsed = NodeSet.parse(ns.fold())
    assert parsed == ns
    assert set(parsed) == set(names)
    # expansion order is a stable total order (deterministic trace addresses)
    assert list(parsed) == list(NodeSet.parse(ns.fold()))


@given(node_names, node_names)
@settings(max_examples=60, deadline=None)
def test_nodeset_algebra_matches_set_semantics(a_names, b_names):
    a, b = NodeSet.from_names(a_names), NodeSet.from_names(b_names)
    sa, sb = set(a_names), set(b_names)
    assert set(a | b) == sa | sb
    assert set(a - b) == sa - sb


@given(node_names, st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_nodeset_split_partitions(names, size):
    """split() chunks cover every member exactly once, each within bound."""
    ns = NodeSet.from_names(names)
    waves = list(ns.split(size))
    assert all(len(w) <= size for w in waves)
    seen: list[str] = []
    for wave in waves:
        seen.extend(wave)
    assert sorted(seen) == sorted(set(names))


def test_nodeset_padding_and_groups():
    ns = NodeSet.parse("rack[001-003]", groups=None)
    assert list(ns) == ["rack001", "rack002", "rack003"]
    groups = {"computes": "compute-0-[0-3]", "all": NodeSet.parse("head")}
    resolved = NodeSet.parse("@computes,@all", groups=groups)
    assert len(resolved) == 5
    with pytest.raises(FleetError):
        NodeSet.parse("@nosuch")
    with pytest.raises(FleetError):
        NodeSet.parse("rack[0-1")


_HUGE = "9" * 5000  # past CPython's default 4,300-digit int conversion limit


@pytest.mark.parametrize(
    "parse, text",
    [
        (RangeSet.parse, _HUGE),
        (RangeSet.parse, f"0-{_HUGE}"),
        (RangeSet.parse, "²"),  # isdigit() but not a decimal digit
        (NodeSet.parse, f"compute-0-[0-{_HUGE}]"),
        (NodeSet.parse, f"compute-0-{_HUGE}"),
    ],
)
def test_oversized_bounds_raise_fleet_error(parse, text):
    with pytest.raises(FleetError, match="unusable node index"):
        parse(text)


def test_fold_names_is_compact():
    assert fold_names(f"compute-0-{i}" for i in range(100)) == "compute-0-[0-99]"


@pytest.mark.parametrize(
    "build, arg",
    [
        (NodeSet.from_names, ["n1", "n01", "n2"]),
        (NodeSet.from_names, ["n01", "n1"]),
        (NodeSet.from_names, ["n0", "n00"]),
        (NodeSet.parse, "n[1-2],n[01-02]"),
        (NodeSet.parse, "n[001-002],n[10-20]"),
        (NodeSet.parse("n[01-02]").union, NodeSet.parse("n[1-9]")),
    ],
)
def test_unpadded_index_shorter_than_the_padding_is_refused(build, arg):
    """``n1`` and ``n01`` are two hosts; no padded range names both, so the
    union refuses instead of folding them into one (and inventing ``n02``)."""
    with pytest.raises(FleetError, match="shorter than zero-padding width"):
        build(arg)


@pytest.mark.parametrize(
    "names, folded",
    [
        (["n10", "n01"], "n[01,10]"),
        (["n100", "n001", "n099"], "n[001,099-100]"),
        (["n01", "n02", "rack1"], "n[01-02],rack1"),
    ],
)
def test_unpadded_index_as_long_as_the_padding_folds(names, folded):
    assert fold_names(names) == folded
    assert list(NodeSet.parse(folded)) == sorted(names)


scattered_names = st.lists(
    st.one_of(
        st.builds(
            lambda prefix, rank, width: f"{prefix}{rank:0{width}d}" if width
            else f"{prefix}{rank}",
            st.sampled_from(["n", "rack-", "c0-"]),
            st.one_of(st.integers(0, 12), st.integers(0, 150)),
            st.sampled_from([0, 0, 0, 0, 2, 3]),
        ),
        st.sampled_from(["head", "nas"]),
    ),
    max_size=40,
)


@given(scattered_names)
@settings(max_examples=200, deadline=None)
def test_property_from_names_matches_adding_each_name(names):
    """The one-pass fold vs the per-name ``add`` loop it replaced: the same
    ``str()`` and iteration order, or the same ``FleetError``."""
    from .oracles.nodeset_fold import fold_by_add

    def outcome(fold):
        try:
            ns = fold(iter(names))
        except FleetError as exc:
            return ("refused", str(exc))
        return str(ns), list(ns)

    assert outcome(NodeSet.from_names) == outcome(fold_by_add)


# -- FleetTable vs a legacy per-node reference model -----------------------------


class _LegacyNode:
    """The pre-columnar shape: one mutable object per node."""

    def __init__(self, name, rack, rank):
        self.name = name
        self.rack = rack
        self.rank = rank
        self.appliance = "compute"
        self.state = "discovered"
        self.cores = 0
        self.load = 0.0
        self.powered_on = True
        self.responsive = True
        self.offline = False
        self.failed = False
        self.draining = False


#: (op, node index, value) — install/fail/drain/power, the ops the
#: installer, fault injector, and scheduler actually perform.
mutation_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["install", "fail", "drain", "undrain", "power", "offline",
             "unresponsive", "cores", "load", "remove"]
        ),
        st.integers(0, 15),
        st.integers(0, 64),
    ),
    min_size=0,
    max_size=40,
)


@given(mutation_ops)
@settings(max_examples=60, deadline=None)
def test_fleet_rows_agree_with_legacy_objects(ops):
    """Row proxies and per-node objects stay identical through arbitrary
    install/fail/drain/power mutation sequences."""
    table = FleetTable()
    legacy: dict[str, _LegacyNode] = {}
    removed: set[str] = set()
    for i in range(16):
        name = f"compute-{i // 8}-{i % 8}"
        table.add_row(name=name, rack=i // 8, rank=i % 8)
        legacy[name] = _LegacyNode(name, i // 8, i % 8)

    for op, idx, value in ops:
        name = f"compute-{idx // 8}-{idx % 8}"
        if name in removed:
            continue
        row, ref = table.by_name(name), legacy[name]
        index = table.index_of(name)
        if op == "install":
            row.state = "os-installed"
            ref.state = "os-installed"
        elif op == "fail":
            table.set_flag("failed", index, True)
            ref.failed = True
        elif op == "drain":
            table.set_flag("draining", index, True)
            ref.draining = True
        elif op == "undrain":
            table.set_flag("draining", index, False)
            ref.draining = False
        elif op == "power":
            table.set_flag("powered", index, value % 2 == 0)
            ref.powered_on = value % 2 == 0
        elif op == "offline":
            table.set_flag("offline", index, True)
            ref.offline = True
        elif op == "unresponsive":
            row.responsive = value % 2 == 0
            ref.responsive = value % 2 == 0
        elif op == "cores":
            row.cores = value
            ref.cores = value
        elif op == "load":
            table.set_load(index, float(value))
            ref.load = float(value)
        elif op == "remove":
            table.remove(name)
            removed.add(name)

    live = {n: ref for n, ref in legacy.items() if n not in removed}
    assert {r.name for r in table.rows()} == set(live)
    assert len(table) == len(live)
    for name, ref in live.items():
        row, index = table.by_name(name), table.index_of(name)
        assert row.state == ref.state
        assert row.cores == ref.cores
        assert table.load[index] == ref.load
        assert bool(table.powered[index]) == ref.powered_on
        assert row.responsive == ref.responsive
        assert bool(table.failed[index]) == ref.failed
        assert bool(table.draining[index]) == ref.draining
        assert bool(table.offline[index]) == ref.offline
        assert (row.rack, row.rank) == (ref.rack, ref.rank)
    # column-scan aggregate agrees with an object walk
    assert table.count_state("os-installed") == sum(
        1 for ref in live.values() if ref.state == "os-installed"
    )


def test_fleet_table_basics():
    table = FleetTable()
    row = table.add_row(name="compute-0-0", mac="aa:bb", rack=0, rank=0)
    index = table.index_of("compute-0-0")
    assert table.by_mac("aa:bb") is row  # cached proxies are identity-stable
    with pytest.raises(FleetError):
        table.add_row(name="compute-0-0")
    with pytest.raises(FleetError):
        table.add_row(name="other", mac="aa:bb")
    feed = table.watch([index])
    row.state = "installing"
    assert feed == {index}  # every mutation notifies the row's feeds
    table.remove("compute-0-0")
    assert not table.alive[index] and len(table.names) == 1 and len(table) == 0
    with pytest.raises(FleetError):
        table.by_name("compute-0-0")


def test_fleet_nodeset_select_roundtrip():
    table = FleetTable()
    for i in range(12):
        table.add_row(name=f"compute-0-{i}", rack=0, rank=i)
    ns = table.nodeset()
    assert str(ns) == "compute-0-[0-11]"
    assert [table.index_of(name) for name in ns] == table.ordered_indices()


# -- wave installs ----------------------------------------------------------------


def _install_summary(**run_kw):
    """Everything an install leaves behind that must not depend on how the
    nodes were batched (MACs are hardware serials, so keyed out)."""
    from repro.hardware import build_littlefe_modified
    from repro.recovery import Journal, TxnState

    journal = Journal()
    kernel = SimKernel(seed=3)
    cluster = RocksInstaller(
        build_littlefe_modified().machine, journal=journal
    ).run(kernel=kernel, **run_kw)
    db = cluster.rocksdb
    waves = [e.data for e in kernel.trace.events if e.kind == "install.wave"]
    txns = journal.transactions("rocks.install")
    assert all(t.state is TxnState.COMMITTED for t in txns)
    return {
        "hosts": [
            {k: v for k, v in host.items() if k != "mac"}
            for host in db.state_dict()["hosts"]
        ],
        "leases": {
            db.by_mac(l.mac).name: l.ip for l in cluster.network.dhcp.leases()
        },
        "fingerprints": {
            name: rpmdb.fingerprint()
            for name, (_host, rpmdb) in sorted(cluster.compute.items())
        },
        "uniform": cluster.installed_everywhere(),
        "txns": len(txns),
        "wave_nodes": [
            n for w in waves for n in NodeSet.parse(w["nodes"])
        ],
        "wave_pkgs": {w["pkgs"] for w in waves},
        "wave_counts": [w["count"] for w in waves],
    }


@pytest.fixture(scope="module")
def default_wave_summary():
    return _install_summary()


@pytest.mark.parametrize("wave_size", [1, 3, 64])
def test_install_does_not_depend_on_wave_size(default_wave_summary, wave_size):
    """``wave_size`` is a batch size and nothing else: a wave of one, a
    partial last wave and one wave wider than the site all build the
    cluster the default does."""
    summary = _install_summary(wave_size=wave_size)
    assert summary == {
        **default_wave_summary,
        "wave_counts": [min(wave_size, 5 - i) for i in range(0, 5, wave_size)],
    }
    assert summary["txns"] == len(summary["fingerprints"]) == 5
    assert len(set(summary["fingerprints"].values())) == 1


def test_one_plan_per_profile_is_reused_for_the_cluster_lifetime(monkeypatch):
    """A LittleFe install validates and orders twice — the frontend and
    one compute plan — and every later kickstart of that cluster
    (replace, reinstall, lazy materialization) commits through them."""
    from repro.hardware import build_littlefe_modified
    from repro.rocks import install_cluster
    from repro.rpm import Transaction

    plans = []
    real_plan = Transaction.plan
    monkeypatch.setattr(
        Transaction, "plan", lambda txn: plans.append(txn) or real_plan(txn)
    )
    install_cluster(build_littlefe_modified().machine)
    assert len(plans) == 2

    del plans[:]
    installer = RocksInstaller(build_littlefe_modified().machine)
    cluster = installer.run()
    installer.reinstall_node(cluster, "compute-0-0")
    installer.replace_node(cluster, "compute-0-1", new_mac="02:xc:bc:ff:ff:02")
    assert len(plans) == 2

    del plans[:]
    installer = RocksInstaller(build_littlefe_modified().machine)
    lazy = installer.run(materialize=False)
    assert lazy.host_for("compute-0-3").hostname == "compute-0-3"
    assert len(plans) == 2


def test_wave_install_emits_folded_trace(littlefe_machine):
    kernel = SimKernel(seed=3)
    RocksInstaller(littlefe_machine).run(wave_size=4, kernel=kernel)
    waves = [e for e in kernel.trace.events if e.kind == "install.wave"]
    assert [e.data["count"] for e in waves] == [4, 1]
    assert waves[0].data["nodes"] == "compute-0-[0-3]"
    assert waves[0].data["pkgs"] > 0
    # the folded address expands back to exactly the wave's members
    assert list(NodeSet.parse(waves[0].data["nodes"])) == [
        f"compute-0-{i}" for i in range(4)
    ]


def test_wave_size_validation(littlefe_machine):
    with pytest.raises(RocksError):
        RocksInstaller(littlefe_machine).run(wave_size=0)


def test_golden_image_install(littlefe_machine):
    """materialize=False installs per-node state in fleet columns only and
    materializes hosts lazily on first access."""
    cluster = RocksInstaller(littlefe_machine).run(wave_size=4, materialize=False)
    assert cluster.golden_image is not None
    assert cluster.compute == {}  # nothing materialized yet
    names = [r.name for r in cluster.rocksdb.compute_hosts()]
    assert all(
        r.state is InstallState.INSTALLED for r in cluster.rocksdb.compute_hosts()
    )
    host = cluster.host_for(names[0])
    assert names[0] in cluster.compute  # cached after materialization
    assert cluster.db_for(host).names() == cluster.golden_image[1].names()
    row = cluster.rocksdb.get(names[0])
    assert row.cores > 0 and row.mem_kb > 0
    with pytest.raises(RocksError):
        cluster.host_for("compute-9-9")


# -- hierarchical monitoring -------------------------------------------------------


def test_monitor_fleet_tree_and_dead_host(littlefe_machine):
    kernel = SimKernel(seed=5)
    cluster = RocksInstaller(littlefe_machine).run(wave_size=3, kernel=kernel)
    tree = monitor_fleet(cluster, kernel=kernel)
    assert len(tree.racks()) == 1  # 6 hosts fit one 48-host leaf

    summary = tree.poll_cycle()
    assert summary.hosts_up == 6
    # quiet fleet: second cycle changes nothing (epoch fast path)
    tree.poll_cycle()
    rollups = [e for e in kernel.trace.events if e.kind == "monitor.rollup"]
    assert rollups[-1].data["changed"] == 0

    victim = cluster.rocksdb.compute_hosts()[0]
    victim.responsive = False
    for _ in range(3):
        tree.poll_cycle()
    dead = [e for e in kernel.trace.events if e.kind == "monitor.host_dead"]
    assert [e.data["host"] for e in dead] == [victim.name]
    assert tree.dead_hosts() == [victim.name]
    victim.responsive = True
    tree.poll_cycle()
    assert tree.dead_hosts() == []


def test_monitor_rack_event_shape(littlefe_machine):
    kernel = SimKernel(seed=6)
    cluster = RocksInstaller(littlefe_machine).run(wave_size=3, kernel=kernel)
    tree = monitor_fleet(cluster, kernel=kernel)
    tree.poll_cycle()
    racks = [e for e in kernel.trace.events if e.kind == "monitor.rack"]
    assert {e.data["rack"] for e in racks} == {"rack000"}
    assert all(e.data["hosts_up"] == e.data["hosts_total"] for e in racks)


# -- scheduler over fleet columns --------------------------------------------------


def test_cluster_resources_from_fleet(littlefe_machine):
    cluster = RocksInstaller(littlefe_machine).run(wave_size=3)
    fleet = cluster.rocksdb.fleet
    resources = ClusterResources.from_fleet(fleet)
    machine_built = ClusterResources(littlefe_machine)
    assert resources.total_cores == machine_built.total_cores
    assert len(resources.node_names()) == len(machine_built.node_names())

    allocation = resources.try_allocate(2)
    assert allocation is not None
    # allocated cores are mirrored into the fleet's load column
    busy = {
        fleet.names[i]: fleet.load[i]
        for i in fleet.compute_indices()
        if fleet.load[i] > 0
    }
    assert sum(busy.values()) == 2.0
    resources.release(allocation)
    assert all(fleet.load[i] == 0.0 for i in fleet.compute_indices())

    # usability masks are fleet columns: failing via one view is visible
    # in the other layers that share the table
    victim = resources.node_names()[0]
    resources.fail_node(victim)
    assert fleet.failed[fleet.index_of(victim)] == 1
    assert victim in resources.failed_nodes()


def test_cluster_resources_from_fleet_rejects_empty():
    from repro.errors import SchedulerError

    fleet = FleetTable(state_values=tuple(InstallState))
    fleet.add_row(name="head", appliance="frontend", state=InstallState.INSTALLED)
    with pytest.raises(SchedulerError):
        ClusterResources.from_fleet(fleet, label="empty-site")


# -- determinism at scale ----------------------------------------------------------


def test_fleet_cycle_same_seed_traces_identical():
    """The fleet-cycle determinism contract: build + wave install +
    one monitoring cycle twice with one seed -> byte-identical traces."""
    from repro.core.deployments import build_synthetic_fleet

    def cycle():
        machine = build_synthetic_fleet(65)
        kernel = SimKernel(seed=11)
        cluster = RocksInstaller(machine).run(
            wave_size=16, kernel=kernel, materialize=False
        )
        monitor_fleet(cluster, kernel=kernel).poll_cycle()
        return kernel.trace.to_jsonl()

    assert cycle() == cycle()


def test_synthetic_fleet_builder_validation():
    from repro.core.deployments import build_synthetic_fleet
    from repro.errors import DeploymentError

    machine = build_synthetic_fleet(8, cores_per_node=4)
    assert len(machine.compute_nodes) == 7
    assert machine.total_cores == 32
    with pytest.raises(DeploymentError):
        build_synthetic_fleet(1)
    with pytest.raises(DeploymentError):
        build_synthetic_fleet(4, cores_per_node=0)
