"""The fleet table's change feed and the two readers kept current from it.

``FleetTable.watch`` hands each reader its own dirty-row set; every mutator
adds its row to the sets watching it.  ``ClusterResources`` (totals, the
draining/failed sets, the free-count bucket index) and ``Rack`` (one
rack's summary) re-derive only what their feed names.  The properties here
hold them to the column scans they replaced (``tests/oracles/``), and the
scaling guard holds their cost to what changed, not to fleet size.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fleet import FleetTable
from repro.monitoring.hierarchy import GmetadTree, Rack
from repro.scheduler import ClusterResources
from repro.sim import SimKernel, TraceBus

from .oracles.rack_scans import RescanRack
from .oracles.scheduler_scans import (
    scan_draining_nodes,
    scan_failed_nodes,
    scan_free_cores,
    scan_try_allocate,
    scan_usable_cores,
)

_FLAGS = ("powered", "responsive", "offline", "failed", "draining")


def _fleet(cores: list[int], *, per_rack: int = 48) -> FleetTable:
    fleet = FleetTable()
    for k, c in enumerate(cores):
        row = fleet.add_row(
            name=f"compute-{k // per_rack}-{k % per_rack}",
            rack=k // per_rack,
            rank=k % per_rack,
            state="os-installed",
            cores=c,
        )
        fleet.set_mem_kb(fleet.index_of(row.name), 1024.0 * c)
    return fleet


# -- the feed ----------------------------------------------------------------------


def test_each_mutator_notifies_exactly_the_feeds_watching_its_row():
    fleet = _fleet([4, 4, 4])
    first, everything = fleet.watch([0]), fleet.watch()
    fleet.set_load(1, 2.0)
    fleet.set_flag("draining", 2, True)
    assert first == set() and everything == {1, 2}
    fleet.set_cores(0, 8)
    fleet.set_mem_kb(0, 1.0)
    fleet.set_state_code(0, 1)
    assert first == {0} and everything == {0, 1, 2}
    row = fleet.add_row(name="compute-9-0")
    assert everything == {0, 1, 2, fleet.index_of(row.name)}  # whole-table feeds see new rows
    fleet.remove("compute-0-0")
    assert first == {0}
    first.clear()
    fleet.set_load(0, 1.0)  # a drained feed fills again
    assert first == {0}


def test_order_cache_is_kept_across_column_writes():
    """The canonical order keys on (appliance, rack, rank) over live rows,
    which only add_row and remove change; load, flag and state writes leave
    the sorted index in place."""
    fleet = _fleet([4] * 6, per_rack=3)
    order = fleet._ordered()
    fleet.set_load(0, 3.0)
    fleet.set_flag("offline", 1, True)
    fleet.set_state_code(2, 1)
    fleet.set_cores(3, 8)
    fleet.set_mem_kb(4, 2.0)
    assert fleet._ordered() is order
    fleet.remove("compute-0-0")
    assert fleet._ordered() is not order
    assert fleet.ordered_indices() == [1, 2, 3, 4, 5]
    fleet.add_row(name="frontend-0-0", appliance="frontend")
    assert fleet.ordered_indices() == [6, 1, 2, 3, 4, 5]


# -- scheduler: removed rows -------------------------------------------------------


def test_removed_row_is_never_allocated_and_counts_toward_no_total():
    fleet = _fleet([4, 4, 4])
    resources = ClusterResources.from_fleet(fleet)
    assert resources.free_cores() == 12
    fleet.remove("compute-0-0")
    assert resources.free_cores() == 8
    assert resources.usable_cores == 8
    assert resources.free_of("compute-0-0") == 0
    assert resources.try_allocate(12) is None
    allocation = resources.try_allocate(8)
    assert allocation is not None
    assert "compute-0-0" not in allocation.node_names
    assert resources.free_cores() == 0


# -- scheduler: incremental answers == column scans -------------------------------

_SCHED_OPS = (
    "allocate", "release", "offline", "drain", "fail", "restore",
    "foreign_flag", "foreign_load", "remove",
)


def _assert_matches_scans(resources: ClusterResources) -> None:
    assert resources.free_cores() == scan_free_cores(resources)
    assert resources.usable_cores == scan_usable_cores(resources)
    assert resources.draining_nodes() == scan_draining_nodes(resources)
    assert resources.failed_nodes() == scan_failed_nodes(resources)


@given(
    cores=st.lists(st.integers(1, 8), min_size=2, max_size=9),
    steps=st.lists(
        st.tuples(
            st.sampled_from(_SCHED_OPS),
            st.integers(0, 1),    # which view
            st.integers(0, 8),    # which node / held allocation
            st.integers(1, 12),   # cores, or which flag column
            st.booleans(),
        ),
        max_size=50,
    ),
)
@settings(max_examples=150, deadline=None)
def test_property_incremental_scheduler_matches_column_scans(cores, steps):
    """Two views over one table (the second without its first row), mixed
    core counts: after every step of allocate / release / offline / drain /
    fail / restore, foreign flag and load writes to the table and row
    removal, both views' totals, draining and failed lists equal the
    column scans, and every allocation is the scan's first-fit-decreasing
    choice."""
    fleet = _fleet(cores)
    names = list(fleet.names)
    # The second view is built while row 0 is still installing.
    fleet.set_state_code(0, fleet.state_code("installing"))
    partial = ClusterResources.from_fleet(fleet)
    fleet.set_state_code(0, fleet.state_code("os-installed"))
    views = [ClusterResources.from_fleet(fleet), partial]
    held: list[list] = [[], []]
    for op, v, pick, amount, flag in steps:
        view, node = views[v], names[pick % len(names)]
        row = pick % len(names)
        try:
            if op == "allocate":
                expected = scan_try_allocate(view, amount)
                allocation = view.try_allocate(amount)
                got = None if allocation is None else allocation.by_node
                assert got == expected
                if allocation is not None:
                    held[v].append(allocation)
            elif op == "release" and held[v]:
                view.release(held[v].pop(pick % len(held[v])))
            elif op == "offline":
                view.set_offline(node, flag)
            elif op == "drain":
                view.set_draining(node, flag)
            elif op == "fail":
                view.fail_node(node)
            elif op == "restore":
                view.restore_node(node)
            elif op == "foreign_flag":
                fleet.set_flag(_FLAGS[amount % len(_FLAGS)], row, flag)
            elif op == "foreign_load":
                fleet.set_load(row, float(amount))
            elif op == "remove" and fleet.has(node):
                fleet.remove(node)
        except ReproError:
            pass  # a refused step (busy, failed, unknown node) changes nothing
        for resources in views:
            _assert_matches_scans(resources)


# -- monitoring: watched racks == rescan-every-cycle racks -------------------------

_RACK_OPS = (
    "power", "heartbeat", "load", "flag", "cores", "mem", "state", "add",
    "remove", "idle",
)


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(_RACK_OPS),
            st.integers(0, 11),   # which row
            st.integers(0, 16),   # value
            st.booleans(),
        ),
        max_size=60,
    ),
)
@settings(max_examples=150, deadline=None)
def test_property_watched_racks_match_rescans(steps):
    """Three fleet-row Rack leaves that rescan only what their feed names, and
    three oracle leaves that rescan every cycle, over one table under random
    power, heartbeat, load, flag, core, memory, state, add and remove
    writes: every cycle they give equal summaries, changed flags, dead lists
    and emitted events.  A whole-table feed sees exactly the rows each step
    wrote, so a mutator that skips its notification fails here even when
    no rack reads the column it wrote."""
    fleet = _fleet([2, 4, 8, 16] * 3, per_rack=4)
    chunks = [list(range(k, k + 4)) for k in (0, 4, 8)]
    watched = [
        Rack(f"rack{j}", fleet, rows)
        for j, rows in enumerate(chunks)
    ]
    rescans = [RescanRack(fleet, rows) for rows in chunks]
    everything = fleet.watch()
    bus_w, bus_r = TraceBus(), TraceBus()
    added = 0
    for t, (op, row, value, flag) in enumerate(steps, start=1):
        wrote: set[int] = {row}
        if op == "remove" and not fleet.alive[row]:
            op = "idle"
        if op == "power":
            fleet.set_flag("powered", row, flag)
        elif op == "heartbeat":
            fleet.set_flag("responsive", row, flag)
        elif op == "load":
            fleet.set_load(row, float(value))
        elif op == "flag":
            fleet.set_flag(("offline", "failed", "draining")[value % 3], row, flag)
        elif op == "cores":
            fleet.set_cores(row, value)
        elif op == "mem":
            fleet.set_mem_kb(row, 512.0 * value)
        elif op == "state":
            fleet.set_state_code(row, value % len(fleet.state_values))
        elif op == "add":
            added += 1
            fleet.add_row(name=f"extra-{added}")
            wrote = {fleet.index_of(f"extra-{added}")}
        elif op == "remove":
            fleet.remove(fleet.names[row])
        else:
            wrote = set()
        assert everything == wrote
        everything.clear()
        for leaf, oracle in zip(watched, rescans):
            assert leaf.sample(15.0 * t, bus_w) == oracle.sample(15.0 * t, bus_r)
            assert leaf.dead_hosts() == oracle.dead_hosts()
        assert bus_w.events == bus_r.events


# -- scaling guard -----------------------------------------------------------------


class _CountingList(list):
    """A list that counts iterations over it and element reads."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.iterations = 0
        self.reads = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _site(rows: int):
    """A ``rows``-row table built with add_row (no install), chunked into
    48-row Rack leaves the way monitor_fleet does, plus a from_fleet
    scheduler view; every leaf and the view have read once."""
    fleet = _fleet([16] * rows)
    tree = GmetadTree("guard", kernel=SimKernel(seed=1))
    order = fleet.ordered_indices()
    racks = []
    for j, start in enumerate(range(0, len(order), 48)):
        rack = Rack(f"rack{j:04d}", fleet, order[start : start + 48])
        tree.add_rack(rack)
        racks.append(rack)
    tree.poll_cycle()
    resources = ClusterResources.from_fleet(fleet)
    resources.free_cores()
    for rack in racks:
        rack.indices = _CountingList(rack.indices)
    resources._names = _CountingList(resources._names)
    return fleet, tree, racks, resources


@pytest.mark.parametrize("rows", [1_000, 100_000])
def test_poll_and_allocation_cost_track_changes_not_fleet_size(rows):
    """At 1k and at 100k rows alike: after writes to one rack, one poll
    cycle rescans exactly that rack, a quiet cycle rescans none, and an
    allocation visits only the positions it takes."""
    fleet, tree, racks, resources = _site(rows)
    victim = racks[len(racks) // 2]
    for i in victim.indices[:3]:
        fleet.set_load(i, 4.0)
    fleet.set_flag("responsive", victim.indices[5], False)
    fleet.set_flag("responsive", victim.indices[5], True)
    tree.poll_cycle()
    assert [r.name for r in racks if r.indices.iterations] == [victim.name]
    tree.poll_cycle()
    assert sum(r.indices.iterations for r in racks) == 1

    allocation = resources.try_allocate(40)  # 16 + 16 + 8 on 16-core nodes
    assert allocation is not None and len(allocation.by_node) == 3
    assert resources._names.reads == 3
    assert resources.free_cores() == 16 * rows - 40
