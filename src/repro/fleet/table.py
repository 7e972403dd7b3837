"""The columnar fleet table: node state as parallel arrays, not objects.

At 10k+ nodes, one Python object per node per subsystem is the scaling
bottleneck (ROADMAP item 1).  A :class:`FleetTable` stores every
per-appliance fact in parallel columns — ``array`` module arrays for
numeric state, ``bytearray`` for flags, plain lists for strings — so hot
paths (installer waves, monitoring rollups, scheduler usability masks)
run as column scans instead of attribute chases.  Call sites that want
one node read and write it through :class:`FleetRow`, a thin cached proxy
that exposes a row index as attributes — the node record.

Readers that keep answers derived from the columns learn what changed
through a per-reader change feed (:meth:`FleetTable.watch`): every
mutator adds its row index to the feed of each reader watching that row,
and the reader drains its feed when it next reads, so a change costs
O(changed rows), not O(fleet).  The canonical-order index behind
``hosts()``-style iteration depends only on which rows are live and their
(appliance, rack, rank), so only :meth:`FleetTable.add_row` and
:meth:`FleetTable.remove` invalidate it.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from ..errors import FleetError
from .nodeset import NodeSet

__all__ = ["FleetTable", "FleetRow", "DEFAULT_STATES"]

#: Default install-state vocabulary (matches rocks.InstallState values);
#: callers may pass richer state objects (e.g. the enum itself) whose
#: ``index()`` position defines the stored code.
DEFAULT_STATES: tuple[str, ...] = (
    "discovered",
    "installing",
    "os-installed",
    "install-failed",
)


class FleetRow:
    """A live window onto one row of a :class:`FleetTable`.

    The hosts-table columns (name, mac, ip, appliance, rack, rank, state)
    plus the node-facing columns the scheduler and monitors read (cores,
    powered_on, load, ...).  Rows are cached per index, so two lookups of
    the same host return the *same* proxy object.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, table: "FleetTable", index: int) -> None:
        self._table = table
        self._index = index

    @property
    def index(self) -> int:
        """This row's position in the table's columns."""
        return self._index

    @property
    def name(self) -> str:
        return self._table.names[self._index]

    @property
    def mac(self) -> str:
        return self._table.macs[self._index]

    @property
    def ip(self) -> str:
        return self._table.ips[self._index]

    @property
    def appliance(self) -> str:
        return self._table.appliances[self._index]

    @property
    def rack(self) -> int:
        return self._table.racks[self._index]

    @property
    def rank(self) -> int:
        return self._table.ranks[self._index]

    @property
    def state(self):
        t = self._table
        return t.state_values[t.states[self._index]]

    @state.setter
    def state(self, value) -> None:
        self._table.set_state_code(self._index, self._table.state_code(value))

    @property
    def cores(self) -> int:
        return self._table.cores[self._index]

    @cores.setter
    def cores(self, value: int) -> None:
        self._table.set_cores(self._index, value)

    @property
    def mem_kb(self) -> float:
        return self._table.mem_kb[self._index]

    @mem_kb.setter
    def mem_kb(self, value: float) -> None:
        self._table.set_mem_kb(self._index, value)

    @property
    def load(self) -> float:
        return self._table.load[self._index]

    @load.setter
    def load(self, value: float) -> None:
        self._table.set_load(self._index, value)

    @property
    def powered_on(self) -> bool:
        return bool(self._table.powered[self._index])

    @powered_on.setter
    def powered_on(self, value: bool) -> None:
        self._table.set_flag("powered", self._index, value)

    @property
    def responsive(self) -> bool:
        return bool(self._table.responsive[self._index])

    @responsive.setter
    def responsive(self, value: bool) -> None:
        self._table.set_flag("responsive", self._index, value)

    @property
    def alive(self) -> bool:
        """False once the row was removed (tombstoned)."""
        return bool(self._table.alive[self._index])

    def __repr__(self) -> str:
        return (
            f"FleetRow(name={self.name!r}, mac={self.mac!r}, ip={self.ip!r}, "
            f"appliance={self.appliance!r}, rack={self.rack}, "
            f"rank={self.rank}, state={self.state!r})"
        )


class FleetTable:
    """Columnar state for a whole fleet of appliances.

    Columns (all parallel, indexed by row):

    ========== =========== ==================================================
    column      storage     meaning
    ========== =========== ==================================================
    names       list[str]   appliance name (``compute-0-15``)
    macs        list[str]   NIC MAC ("" = not yet discovered)
    ips         list[str]   leased/static IP
    appliances  list[str]   interned appliance type ("frontend"/"compute")
    racks       array('l')  rack number
    ranks       array('l')  rank within the rack
    states      array('B')  install-state code into :attr:`state_values`
    cores       array('l')  core count (filled at discovery/install)
    mem_kb      array('d')  memory in KiB
    load        array('d')  current load (monitoring fast path)
    powered     bytearray   1 = powered on
    responsive  bytearray   1 = heartbeats answered (monitoring)
    offline     bytearray   1 = not allocatable (scheduler mask)
    failed      bytearray   1 = hardware failed (scheduler mask)
    draining    bytearray   1 = draining (scheduler mask)
    alive       bytearray   0 = removed (tombstone; skipped by iteration)
    ========== =========== ==================================================

    Removal tombstones the row (columns never shift), so row indices — and
    the cached :class:`FleetRow` proxies holding them — stay valid for the
    table's lifetime.

    Every mutator (:meth:`add_row`, :meth:`remove`, :meth:`set_flag`,
    :meth:`set_load`, :meth:`set_state_code`, :meth:`set_cores`,
    :meth:`set_mem_kb`) notifies the feeds watching its row; see
    :meth:`watch`.
    """

    def __init__(self, *, state_values: Sequence = DEFAULT_STATES) -> None:
        if not state_values:
            raise FleetError("state_values must be non-empty")
        self.state_values: tuple = tuple(state_values)
        self._state_code: dict = {v: i for i, v in enumerate(self.state_values)}
        self.names: list[str] = []
        self.macs: list[str] = []
        self.ips: list[str] = []
        self.appliances: list[str] = []
        self.racks = array("l")
        self.ranks = array("l")
        self.states = array("B")
        self.cores = array("l")
        self.mem_kb = array("d")
        self.load = array("d")
        self.powered = bytearray()
        self.responsive = bytearray()
        self.offline = bytearray()
        self.failed = bytearray()
        self.draining = bytearray()
        self.alive = bytearray()
        self._by_name: dict[str, int] = {}
        self._by_mac: dict[str, int] = {}
        self._rows: list[FleetRow] = []
        #: per row, the change feeds watching it (see :meth:`watch`)
        self._feeds: list[tuple[set[int], ...]] = []
        #: feeds watching every row, present and future
        self._feeds_all: tuple[set[int], ...] = ()
        #: sorted-order index for hosts(): (appliance != "frontend", rack,
        #: rank) over live rows — None until rebuilt after add_row/remove.
        self._order: list[int] | None = None

    def __len__(self) -> int:
        """Live (non-tombstoned) row count."""
        return len(self._by_name)

    @property
    def row_count(self) -> int:
        """Total rows including tombstones."""
        return len(self.names)

    def state_code(self, value) -> int:
        """The column code for a state value."""
        try:
            return self._state_code[value]
        except KeyError:
            raise FleetError(f"unknown state {value!r}") from None

    # -- row creation / removal ---------------------------------------------

    def add_row(
        self,
        *,
        name: str,
        mac: str = "",
        ip: str = "",
        appliance: str = "compute",
        rack: int = 0,
        rank: int = 0,
        state=None,
        cores: int = 0,
        mem_kb: float = 0.0,
        powered_on: bool = True,
    ) -> FleetRow:
        """Append one appliance; name (and MAC, when given) must be new."""
        if name in self._by_name:
            raise FleetError(f"row {name} already in table")
        if mac and mac in self._by_mac:
            raise FleetError(f"MAC {mac} already in table")
        index = len(self.names)
        self.names.append(name)
        self.macs.append(mac)
        self.ips.append(ip)
        self.appliances.append(appliance)
        self.racks.append(rack)
        self.ranks.append(rank)
        code = 0 if state is None else self.state_code(state)
        self.states.append(code)
        self.cores.append(cores)
        self.mem_kb.append(mem_kb)
        self.load.append(0.0)
        self.powered.append(1 if powered_on else 0)
        self.responsive.append(1)
        self.offline.append(0)
        self.failed.append(0)
        self.draining.append(0)
        self.alive.append(1)
        self._by_name[name] = index
        if mac:
            self._by_mac[mac] = index
        self._rows.append(FleetRow(self, index))
        self._feeds.append(self._feeds_all)
        self._order = None
        self._notify(index)
        return self._rows[index]

    def remove(self, name: str) -> None:
        """Tombstone a row; its index is never reused."""
        index = self.index_of(name)
        self.alive[index] = 0
        del self._by_name[name]
        mac = self.macs[index]
        if mac and self._by_mac.get(mac) == index:
            del self._by_mac[mac]
        self._order = None
        self._notify(index)

    # -- change feeds ----------------------------------------------------------

    def watch(self, indices: Iterable[int] | None = None) -> set[int]:
        """A new change feed over ``indices`` (every row, present and
        future, when None).

        The returned set is the reader's own: each mutator adds its row
        index to every feed watching that row, and the reader drains the
        set (reads, then clears it) when it next needs current answers.
        A feed holds each watched row at most once, so its memory is
        bounded by the rows watched, not by how many writes happened.
        """
        feed: set[int] = set()
        if indices is None:
            self._feeds_all += (feed,)
            indices = range(len(self._feeds))
        feeds = self._feeds
        for i in indices:
            feeds[i] += (feed,)
        return feed

    def _notify(self, index: int) -> None:
        for feed in self._feeds[index]:
            feed.add(index)

    # -- lookups -------------------------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise FleetError(f"no row {name} in table") from None

    def index_of_mac(self, mac: str) -> int:
        try:
            return self._by_mac[mac]
        except KeyError:
            raise FleetError(f"no row with MAC {mac} in table") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def has_mac(self, mac: str) -> bool:
        return mac in self._by_mac

    def row(self, index: int) -> FleetRow:
        """The (stable, per-index) proxy for one row."""
        return self._rows[index]

    def by_name(self, name: str) -> FleetRow:
        return self.row(self.index_of(name))

    def by_mac(self, mac: str) -> FleetRow:
        return self.row(self.index_of_mac(mac))

    def known_macs(self) -> set[str]:
        return set(self._by_mac)

    # -- ordered iteration ----------------------------------------------------

    def _ordered(self) -> list[int]:
        if self._order is None:
            self._order = sorted(
                self._by_name.values(),
                key=lambda i: (
                    self.appliances[i] != "frontend",
                    self.racks[i],
                    self.ranks[i],
                ),
            )
        return self._order

    def ordered_indices(self) -> list[int]:
        """Live row indices, frontend first then (rack, rank)."""
        return list(self._ordered())

    def rows(self) -> list[FleetRow]:
        """Live rows in the canonical order."""
        return [self.row(i) for i in self._ordered()]

    def compute_indices(self) -> list[int]:
        return [i for i in self._ordered() if self.appliances[i] == "compute"]

    def __iter__(self) -> Iterator[FleetRow]:
        return iter(self.rows())

    # -- column mutators (each notifies the row's feeds) ----------------------

    def set_state_code(self, index: int, code: int) -> None:
        if not 0 <= code < len(self.state_values):
            raise FleetError(f"state code {code} out of range")
        self.states[index] = code
        self._notify(index)

    def set_cores(self, index: int, value: int) -> None:
        self.cores[index] = value
        self._notify(index)

    def set_mem_kb(self, index: int, value: float) -> None:
        self.mem_kb[index] = value
        self._notify(index)

    def set_load(self, index: int, value: float) -> None:
        self.load[index] = value
        self._notify(index)

    def set_flag(self, column: str, index: int, value: bool) -> None:
        if column not in ("powered", "responsive", "offline", "failed", "draining"):
            raise FleetError(f"unknown flag column {column!r}")
        getattr(self, column)[index] = 1 if value else 0
        self._notify(index)

    # -- fleet-scale queries ---------------------------------------------------

    def nodeset(self, indices: Iterable[int] | None = None) -> NodeSet:
        """Fold (a subset of) live row names into a :class:`NodeSet`."""
        if indices is None:
            indices = self._ordered()
        return NodeSet.from_names(self.names[i] for i in indices)

    def select(self, nodes: NodeSet) -> list[int]:
        """Live row indices of every table member of ``nodes``, in the
        table's canonical order."""
        return [i for i in self._ordered() if self.names[i] in nodes]

    def count_state(self, state) -> int:
        """How many live rows are in ``state`` (one column scan)."""
        code = self.state_code(state)
        states, alive = self.states, self.alive
        return sum(
            1
            for i in self._by_name.values()
            if states[i] == code and alive[i]
        )
