"""Chassis models and populated machines.

Three chassis carry the paper:

* **LittleFe v4 frame** — an open luggable frame with six mini-ITX shelves,
  under 50 lb (Figures 1-2).  Historically powered by one shared DC supply;
  the modified build instead hangs an individual PSU off every shelf.
* **Limulus HPC200 deskside case** — one head node plus three diskless
  compute blades behind a single 850 W supply, 50 lb (Figure 3).
* **Generic 1U rack chassis** — used when rebuilding the Table 3 campus
  deployments.

A :class:`Machine` is a chassis populated with validated nodes; populating
one re-checks power (shared PSU vs sum of node draws) and slot counts, so a
held :class:`Machine` is always buildable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import AssemblyError
from .node import Node, NodeRole
from .power import PsuModel, check_budget

__all__ = [
    "ChassisModel",
    "Machine",
    "LITTLEFE_V4_FRAME",
    "LIMULUS_DESKSIDE",
    "RACK_1U",
    "AssemblyProblem",
    "assembly_problems",
    "populate",
]


@dataclass(frozen=True)
class ChassisModel:
    """A chassis/frame SKU.

    ``shared_psu`` is ``None`` when every node supplies its own power (the
    modified-LittleFe arrangement) — in that case every node handed to
    :func:`populate` must carry a PSU.  ``max_board_form_factor`` is the
    largest board that fits a slot.
    """

    model: str
    slots: int
    max_board_form_factor: str
    weight_lb: float
    portable: bool
    shared_psu: PsuModel | None
    price_usd: float

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise AssemblyError(f"chassis {self.model} has no slots")


#: Form factors ordered small to large for the slot fit check.
_FORM_FACTOR_ORDER = ["mini-ITX", "micro-ATX", "ATX"]


#: The LittleFe v4 frame.  ``shared_psu=None``: the modified build uses
#: per-node supplies (Section 5.1).  For the historical single-supply build,
#: pass ``shared_psu_override`` to :func:`populate`.
LITTLEFE_V4_FRAME = ChassisModel(
    model="LittleFe v4 frame",
    slots=6,
    max_board_form_factor="mini-ITX",
    weight_lb=48.0,
    portable=True,
    shared_psu=None,
    price_usd=250.0,
)

from .power import LIMULUS_850W  # noqa: E402  (constant reuse, no cycle)

#: The Limulus HPC200 deskside case with its single 850 W supply.
LIMULUS_DESKSIDE = ChassisModel(
    model="Limulus HPC200 deskside case",
    slots=4,
    max_board_form_factor="micro-ATX",
    weight_lb=50.0,
    portable=True,
    shared_psu=LIMULUS_850W,
    price_usd=400.0,
)

#: Generic 1U rack chassis for Table 3 site rebuilds.
RACK_1U = ChassisModel(
    model="generic 1U rack chassis",
    slots=1,
    max_board_form_factor="ATX",
    weight_lb=30.0,
    portable=False,
    shared_psu=None,
    price_usd=150.0,
)


@dataclass
class Machine:
    """A chassis populated with nodes — e.g. "the IU LittleFe"."""

    name: str
    chassis: ChassisModel
    nodes: list[Node]
    shared_psu: PsuModel | None = None

    @property
    def head(self) -> Node:
        """The frontend node; exactly one exists in a valid machine."""
        heads = [n for n in self.nodes if n.role == NodeRole.FRONTEND]
        if len(heads) != 1:
            raise AssemblyError(
                f"{self.name}: expected exactly one frontend, found {len(heads)}"
            )
        return heads[0]

    @property
    def compute_nodes(self) -> list[Node]:
        """All non-frontend nodes."""
        return [n for n in self.nodes if n.role == NodeRole.COMPUTE]

    @property
    def node_count(self) -> int:
        """Number of nodes (Table 4 'Nodes' column counts all nodes)."""
        return len(self.nodes)

    @property
    def cpu_count(self) -> int:
        """Number of CPU sockets (one per node in the paper machines)."""
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        """Total physical cores across the machine."""
        return sum(n.cores for n in self.nodes)

    @property
    def clock_ghz(self) -> float:
        """Uniform CPU clock (all paper machines are homogeneous)."""
        clocks = {n.clock_ghz for n in self.nodes}
        if len(clocks) != 1:
            raise AssemblyError(f"{self.name}: heterogeneous clocks {clocks}")
        return clocks.pop()

    @property
    def memory_bytes(self) -> int:
        """Aggregate RAM."""
        return sum(n.memory_bytes for n in self.nodes)

    @property
    def rpeak_gflops(self) -> float:
        """Theoretical peak (TOP500 convention) of the whole machine."""
        return sum(n.rpeak_gflops for n in self.nodes)

    @property
    def draw_watts(self) -> float:
        """Worst-case aggregate power draw of all currently powered nodes."""
        return sum(n.draw_watts for n in self.nodes if n.powered_on)

    @property
    def price_usd(self) -> float:
        """Parts cost: nodes + chassis (+ shared PSU when present)."""
        total = sum(n.price_usd for n in self.nodes) + self.chassis.price_usd
        if self.shared_psu is not None:
            total += self.shared_psu.price_usd
        return total

    @property
    def weight_lb(self) -> float:
        """Chassis weight (the paper quotes frame weights, not per-part)."""
        return self.chassis.weight_lb


@dataclass(frozen=True)
class AssemblyProblem:
    """One :func:`populate` rule that a set of nodes breaks in a chassis.

    ``rule`` names it: ``"slots"``, ``"nodes"``, ``"board"``,
    ``"frontend"``, ``"shared-psu"`` or ``"no-psu"``.  ``text`` says what is
    wrong, without the machine's name.  A ``"no-psu"`` problem lists the
    nodes that lack a supply in ``nodes``.
    """

    rule: str
    text: str
    nodes: tuple[str, ...] = ()


def assembly_problems(
    chassis: ChassisModel, nodes: list[Node], shared_psu: PsuModel | None
) -> Iterator[AssemblyProblem]:
    """Every assembly rule ``nodes`` break in ``chassis``, in check order.

    :func:`populate` raises the first; cluster-lint reports them all.  The
    power budget is :func:`~repro.hardware.power.check_budget`'s.
    """
    if len(nodes) > chassis.slots:
        yield AssemblyProblem(
            "slots",
            f"{len(nodes)} nodes for the {chassis.slots} slots of "
            f"{chassis.model!r}",
        )
    if not nodes:
        yield AssemblyProblem("nodes", "a machine needs at least one node")
    widest = chassis.max_board_form_factor
    for node in nodes:
        board = node.board
        if board.form_factor not in _FORM_FACTOR_ORDER or widest not in _FORM_FACTOR_ORDER:
            text = f"unknown form factor {board.form_factor!r} or {widest!r}"
        elif _FORM_FACTOR_ORDER.index(board.form_factor) > _FORM_FACTOR_ORDER.index(widest):
            text = (
                f"board {board.model!r} ({board.form_factor}) does not fit "
                f"{chassis.model!r} (max {widest})"
            )
        else:
            continue
        yield AssemblyProblem("board", text)
    heads = [n for n in nodes if n.role == NodeRole.FRONTEND]
    if len(heads) != 1:
        yield AssemblyProblem(
            "frontend", f"expected exactly one frontend node, found {len(heads)}"
        )
    if shared_psu is not None:
        offenders = [n.name for n in nodes if n.psu is not None]
        if offenders:
            yield AssemblyProblem(
                "shared-psu",
                f"chassis supplies shared power ({shared_psu.model}) but "
                f"nodes carry their own PSUs: {offenders}",
            )
    else:
        missing = [n.name for n in nodes if n.psu is None]
        if missing:
            yield AssemblyProblem(
                "no-psu",
                f"chassis {chassis.model!r} provides no shared PSU; these "
                f"nodes need their own: {missing}",
                tuple(missing),
            )


def populate(
    name: str,
    chassis: ChassisModel,
    nodes: list[Node],
    *,
    shared_psu_override: PsuModel | None = None,
) -> Machine:
    """Place ``nodes`` into ``chassis``, validating slots and power.

    Raises :class:`~repro.errors.AssemblyError` for the first of
    :func:`assembly_problems`, then checks a shared supply's budget.  A node
    that carries its own PSU had its budget checked when it was assembled.
    """
    shared = shared_psu_override or chassis.shared_psu
    for problem in assembly_problems(chassis, nodes, shared):
        raise AssemblyError(f"{name}: {problem.text}")
    if shared is not None:
        check_budget(shared, sum(n.draw_watts for n in nodes), what=name)
    return Machine(name=name, chassis=chassis, nodes=list(nodes), shared_psu=shared)
