"""The cluster-lint checks as they were before each rule called the runtime
check it restates: the hardware pass (HW603-HW605 beside the shared power
budget), the RC205 priority range, ``populate``'s own rule chain and
``DhcpServer``'s pool rule.  ``tests/test_lint_twins.py`` holds the
current code equal to them."""

from repro.errors import AssemblyError, DhcpError, PowerBudgetError
from repro.hardware.chassis import Machine
from repro.hardware.node import NodeRole
from repro.hardware.power import check_budget

#: Margin (fraction of PSU rating) under which HW602 warns.
THIN_MARGIN_FRACTION = 0.10
_FORM_FACTOR_ORDER = ["mini-ITX", "micro-ATX", "ATX"]


def hardware_run(definition, emit) -> None:
    plan = definition.effective_hardware_plan()
    if plan is None:
        return
    chassis = plan.chassis
    nodes = plan.nodes
    where = f"hardware:{chassis.model}"

    if len(nodes) > chassis.slots:
        emit(
            "HW604",
            f"{len(nodes)} nodes for the {chassis.slots} slots of "
            f"{chassis.model!r}",
            location=where,
        )

    heads = [n for n in nodes if n.role == NodeRole.FRONTEND]
    if len(heads) != 1:
        emit(
            "HW605",
            f"expected exactly one frontend node, found {len(heads)}",
            location=where,
        )

    shared = plan.effective_shared_psu
    if shared is not None:
        offenders = [n.name for n in nodes if n.psu is not None]
        if offenders:
            emit(
                "HW603",
                f"chassis supplies shared power ({shared.model}) but nodes "
                f"carry their own PSUs: {offenders}",
                location=where,
            )
        draw = sum(n.draw_watts for n in nodes)
        _check_budget(
            emit, shared, draw, what=f"{chassis.model} (shared supply)",
            location=where,
        )
    else:
        for node in nodes:
            if node.psu is None:
                emit(
                    "HW603",
                    f"chassis {chassis.model!r} provides no shared PSU and "
                    f"node {node.name!r} carries none either",
                    location=f"hardware:node/{node.name}",
                )
            else:
                _check_budget(
                    emit, node.psu, node.draw_watts, what=f"node {node.name}",
                    location=f"hardware:node/{node.name}",
                )


def _check_budget(emit, psu, draw_watts, *, what, location) -> None:
    try:
        margin = check_budget(psu, draw_watts, what=what)
    except PowerBudgetError as exc:
        emit("HW601", str(exc), location=location)
        return
    if margin < THIN_MARGIN_FRACTION * psu.rating_watts:
        emit(
            "HW602",
            f"{what}: only {margin:.1f} W of "
            f"{psu.model}'s {psu.rating_watts:.0f} W remain after headroom",
            location=location,
        )


def rc205_run(definition, emit) -> None:
    for stanza in definition.repo_stanzas:
        if not 1 <= stanza.priority <= 99:
            emit(
                "RC205",
                f"[{stanza.repo_id}] priority={stanza.priority} is outside 1..99",
                location=f"repo:[{stanza.repo_id}]",
            )


def _form_factor_fits(board_ff: str, max_ff: str) -> bool:
    try:
        return _FORM_FACTOR_ORDER.index(board_ff) <= _FORM_FACTOR_ORDER.index(max_ff)
    except ValueError:
        raise AssemblyError(f"unknown form factor {board_ff!r} or {max_ff!r}") from None


def populate(name, chassis, nodes, *, shared_psu_override=None):
    if len(nodes) > chassis.slots:
        raise AssemblyError(
            f"{name}: {len(nodes)} nodes exceed the {chassis.slots} slots of "
            f"{chassis.model!r}"
        )
    if not nodes:
        raise AssemblyError(f"{name}: a machine needs at least one node")

    for node in nodes:
        if not _form_factor_fits(node.board.form_factor, chassis.max_board_form_factor):
            raise AssemblyError(
                f"{name}: board {node.board.model!r} ({node.board.form_factor}) "
                f"does not fit {chassis.model!r} "
                f"(max {chassis.max_board_form_factor})"
            )

    heads = [n for n in nodes if n.role == NodeRole.FRONTEND]
    if len(heads) != 1:
        raise AssemblyError(
            f"{name}: a machine needs exactly one frontend, got {len(heads)}"
        )

    shared = shared_psu_override or chassis.shared_psu
    if shared is not None:
        offenders = [n.name for n in nodes if n.psu is not None]
        if offenders:
            raise AssemblyError(
                f"{name}: chassis supplies shared power but nodes carry "
                f"their own PSUs: {offenders}"
            )
        draw = sum(n.draw_watts for n in nodes)
        check_budget(shared, draw, what=name)
    else:
        missing = [n.name for n in nodes if n.psu is None]
        if missing:
            raise AssemblyError(
                f"{name}: chassis {chassis.model!r} provides no shared PSU; "
                f"these nodes need their own: {missing}"
            )

    return Machine(name=name, chassis=chassis, nodes=list(nodes), shared_psu=shared)


def dhcp_pool_check(pool_start: int, pool_end: int) -> None:
    if not 0 < pool_start <= pool_end <= 254:
        raise DhcpError(
            f"invalid pool {pool_start}..{pool_end} (must be within 1..254)"
        )
