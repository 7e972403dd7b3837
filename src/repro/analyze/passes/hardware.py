"""Hardware-build checks: the assembly rules as lint instead of exceptions.

:func:`~repro.hardware.chassis.populate` raises
:class:`~repro.errors.AssemblyError`/:class:`~repro.errors.PowerBudgetError`
on the *first* violation it meets.  The analyzer runs the same checks,
:func:`~repro.hardware.chassis.assembly_problems` and
:func:`~repro.hardware.power.check_budget`, over a
:class:`~repro.analyze.spec.HardwarePlan` and reports *all* of them, plus a
margin warning the assembler has no vocabulary for: a budget that fits today
but leaves less than 10 % of the supply's rating spare.  Board form factors
are checked by ``populate`` only.
"""

from __future__ import annotations

from ...errors import PowerBudgetError
from ...hardware.chassis import assembly_problems
from ...hardware.power import check_budget
from ..diagnostic import Severity
from ..registry import rule

#: Margin (fraction of PSU rating) under which HW602 warns.
THIN_MARGIN_FRACTION = 0.10

HW601 = rule(
    "HW601",
    "hardware",
    Severity.ERROR,
    "power draw with headroom exceeds the supply rating",
    "use a bigger supply or per-node supplies — the modified-LittleFe fix "
    "(Section 5.1)",
)
HW602 = rule(
    "HW602",
    "hardware",
    Severity.WARNING,
    "power margin after headroom is under 10% of the supply rating",
    "the build fits, barely; one more drive or DIMM tips it over",
)
HW603 = rule(
    "HW603",
    "hardware",
    Severity.ERROR,
    "PSU arrangement conflicts with the chassis",
    "shared-supply chassis: nodes must not carry PSUs; otherwise every "
    "node needs its own",
)
HW604 = rule(
    "HW604",
    "hardware",
    Severity.ERROR,
    "more nodes than the chassis has slots",
    "drop nodes or pick a bigger chassis",
)
HW605 = rule(
    "HW605",
    "hardware",
    Severity.ERROR,
    "machine does not have exactly one frontend node",
    "Rocks needs one dual-homed frontend; retag the nodes",
)


#: The populate rules cluster-lint reports, by ``AssemblyProblem.rule``.
_RULE_CODES = {"slots": "HW604", "frontend": "HW605", "shared-psu": "HW603"}


def run(definition, emit) -> None:
    plan = definition.effective_hardware_plan()
    if plan is None:
        return
    chassis = plan.chassis
    nodes = plan.nodes
    where = f"hardware:{chassis.model}"
    shared = plan.effective_shared_psu

    for problem in assembly_problems(chassis, nodes, shared):
        if problem.rule == "no-psu":  # one finding per node
            for name in problem.nodes:
                emit(
                    "HW603",
                    f"chassis {chassis.model!r} provides no shared PSU and "
                    f"node {name!r} carries none either",
                    location=f"hardware:node/{name}",
                )
        elif problem.rule in _RULE_CODES:
            emit(_RULE_CODES[problem.rule], problem.text, location=where)

    if shared is not None:
        draw = sum(n.draw_watts for n in nodes)
        _check_budget(
            emit, shared, draw, what=f"{chassis.model} (shared supply)",
            location=where,
        )
    else:
        for node in nodes:
            if node.psu is not None:
                _check_budget(
                    emit, node.psu, node.draw_watts, what=f"node {node.name}",
                    location=f"hardware:node/{node.name}",
                )


def _check_budget(emit, psu, draw_watts, *, what, location) -> None:
    """The assembly-time power rule, emitted instead of raised."""
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
