"""Lint rules call the runtime checks they restate, and say the same.

HW603-HW605 report :func:`~repro.hardware.chassis.assembly_problems`,
the rules ``populate`` raises on; RC205 reports
:func:`~repro.yum.repository.priority_problem`, the range a
``Repository`` refuses; ``DhcpServer`` refuses the pool ``DhcpPlan``
(NET404) calls invalid.  Over random and boundary inputs every message is
byte-identical to the checks as they were written before
(``tests/oracles/lint_twins.py``), and the runtime refuses exactly what it
refused.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.passes import hardware, repos
from repro.analyze.spec import ClusterDefinition, HardwarePlan
from repro.errors import AssemblyError, DhcpError, PowerBudgetError, RepoPriorityError
from repro.hardware import (
    LIMULUS_DESKSIDE,
    LITTLEFE_V4_FRAME,
    RACK_1U,
    build_limulus_hpc200,
    build_littlefe_modified,
    build_littlefe_original,
    populate,
)
from repro.hardware.node import NodeRole
from repro.hardware.power import ATX_450W, LIMULUS_850W, PICO_PSU_80, PICO_PSU_160
from repro.network.dhcp import DhcpServer
from repro.yum.repoconfig import RepoStanza
from repro.yum.repository import Repository

from .oracles import lint_twins


def _node_pool():
    """Every paper node, plus copies with the other role and with no PSU."""
    nodes = [
        node
        for build in (build_littlefe_modified, build_limulus_hpc200, build_littlefe_original)
        for node in build().machine.nodes
    ]
    flipped = [
        dataclasses.replace(
            n, name=f"{n.name}-r",
            role=NodeRole.COMPUTE if n.role == NodeRole.FRONTEND else NodeRole.FRONTEND,
        )
        for n in nodes
    ]
    bare = [dataclasses.replace(n, name=f"{n.name}-b", psu=None) for n in nodes if n.psu]
    return nodes + flipped + bare


POOL = _node_pool()
CHASSIS = [LITTLEFE_V4_FRAME, LIMULUS_DESKSIDE, RACK_1U]
SUPPLIES = [None, PICO_PSU_80, PICO_PSU_160, ATX_450W, LIMULUS_850W]

plans = st.builds(
    HardwarePlan,
    chassis=st.sampled_from(CHASSIS),
    nodes=st.lists(st.sampled_from(POOL), max_size=10, unique_by=lambda n: n.name).map(tuple),
    shared_psu=st.sampled_from(SUPPLIES),
)


def findings(run, definition):
    out = []
    run(definition, lambda code, message, *, location="": out.append((code, message, location)))
    return sorted(out)


def outcome(place, plan):
    try:
        machine = place("m", plan.chassis, list(plan.nodes), shared_psu_override=plan.shared_psu)
    except (AssemblyError, PowerBudgetError) as exc:
        return type(exc)
    return (machine.name, machine.chassis, machine.nodes, machine.shared_psu)


@given(plans)
@settings(max_examples=300, deadline=None)
def test_hardware_findings_match_the_old_pass(plan):
    definition = ClusterDefinition(name="t", hardware_plan=plan)
    assert findings(hardware.run, definition) == findings(lint_twins.hardware_run, definition)


@given(plans)
@settings(max_examples=300, deadline=None)
def test_populate_refuses_what_it_refused(plan):
    assert outcome(populate, plan) == outcome(lint_twins.populate, plan)


@pytest.mark.parametrize("count", [0, 1, 4, 6, 7])
def test_hardware_boundaries_match_the_old_pass(count):
    # no node, one, the Limulus and LittleFe slot counts, one past them
    for chassis in CHASSIS:
        for shared in SUPPLIES:
            plan = HardwarePlan(chassis, tuple(POOL[:count]), shared)
            definition = ClusterDefinition(name="t", hardware_plan=plan)
            assert findings(hardware.run, definition) == findings(
                lint_twins.hardware_run, definition
            )
            assert outcome(populate, plan) == outcome(lint_twins.populate, plan)


priorities = st.integers(-5, 200) | st.sampled_from([0, 1, 98, 99, 100])


@given(st.lists(priorities, max_size=6))
@settings(max_examples=200, deadline=None)
def test_rc205_matches_the_old_range_and_the_repository_agrees(values):
    stanzas = tuple(
        RepoStanza(repo_id=f"r{i}", name="r", baseurl="http://x/", gpgcheck=True, priority=p)
        for i, p in enumerate(values)
    )
    definition = ClusterDefinition(name="t", repo_stanzas=stanzas)
    rc205 = [f for f in findings(repos.run, definition) if f[0] == "RC205"]
    assert rc205 == findings(lint_twins.rc205_run, definition)
    for stanza in stanzas:
        refused = bool([f for f in rc205 if f[2] == f"repo:[{stanza.repo_id}]"])
        try:
            Repository(stanza.repo_id, priority=stanza.priority)
        except RepoPriorityError:
            assert refused
        else:
            assert not refused


@given(st.integers(-3, 260), st.integers(-3, 260))
@settings(max_examples=200, deadline=None)
def test_the_dhcp_server_refuses_the_pools_it_refused(start, end):
    def refused(make):
        try:
            make()
        except DhcpError as exc:
            return str(exc)
        return None

    assert refused(lambda: DhcpServer(pool_start=start, pool_end=end)) == refused(
        lambda: lint_twins.dhcp_pool_check(start, end)
    )
