"""Analyzer pass tests: every rule code gets a trigger (a definition broken
in exactly that way) and a clean counterpart (the same shape, fixed)."""

from dataclasses import replace

import pytest

from repro.analyze import ClusterDefinition, HardwarePlan, Severity, analyze
from repro.hardware.power import PICO_PSU_80, PsuModel
from repro.network.dhcp import DhcpPlan
from repro.rocks import GraphNode, KickstartGraph, Profile, Roll, RollGraphFragment
from repro.rpm import Package, Requirement
from repro.scheduler import QueueConfig, default_queue_for
from repro.yum import Repository
from repro.yum.repoconfig import RepoStanza


def codes_of(definition):
    return {d.code for d in analyze(definition).diagnostics}


def base_graph():
    g = KickstartGraph()
    g.add_node(GraphNode(Profile.FRONTEND))
    g.add_node(GraphNode(Profile.COMPUTE))
    return g


def stanza(repo_id, **kw):
    kw.setdefault("name", repo_id)
    kw.setdefault("baseurl", f"http://repo/{repo_id}/")
    return RepoStanza(repo_id=repo_id, **kw)


# -- kickstart (KS1xx) -------------------------------------------------------


class TestKickstartPass:
    def test_ks101_cycle(self):
        g = base_graph()
        g.add_node(GraphNode("a"))
        g.add_node(GraphNode("b"))
        g.add_edge(Profile.FRONTEND, "a")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        result = analyze(ClusterDefinition(name="t", graph=g))
        assert "KS101" in {d.code for d in result.diagnostics}
        assert result.errors

    def test_ks102_unreachable_node(self):
        g = base_graph()
        g.add_node(GraphNode("orphan", packages=["lost"]))
        assert "KS102" in codes_of(ClusterDefinition(name="t", graph=g))

    def test_ks103_roll_package_unreferenced(self):
        g = base_graph()
        roll = Roll(
            name="r", version="1", summary="s",
            packages=(Package(name="ghost", version="1.0"),),
            fragments=(),
        )
        assert "KS103" in codes_of(
            ClusterDefinition(name="t", graph=g, rolls=(roll,))
        )

    def test_ks104_duplicate_post_action(self):
        g = base_graph()
        g.add_node(GraphNode("a", post_actions=["sync users"]))
        g.add_node(GraphNode("b", post_actions=["sync users"]))
        g.add_edge(Profile.FRONTEND, "a")
        g.add_edge(Profile.FRONTEND, "b")
        assert "KS104" in codes_of(ClusterDefinition(name="t", graph=g))

    def test_ks105_missing_profile_root(self):
        g = KickstartGraph()
        g.add_node(GraphNode(Profile.FRONTEND))
        result = analyze(ClusterDefinition(name="t", graph=g))
        assert "KS105" in {d.code for d in result.diagnostics}
        assert any(Profile.COMPUTE in d.message for d in result.errors)

    def test_clean_graph_no_kickstart_findings(self):
        g = base_graph()
        roll = Roll(
            name="r", version="1", summary="s",
            packages=(Package(name="tool", version="1.0"),),
            fragments=(
                RollGraphFragment(node_name="r-node", packages=("tool",)),
            ),
        )
        roll.apply_to_graph(g)
        result = analyze(ClusterDefinition(name="t", graph=g, rolls=(roll,)))
        assert not {c for c in {d.code for d in result.diagnostics} if c.startswith("KS")}

    def test_cycle_suppresses_closure_checks(self):
        g = base_graph()
        g.add_node(GraphNode("a", post_actions=["x", "x"]))
        g.add_edge(Profile.FRONTEND, "a")
        g.add_edge("a", Profile.FRONTEND)
        result = analyze(ClusterDefinition(name="t", graph=g))
        assert "KS101" in {d.code for d in result.diagnostics}
        assert "KS104" not in {d.code for d in result.diagnostics}


# -- yum repo configuration (RC2xx) ------------------------------------------


class TestRepoPass:
    def test_rc201_duplicate_id(self):
        definition = ClusterDefinition(
            name="t",
            repo_stanzas=(stanza("xsede"),),
            repositories=(Repository("xsede"),),
        )
        assert "RC201" in codes_of(definition)

    def test_rc202_priority_shadowing(self):
        os_repo = Repository("base", priority=10)
        os_repo.add(Package(name="torque", version="4.0"))
        updates = Repository("updates", priority=50)
        updates.add(Package(name="torque", version="4.2"))
        result = analyze(
            ClusterDefinition(name="t", repositories=(os_repo, updates))
        )
        assert "RC202" in {d.code for d in result.diagnostics}
        shadowed = [d for d in result.diagnostics if d.code == "RC202"]
        assert "updates" in shadowed[0].message

    def test_rc202_not_fired_when_best_tier_is_newest(self):
        os_repo = Repository("base", priority=10)
        os_repo.add(Package(name="torque", version="4.2"))
        updates = Repository("updates", priority=50)
        updates.add(Package(name="torque", version="4.0"))
        assert "RC202" not in codes_of(
            ClusterDefinition(name="t", repositories=(os_repo, updates))
        )

    def test_rc203_required_repo_missing(self):
        definition = ClusterDefinition(name="t", required_repo_ids=("xsede",))
        assert "RC203" in codes_of(definition)

    def test_rc203_required_repo_disabled(self):
        definition = ClusterDefinition(
            name="t",
            repo_stanzas=(stanza("xsede", enabled=False),),
            required_repo_ids=("xsede",),
        )
        result = analyze(definition)
        assert "RC203" in {d.code for d in result.diagnostics}
        assert "disabled" in result.errors[0].message

    def test_rc204_gpgcheck_off_is_info(self):
        result = analyze(
            ClusterDefinition(name="t", repo_stanzas=(stanza("xsede"),))
        )
        assert "RC204" in {d.code for d in result.diagnostics}
        assert result.infos and not result.errors

    def test_rc205_priority_out_of_range(self):
        definition = ClusterDefinition(
            name="t", repo_stanzas=(stanza("xsede", priority=0),)
        )
        assert "RC205" in codes_of(definition)

    def test_clean_repo_config(self):
        definition = ClusterDefinition(
            name="t",
            repo_stanzas=(stanza("xsede", gpgcheck=True, priority=50),),
            required_repo_ids=("xsede",),
        )
        assert not analyze(definition).diagnostics


# -- rpm metadata (RPM3xx) ---------------------------------------------------


class TestRpmPass:
    def test_rpm301_unsatisfiable_requires(self):
        pkg = Package(
            name="app", version="1.0", requires=(Requirement("libmissing"),)
        )
        assert "RPM301" in codes_of(ClusterDefinition(name="t", packages=(pkg,)))

    def test_rpm302_profile_conflict(self):
        g = base_graph()
        g.add_node(GraphNode("sched", packages=["torque", "slurm"]))
        g.add_edge(Profile.FRONTEND, "sched")
        packages = (
            Package(name="torque", version="4.0", conflicts=(Requirement("slurm"),)),
            Package(name="slurm", version="14.0"),
        )
        result = analyze(
            ClusterDefinition(name="t", graph=g, packages=packages)
        )
        assert "RPM302" in {d.code for d in result.diagnostics}

    def test_rpm302_no_conflict_when_profiles_split(self):
        g = base_graph()
        g.add_node(GraphNode("fe-sched", packages=["torque"]))
        g.add_node(GraphNode("c-sched", packages=["slurm"]))
        g.add_edge(Profile.FRONTEND, "fe-sched")
        g.add_edge(Profile.COMPUTE, "c-sched")
        packages = (
            Package(name="torque", version="4.0", conflicts=(Requirement("slurm"),)),
            Package(name="slurm", version="14.0"),
        )
        assert "RPM302" not in codes_of(
            ClusterDefinition(name="t", graph=g, packages=packages)
        )

    def test_rpm303_dangling_obsoletes(self):
        pkg = Package(
            name="new-tool", version="2.0", obsoletes=(Requirement("old-tool"),)
        )
        result = analyze(ClusterDefinition(name="t", packages=(pkg,)))
        assert "RPM303" in {d.code for d in result.diagnostics}
        assert result.warnings and not result.errors

    def test_clean_self_contained_universe(self):
        packages = (
            Package(name="lib", version="1.0"),
            Package(name="app", version="1.0", requires=(Requirement("lib"),)),
        )
        assert not analyze(ClusterDefinition(name="t", packages=packages)).diagnostics


# -- network (NET4xx) --------------------------------------------------------


class TestNetworkPass:
    def test_net401_pool_exhaustion(self):
        definition = ClusterDefinition(
            name="t",
            dhcp_plan=DhcpPlan(pool_start=10, pool_end=11),
            macs=("aa:00", "aa:01", "aa:02"),
        )
        assert "NET401" in codes_of(definition)

    def test_net402_duplicate_mac(self):
        definition = ClusterDefinition(
            name="t",
            dhcp_plan=DhcpPlan(),
            macs=("aa:00", "aa:00"),
        )
        assert "NET402" in codes_of(definition)

    def test_net403_pool_covers_frontend(self):
        definition = ClusterDefinition(
            name="t", dhcp_plan=DhcpPlan(pool_start=1, pool_end=100)
        )
        result = analyze(definition)
        assert "NET403" in {d.code for d in result.diagnostics}
        assert result.warnings

    def test_net404_invalid_bounds(self):
        definition = ClusterDefinition(
            name="t", dhcp_plan=DhcpPlan(pool_start=40, pool_end=20)
        )
        result = analyze(definition)
        assert "NET404" in {d.code for d in result.diagnostics}
        # Invalid bounds stop the dependent pool checks.
        assert "NET401" not in {d.code for d in result.diagnostics}

    def test_clean_network_plan(self):
        definition = ClusterDefinition(
            name="t",
            dhcp_plan=DhcpPlan(),
            macs=("aa:00", "aa:01"),
        )
        assert not analyze(definition).diagnostics


# -- scheduler (SCH5xx) ------------------------------------------------------


class TestSchedulerPass:
    def test_sch501_unknown_node(self, littlefe_machine):
        definition = ClusterDefinition(
            name="t",
            machine=littlefe_machine,
            queues=(QueueConfig(name="batch", node_names=("compute-99",)),),
        )
        assert "SCH501" in codes_of(definition)

    def test_sch502_core_overcommit(self, littlefe_machine):
        queue = default_queue_for(littlefe_machine)
        bloated = replace(queue, max_cores_per_job=queue.max_cores_per_job + 1)
        definition = ClusterDefinition(
            name="t", machine=littlefe_machine, queues=(bloated,)
        )
        assert "SCH502" in codes_of(definition)

    def test_sch503_empty_queue(self):
        definition = ClusterDefinition(
            name="t", queues=(QueueConfig(name="batch"),)
        )
        result = analyze(definition)
        assert "SCH503" in {d.code for d in result.diagnostics}
        assert result.warnings

    def test_clean_default_queue(self, littlefe_machine):
        definition = ClusterDefinition(
            name="t",
            machine=littlefe_machine,
            queues=(default_queue_for(littlefe_machine),),
        )
        assert not {
            c for c in {d.code for d in analyze(definition).diagnostics} if c.startswith("SCH")
        }


# -- hardware (HW6xx) --------------------------------------------------------


class TestHardwarePass:
    def shared_plan(self, machine, psu):
        nodes = tuple(replace(n, psu=None) for n in machine.nodes)
        return HardwarePlan(chassis=machine.chassis, nodes=nodes, shared_psu=psu)

    def test_hw601_budget_blown(self, littlefe_machine):
        plan = self.shared_plan(littlefe_machine, PICO_PSU_80)
        result = analyze(ClusterDefinition(name="t", hardware_plan=plan))
        assert "HW601" in {d.code for d in result.diagnostics}
        assert result.errors

    def test_hw602_thin_margin(self, littlefe_machine):
        draw = sum(n.draw_watts for n in littlefe_machine.nodes)
        tight = PsuModel(
            "tight-psu", rating_watts=draw * 1.2 / 0.95,
            efficiency=0.9, price_usd=1.0,
        )
        plan = self.shared_plan(littlefe_machine, tight)
        result = analyze(ClusterDefinition(name="t", hardware_plan=plan))
        assert "HW602" in {d.code for d in result.diagnostics}
        assert "HW601" not in {d.code for d in result.diagnostics}

    def test_hw603_psu_arrangement_conflict(self, littlefe_machine):
        # Nodes keep their own PSUs *and* the plan declares a shared one.
        plan = HardwarePlan(
            chassis=littlefe_machine.chassis,
            nodes=tuple(littlefe_machine.nodes),
            shared_psu=PsuModel("big", rating_watts=2000, efficiency=0.9,
                                price_usd=100.0),
        )
        assert "HW603" in codes_of(ClusterDefinition(name="t", hardware_plan=plan))

    def test_hw603_missing_psu(self, littlefe_machine):
        nodes = tuple(replace(n, psu=None) for n in littlefe_machine.nodes)
        plan = HardwarePlan(chassis=littlefe_machine.chassis, nodes=nodes)
        assert "HW603" in codes_of(ClusterDefinition(name="t", hardware_plan=plan))

    def test_hw604_slot_overcommit(self, littlefe_machine):
        plan = HardwarePlan(
            chassis=littlefe_machine.chassis,
            nodes=tuple(littlefe_machine.nodes) * 2,
        )
        assert "HW604" in codes_of(ClusterDefinition(name="t", hardware_plan=plan))

    def test_hw605_no_frontend(self, littlefe_machine):
        plan = HardwarePlan(
            chassis=littlefe_machine.chassis,
            nodes=tuple(littlefe_machine.compute_nodes),
        )
        assert "HW605" in codes_of(ClusterDefinition(name="t", hardware_plan=plan))

    def test_clean_real_machines(self, littlefe_machine, limulus_machine):
        for machine in (littlefe_machine, limulus_machine):
            definition = ClusterDefinition(name="t", machine=machine)
            assert not {
                c for c in {d.code for d in analyze(definition).diagnostics} if c.startswith("HW")
            }, machine.name


# -- empty definitions -------------------------------------------------------


def test_empty_definition_is_clean():
    result = analyze(ClusterDefinition(name="nothing"))
    assert not result.diagnostics
    assert not result.failed
