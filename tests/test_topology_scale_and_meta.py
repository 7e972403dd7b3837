"""Leaf/spine topology, rocks-run-host fan-out, determinism, and API-hygiene
meta tests."""

import importlib
import pkgutil

import pytest

from repro.cli import ClusterShell
from repro.core import manifest_of_cluster
from repro.core.deployments import TABLE3_SITES, rebuild_site_hardware
from repro.network import build_cluster_network


class TestLeafSpineTopology:
    @pytest.fixture(scope="class")
    def montana_network(self):
        montana = next(s for s in TABLE3_SITES if "Montana" in s.site)
        machine = rebuild_site_hardware(montana)  # 36 nodes > 24 ports
        return machine, build_cluster_network(machine)

    def test_leaf_spine_engages_beyond_one_switch(self, montana_network):
        machine, net = montana_network
        names = net.fabric.switch_names()
        assert any(n.startswith("private-leaf") for n in names)
        assert "private" in names  # the spine keeps the canonical name

    def test_all_nodes_reachable(self, montana_network):
        machine, net = montana_network
        head = machine.head.name
        for node in machine.compute_nodes:
            assert net.fabric.path_cost(head, node.name).hops >= 1

    def test_cross_leaf_costs_more_than_same_leaf(self, montana_network):
        machine, net = montana_network
        names = [n.name for n in machine.compute_nodes]
        # first two computes share the head's leaf; the last sits leaves away
        same_leaf = net.fabric.path_cost(names[0], names[1])
        cross_leaf = net.fabric.path_cost(names[0], names[-1])
        assert cross_leaf.hops > same_leaf.hops
        assert cross_leaf.latency_s > same_leaf.latency_s

    def test_private_hosts_complete(self, montana_network):
        machine, net = montana_network
        assert len(net.private_hosts()) == machine.node_count

    def test_small_cluster_keeps_flat_topology(self, littlefe_network):
        names = littlefe_network.fabric.switch_names()
        assert names == ["private", "public"]


class TestRocksRunHost:
    def test_fan_out_across_computes(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        result = shell.run("rocks run host compute hostname")
        assert result.ok
        lines = result.output.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("compute-0-") for line in lines)
        # the shell returns to where it was
        assert shell.current is xcbc_littlefe.cluster.frontend

    def test_single_host_selector(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        result = shell.run('rocks run host compute-0-2 "which mdrun"')
        assert result.output == "compute-0-2: /usr/bin/mdrun"

    def test_unknown_selector(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        assert not shell.run("rocks run host gpu hostname").ok


class TestDeterminism:
    def test_two_xcbc_builds_produce_identical_manifests(self):
        """The simulation is deterministic: same inputs, same cluster —
        modulo the MAC serial numbers that differ per hardware build."""
        from repro.core import build_xcbc_cluster
        from repro.hardware import build_littlefe_modified

        a = build_xcbc_cluster(
            build_littlefe_modified().machine, include_optional_rolls=False
        ).cluster
        b = build_xcbc_cluster(
            build_littlefe_modified().machine, include_optional_rolls=False
        ).cluster
        assert manifest_of_cluster(a).diff(manifest_of_cluster(b)) == {}


class TestApiHygiene:
    def _walk_modules(self):
        import repro

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            yield importlib.import_module(info.name)

    def test_every_module_has_a_docstring(self):
        undocumented = [
            m.__name__ for m in self._walk_modules() if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_all_entry_resolves(self):
        broken = []
        for module in self._walk_modules():
            for name in getattr(module, "__all__", []):
                if not hasattr(module, name):
                    broken.append(f"{module.__name__}.{name}")
        assert broken == []

    def test_top_level_namespace_is_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
