"""Fabric, DHCP, PXE, and topology tests."""

import pytest

from repro.errors import DhcpError, NetworkError, PxeError
from repro.hardware import GIGE_ONBOARD, FASTE_ONBOARD
from repro.network import (
    BootImage,
    DhcpServer,
    Endpoint,
    Fabric,
    PxeServer,
    Switch,
    build_cluster_network,
)


def tiny_fabric():
    fabric = Fabric()
    fabric.add_switch(Switch("sw0", ports=8))
    fabric.attach("sw0", Endpoint("a", GIGE_ONBOARD))
    fabric.attach("sw0", Endpoint("b", GIGE_ONBOARD))
    return fabric


class TestFabric:
    def test_same_switch_path(self):
        cost = tiny_fabric().path_cost("a", "b")
        assert cost.hops == 1
        # 2 NIC latencies + 1 switch latency
        assert cost.latency_s == pytest.approx((50 + 50 + 5) * 1e-6)

    def test_loopback_is_cheap(self):
        cost = tiny_fabric().path_cost("a", "a")
        assert cost.hops == 0
        assert cost.latency_s < 1e-5

    def test_multi_switch_path_adds_latency(self):
        fabric = Fabric()
        fabric.add_switch(Switch("sw0", ports=4))
        fabric.add_switch(Switch("sw1", ports=4))
        fabric.connect_switches("sw0", "sw1")
        fabric.attach("sw0", Endpoint("a", GIGE_ONBOARD))
        fabric.attach("sw1", Endpoint("b", GIGE_ONBOARD))
        two_hop = fabric.path_cost("a", "b")
        one_hop = tiny_fabric().path_cost("a", "b")
        assert two_hop.hops == 2
        assert two_hop.latency_s > one_hop.latency_s

    def test_disconnected_hosts_unreachable(self):
        fabric = Fabric()
        fabric.add_switch(Switch("sw0", ports=4))
        fabric.add_switch(Switch("sw1", ports=4))
        fabric.attach("sw0", Endpoint("a", GIGE_ONBOARD))
        fabric.attach("sw1", Endpoint("b", GIGE_ONBOARD))
        with pytest.raises(NetworkError, match="no path"):
            fabric.path_cost("a", "b")

    def test_bandwidth_is_slowest_nic(self):
        fabric = Fabric()
        fabric.add_switch(Switch("sw0", ports=4))
        fabric.attach("sw0", Endpoint("fast", GIGE_ONBOARD))
        fabric.attach("sw0", Endpoint("slow", FASTE_ONBOARD))
        cost = fabric.path_cost("fast", "slow")
        assert cost.bandwidth_bytes_s == pytest.approx(
            FASTE_ONBOARD.bandwidth_bytes_s * 0.94
        )

    def test_port_exhaustion(self):
        fabric = Fabric()
        fabric.add_switch(Switch("sw0", ports=1))
        fabric.attach("sw0", Endpoint("a", GIGE_ONBOARD))
        with pytest.raises(NetworkError, match="ports"):
            fabric.attach("sw0", Endpoint("b", GIGE_ONBOARD))

    def test_negative_message_size_rejected(self):
        cost = tiny_fabric().path_cost("a", "b")
        with pytest.raises(NetworkError):
            cost.transfer_time_s(-1)

    def test_transfer_time_alpha_beta(self):
        cost = tiny_fabric().path_cost("a", "b")
        t_small = cost.transfer_time_s(0)
        t_big = cost.transfer_time_s(10**6)
        assert t_small == pytest.approx(cost.latency_s)
        assert t_big == pytest.approx(cost.latency_s + 1e6 / cost.bandwidth_bytes_s)


class TestDhcp:
    def test_leases_are_deterministic_and_stable(self):
        server = DhcpServer()
        l1 = server.offer("02:aa", hostname="compute-0-0")
        l2 = server.offer("02:bb")
        again = server.offer("02:aa")
        assert l1.ip == "10.1.1.10"
        assert l2.ip == "10.1.1.11"
        assert again.ip == l1.ip

    def test_pool_exhaustion(self):
        server = DhcpServer(pool_start=10, pool_end=11)
        server.offer("02:aa")
        server.offer("02:bb")
        with pytest.raises(DhcpError, match="exhausted"):
            server.offer("02:cc")

    def test_empty_mac_rejected(self):
        with pytest.raises(DhcpError):
            DhcpServer().offer("")

    def test_bad_pool_rejected(self):
        with pytest.raises(DhcpError):
            DhcpServer(pool_start=0)


class TestPxe:
    def test_boot_with_default_image(self):
        dhcp = DhcpServer()
        pxe = PxeServer(dhcp)
        pxe.set_default_image(BootImage("ks", kickstart_profile="compute"))
        result = pxe.boot("02:aa")
        assert result.image.name == "ks"
        assert result.tftp_server_ip == dhcp.server_ip

    def test_boot_without_image_fails(self):
        pxe = PxeServer(DhcpServer())
        with pytest.raises(PxeError, match="no boot image"):
            pxe.boot("02:aa")


class TestTopology:
    def test_dual_homed_wiring(self, littlefe_machine):
        net = build_cluster_network(littlefe_machine)
        head = littlefe_machine.head.name
        assert head in net.private_hosts()
        assert head in net.public_switch.attached_hosts()
        assert len(net.private_hosts()) == 6  # head + 5 compute

    def test_single_nic_head_rejected(self, original_littlefe_quote):
        with pytest.raises(NetworkError, match="2 NICs"):
            build_cluster_network(original_littlefe_quote.machine)

    def test_compute_to_compute_reachable(self, littlefe_network):
        hosts = littlefe_network.private_hosts()
        assert littlefe_network.fabric.path_cost(hosts[1], hosts[2]).hops >= 1
