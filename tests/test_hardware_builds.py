"""Reference-build tests: the exact machines of Tables 4-5 and Figures 1-3."""

import pytest

from repro.errors import ClearanceError
from repro.hardware import (
    INTEL_STOCK_LGA1150,
    build_limulus_hpc200,
    build_littlefe_modified,
    build_littlefe_original,
    render_limulus,
    render_littlefe,
    render_machine,
)


class TestLittleFeModified:
    def test_table4_characteristics(self, littlefe_quote):
        m = littlefe_quote.machine
        assert m.node_count == 6
        assert m.cpu_count == 6
        assert m.total_cores == 12
        assert m.clock_ghz == pytest.approx(2.8)

    def test_table5_rpeak(self, littlefe_quote):
        assert littlefe_quote.machine.rpeak_gflops == pytest.approx(537.6)

    def test_every_node_has_a_disk_for_rocks(self, littlefe_quote):
        assert all(not n.diskless for n in littlefe_quote.machine.nodes)

    def test_every_node_has_own_psu(self, littlefe_quote):
        assert all(n.psu is not None for n in littlefe_quote.machine.nodes)
        assert littlefe_quote.machine.shared_psu is None

    def test_quoted_price_is_under_4000(self, littlefe_quote):
        # "can be built from easily available components for less than $4,000"
        assert littlefe_quote.quoted_usd < 4000
        assert littlefe_quote.bom_usd < 4000

    def test_bom_within_20pct_of_quote(self, littlefe_quote):
        quote = littlefe_quote
        assert abs(quote.bom_usd - quote.quoted_usd) / quote.quoted_usd < 0.20

    def test_luggable_weight(self, littlefe_quote):
        # "weighs less than 50 pounds"
        assert littlefe_quote.machine.weight_lb < 50
        assert littlefe_quote.machine.chassis.portable

    def test_stock_cooler_reproduces_paper_failure(self):
        with pytest.raises(ClearanceError):
            build_littlefe_modified(cooler=INTEL_STOCK_LGA1150)


class TestLimulus:
    def test_table4_characteristics(self, limulus_quote):
        m = limulus_quote.machine
        assert m.node_count == 4
        assert m.total_cores == 16
        assert m.clock_ghz == pytest.approx(3.1)

    def test_table5_rpeak(self, limulus_quote):
        assert limulus_quote.machine.rpeak_gflops == pytest.approx(793.6)

    def test_compute_nodes_are_diskless(self, limulus_quote):
        assert all(n.diskless for n in limulus_quote.machine.compute_nodes)
        assert not limulus_quote.machine.head.diskless

    def test_single_850w_supply(self, limulus_quote):
        m = limulus_quote.machine
        assert m.shared_psu is not None
        assert m.shared_psu.rating_watts == pytest.approx(850.0)
        assert all(n.psu is None for n in m.nodes)

    def test_weight_is_50_lb(self, limulus_quote):
        assert limulus_quote.machine.weight_lb == pytest.approx(50.0)

    def test_quoted_price(self, limulus_quote):
        assert limulus_quote.quoted_usd == pytest.approx(5995.0)

    def test_more_cores_than_littlefe_in_fewer_nodes(
        self, limulus_quote, littlefe_quote
    ):
        # Section 5.2: "16 cores ... versus the 12 cores in the IU-built
        # LittleFe"
        assert limulus_quote.machine.total_cores > littlefe_quote.machine.total_cores
        assert limulus_quote.machine.node_count < littlefe_quote.machine.node_count


class TestOriginalLittleFe:
    def test_diskless_by_design(self, original_littlefe_quote):
        assert all(n.diskless for n in original_littlefe_quote.machine.nodes)

    def test_atom_rpeak_is_tiny(self, original_littlefe_quote):
        # 12 cores x 1.66 GHz x 2 flops/cycle
        assert original_littlefe_quote.machine.rpeak_gflops == pytest.approx(39.84)

    def test_modified_build_is_much_faster(
        self, original_littlefe_quote, littlefe_quote
    ):
        # Section 5.1: "significant gains in single-core performance"
        ratio = (
            littlefe_quote.machine.rpeak_gflops
            / original_littlefe_quote.machine.rpeak_gflops
        )
        assert ratio > 10

    def test_power_went_up_with_haswell(
        self, original_littlefe_quote, littlefe_quote
    ):
        assert (
            littlefe_quote.machine.draw_watts
            > original_littlefe_quote.machine.draw_watts
        )


class TestRenderings:
    def test_littlefe_front_view_shows_six_slots(self, littlefe_quote):
        art = render_littlefe(littlefe_quote.machine, view="front")
        assert art.count("[slot") == 6
        assert "Rosewill" in art
        assert "Crucial" in art

    def test_littlefe_rear_view_shows_psus_and_nics(self, littlefe_quote):
        art = render_littlefe(littlefe_quote.machine, view="rear")
        assert "picoPSU" in art
        assert "eth1:up" in art  # dual-homed head
        assert "eth1:unused" in art  # compute second port

    def test_limulus_view_shows_diskless_blades(self, limulus_quote):
        art = render_limulus(limulus_quote.machine)
        assert art.count("(diskless)") == 3
        assert "850W" in art

    def test_render_rejects_bad_view(self, littlefe_quote):
        with pytest.raises(ValueError):
            render_machine(littlefe_quote.machine, view="top")

    def test_render_littlefe_rejects_wrong_chassis(self, limulus_quote):
        with pytest.raises(ValueError):
            render_littlefe(limulus_quote.machine)

    def test_renders_are_deterministic(self, littlefe_quote):
        a = render_littlefe(littlefe_quote.machine)
        b = render_littlefe(littlefe_quote.machine)
        assert a == b

    def test_summary_line_has_core_count(self, littlefe_quote):
        art = render_littlefe(littlefe_quote.machine)
        assert "12 cores" in art
