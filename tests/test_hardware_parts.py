"""Part-catalogue tests: the CPUs, coolers, PSUs and boards of Section 5."""

import pytest

from repro.errors import CatalogError, ClearanceError, PowerBudgetError
from repro.hardware import (
    ATOM_D510,
    CELERON_G1840,
    GA_Q87TN,
    GIGE_ONBOARD,
    I7_4770S,
    INTEL_STOCK_LGA1150,
    LIMULUS_850W,
    LITTLEFE_ATOM_BOARD,
    PICO_PSU_160,
    ROSEWILL_RCX_Z775_LP,
    calibrated_cpu,
    check_budget,
    check_cooler_fit,
)


class TestCpuCatalog:
    def test_atom_d510_power_matches_paper(self):
        # Section 5.1: "The Atom (D510) ... uses 10.56 watts"
        assert ATOM_D510.tdp_watts == pytest.approx(10.56)

    def test_celeron_g1840_power_matches_paper(self):
        # "versus 43.06 watts for the Celeron G1840"
        assert CELERON_G1840.tdp_watts == pytest.approx(43.06)

    def test_celeron_has_no_hyperthreading(self):
        # Section 5.1: "These CPU choices also eliminate the option of using
        # hyperthreading"
        assert CELERON_G1840.threads == CELERON_G1840.cores

    def test_i7_4770s_specs_match_section_5_2(self):
        assert I7_4770S.clock_ghz == pytest.approx(3.1)
        assert I7_4770S.cache_mib == pytest.approx(8.0)
        assert I7_4770S.tdp_watts == pytest.approx(65.0)
        assert I7_4770S.threads > I7_4770S.cores

    def test_celeron_socket_matches_ga_q87tn(self):
        assert CELERON_G1840.socket == GA_Q87TN.socket == "LGA-1150"

    def test_rpeak_uses_haswell_16_flops_per_cycle(self):
        # 2 cores x 2.8 GHz x 16 = 89.6 GFLOPS per socket
        assert CELERON_G1840.rpeak_gflops == pytest.approx(89.6)
        assert I7_4770S.rpeak_gflops == pytest.approx(198.4)

    def test_calibrated_cpu_hits_target(self):
        cpu = calibrated_cpu("site-cpu", cores=8, target_rpeak_gflops=118.18)
        assert cpu.rpeak_gflops == pytest.approx(118.18)

    def test_calibrated_cpu_rejects_nonpositive(self):
        with pytest.raises(CatalogError):
            calibrated_cpu("bad", cores=0, target_rpeak_gflops=100)
        with pytest.raises(CatalogError):
            calibrated_cpu("bad", cores=8, target_rpeak_gflops=0)


class TestCoolerFit:
    def test_stock_cooler_does_not_fit_littlefe_frame(self):
        # Section 5.1: the boxed Celeron cooler "is too large to fit in the
        # space allocated per LittleFe node"
        with pytest.raises(ClearanceError, match="mm"):
            check_cooler_fit(INTEL_STOCK_LGA1150, CELERON_G1840, GA_Q87TN)

    def test_rosewill_low_profile_fits(self):
        check_cooler_fit(ROSEWILL_RCX_Z775_LP, CELERON_G1840, GA_Q87TN)

    def test_undersized_cooler_rejected_thermally(self):
        from repro.hardware import PASSIVE_SINK_PLUS_FAN

        with pytest.raises(ClearanceError, match="dissipates"):
            check_cooler_fit(PASSIVE_SINK_PLUS_FAN, CELERON_G1840, GA_Q87TN)


class TestPowerBudget:
    def test_pico_psu_carries_one_haswell_node(self):
        margin = check_budget(PICO_PSU_160, 68.0)
        assert margin > 0

    def test_overload_raises_with_diagnostic(self):
        with pytest.raises(PowerBudgetError, match="exceeds"):
            check_budget(PICO_PSU_160, 150.0)

    def test_limulus_psu_is_850w(self):
        assert LIMULUS_850W.rating_watts == pytest.approx(850.0)

    def test_negative_draw_rejected(self):
        from repro.hardware.power import total_draw

        with pytest.raises(PowerBudgetError):
            total_draw([10.0, -1.0])


class TestBoards:
    def test_ga_q87tn_is_dual_homed_capable(self):
        # Section 5.1: dual-homed headnode with no add-in card
        assert GA_Q87TN.dual_homed_capable
        assert GA_Q87TN.nic_count == 2

    def test_atom_board_single_nic(self):
        assert not LITTLEFE_ATOM_BOARD.dual_homed_capable

    def test_ga_q87tn_has_msata(self):
        assert GA_Q87TN.msata_slots == 1


class TestPartsCatalog:
    def test_nic_bandwidth(self):
        assert GIGE_ONBOARD.bandwidth_bytes_s == pytest.approx(1.25e8)
