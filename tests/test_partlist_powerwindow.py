"""Parts-list rendering and scheduled power windows."""

import pytest

from repro.errors import SchedulerError
from repro.hardware import (
    build_limulus_hpc200,
    build_littlefe_modified,
    build_littlefe_original,
    parts_list,
    render_parts_list,
)
from repro.scheduler import Job, PowerManagedScheduler, PowerWindow
from repro.scheduler.power_mgmt import BOOT_DELAY_S


class TestPartsList:
    def test_littlefe_shopping_list(self, littlefe_quote):
        lines = {l.part: l for l in parts_list(littlefe_quote.machine)}
        assert lines["Gigabyte GA-Q87TN"].quantity == 6
        assert lines["Intel Celeron G1840"].quantity == 6
        assert lines["DDR3-1600 4GiB SO-DIMM"].quantity == 12
        assert lines["Crucial M550 128GB mSATA"].quantity == 6
        assert lines["picoPSU-160-XT"].quantity == 6
        assert lines["LittleFe v4 frame"].quantity == 1

    def test_totals_match_bom(self, littlefe_quote):
        total = sum(l.extended_usd for l in parts_list(littlefe_quote.machine))
        from repro.hardware.builder import NETWORK_KIT_USD

        assert total + NETWORK_KIT_USD == pytest.approx(littlefe_quote.bom_usd)

    def test_render_has_published_price(self, littlefe_quote):
        text = render_parts_list(littlefe_quote)
        assert "published price" in text
        assert "$  3600.00" in text

    def test_shared_psu_machines_list_the_case_supply(self, limulus_quote):
        lines = {l.part: l for l in parts_list(limulus_quote.machine)}
        assert "Limulus 850W case PSU" in lines
        assert not any("picoPSU" in name for name in lines)

    def test_soldered_cpu_rendered_as_on_board(self, original_littlefe_quote):
        lines = {l.part for l in parts_list(original_littlefe_quote.machine)}
        assert any("CPU on board" in name for name in lines)


class TestPowerWindow:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            PowerWindow(start_s=10.0, end_s=5.0)
        with pytest.raises(SchedulerError):
            PowerWindow(start_s=0.0, end_s=30 * 3600.0)

    def test_blackout_phase_logic(self):
        window = PowerWindow(start_s=0.0, end_s=8 * 3600.0)
        assert window.is_blackout(2 * 3600.0)
        assert not window.is_blackout(12 * 3600.0)
        assert window.is_blackout(26 * 3600.0)  # next day's window

    def test_next_window_end(self):
        window = PowerWindow(start_s=0.0, end_s=8 * 3600.0)
        assert window.next_window_end(2 * 3600.0) == pytest.approx(8 * 3600.0)
        # outside the window: the end of tomorrow's window
        assert window.next_window_end(12 * 3600.0) == pytest.approx(32 * 3600.0)

    def test_job_waits_for_window_end(self, limulus_machine):
        scheduler = PowerManagedScheduler(
            limulus_machine,
            manage_power=True,
            blackout=PowerWindow(start_s=0.0, end_s=8 * 3600.0),
        )
        scheduler.now_s = 2 * 3600.0
        job = scheduler.submit(
            Job("overnight", "sci", cores=4, walltime_limit_s=7200, runtime_s=3600)
        )
        stats = scheduler.run_to_completion()
        assert job.start_time_s >= 8 * 3600.0
        assert stats.completed == 1

    def test_daytime_jobs_unaffected(self, limulus_machine):
        scheduler = PowerManagedScheduler(
            limulus_machine,
            manage_power=True,
            blackout=PowerWindow(start_s=0.0, end_s=8 * 3600.0),
        )
        scheduler.now_s = 10 * 3600.0
        job = scheduler.submit(
            Job("daytime", "sci", cores=4, walltime_limit_s=7200, runtime_s=3600)
        )
        scheduler.run_to_completion()
        # only the boot delay, never the window
        assert job.start_time_s <= 10 * 3600.0 + BOOT_DELAY_S

    def test_blackout_energy_is_zero(self, limulus_machine):
        scheduler = PowerManagedScheduler(
            limulus_machine,
            manage_power=True,
            blackout=PowerWindow(start_s=0.0, end_s=8 * 3600.0),
        )
        scheduler.now_s = 1 * 3600.0
        scheduler.submit(
            Job("waits", "sci", cores=4, walltime_limit_s=7200, runtime_s=600)
        )
        scheduler.run_to_completion()
        # 7 hours of blackout: all node-seconds off, no idle burn
        assert scheduler.energy.off_node_seconds >= 3 * 7 * 3600.0
        assert scheduler.energy.idle_joules == pytest.approx(0.0)


class TestPowerStateVisibility:
    def test_hardware_reflects_managed_power(self, limulus_machine):
        scheduler = PowerManagedScheduler(limulus_machine, manage_power=True)
        # at rest: compute blades physically off, head untouched
        assert all(not n.powered_on for n in limulus_machine.compute_nodes)
        assert limulus_machine.head.powered_on
        job = scheduler.submit(
            Job("wake", "sci", cores=12, walltime_limit_s=3600, runtime_s=600)
        )
        assert all(n.powered_on for n in limulus_machine.compute_nodes)
        scheduler.run_to_completion()
        assert all(not n.powered_on for n in limulus_machine.compute_nodes)

    def test_machine_draw_tracks_power_state(self, limulus_machine):
        full = limulus_machine.draw_watts
        PowerManagedScheduler(limulus_machine, manage_power=True)
        assert limulus_machine.draw_watts < full  # blades off
