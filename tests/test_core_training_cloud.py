"""Training-curriculum and cloud-comparison tests (Sections 6 and 8)."""

import pytest

from repro.core import (
    CloudCostModel,
    CurriculumModule,
    CurriculumStep,
    TrainingSession,
    compare,
    crossover_utilisation,
    littlefe_xcbc_module,
    runaway_student_scenario,
)
from repro.errors import ReproError, TrainingError


class TestCurriculum:
    def test_full_module_passes(self):
        session = TrainingSession(littlefe_xcbc_module(), students=8)
        session.run()
        assert session.passed_all, session.transcript()
        assert len(session.outcomes) == 5

    def test_forgotten_disks_fail_at_install_step(self):
        # the Section 5.1 teaching moment: stock LittleFe is diskless and
        # Rocks refuses it
        session = TrainingSession(littlefe_xcbc_module(forget_disks=True))
        session.run()
        by_step = {o.step: o for o in session.outcomes}
        assert by_step["assemble-hardware"].passed
        assert not by_step["install-xcbc"].passed
        assert "diskless" in by_step["install-xcbc"].detail

    def test_transcript_format(self):
        session = TrainingSession(littlefe_xcbc_module(), students=3)
        session.run()
        text = session.transcript()
        assert "PASS" in text and "3 students" in text

    def test_module_needs_steps(self):
        with pytest.raises(TrainingError):
            CurriculumModule(title="empty", steps=())

    def test_session_needs_students(self):
        with pytest.raises(TrainingError):
            TrainingSession(littlefe_xcbc_module(), students=0)

    def test_custom_step_error_becomes_teaching_moment(self):
        def boom(ws):
            raise ReproError("lesson: check the power budget")

        module = CurriculumModule(
            title="t", steps=(CurriculumStep("s", "obj", boom),)
        )
        session = TrainingSession(module)
        session.run()
        assert not session.passed_all
        assert "power budget" in session.outcomes[0].detail


class TestCloudComparison:
    def test_busy_cluster_beats_cloud(self, littlefe_quote):
        result = compare(
            littlefe_quote.machine, littlefe_quote.quoted_usd, utilisation=0.8
        )
        assert result.cluster_wins

    def test_idle_cluster_loses_to_cloud(self, littlefe_quote):
        result = compare(
            littlefe_quote.machine, littlefe_quote.quoted_usd, utilisation=0.01
        )
        assert not result.cluster_wins

    def test_crossover_exists_and_is_low(self, littlefe_quote):
        # the paper's argument: for any seriously used machine, capex wins
        crossover = crossover_utilisation(
            littlefe_quote.machine, littlefe_quote.quoted_usd
        )
        assert crossover is not None
        assert 0.0 < crossover < 0.5

    def test_limulus_crossover_also_low(self, limulus_quote):
        crossover = crossover_utilisation(
            limulus_quote.machine, limulus_quote.quoted_usd
        )
        assert crossover is not None and crossover < 0.5

    def test_expensive_machine_cheap_cloud_never_crosses(self, littlefe_quote):
        cheap_cloud = CloudCostModel(usd_per_core_hour=0.001)
        crossover = crossover_utilisation(
            littlefe_quote.machine, 1_000_000.0, cloud=cheap_cloud
        )
        assert crossover is None

    def test_runaway_student_uncapped(self):
        uncapped, billed = runaway_student_scenario(cores=64, days=30)
        # 64 cores x 720 h x $0.05 = $2,304 — real money on a student card
        assert uncapped == pytest.approx(2304.0)
        assert billed == uncapped  # no proactive capping

    def test_runaway_student_with_cap(self):
        cloud = CloudCostModel(monthly_cap_usd=500.0)
        uncapped, billed = runaway_student_scenario(cores=64, days=30, cloud=cloud)
        assert billed == pytest.approx(500.0)
        assert billed < uncapped

    def test_utilisation_bounds_validated(self, littlefe_quote):
        with pytest.raises(ReproError):
            compare(littlefe_quote.machine, 3600.0, utilisation=1.5)

    def test_cluster_cost_monotone_in_utilisation(self, littlefe_quote):
        low = compare(littlefe_quote.machine, 3600.0, utilisation=0.2)
        high = compare(littlefe_quote.machine, 3600.0, utilisation=0.9)
        assert high.cluster_usd > low.cluster_usd  # electricity scales
        assert high.cloud_usd > low.cloud_usd
        # but the cluster's $/core-hour falls with use (fixed cost amortised)
        assert high.cluster_usd / high.core_hours < low.cluster_usd / low.core_hours
