"""Tests for the nanotargeting experiment (Section 5 / Table 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import derive_generator
from repro.adsapi import AdsManagerAPI
from repro.config import ExperimentConfig, PlatformConfig
from repro.core import NanotargetingExperiment, SuccessValidation
from repro.delivery import ClickLog, DeliveryEngine
from repro.errors import ModelError
from repro.fdvt import FDVTPanel
from repro.simclock import SimClock


@pytest.fixture(scope="module")
def experiment_report(simulation):
    """One full experiment run shared by the assertions below."""
    api = AdsManagerAPI(
        simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )
    engine = DeliveryEngine(simulation.catalog, seed=13)
    experiment = NanotargetingExperiment(
        api, engine, ExperimentConfig(seed=77), click_log=ClickLog(), seed=77
    )
    report = experiment.run(candidates=simulation.panel.users)
    return api, experiment, report


class TestExperimentPlanning:
    def test_selects_three_targets_with_enough_interests(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        targets = experiment.select_targets(simulation.panel.users)
        assert len(targets) == 3
        assert all(user.interest_count >= 22 for user in targets)

    def test_select_targets_fails_without_candidates(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        poor_candidates = [u for u in simulation.panel.users if u.interest_count < 22][:2]
        with pytest.raises(ModelError):
            experiment.select_targets(poor_candidates)

    def test_interest_sets_are_nested(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        target = max(simulation.panel.users, key=lambda u: u.interest_count)
        sets = experiment.plan_interest_sets(target)
        assert set(sets) == {5, 7, 9, 12, 18, 20, 22}
        assert set(sets[5]) <= set(sets[12]) <= set(sets[22])
        assert set(sets[22]) <= set(target.interest_ids)

    def test_campaign_objects_follow_the_paper_setup(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        target = max(simulation.panel.users, key=lambda u: u.interest_count)
        campaign = experiment.build_campaign(target, "User 1", target.interest_ids[:12])
        assert campaign.spec.is_worldwide
        assert campaign.interest_count == 12
        assert campaign.schedule.total_active_hours == pytest.approx(33.0)
        assert campaign.daily_budget_eur == pytest.approx(10.0)

    def test_run_requires_targets_or_candidates(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        with pytest.raises(ModelError):
            experiment.run()


def _fresh_experiment(simulation, seed: int) -> NanotargetingExperiment:
    api = AdsManagerAPI(
        simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )
    engine = DeliveryEngine(simulation.catalog, seed=seed)
    return NanotargetingExperiment(
        api, engine, ExperimentConfig(seed=seed), click_log=ClickLog(), seed=seed
    )


def _object_list_targets(experiment, candidates):
    """Target selection over a list of user objects, written out in full."""
    needed = max(experiment.config.interest_counts)
    eligible = [user for user in candidates if user.interest_count >= needed]
    if len(eligible) < experiment.config.n_targets:
        raise ModelError(
            f"only {len(eligible)} candidates have >= {needed} interests; "
            f"{experiment.config.n_targets} targets are required"
        )
    rng = derive_generator(experiment._base_seed, "target-selection")
    indices = rng.choice(len(eligible), size=experiment.config.n_targets, replace=False)
    return [eligible[int(i)] for i in sorted(indices)]


class TestRowIndexedTargetSelection:
    """Selecting targets by panel row matches selecting among user objects."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 42, 77])
    def test_panel_rows_pick_the_object_list_targets(self, simulation, seed):
        panel = simulation.panel
        expected = _object_list_targets(_fresh_experiment(simulation, seed), panel.users)
        experiment = _fresh_experiment(simulation, seed)
        for candidates in (panel, FDVTPanel(panel.users, panel.catalog)):
            targets = experiment.select_panel_targets(candidates)
            assert [t.user_id for t in targets] == [t.user_id for t in expected]
            assert [t.interest_ids for t in targets] == [t.interest_ids for t in expected]
            assert targets == expected
        assert experiment.select_targets(panel.users) == expected

    def test_rows_are_ascending_eligible_panel_rows(self, simulation):
        counts = simulation.panel.interests_per_user()
        rows = _fresh_experiment(simulation, 5).select_target_rows(counts)
        assert rows.tolist() == sorted(rows.tolist())
        assert (counts[rows] >= 22).all()

    def test_too_few_eligible_rows_raise_the_same_error(self, simulation):
        panel = simulation.panel
        counts = panel.interests_per_user()
        rows = np.concatenate(
            [np.flatnonzero(counts >= 22)[:2], np.flatnonzero(counts < 22)[:40]]
        )
        poor = FDVTPanel.from_columns(panel.columns.take(np.sort(rows)), panel.catalog)
        experiment = _fresh_experiment(simulation, 3)
        with pytest.raises(ModelError) as expected:
            _object_list_targets(experiment, poor.users)
        with pytest.raises(ModelError) as by_rows:
            experiment.select_panel_targets(poor)
        with pytest.raises(ModelError) as by_objects:
            experiment.select_targets(poor.users)
        assert str(by_rows.value) == str(by_objects.value) == str(expected.value)
        assert "only 2 candidates" in str(by_rows.value)

    def test_report_is_unchanged(self, simulation):
        by_candidates = _fresh_experiment(simulation, 11).run(
            candidates=simulation.panel.users
        )
        experiment = _fresh_experiment(simulation, 11)
        by_rows = experiment.run(experiment.select_panel_targets(simulation.panel))
        assert by_rows.table_rows() == by_candidates.table_rows()
        assert by_rows.account_suspended == by_candidates.account_suspended


class TestExperimentResults:
    def test_21_campaigns_are_run(self, experiment_report):
        _, _, report = experiment_report
        assert report.n_campaigns == 21

    def test_success_requires_all_three_conditions(self):
        assert SuccessValidation(True, True, True).nanotargeted
        assert not SuccessValidation(False, True, True).nanotargeted
        assert not SuccessValidation(True, False, True).nanotargeted
        assert not SuccessValidation(True, True, False).nanotargeted

    def test_high_interest_campaigns_succeed_more_often(self, experiment_report):
        _, _, report = experiment_report
        rates = report.success_rate_by_interests()
        low = (rates[5] + rates[7]) / 2
        high = (rates[20] + rates[22]) / 2
        assert high > low
        assert high >= 0.5

    def test_five_interest_campaigns_never_nanotarget(self, experiment_report):
        _, _, report = experiment_report
        assert report.success_rate_by_interests()[5] == 0.0

    def test_successful_campaigns_reach_exactly_one_user(self, experiment_report):
        _, _, report = experiment_report
        for record in report.successful_records:
            assert record.outcome.metrics.reached == 1
            assert record.outcome.metrics.seen

    def test_successful_campaigns_are_cheap(self, experiment_report):
        _, _, report = experiment_report
        assert report.successful_cost_eur() <= 1.0
        assert report.total_cost_eur() >= report.successful_cost_eur()

    def test_reactive_account_suspension_happens_after_the_experiment(
        self, experiment_report
    ):
        api, _, report = experiment_report
        if report.success_count > 0:
            assert report.account_suspended
            assert not api.account.is_active
            # The suspension is reactive: it happens after the campaigns end.
            assert api.account.suspended_at_hours > 136.0

    def test_table_rows_have_the_paper_columns(self, experiment_report):
        _, _, report = experiment_report
        rows = report.table_rows()
        assert len(rows) == 21
        expected_keys = {
            "target", "interests", "seen", "reached", "impressions",
            "tfi", "cost", "clicks", "unique_click_ips", "nanotargeted",
        }
        assert expected_keys <= set(rows[0])

    def test_records_for_target_groups_seven_campaigns(self, experiment_report):
        _, _, report = experiment_report
        assert len(report.records_for_target("User 1")) == 7

    def test_click_log_only_has_target_clicks_for_successes(self, experiment_report):
        _, experiment, report = experiment_report
        for record in report.successful_records:
            entries = experiment.click_log.entries_for(record.campaign.campaign_id)
            assert entries
            assert all(entry.is_target for entry in entries)
