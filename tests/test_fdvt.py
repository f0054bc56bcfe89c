"""Tests for the FDVT subsystem: Appendix B data, panel, risk view, revenue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, PanelError
from repro.fdvt import (
    LOCATION_ANALYSIS_COUNTRIES,
    PANEL_COUNTRY_COUNTS,
    FDVTPanel,
    InterestStatus,
    PanelBuilder,
    RevenueEstimator,
    RiskLevel,
    RiskThresholds,
    classify_audience,
    country_list,
    expanded_country_assignments,
    popularity_bias_for,
    total_panel_users,
)
from repro.population import AgeGroup, Gender


class TestAppendixB:
    def test_total_is_2390(self):
        assert total_panel_users() == 2_390

    def test_80_countries(self):
        assert len(PANEL_COUNTRY_COUNTS) == 80

    def test_spain_is_largest(self):
        assert country_list()[0] == "ES"
        assert PANEL_COUNTRY_COUNTS["ES"] == 1_131

    def test_location_analysis_countries_have_over_100_users(self):
        for code in LOCATION_ANALYSIS_COUNTRIES:
            assert PANEL_COUNTRY_COUNTS[code] > 100

    def test_expanded_assignments_cover_everyone(self):
        assignments = expanded_country_assignments()
        assert len(assignments) == 2_390
        assert assignments.count("FR") == 335


class TestPanelBuilder:
    def test_tiny_panel_size_and_demographics(self, tiny_panel):
        assert len(tiny_panel) == 30
        genders = [user.gender for user in tiny_panel]
        assert genders.count(Gender.MALE) == 20
        assert genders.count(Gender.FEMALE) == 8
        assert genders.count(Gender.UNDISCLOSED) == 2

    def test_age_groups_match_quotas(self, tiny_panel):
        groups = [user.age_group for user in tiny_panel]
        assert groups.count(AgeGroup.ADOLESCENCE) == 4
        assert groups.count(AgeGroup.EARLY_ADULTHOOD) == 16
        assert groups.count(AgeGroup.UNDISCLOSED) == 2

    def test_every_user_has_interests(self, tiny_panel):
        assert all(user.interest_count >= 1 for user in tiny_panel)

    def test_deterministic_build(self, tiny_catalog):
        from repro.config import PanelConfig

        config = PanelConfig(
            n_users=20, n_men=12, n_women=6, n_gender_undisclosed=2,
            n_adolescents=2, n_early_adults=10, n_adults=6, n_matures=0,
            n_age_undisclosed=2, median_interests_per_user=40.0,
            max_interests_per_user=120, seed=3,
        )
        first = PanelBuilder(tiny_catalog, config).build_columns(seed=3)
        second = PanelBuilder(tiny_catalog, config).build_columns(seed=3)
        assert first.to_dicts() == second.to_dicts()

    def test_full_size_panel_uses_exact_country_counts(self, tiny_catalog):
        # Only the country assignment logic is exercised here; interests stay tiny.
        from repro.config import PanelConfig

        config = PanelConfig(median_interests_per_user=3.0, max_interests_per_user=5)
        builder = PanelBuilder(tiny_catalog, config)
        codes, index = builder._assign_country_index(2_390, base_seed=1)
        countries = [codes[i] for i in index]
        counts = {code: countries.count(code) for code in set(countries)}
        assert counts == PANEL_COUNTRY_COUNTS


class TestFDVTPanelContainer:
    def test_statistics(self, tiny_panel):
        counts = tiny_panel.interests_per_user()
        assert counts.shape == (30,)
        assert tiny_panel.total_interest_occurrences() == int(counts.sum())
        assert tiny_panel.unique_interest_ids().size > 0

    def test_subsets(self, tiny_panel):
        men = tiny_panel.by_gender(Gender.MALE)
        assert len(men) == 20
        country = tiny_panel.users[0].country
        assert all(u.country == country for u in tiny_panel.by_country(country))

    def test_get_unknown_user_raises(self, tiny_panel):
        with pytest.raises(PanelError):
            tiny_panel.get(10**9)

    def test_round_trip_serialisation(self, tiny_panel, tiny_catalog):
        rebuilt = FDVTPanel.from_dicts(tiny_panel.to_dicts(), tiny_catalog)
        assert rebuilt.to_dicts() == tiny_panel.to_dicts()

    def test_country_counts(self, tiny_panel):
        counts = tiny_panel.country_counts()
        assert sum(counts.values()) == len(tiny_panel)


class TestPopularityBias:
    def test_women_need_more_interests_than_men(self):
        women = popularity_bias_for(Gender.FEMALE, AgeGroup.EARLY_ADULTHOOD, "ES")
        men = popularity_bias_for(Gender.MALE, AgeGroup.EARLY_ADULTHOOD, "ES")
        assert women > men

    def test_adolescents_have_highest_age_bias(self):
        adolescent = popularity_bias_for(Gender.MALE, AgeGroup.ADOLESCENCE, "ES")
        adult = popularity_bias_for(Gender.MALE, AgeGroup.ADULTHOOD, "ES")
        assert adolescent > adult

    def test_argentina_above_france(self):
        argentina = popularity_bias_for(Gender.MALE, AgeGroup.EARLY_ADULTHOOD, "AR")
        france = popularity_bias_for(Gender.MALE, AgeGroup.EARLY_ADULTHOOD, "FR")
        assert argentina > france


class TestRiskClassification:
    def test_paper_thresholds(self):
        assert classify_audience(5_000) is RiskLevel.RED
        assert classify_audience(10_000) is RiskLevel.RED
        assert classify_audience(50_000) is RiskLevel.ORANGE
        assert classify_audience(500_000) is RiskLevel.YELLOW
        assert classify_audience(5_000_000) is RiskLevel.GREEN

    def test_custom_thresholds(self):
        thresholds = RiskThresholds(red_max=100, orange_max=1_000, yellow_max=10_000)
        assert thresholds.classify(500) is RiskLevel.ORANGE

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            RiskThresholds(red_max=100_000, orange_max=10_000, yellow_max=1_000_000)

    def test_negative_audience_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_audience(-1)

    def test_risk_descriptions(self):
        assert RiskLevel.RED.description == "high risk"
        assert RiskLevel.GREEN.description == "no risk"


class TestRevenueEstimator:
    def test_high_tier_country_earns_more(self):
        estimator = RevenueEstimator()
        us = estimator.estimate(impressions=100, clicks=2, country="US")
        other = estimator.estimate(impressions=100, clicks=2, country="NP")
        assert us.total_eur > other.total_eur

    def test_zero_activity_is_free(self):
        estimate = RevenueEstimator().estimate(impressions=0, clicks=0, country="ES")
        assert estimate.total_eur == 0.0

    def test_clicks_cannot_exceed_impressions(self):
        with pytest.raises(ConfigurationError):
            RevenueEstimator().estimate(impressions=1, clicks=2, country="ES")


class TestFullPanelMarginals:
    """Marginal checks against the paper's Section 3 / Figure 1 statistics."""

    @pytest.fixture(scope="class")
    def mid_panel(self, tiny_catalog):
        from repro.catalog import InterestCatalog
        from repro.config import CatalogConfig, PanelConfig

        catalog = InterestCatalog.generate(CatalogConfig(n_interests=20_000, seed=17))
        config = PanelConfig(
            n_users=240, n_men=196, n_women=35, n_gender_undisclosed=9,
            n_adolescents=12, n_early_adults=138, n_adults=58, n_matures=2,
            n_age_undisclosed=30, seed=23,
        )
        return PanelBuilder(catalog, config).build_columns(seed=23)

    def test_median_interest_count_close_to_426(self, mid_panel):
        median = float(np.median(mid_panel.interests_per_user()))
        assert 200 < median < 900

    def test_interest_counts_span_a_wide_range(self, mid_panel):
        counts = mid_panel.interests_per_user()
        assert counts.min() < 100
        assert counts.max() > 1_500
