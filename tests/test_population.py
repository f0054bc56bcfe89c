"""Tests for the agent-based population: users, demographics, assignment, counting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PopulationConfig
from repro.errors import PopulationError
from repro.population import (
    AgeGroup,
    Gender,
    InterestAssigner,
    InterestCountModel,
    Population,
    PopulationBuilder,
    PopulationReachBackend,
    SyntheticUser,
    classify_age,
    sample_age,
    sample_ages,
    sample_genders,
)
from repro.reach import WORLDWIDE, ReachBackend


@pytest.fixture(scope="module")
def small_catalog():
    return InterestCatalog.generate(CatalogConfig(n_interests=400, n_topics=8, seed=9))


@pytest.fixture(scope="module")
def small_population(small_catalog):
    config = PopulationConfig(
        n_agents=300,
        scale_factor=100.0,
        median_interests_per_user=40.0,
        max_interests_per_user=150,
        seed=5,
    )
    return PopulationBuilder(small_catalog, config).build_columns(seed=5)


class TestDemographics:
    def test_classify_age_boundaries(self):
        assert classify_age(13) is AgeGroup.ADOLESCENCE
        assert classify_age(19) is AgeGroup.ADOLESCENCE
        assert classify_age(20) is AgeGroup.EARLY_ADULTHOOD
        assert classify_age(39) is AgeGroup.EARLY_ADULTHOOD
        assert classify_age(40) is AgeGroup.ADULTHOOD
        assert classify_age(64) is AgeGroup.ADULTHOOD
        assert classify_age(65) is AgeGroup.MATURITY
        assert classify_age(None) is AgeGroup.UNDISCLOSED

    def test_classify_age_rejects_children(self):
        with pytest.raises(PopulationError):
            classify_age(10)

    def test_sample_age_within_group_bounds(self):
        for group in (AgeGroup.ADOLESCENCE, AgeGroup.EARLY_ADULTHOOD, AgeGroup.ADULTHOOD):
            age = sample_age(group, seed=1)
            assert classify_age(age) is group

    def test_sample_age_undisclosed_is_none(self):
        assert sample_age(AgeGroup.UNDISCLOSED, seed=1) is None

    def test_sample_genders_length_and_values(self):
        genders = sample_genders(100, seed=2)
        assert len(genders) == 100
        assert set(genders) <= {Gender.MALE, Gender.FEMALE}

    def test_sample_ages_range(self):
        ages = sample_ages(500, seed=3)
        assert ages.min() >= 13
        assert ages.max() <= 90


class TestSyntheticUser:
    def test_age_group_property(self):
        user = SyntheticUser(1, "ES", Gender.MALE, 25, (1, 2, 3))
        assert user.age_group is AgeGroup.EARLY_ADULTHOOD

    def test_interest_helpers(self):
        user = SyntheticUser(1, "ES", interest_ids=(1, 2, 3))
        assert user.interest_count == 3
        assert user.has_interest(2)
        assert user.matches_all([1, 3])
        assert not user.matches_all([1, 9])
        assert user.matches_any([9, 3])
        assert not user.matches_any([7, 8])

    def test_without_interest(self):
        user = SyntheticUser(1, "ES", interest_ids=(1, 2, 3))
        trimmed = user.without_interest(2)
        assert trimmed.interest_ids == (1, 3)
        assert user.without_interest(99) is user

    def test_duplicate_interests_rejected(self):
        with pytest.raises(PopulationError):
            SyntheticUser(1, "ES", interest_ids=(1, 1))

    def test_underage_rejected(self):
        with pytest.raises(PopulationError):
            SyntheticUser(1, "ES", age=10)

    def test_round_trip_serialisation(self):
        user = SyntheticUser(4, "FR", Gender.FEMALE, 33, (5, 9, 2))
        assert SyntheticUser.from_dict(user.to_dict()) == user


class TestInterestCountModel:
    def test_bounds_respected(self):
        model = InterestCountModel(median=100, minimum=1, maximum=500)
        counts = model.sample(2_000, seed=1)
        assert counts.min() >= 1
        assert counts.max() <= 500

    def test_median_close_to_configuration(self):
        model = InterestCountModel(median=426, minimum=1, maximum=8950)
        counts = model.sample(5_000, seed=2)
        assert 250 < np.median(counts) < 700

    def test_clipped_to_catalog(self):
        model = InterestCountModel(median=426, maximum=8950)
        clipped = model.clipped_to_catalog(100)
        assert clipped.maximum == 100
        assert clipped.median <= 50


class TestInterestAssigner:
    def test_assigns_requested_number_of_unique_interests(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        interests = assigner.assign(50, seed=1)
        assert len(interests) == 50
        assert len(set(interests)) == 50

    def test_never_exceeds_catalog_size(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        interests = assigner.assign(10_000, seed=1)
        assert len(interests) == len(small_catalog)

    def test_zero_interests(self, small_catalog):
        assert InterestAssigner(small_catalog).assign(0, seed=1) == ()

    def test_deterministic_given_seed(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        assert assigner.assign(30, seed=9) == assigner.assign(30, seed=9)

    def test_preferred_topics_are_overrepresented(self, small_catalog):
        assigner = InterestAssigner(small_catalog, topic_affinity_boost=12.0)
        preferred = assigner.topics[:1]
        interests = assigner.assign(80, seed=3, preferred_topics=preferred)
        topics = [small_catalog.get(i).topic for i in interests]
        share = topics.count(preferred[0]) / len(topics)
        baseline = len(small_catalog.by_topic(preferred[0])) / len(small_catalog)
        assert share > baseline * 2

    def test_popularity_bias_shifts_audience_profile(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        flat = assigner.assign(60, seed=4, popularity_bias=0.0)
        steep = assigner.assign(60, seed=4, popularity_bias=1.2)
        flat_median = np.median(small_catalog.audience_sizes(flat))
        steep_median = np.median(small_catalog.audience_sizes(steep))
        assert steep_median >= flat_median

    def test_unknown_preferred_topic_rejected(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        with pytest.raises(PopulationError):
            assigner.assign(10, seed=1, preferred_topics=["Not a topic"])

    def test_invalid_boost_rejected(self, small_catalog):
        with pytest.raises(PopulationError):
            InterestAssigner(small_catalog, topic_affinity_boost=0.5)


class TestPopulation:
    def test_builder_produces_requested_agents(self, small_population):
        assert len(small_population) == 300
        assert small_population.scale_factor == 100.0

    def test_users_have_interests_and_countries(self, small_population):
        user = small_population.users[0]
        assert user.interest_count >= 1
        assert user.country

    def test_audience_counting_and_scaling(self, small_population):
        audiences = small_population.interest_audiences()
        interest_id, agent_count = max(audiences.items(), key=lambda item: item[1])
        assert small_population.agent_count([interest_id]) == agent_count
        assert small_population.audience_size([interest_id]) == agent_count * 100.0

    def test_and_combination_never_larger_than_single(self, small_population):
        user = max(small_population.users, key=lambda u: u.interest_count)
        pair = list(user.interest_ids[:2])
        both = small_population.agent_count(pair)
        single = small_population.agent_count(pair[:1])
        assert both <= single
        assert both >= 1  # the user themselves matches

    def test_or_combination_at_least_as_large_as_and(self, small_population):
        user = max(small_population.users, key=lambda u: u.interest_count)
        pair = list(user.interest_ids[:2])
        assert small_population.agent_count(pair, combine="or") >= small_population.agent_count(pair)

    def test_location_filter(self, small_population):
        country = small_population.users[0].country
        national = small_population.agent_count((), [country])
        assert 0 < national <= len(small_population)
        assert small_population.agent_count((), [WORLDWIDE]) == len(small_population)

    def test_demographic_subsets_partition(self, small_population):
        men = small_population.by_gender(Gender.MALE)
        women = small_population.by_gender(Gender.FEMALE)
        assert len(men) + len(women) == len(small_population)

    def test_subset_by_country(self, small_population):
        country = small_population.users[0].country
        national = small_population.by_country(country)
        assert all(user.country == country for user in national)

    def test_unknown_user_raises(self, small_population):
        with pytest.raises(PopulationError):
            small_population.get(10**9)

    def test_duplicate_user_ids_rejected(self):
        user = SyntheticUser(1, "ES", interest_ids=(1,))
        with pytest.raises(PopulationError):
            Population([user, user])

    def test_invalid_combine_mode_rejected(self, small_population):
        with pytest.raises(PopulationError):
            small_population.agent_count([1], combine="xor")


class TestPopulationReachBackend:
    def test_implements_protocol(self, small_population):
        backend = PopulationReachBackend(small_population)
        assert isinstance(backend, ReachBackend)

    def test_counts_are_scaled(self, small_population):
        backend = PopulationReachBackend(small_population)
        assert backend.world_size() == len(small_population) * 100.0
        interest_id = next(iter(small_population.interest_audiences()))
        assert backend.audience_for([interest_id]) == small_population.audience_size(
            [interest_id]
        )
