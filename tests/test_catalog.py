"""Tests for the interest catalog subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import (
    Interest,
    InterestCatalog,
    PopularityModel,
    TOPICS,
    interest_name,
    topic_for_index,
)
from repro.config import CatalogConfig
from repro.errors import CatalogError, ConfigurationError, UnknownInterestError
from repro.population import InterestAssigner
from repro.reach import StatisticalReachModel


class TestInterest:
    def test_valid_interest(self):
        interest = Interest(1, "Italian food", "Food and drink", 100_000)
        assert interest.audience_size == 100_000

    def test_rejects_negative_id(self):
        with pytest.raises(CatalogError):
            Interest(-1, "x", "Food and drink", 10)

    def test_rejects_negative_audience(self):
        with pytest.raises(CatalogError):
            Interest(1, "x", "Food and drink", -5)

    def test_rejects_empty_name_or_topic(self):
        with pytest.raises(CatalogError):
            Interest(1, "", "Food and drink", 10)
        with pytest.raises(CatalogError):
            Interest(1, "x", "", 10)

    def test_round_trip_serialisation(self):
        interest = Interest(7, "Vintage cameras", "Hobbies and activities", 12_345)
        assert Interest.from_dict(interest.to_dict()) == interest


class TestTaxonomy:
    def test_topics_are_unique(self):
        assert len(set(TOPICS)) == len(TOPICS)

    def test_topic_for_index_round_robin(self):
        assert topic_for_index(0) == TOPICS[0]
        assert topic_for_index(len(TOPICS)) == TOPICS[0]

    def test_topic_for_index_respects_n_topics(self):
        assert topic_for_index(5, n_topics=3) == TOPICS[5 % 3]

    def test_topic_for_index_rejects_negative(self):
        with pytest.raises(CatalogError):
            topic_for_index(-1)

    def test_interest_name_is_deterministic(self):
        assert interest_name(3, "Music") == interest_name(3, "Music")


class TestPopularityModel:
    def test_samples_respect_bounds(self):
        model = PopularityModel(min_audience=20, max_audience=10**7)
        samples = model.sample(5_000, seed=3)
        assert samples.min() >= 20
        assert samples.max() <= 10**7

    def test_sample_count_and_dtype(self):
        samples = PopularityModel().sample(100, seed=1)
        assert samples.shape == (100,)
        assert samples.dtype == np.int64

    def test_empty_sample(self):
        assert PopularityModel().sample(0, seed=1).size == 0

    def test_negative_sample_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PopularityModel().sample(-1)

    def test_median_roughly_matches_configuration(self):
        model = PopularityModel(median_audience=400_000, rare_tail_fraction=0.0)
        samples = model.sample(20_000, seed=5)
        median = np.median(samples)
        assert 200_000 < median < 800_000

    def test_quantile_is_monotone(self):
        model = PopularityModel()
        assert model.quantile(0.25) < model.quantile(0.5) < model.quantile(0.75)

    def test_from_config_caps_at_world_fraction(self):
        config = CatalogConfig(max_audience_fraction=0.1)
        model = PopularityModel.from_config(config, world_population=1_000_000)
        assert model.max_audience == 100_000

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PopularityModel(median_audience=-1)
        with pytest.raises(ConfigurationError):
            PopularityModel(log10_sigma=0)
        with pytest.raises(ConfigurationError):
            PopularityModel(max_audience=10, min_audience=20)


class TestInterestCatalog:
    def test_generation_size(self, tiny_catalog):
        assert len(tiny_catalog) == 300

    def test_generation_is_deterministic(self):
        config = CatalogConfig(n_interests=200, seed=13)
        first = InterestCatalog.generate(config, seed=13)
        second = InterestCatalog.generate(config, seed=13)
        assert first.to_dicts() == second.to_dicts()

    def test_different_seeds_differ(self):
        config = CatalogConfig(n_interests=200)
        first = InterestCatalog.generate(config, seed=1)
        second = InterestCatalog.generate(config, seed=2)
        assert first.to_dicts() != second.to_dicts()

    def test_get_unknown_interest_raises(self, tiny_catalog):
        with pytest.raises(UnknownInterestError):
            tiny_catalog.get(10**9)

    def test_contains_and_iteration(self, tiny_catalog):
        ids = [interest.interest_id for interest in tiny_catalog]
        assert len(ids) == len(tiny_catalog)
        assert ids[0] in tiny_catalog

    def test_audience_sizes_vector(self, tiny_catalog):
        ids = tiny_catalog.interest_ids[:10]
        sizes = tiny_catalog.audience_sizes(ids)
        assert sizes.shape == (10,)
        assert (sizes > 0).all()

    def test_rarest_and_most_popular_are_ordered(self, tiny_catalog):
        rarest = tiny_catalog.rarest(5)
        popular = tiny_catalog.most_popular(5)
        assert all(
            rarest[i].audience_size <= rarest[i + 1].audience_size for i in range(4)
        )
        assert all(
            popular[i].audience_size >= popular[i + 1].audience_size for i in range(4)
        )
        assert rarest[0].audience_size <= popular[-1].audience_size

    def test_by_topic_partitions_catalog(self, tiny_catalog):
        total = sum(len(tiny_catalog.by_topic(topic)) for topic in tiny_catalog.topics())
        assert total == len(tiny_catalog)

    def test_sample_ids_without_replacement_unique(self, tiny_catalog):
        sampled = tiny_catalog.sample_ids(50, seed=3)
        assert len(set(int(i) for i in sampled)) == 50

    def test_sample_ids_rejects_oversampling(self, tiny_catalog):
        with pytest.raises(CatalogError):
            tiny_catalog.sample_ids(len(tiny_catalog) + 1, seed=1)

    def test_sample_ids_with_weights_validation(self, tiny_catalog):
        with pytest.raises(CatalogError):
            tiny_catalog.sample_ids(5, seed=1, weights=np.ones(3))

    def test_duplicate_ids_rejected(self):
        interest = Interest(1, "a", "Music", 10)
        with pytest.raises(CatalogError):
            InterestCatalog.from_interests([interest, interest])

    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError):
            InterestCatalog.from_interests([])

    def test_round_trip_serialisation(self, tiny_catalog):
        rebuilt = InterestCatalog.from_dicts(tiny_catalog.to_dicts())
        assert rebuilt.to_dicts() == tiny_catalog.to_dicts()

    def test_audience_percentiles_are_monotone(self, tiny_catalog):
        p25, p50, p75 = tiny_catalog.audience_percentiles([25, 50, 75])
        assert p25 <= p50 <= p75


def _oracle_rarest(catalog: InterestCatalog, n: int) -> tuple[Interest, ...]:
    """A fresh stable argsort per call: the catalog's unmemoised ordering."""
    ids, audiences = catalog.interest_ids, catalog.all_audience_sizes()
    order = np.argsort(audiences, kind="stable")[:n]
    return tuple(catalog.get(int(ids[i])) for i in order)


def _oracle_most_popular(catalog: InterestCatalog, n: int) -> tuple[Interest, ...]:
    ids, audiences = catalog.interest_ids, catalog.all_audience_sizes()
    order = np.argsort(audiences, kind="stable")[::-1][:n]
    return tuple(catalog.get(int(ids[i])) for i in order)


def _oracle_by_topic(catalog: InterestCatalog, topic: str) -> tuple[Interest, ...]:
    """A full scan of the catalog per call."""
    return tuple(interest for interest in catalog if interest.topic == topic)


def _oracle_topics(catalog: InterestCatalog) -> tuple[str, ...]:
    present = {interest.topic for interest in catalog}
    return tuple(topic for topic in TOPICS if topic in present)


class TestCatalogLookupParity:
    """Memoised popularity and topic lookups against full-recompute oracles."""

    @pytest.fixture(scope="class")
    def tied_catalog(self) -> InterestCatalog:
        """Sparse ids and heavy ties at both clip bounds and in between."""
        config = CatalogConfig(
            n_interests=1_500,
            n_topics=7,
            min_audience=5_000,
            median_audience=20_000,
            rare_tail_fraction=0.3,
            seed=3,
        )
        generated = InterestCatalog.generate(config, world_population=200_000, seed=3)
        rng = np.random.default_rng(4)
        duplicated = rng.choice([5_000, 12_345, 70_000], size=len(generated))
        interests = [
            Interest(
                interest_id=3 * interest.interest_id + 1,
                name=interest.name,
                topic=interest.topic,
                audience_size=(
                    int(duplicated[index]) if index % 4 == 0 else interest.audience_size
                ),
            )
            for index, interest in enumerate(generated)
        ]
        rng.shuffle(interests)
        return InterestCatalog.from_interests(interests)

    def test_catalog_is_tie_heavy(self, tied_catalog):
        audiences = tied_catalog.all_audience_sizes()
        _, counts = np.unique(audiences, return_counts=True)
        assert (audiences == 5_000).sum() > 100
        assert (audiences == audiences.max()).sum() > 10
        assert counts.max() < len(audiences)

    @pytest.mark.parametrize("n", [0, 1, 7, 250, 1_499, 1_500, 1_501, 10_000])
    def test_rarest_and_most_popular_match_argsort(self, tied_catalog, n):
        assert tied_catalog.rarest(n) == _oracle_rarest(tied_catalog, n)
        assert tied_catalog.most_popular(n) == _oracle_most_popular(tied_catalog, n)

    def test_ties_come_out_in_id_order_and_its_reverse(self, tied_catalog):
        floor = [i for i in tied_catalog.rarest(len(tied_catalog)) if i.audience_size == 5_000]
        floor_ids = [interest.interest_id for interest in floor]
        assert floor_ids == sorted(floor_ids)
        top = tied_catalog.most_popular(len(tied_catalog))
        top_ids = [i.interest_id for i in top if i.audience_size == top[0].audience_size]
        assert top_ids == sorted(top_ids, reverse=True)

    def test_negative_n_rejected(self, tied_catalog):
        with pytest.raises(CatalogError):
            tied_catalog.rarest(-1)
        with pytest.raises(CatalogError):
            tied_catalog.most_popular(-1)

    def test_by_topic_and_topics_match_full_scan(self, tied_catalog):
        assert tied_catalog.topics() == _oracle_topics(tied_catalog)
        for topic in TOPICS:
            assert tied_catalog.by_topic(topic) == _oracle_by_topic(tied_catalog, topic)
        assert tied_catalog.by_topic("Not a topic") == ()

    def test_repeated_calls_return_equal_results(self, tied_catalog):
        topic = tied_catalog.topics()[0]
        first = (
            tied_catalog.rarest(40),
            tied_catalog.most_popular(40),
            tied_catalog.by_topic(topic),
            tied_catalog.topics(),
        )
        second = (
            tied_catalog.rarest(40),
            tied_catalog.most_popular(40),
            tied_catalog.by_topic(topic),
            tied_catalog.topics(),
        )
        assert first == second

    def test_audience_ranks_encode_the_rarest_order(self, tied_catalog):
        ranks, ids_by_rank = tied_catalog.audience_ranks()
        rarest = _oracle_rarest(tied_catalog, len(tied_catalog))
        assert ids_by_rank.tolist() == [i.interest_id for i in rarest]
        assert np.array_equal(ids_by_rank[ranks], tied_catalog.interest_ids)
        assert tied_catalog.audience_ranks()[0] is ranks
        for array in (ranks, ids_by_rank):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_array_accessors_return_copies(self, tied_catalog):
        expected = _oracle_most_popular(tied_catalog, 25)
        tied_catalog.all_audience_sizes()[:] = 0
        tied_catalog.interest_ids[:] = 0
        assert tied_catalog.most_popular(25) == expected
        assert tied_catalog.rarest(25) == _oracle_rarest(tied_catalog, 25)
        assert tied_catalog.all_audience_sizes().max() > 0

    def test_audience_sizes_matches_per_id_lookup(self, tied_catalog):
        ids = np.random.default_rng(9).permutation(tied_catalog.interest_ids)[:300]
        expected = [tied_catalog.audience_size(int(i)) for i in ids]
        sizes = tied_catalog.audience_sizes(ids)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == expected
        assert tied_catalog.audience_sizes([]).shape == (0,)

    @pytest.mark.parametrize(
        "ids, unknown",
        [
            ([1, 2, 4], 2),  # a gap between two sparse ids
            ([4, 0, 10**9], 0),  # below the smallest id
            ([1, 10**9, 5], 10**9),  # above the largest id
        ],
    )
    def test_audience_sizes_names_the_first_unknown_id(self, tied_catalog, ids, unknown):
        with pytest.raises(UnknownInterestError) as caught:
            tied_catalog.audience_sizes(ids)
        assert caught.value.interest_id == unknown
        assert str(unknown) in str(caught.value)


def _strided_catalog(stride: int) -> InterestCatalog:
    """200 interests with ids ``stride * i + 1``, in shuffled construction order."""
    generated = InterestCatalog.generate(CatalogConfig(n_interests=200, seed=8))
    interests = [
        Interest(stride * i.interest_id + 1, i.name, i.topic, i.audience_size)
        for i in generated
    ]
    np.random.default_rng(2).shuffle(interests)
    return InterestCatalog.from_interests(interests)


class TestPositions:
    """One id -> position lookup: a dense table, or ``searchsorted`` on wide spans."""

    @pytest.fixture(scope="class", params=[1, 3, 50], ids=["dense", "holes", "wide"])
    def catalog(self, request) -> InterestCatalog:
        return _strided_catalog(request.param)

    def test_positions_index_the_sorted_ids(self, catalog):
        ids = np.random.default_rng(5).choice(catalog.interest_ids, size=(7, 30))
        positions = catalog.positions(ids)
        assert positions.shape == ids.shape
        assert np.array_equal(catalog.interest_ids[positions], ids)
        assert np.array_equal(
            positions, np.searchsorted(catalog.interest_ids, ids)
        )
        assert catalog.positions([]).shape == (0,)

    @pytest.mark.parametrize("unknown", [0, -5, 10**9, 2**62, "gap"])
    def test_names_the_first_unknown_id_in_c_order(self, catalog, unknown):
        known = catalog.interest_ids
        if unknown == "gap":
            unknown = int(known[0]) + 1
            if unknown in catalog:  # the dense catalog has no gap: past its end
                unknown = int(known[-1]) + 1
        ids = np.array([[known[3], known[0]], [unknown, known[-1]], [-7, 2]])
        with pytest.raises(UnknownInterestError) as caught:
            catalog.positions(ids)
        assert caught.value.interest_id == unknown


class TestObjectsOnlyAtTheEdges:
    """Building the catalog, the assigner and a first reach answer makes no
    :class:`Interest`; only the accessors that return one build it."""

    def test_hot_path_constructs_no_interest(self, monkeypatch):
        built = []
        original = Interest.__post_init__

        def counting(interest):
            built.append(interest.interest_id)
            original(interest)

        monkeypatch.setattr(Interest, "__post_init__", counting)
        catalog = InterestCatalog.generate(CatalogConfig())
        InterestAssigner(catalog)
        model = StatisticalReachModel(catalog)
        assert model.audience_for([5, 17, 2_000]) > 0
        assert model.prefix_audiences_panel(np.array([[3, 9]]), [2]).shape == (1, 2)
        assert built == []
        catalog.most_popular(3)
        assert len(built) == 3


class TestFullScaleCatalogCalibration:
    """The full-scale catalog must reproduce the Figure 2 quartiles."""

    @pytest.fixture(scope="class")
    def full_catalog(self):
        return InterestCatalog.generate(CatalogConfig(n_interests=30_000, seed=5))

    def test_quartiles_match_paper_order_of_magnitude(self, full_catalog):
        p25, p50, p75 = full_catalog.audience_percentiles([25, 50, 75])
        # Paper (Figure 2): 113,193 / 418,530 / 1,719,925.
        assert 3e4 < p25 < 4e5
        assert 1.5e5 < p50 < 1.2e6
        assert 6e5 < p75 < 5e6

    def test_contains_rare_interests(self, full_catalog):
        rarest = full_catalog.rarest(10)
        assert rarest[0].audience_size < 5_000
