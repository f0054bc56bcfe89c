"""Batch/scalar parity for the vectorised reach pipeline.

The bulk entry points (``prefix_audiences_panel``, ``estimate_reach_matrix``,
``fit_vas_many``, the collector) are required to return **bit-identical**
results to their scalar counterparts and to the slow reference oracles in
``tests/_oracles.py`` (the 1-D prefix kernel, the per-cell collection
loop) — they share the same kernels, including the counter-based jitter
stream.  These property-style tests pin that contract, plus the
monotonicity invariants both paths must uphold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adsapi import AdsManagerAPI
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PlatformConfig, ReachModelConfig
from repro.core import (
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    bootstrap_cutpoints,
)
from repro.core.fitting import fit_vas, fit_vas_many
from repro.core.quantiles import AudienceSamples
from repro.errors import InsufficientDataError, ModelError
from repro.reach import StatisticalReachModel, country_codes
from repro.simclock import SimClock

from _oracles import (
    collect_per_cell,
    prefix_audiences,
    prefix_chain,
    resample_quantiles,
    stop_rows,
)


@pytest.fixture(scope="module")
def model():
    catalog = InterestCatalog.generate(CatalogConfig(n_interests=600, seed=37))
    return StatisticalReachModel(catalog, ReachModelConfig(seed=37))


@pytest.fixture(scope="module")
def id_pool(model):
    rng = np.random.default_rng(5)
    ids = model.catalog.interest_ids
    return [int(i) for i in rng.choice(ids, size=40, replace=False)]


def _panel_row(model, ordered, locations=None):
    """The panel kernel's prefix audiences of one ordered id list."""
    row = np.asarray([ordered], dtype=np.int64)
    return model.prefix_audiences_panel(row, [len(ordered)], locations)[0]


def _ragged(rows):
    """Pad id rows into the panel kernel's ``(id_matrix, counts)`` layout."""
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    matrix = np.full((len(rows), int(counts.max())), -1, dtype=np.int64)
    for index, row in enumerate(rows):
        matrix[index, : len(row)] = row
    return matrix, counts


class TestPrefixKernelParity:
    def test_prefix_audiences_match_scalar_queries(self, model, id_pool):
        for locations in (None, ("US", "ES"), tuple(country_codes())):
            ordered = id_pool[:20]
            oracle = prefix_audiences(model, ordered, locations)
            scalar = np.array(
                [
                    model.audience_for(ordered[: k + 1], locations)
                    for k in range(len(ordered))
                ]
            )
            assert np.array_equal(oracle, scalar)
            assert np.array_equal(_panel_row(model, ordered, locations), scalar)

    def test_prefix_intersections_match_scalar(self, model, id_pool):
        ordered = id_pool[:15]
        batch = model.prefix_intersection_probabilities(ordered)
        scalar = np.array(
            [model.intersection_probability(ordered[: k + 1]) for k in range(15)]
        )
        assert np.array_equal(batch, scalar)

    def test_prefix_audiences_non_increasing(self, model, id_pool):
        audiences = _panel_row(model, id_pool[:25])
        assert np.all(np.diff(audiences) <= 1e-9)
        assert np.all(audiences >= 0.0)

    def test_full_set_value_is_order_independent(self, model, id_pool):
        # Identical order is exactly reproducible; permutations agree to
        # floating-point rounding (the log-sum accumulates in query order,
        # only the jitter seed is exactly order-independent).
        ordered = id_pool[:12]
        assert model.audience_for(ordered) == model.audience_for(ordered)
        backward = model.audience_for(list(reversed(ordered)))
        assert model.audience_for(ordered) == pytest.approx(backward, rel=1e-9)
        from repro.reach.jitter import combination_seed

        forward_seed = combination_seed(np.asarray(ordered), model._jitter_key)
        backward_seed = combination_seed(
            np.asarray(ordered[::-1]), model._jitter_key
        )
        assert forward_seed == backward_seed

    def test_truncated_call_is_a_prefix_of_the_full_call(self, model, id_pool):
        full = _panel_row(model, id_pool[:25])
        truncated = _panel_row(model, id_pool[:10])
        assert np.array_equal(full[:10], truncated)


class TestAudienceForBatch:
    """Many combinations in one call: ragged rows of one panel-kernel call."""

    def test_arbitrary_combinations_match_looped_scalar(self, model, id_pool):
        rng = np.random.default_rng(11)
        combos = [
            tuple(rng.choice(id_pool, size=size, replace=False).tolist())
            for size in (1, 7, 3, 25, 2, 14)
        ]
        matrix, counts = _ragged(combos)
        batch = model.prefix_audiences_panel(matrix, counts, ("MX",))
        for row, combo in enumerate(combos):
            assert batch[row, len(combo) - 1] == model.audience_for(combo, ("MX",))

    def test_prefix_chains_inside_a_batch(self, model, id_pool):
        rows = [id_pool[:9], id_pool[9:12], id_pool[12:16]]
        matrix, counts = _ragged(rows)
        batch = model.prefix_audiences_panel(matrix, counts)
        for row, ordered in enumerate(rows):
            scalar = [
                model.audience_for(ordered[:k]) for k in range(1, len(ordered) + 1)
            ]
            assert np.array_equal(batch[row, : len(ordered)], np.array(scalar))

    def test_protocol_default_matches_statistical_backend(self, id_pool, model):
        from repro.reach.backend import ReachBackend

        matrix, counts = _ragged([id_pool[:5], id_pool[5:6], id_pool[6:12]])
        fallback = ReachBackend.prefix_audiences_panel(model, matrix, counts)
        assert np.array_equal(
            fallback, model.prefix_audiences_panel(matrix, counts), equal_nan=True
        )


class TestEstimateReachBatch:
    """The bulk matrix endpoint against a loop of per-spec estimates."""

    @pytest.fixture()
    def api(self, model):
        return AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )

    def test_batch_equals_looped_estimates(self, api, id_pool):
        locations = country_codes()
        matrix, counts = _ragged([id_pool[:25]])
        batched = api.estimate_reach_matrix(matrix, counts, locations=locations)
        looped = [
            float(api.estimate_reach(spec).potential_reach)
            for spec in prefix_chain(id_pool[:25], locations=locations)
        ]
        assert np.array_equal(batched[0], np.array(looped))

    def test_floor_respected_on_both_paths(self, api, id_pool):
        locations = ("AR",)
        matrix, counts = _ragged([id_pool[:25]])
        batched = api.estimate_reach_matrix(matrix, counts, locations=locations)
        assert (batched >= api.platform.reach_floor).all()
        for spec in prefix_chain(id_pool[:25], locations=locations):
            assert api.estimate_reach(spec).potential_reach >= api.platform.reach_floor

    def test_rate_limit_and_counter_accounting_match(self, model, id_pool):
        locations = ("US",)
        batched_api = AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        looped_api = AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        matrix, counts = _ragged([id_pool[:10]])
        batched_api.estimate_reach_matrix(matrix, counts, locations=locations)
        for spec in prefix_chain(id_pool[:10], locations=locations):
            looped_api.estimate_reach(spec)
        assert batched_api.call_stats() == looped_api.call_stats()

    def test_empty_batch(self, api):
        values = api.estimate_reach_matrix(
            np.empty((0, 0), dtype=np.int64), [], locations=("US",)
        )
        assert values.shape == (0, 0)
        assert api.call_stats().reach_estimates == 0


class TestCollectorParity:
    @pytest.fixture(scope="class")
    def stack(self, simulation):
        def fresh_api():
            return AdsManagerAPI(
                simulation.reach_model,
                platform=PlatformConfig.legacy_2017(),
                clock=SimClock(),
            )

        return simulation, fresh_api

    @pytest.mark.parametrize("strategy_seed", [None, 13])
    def test_batched_and_scalar_matrices_identical(self, stack, strategy_seed):
        simulation, fresh_api = stack
        strategy = (
            LeastPopularSelection()
            if strategy_seed is None
            else RandomSelection(seed=strategy_seed)
        )
        kwargs = dict(max_interests=8, locations=country_codes())
        batched = AudienceSizeCollector(fresh_api(), simulation.panel, **kwargs)
        batched_samples = batched.collect(strategy)
        scalar_samples = collect_per_cell(
            fresh_api(), simulation.panel, simulation.catalog, strategy, **kwargs
        )
        assert np.array_equal(
            batched_samples.matrix, scalar_samples.matrix, equal_nan=True
        )
        assert batched_samples.user_ids == scalar_samples.user_ids

    def test_collect_for_users_preserves_requested_order(self, stack):
        simulation, fresh_api = stack
        collector = AudienceSizeCollector(
            fresh_api(), simulation.panel, max_interests=4, locations=country_codes()
        )
        wanted = [user.user_id for user in list(simulation.panel)[:6]]
        reversed_ids = list(reversed(wanted))
        samples = collector.collect_for_users(LeastPopularSelection(), reversed_ids)
        assert list(samples.user_ids) == reversed_ids

    def test_collect_for_users_collapses_duplicates(self, stack):
        simulation, fresh_api = stack
        collector = AudienceSizeCollector(
            fresh_api(), simulation.panel, max_interests=4, locations=country_codes()
        )
        first = list(simulation.panel)[0].user_id
        samples = collector.collect_for_users(
            LeastPopularSelection(), [first, first, first]
        )
        assert samples.n_users == 1


class TestFitVasManyParity:
    @pytest.fixture(scope="class")
    def matrix(self) -> np.ndarray:
        rng = np.random.default_rng(23)
        base = 10.0 ** (7.7 - 7.0 * np.log10(np.arange(1, 26) + 1.0))
        rows = base[None, :] * 10.0 ** rng.normal(0.0, 0.5, size=(80, 25))
        rows = np.maximum(rows, 20.0)
        rows[5, 18:] = np.nan  # user with fewer interests
        rows[11, :] = 20.0  # fully floored replicate -> too few points
        return rows

    def test_rows_match_scalar_fits_exactly(self, matrix):
        batch = fit_vas_many(matrix, floor=20)
        for row in range(matrix.shape[0]):
            try:
                fit = fit_vas(matrix[row], floor=20)
            except (InsufficientDataError, ModelError):
                assert np.isnan(batch.cutpoints[row])
                continue
            assert fit.slope_a == batch.slope_a[row]
            assert fit.intercept_b == batch.intercept_b[row]
            assert fit.r_squared == batch.r_squared[row]
            assert fit.n_points == batch.n_points[row]
            assert fit.cutpoint == batch.cutpoints[row]

    def test_single_row_shape(self, matrix):
        batch = fit_vas_many(matrix[0], floor=20)
        assert batch.n_fits == 1

    def test_invalid_floor_rejected(self, matrix):
        with pytest.raises(ModelError):
            fit_vas_many(matrix, floor=0)


class TestRankLaneQuantiles:
    def test_matches_nanpercentile_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            users, width = int(rng.integers(1, 30)), int(rng.integers(1, 8))
            matrix = rng.normal(0.0, 50.0, size=(users, width))
            matrix[rng.random(size=matrix.shape) < rng.random() * 0.8] = np.nan
            indices = rng.integers(0, users, size=(int(rng.integers(1, 5)), users))
            qs = sorted(rng.uniform(1.0, 99.0, size=3))
            table = AudienceSamples(matrix=matrix, floor=20).rank_table()
            full = resample_quantiles(table, indices, qs)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = np.stack(
                    [np.nanpercentile(matrix[row], qs, axis=0) for row in indices],
                    axis=1,
                )
            assert np.array_equal(full, reference, equal_nan=True)
            assert np.array_equal(
                table.resample_vas(indices, qs, 20),
                stop_rows(reference, 20),
                equal_nan=True,
            )

    def test_rejects_non_2d_indices(self):
        table = AudienceSamples(matrix=np.ones((3, 4)), floor=20).rank_table()
        with pytest.raises(ModelError):
            table.resample_vas(np.zeros(3, dtype=int), [50.0], 20)


class TestBootstrapVectorised:
    def test_deterministic_and_chunking_invariant(self):
        rng = np.random.default_rng(3)
        base = 10.0 ** (7.5 - 6.5 * np.log10(np.arange(1, 26) + 1.0))
        matrix = np.maximum(
            base[None, :] * 10.0 ** rng.normal(0.0, 0.4, size=(60, 25)), 20.0
        )
        samples = AudienceSamples(matrix=matrix, floor=20)
        first = bootstrap_cutpoints(samples, [50.0, 90.0], n_bootstrap=50, seed=9)
        second = bootstrap_cutpoints(samples, [50.0, 90.0], n_bootstrap=50, seed=9)
        chunked = bootstrap_cutpoints(
            samples, [50.0, 90.0], n_bootstrap=50, seed=9, chunk_size=7
        )
        for q in (50.0, 90.0):
            assert np.array_equal(first[q], second[q], equal_nan=True)
            assert np.array_equal(first[q], chunked[q], equal_nan=True)
            assert first[q].shape == (50,)
            assert np.isfinite(first[q]).sum() > 40
