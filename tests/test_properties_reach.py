"""Property-based tests on the reach model and exact-counting semantics.

The last three classes pin the bulk production paths against the per-user
references in ``tests/_oracles.py``: the panel kernel
(``prefix_audiences_panel``) against the 1-D prefix kernel on ragged
matrices (empty rows, zero width, single rows, both location settings),
the Ads API's bulk endpoint (``estimate_reach_matrix``) and its
reporting-floor clipping against one ``estimate_reach`` call per cell at
floors from 1 to above every audience, and the strategies' CSR ordering
hook (``order_interests_matrix_columns``) against the per-user orderings
over arbitrary ``[start, stop)`` shard bounds of a store with empty rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adsapi import AdsManagerAPI
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PlatformConfig, ReachModelConfig
from repro.core import LeastPopularSelection, RandomSelection
from repro.population import PanelColumns, Population, SyntheticUser
from repro.reach import StatisticalReachModel
from repro.simclock import SimClock

from _oracles import order_interests, prefix_audiences, prefix_chain

SETTINGS = settings(max_examples=40, deadline=None)

_CATALOG = InterestCatalog.generate(CatalogConfig(n_interests=120, n_topics=6, seed=31))
_MODEL = StatisticalReachModel(_CATALOG, ReachModelConfig(seed=31))
_IDS = [int(i) for i in _CATALOG.interest_ids]


def _subset(indices: list[int]) -> list[int]:
    return sorted({_IDS[i % len(_IDS)] for i in indices})


class TestReachModelProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12))
    def test_audience_is_positive_and_bounded_by_world(self, indices):
        interests = _subset(indices)
        audience = _MODEL.audience_for(interests)
        assert 0.0 <= audience <= _MODEL.world_size()

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=12))
    def test_removing_an_interest_never_shrinks_the_audience(self, indices):
        interests = _subset(indices)
        if len(interests) < 2:
            return
        full = _MODEL.audience_for(interests)
        without_last = _MODEL.audience_for(interests[:-1])
        assert without_last + 1e-9 >= full

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12))
    def test_and_never_exceeds_or(self, indices):
        interests = _subset(indices)
        narrowed = _MODEL.audience_for(interests, combine="and")
        widened = _MODEL.audience_for(interests, combine="or")
        assert narrowed <= widened + 1e-6

    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=10),
        st.permutations(["ES", "FR", "US"]),
    )
    def test_location_subsets_shrink_audiences(self, indices, countries):
        interests = _subset(indices)
        one_country = _MODEL.audience_for(interests, countries[:1])
        all_three = _MODEL.audience_for(interests, countries)
        worldwide = _MODEL.audience_for(interests)
        assert one_country <= all_three + 1e-6
        assert all_three <= worldwide + 1e-6


class TestExactCountingProperties:
    @SETTINGS
    @given(
        profiles=st.lists(
            st.lists(st.integers(min_value=0, max_value=119), min_size=1, max_size=15),
            min_size=2,
            max_size=25,
        )
    )
    def test_population_counts_match_brute_force(self, profiles):
        users = [
            SyntheticUser(
                user_id=index,
                country="ES",
                interest_ids=tuple(sorted(set(profile))),
            )
            for index, profile in enumerate(profiles)
        ]
        population = Population(users, scale_factor=1.0)
        probe = tuple(sorted(set(profiles[0])))[:3]
        expected_and = sum(1 for user in users if user.matches_all(probe))
        expected_or = sum(1 for user in users if user.matches_any(probe))
        assert population.agent_count(probe) == expected_and
        assert population.agent_count(probe, combine="or") == expected_or

    @SETTINGS
    @given(
        profiles=st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10),
            min_size=2,
            max_size=20,
        ),
        scale=st.floats(min_value=1.0, max_value=10_000.0),
    )
    def test_scaling_is_linear(self, profiles, scale):
        users = [
            SyntheticUser(
                user_id=index, country="ES", interest_ids=tuple(sorted(set(profile)))
            )
            for index, profile in enumerate(profiles)
        ]
        population = Population(users, scale_factor=scale)
        probe = tuple(sorted(set(profiles[0])))[:2]
        assert population.audience_size(probe) == pytest.approx(
            population.agent_count(probe) * scale
        )


@st.composite
def ragged_rows(draw, max_width: int = 25, max_rows: int = 6):
    """A matrix width plus 0..max_rows rows of distinct catalog positions."""
    width = draw(st.integers(min_value=0, max_value=max_width))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = []
    for _ in range(n_rows):
        count = draw(st.integers(min_value=0, max_value=width))
        rows.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(_IDS) - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
        )
    return width, rows


class TestPrefixAudiencesPanelProperties:
    @SETTINGS
    @given(shape=ragged_rows(), located=st.booleans(), padding=st.integers(-1, 10**9))
    @example(shape=(0, []), located=False, padding=-1)
    @example(shape=(0, [[], []]), located=True, padding=-1)
    @example(shape=(25, [list(range(25))]), located=True, padding=-1)
    @example(shape=(3, [[]]), located=False, padding=-1)
    def test_rows_match_the_1d_oracle(self, shape, located, padding):
        width, positions = shape
        rows = [[_IDS[p] for p in row] for row in positions]
        counts = np.array([len(row) for row in rows], dtype=np.int64)
        matrix = np.full((len(rows), width), padding, dtype=np.int64)
        for index, row in enumerate(rows):
            matrix[index, : len(row)] = row
        locations = ("US", "ES") if located else None
        panel = _MODEL.prefix_audiences_panel(matrix, counts, locations)
        assert panel.shape == (len(rows), width)
        for index, row in enumerate(rows):
            expected = prefix_audiences(_MODEL, row, locations)
            assert np.array_equal(panel[index, : len(row)], expected)
            assert np.isnan(panel[index, len(row) :]).all()


class TestReachMatrixFloorProperties:
    """The bulk endpoint rounds and floor-clips exactly like one call per cell."""

    @SETTINGS
    @given(
        shape=ragged_rows(),
        floor=st.sampled_from([1, 20, 1_000, 100_000, 10**9]),
        located=st.booleans(),
    )
    @example(shape=(3, [[]]), floor=20, located=False)
    @example(shape=(25, [list(range(25))]), floor=10**9, located=True)
    @example(shape=(2, [[7, 3], [5]]), floor=1, located=False)
    def test_cells_match_the_per_cell_oracle(self, shape, floor, located):
        width, positions = shape
        rows = [[_IDS[p] for p in row] for row in positions]
        counts = np.array([len(row) for row in rows], dtype=np.int64)
        matrix = np.full((len(rows), width), -1, dtype=np.int64)
        for index, row in enumerate(rows):
            matrix[index, : len(row)] = row
        locations = ("US", "ES") if located else None
        platform = PlatformConfig(reach_floor=floor, allow_worldwide_location=True)
        bulk_api = AdsManagerAPI(_MODEL, platform=platform, clock=SimClock())
        cell_api = AdsManagerAPI(_MODEL, platform=platform, clock=SimClock())
        reported = bulk_api.estimate_reach_matrix(matrix, counts, locations=locations)
        assert reported.shape == (len(rows), width)
        for index, row in enumerate(rows):
            expected = [
                float(cell_api.estimate_reach(spec).potential_reach)
                for spec in prefix_chain(row, locations=locations)
            ]
            assert np.array_equal(reported[index, : len(row)], expected)
            assert np.isnan(reported[index, len(row) :]).all()
        valid = ~np.isnan(reported)
        raw = _MODEL.prefix_audiences_panel(matrix, counts, locations)[valid]
        assert (reported[valid] >= floor).all()
        assert np.array_equal(reported[valid] == floor, np.rint(raw) <= floor)
        assert bulk_api.call_stats() == cell_api.call_stats()


#: Ordering pool: every interest of a 600-interest catalog that shares its
#: audience with another one, plus 40 others, so drawn users often hold
#: ties and the ``(audience, id)`` tie-break gets exercised.
_ORDER_CATALOG = InterestCatalog.generate(
    CatalogConfig(n_interests=600, n_topics=6, seed=31)
)
_SIZES, _SIZE_INDEX, _SIZE_COUNTS = np.unique(
    _ORDER_CATALOG.all_audience_sizes(), return_inverse=True, return_counts=True
)
_ORDER_IDS = sorted(
    {int(i) for i in _ORDER_CATALOG.interest_ids[_SIZE_COUNTS[_SIZE_INDEX] > 1]}
    | {int(i) for i in _ORDER_CATALOG.interest_ids[:40]}
)


@st.composite
def panels_with_bounds(draw):
    """Users (some without interests) plus a ``[start, stop)`` row range."""
    positions = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=len(_ORDER_IDS) - 1),
                max_size=30,
                unique=True,
            ),
            max_size=8,
        )
    )
    start = draw(st.integers(min_value=0, max_value=len(positions)))
    stop = draw(st.integers(min_value=start, max_value=len(positions)))
    return positions, start, stop


class TestOrderingProperties:
    @SETTINGS
    @given(
        panel=panels_with_bounds(),
        max_interests=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_shard_rows_match_per_user_oracles(self, panel, max_interests, seed):
        positions, start, stop = panel
        users = [
            SyntheticUser(
                user_id=1000 + row,
                country="US",
                interest_ids=tuple(_ORDER_IDS[p] for p in user_positions),
            )
            for row, user_positions in enumerate(positions)
        ]
        columns = PanelColumns.from_users(users)
        for strategy in (LeastPopularSelection(), RandomSelection(seed=seed)):
            matrix, counts = strategy.order_interests_matrix_columns(
                columns, _ORDER_CATALOG, max_interests, start, stop
            )
            assert matrix.shape == (stop - start, int(counts.max(initial=0)))
            for offset, user in enumerate(users[start:stop]):
                expected = order_interests(
                    strategy, user, _ORDER_CATALOG, max_interests
                )
                count = int(counts[offset])
                assert count == len(expected)
                assert tuple(int(i) for i in matrix[offset, :count]) == expected
                assert (matrix[offset, count:] == -1).all()
            # A shard orders exactly like the same rows of the whole store.
            whole, whole_counts = strategy.order_interests_matrix_columns(
                columns, _ORDER_CATALOG, max_interests
            )
            assert np.array_equal(counts, whole_counts[start:stop])
            assert np.array_equal(matrix, whole[start:stop, : matrix.shape[1]])
