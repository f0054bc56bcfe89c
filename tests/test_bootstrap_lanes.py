"""The rank-coded bootstrap: its quantile kernel, both rank tables and the routes.

The full-width rank-lane kernel (``_oracles.resample_quantiles``) is driven
against a per-lane ``nanpercentile`` oracle on every column of random ragged
matrices and resamples, and ``RankTable.resample_vas`` — the column walk
that stops each row where the fit stops reading — against that kernel cut at
each row's stop; the walk's cutpoints must equal ``fit_vas_many`` over the
full-width block on floor-heavy, ragged, never-floored and single-user
layouts and at the ``int32`` rank width.  ``bootstrap_cutpoints`` is checked
on the dense store, the streamed store and a thread executor (and on both
stores at the ``int32`` rank width) against the per-replicate
``nanpercentile`` + ``fit_vas`` loop it replaced, and a sha256 golden pins
its exact output for one fixed matrix and seed.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import as_generator
from repro.core import (
    AudienceAccumulator,
    AudienceSamples,
    bootstrap_cutpoints,
    fit_vas,
    fit_vas_many,
    percentile_interval,
)
from repro.errors import ModelError
from repro.exec import ShardExecutor

from _oracles import resample_quantiles, stop_rows

QS = (50.0, 80.0, 90.0, 95.0)

#: sha256 of ``bootstrap_cutpoints(_golden_samples(), QS, n_bootstrap=300,
#: seed=11)`` (the four arrays' bytes in ``QS`` order), recorded from the
#: replicate-major float kernel, two kernels before the rank-coded one.
GOLDEN_SHA256 = "bc6827a70e34051ab2f429dbea164f503d1d21d0f52b63f899a9a34dc2b82293"


def _prefix_samples(n_users: int, width: int, seed: int) -> AudienceSamples:
    """Floored samples with ragged, prefix-shaped ``NaN`` tails."""
    rng = np.random.default_rng(seed)
    base = 10.0 ** (7.5 - 6.5 * np.log10(np.arange(1, width + 1) + 1.0))
    matrix = np.maximum(
        base[None, :] * 10.0 ** rng.normal(0.0, 0.4, size=(n_users, width)), 20.0
    )
    counts = rng.integers(1, width + 1, size=n_users)
    matrix[np.arange(width)[None, :] >= counts[:, None]] = np.nan
    return AudienceSamples(matrix=matrix, floor=20)


def _golden_samples() -> AudienceSamples:
    """90 users x 25 interests with prefix-shaped NaN tails and floored values."""
    return _prefix_samples(n_users=90, width=25, seed=2021)


def _lane_oracle(lanes: np.ndarray, qs) -> np.ndarray:
    """``nanpercentile`` per (N, replicate) lane, laid out ``(q, R, N)``."""
    width, replicates, _ = lanes.shape
    out = np.empty((len(qs), replicates, width))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(width):
            for r in range(replicates):
                out[:, r, k] = np.nanpercentile(lanes[k, r], qs)
    return out


def _scalar_bootstrap_reference(samples, qs, n_bootstrap: int, seed: int):
    """The pre-vectorisation bootstrap: one percentile + fit per replicate."""
    rng = as_generator(seed)
    results: dict[float, list[float]] = {q: [] for q in qs}
    for _ in range(n_bootstrap):
        indices = rng.integers(0, samples.n_users, size=samples.n_users)
        with np.errstate(all="ignore"):
            vas_rows = np.atleast_2d(
                np.nanpercentile(samples.matrix[indices], list(qs), axis=0)
            )
        for q, vas in zip(qs, vas_rows):
            try:
                results[q].append(fit_vas(vas, samples.floor).cutpoint)
            except ModelError:
                results[q].append(float("nan"))
    return {q: np.asarray(values, dtype=float) for q, values in results.items()}


def _assert_same_table(left, right) -> None:
    for field in ("ranks", "values", "offsets", "patterns", "user_pattern"):
        a, b = getattr(left, field), getattr(right, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b, equal_nan=True), field


@st.composite
def resample_blocks(draw):
    """A ``users x N`` matrix (ragged, prefix or tied layout) and resample draws."""
    width = draw(st.integers(1, 6))
    users = draw(st.integers(1, 12))
    replicates = draw(st.integers(1, 4))
    draws = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["ragged", "prefix", "floor_ties"]))
    nan_share = draw(st.floats(0.0, 1.0))
    all_nan_share = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.round(rng.lognormal(4.0, 2.0, size=(users, width)), 1)
    if layout == "ragged":
        matrix[rng.random(matrix.shape) < nan_share] = np.nan
    elif layout == "prefix":
        # each user keeps a leading run of N values
        counts = rng.integers(0, width + 1, size=users)
        matrix[np.arange(width)[None, :] >= counts[:, None]] = np.nan
    else:
        # many users entirely at the reporting floor, the rest partly
        matrix[rng.random(users) < 0.6] = 20.0
        matrix[rng.random(matrix.shape) < nan_share / 2] = 20.0
    matrix[:, rng.random(width) < all_nan_share] = np.nan
    indices = rng.integers(0, users, size=(replicates, draws))
    qs = draw(
        st.lists(st.floats(0.5, 99.5), min_size=1, max_size=4).map(sorted)
    )
    return matrix, indices, qs


_FLOOR_TIES = np.full((40, 5), 20.0)
_FLOOR_TIES[::7, :2] = [150.5, 33.0]
_FLOOR_TIES[30:, 3:] = np.nan


class TestLaneKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(block=resample_blocks())
    @example(block=(np.array([[7.0]]), np.array([[0]]), [50.0]))  # one user
    @example(  # one user drawn repeatedly, with a NaN tail
        block=(np.array([[9.0, 3.0, np.nan]]), np.zeros((2, 5), int), [25.0, 99.0])
    )
    @example(  # counts == 0: every lane all-NaN
        block=(np.full((5, 3), np.nan), np.arange(10).reshape(2, 5) % 5, [10.0, 90.0])
    )
    @example(block=(np.full((9, 4), 20.0), np.ones((3, 9), int), [50.0, 95.0]))
    @example(  # floor-dominated lanes with heavy ties and ragged tails
        block=(
            _FLOOR_TIES,
            np.random.default_rng(3).integers(0, 40, size=(4, 40)),
            [50.0, 80.0, 90.0, 95.0],
        )
    )
    def test_matches_per_lane_nanpercentile(self, block):
        matrix, indices, qs = block
        reference = _lane_oracle(np.moveaxis(matrix[indices], -1, 0), qs)
        table = AudienceSamples(matrix=matrix, floor=20).rank_table()
        full = resample_quantiles(table, indices, qs)
        assert full.shape == (len(qs), indices.shape[0], matrix.shape[1])
        assert np.array_equal(full, reference, equal_nan=True)
        walked = table.resample_vas(indices, qs, 20)
        assert np.array_equal(walked, stop_rows(reference, 20), equal_nan=True)
        valid = ~np.isnan(matrix)
        prefix = np.arange(matrix.shape[1])[None, :] < valid.sum(axis=1)[:, None]
        if np.array_equal(valid, prefix):  # the streamed store needs prefix rows
            streamed = AudienceAccumulator().update(AudienceSamples(matrix, 20))
            _assert_same_table(streamed.finalize().rank_table(), table)


_FIT_FIELDS = ("slope_a", "intercept_b", "r_squared", "n_points", "cutpoints")


def _assert_same_fits(full: np.ndarray, walked: np.ndarray, floor: int) -> None:
    """``fit_vas_many`` on each quantile's walked rows equals the full-width fit."""
    for full_rows, walked_rows in zip(full, walked):
        expected = fit_vas_many(full_rows, floor)
        produced = fit_vas_many(walked_rows, floor)
        for field in _FIT_FIELDS:
            assert np.array_equal(
                getattr(produced, field), getattr(expected, field), equal_nan=True
            ), field


@st.composite
def walk_cases(draw):
    """A floored VAS-shaped matrix in one of several layouts, draws and a chunk."""
    width = draw(st.integers(1, 8))
    users = draw(st.integers(1, 14))
    replicates = draw(st.integers(1, 6))
    layout = draw(
        st.sampled_from(
            ["ragged", "nan_tails", "floor_heavy", "never_floored", "floored_column_0"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = 10.0 ** (4.5 - 3.5 * np.log10(np.arange(1, width + 1) + 1.0))
    matrix = np.maximum(
        np.round(base * 10.0 ** rng.normal(0.0, 0.6, size=(users, width)), 1), 20.0
    )
    tails = np.arange(width)[None, :] >= rng.integers(1, width + 1, size=users)[:, None]
    if layout == "ragged":
        matrix[rng.random(matrix.shape) < draw(st.floats(0.0, 0.8))] = np.nan
    elif layout == "nan_tails":
        matrix[tails] = np.nan
    elif layout == "floor_heavy":
        matrix[rng.random(matrix.shape) < draw(st.floats(0.2, 0.9))] = 20.0
        matrix[tails] = np.nan
    elif layout == "never_floored":
        matrix += 21.0
    else:
        matrix[:, 0] = 20.0
    indices = rng.integers(0, users, size=(replicates, users))
    qs = draw(
        st.lists(st.floats(0.5, 99.5), min_size=1, max_size=4, unique=True).map(sorted)
    )
    return matrix, indices, qs, draw(st.integers(1, replicates))


class TestColumnWalkProperties:
    """The column walk reads only what a fit reads, so every cutpoint is unchanged."""

    @settings(max_examples=150, deadline=None)
    @given(case=walk_cases(), seed=st.integers(0, 2**32 - 1))
    @example(  # a single user, drawn every time
        case=(np.array([[900.0, 80.0, 20.0, 20.0]]), np.zeros((3, 1), int), [50.0], 2),
        seed=0,
    )
    @example(  # every row stops at column 0
        case=(np.full((6, 5), 20.0), np.ones((2, 6), int), [10.0, 95.0], 1),
        seed=1,
    )
    def test_walk_matches_the_full_width_fit(self, case, seed):
        matrix, indices, qs, chunk = case
        samples = AudienceSamples(matrix=matrix, floor=20)
        table = samples.rank_table()
        full = resample_quantiles(table, indices, qs)
        walked = table.resample_vas(indices, qs, 20)
        assert np.array_equal(walked, stop_rows(full, 20), equal_nan=True)
        _assert_same_fits(full, walked, 20)
        # The chunked bootstrap replays one up-front draw through the oracle.
        replicates, users = indices.shape
        draws = as_generator(seed).integers(0, users, size=(replicates, users))
        expected = resample_quantiles(table, draws, qs)
        produced = bootstrap_cutpoints(
            samples, qs, n_bootstrap=replicates, seed=seed, chunk_size=chunk
        )
        for q, rows in zip(qs, expected):
            assert np.array_equal(
                produced[q], fit_vas_many(rows, 20).cutpoints, equal_nan=True
            )


class TestLaneGathers:
    def test_dense_gather_is_contiguous_moveaxis(self):
        """The rank table is the matrix, lane-major, with ranks in place of samples."""
        samples = _golden_samples()
        table = samples.rank_table()
        assert table.ranks.shape == (25, 90)
        assert table.ranks.flags.c_contiguous
        assert table.ranks.dtype == np.int16
        lanes = samples.matrix.T
        missing = np.isnan(lanes)
        assert np.array_equal(missing, table.ranks == samples.n_users)
        decoded = table.values[(table.offsets[:, None] + table.ranks)[~missing]]
        assert np.array_equal(decoded, lanes[~missing])
        for k, lane in enumerate(lanes):
            present = lane[~missing[k]]
            assert np.array_equal(
                table.ranks[k][~missing[k]],
                (present[:, None] > present[None, :]).sum(axis=1),
            )

    def test_gathers_return_fresh_blocks(self):
        """The kernel sorts a fresh gather: the cached table stays untouched."""
        samples = _golden_samples()
        streamed = AudienceAccumulator().update(samples).finalize()
        indices = np.arange(samples.n_users)[None, :]
        for store in (samples, streamed):
            table = store.rank_table()
            assert store.rank_table() is table
            before = table.ranks.copy()
            first = table.resample_vas(indices, QS, store.floor)
            assert np.array_equal(table.ranks, before)
            assert np.array_equal(
                table.resample_vas(indices, QS, store.floor), first, equal_nan=True
            )
        _assert_same_table(streamed.rank_table(), samples.rank_table())


class TestBootstrapRoutes:
    @pytest.fixture(scope="class")
    def samples(self):
        return _golden_samples()

    @pytest.fixture(scope="class")
    def reference(self, samples):
        return _scalar_bootstrap_reference(samples, QS, n_bootstrap=40, seed=5)

    @pytest.mark.parametrize("route", ["dense", "streamed", "thread"])
    def test_route_matches_scalar_reference(self, samples, reference, route):
        store, executor = samples, None
        if route == "streamed":
            store = AudienceAccumulator().update(samples).finalize()
        elif route == "thread":
            executor = ShardExecutor(backend="thread", workers=2, shard_size=7)
        produced = bootstrap_cutpoints(
            store, QS, n_bootstrap=40, seed=5, executor=executor
        )
        for q in QS:
            assert np.array_equal(produced[q], reference[q], equal_nan=True)

    def test_golden_digest(self, samples):
        produced = bootstrap_cutpoints(samples, QS, n_bootstrap=300, seed=11)
        digest = hashlib.sha256(b"".join(produced[q].tobytes() for q in QS))
        assert digest.hexdigest() == GOLDEN_SHA256


class TestInt32RankPath:
    """Past 2**15 - 1 users the ranks (and the cast draws) widen to int32."""

    @pytest.fixture(scope="class")
    def samples(self):
        return _prefix_samples(n_users=2**15 + 40, width=5, seed=7)

    @pytest.mark.parametrize("route", ["dense", "streamed"])
    def test_matches_scalar_reference(self, samples, route):
        store = samples
        if route == "streamed":
            store = AudienceAccumulator().update(samples).finalize()
        assert store.rank_table().ranks.dtype == np.int32
        produced = bootstrap_cutpoints(store, QS, n_bootstrap=3, seed=9)
        reference = _scalar_bootstrap_reference(samples, QS, n_bootstrap=3, seed=9)
        for q in QS:
            assert np.array_equal(produced[q], reference[q], equal_nan=True)

    def test_walk_matches_the_full_width_fit(self, samples):
        table = samples.rank_table()
        rng = np.random.default_rng(4)
        indices = rng.integers(0, samples.n_users, size=(3, samples.n_users))
        full = resample_quantiles(table, indices, QS)
        walked = table.resample_vas(indices.astype(np.int32), QS, samples.floor)
        assert np.array_equal(walked, stop_rows(full, samples.floor), equal_nan=True)
        _assert_same_fits(full, walked, samples.floor)

    def test_streamed_table_matches_dense(self, samples):
        streamed = AudienceAccumulator().update(samples).finalize()
        _assert_same_table(streamed.rank_table(), samples.rank_table())


class TestBootstrapValidation:
    @pytest.mark.parametrize("chunk_size", [-1, 0])
    def test_rejects_non_positive_chunk_size(self, chunk_size):
        with pytest.raises(ModelError, match="chunk_size"):
            bootstrap_cutpoints(
                _golden_samples(), [50.0], n_bootstrap=5, seed=1, chunk_size=chunk_size
            )

    @pytest.mark.parametrize("qs", [[150.0], [0.0], [50.0, 100.0]])
    def test_rejects_out_of_range_quantiles(self, qs):
        with pytest.raises(ModelError, match="percent"):
            bootstrap_cutpoints(_golden_samples(), qs, n_bootstrap=5, seed=1)

    def test_rejects_empty_quantiles(self):
        with pytest.raises(ModelError, match="at least one quantile"):
            bootstrap_cutpoints(_golden_samples(), [], n_bootstrap=5, seed=1)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_percentile_interval_rejects_bad_level(self, level):
        with pytest.raises(ModelError, match="confidence level"):
            percentile_interval([1.0, 2.0, 3.0], level=level)
