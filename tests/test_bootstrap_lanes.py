"""The lane-major bootstrap: its quantile kernel, both gathers and the routes.

``masked_column_quantiles`` is driven against a per-lane ``nanpercentile``
oracle on random ragged blocks; ``bootstrap_cutpoints`` is checked on the
dense store, the streamed store and a thread executor against the
per-replicate ``nanpercentile`` + ``fit_vas`` loop it replaced, and a
sha256 golden pins its exact output for one fixed matrix and seed.
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
    percentile_interval,
)
from repro.core.quantiles import masked_column_quantiles
from repro.errors import ModelError
from repro.exec import ShardExecutor

QS = (50.0, 80.0, 90.0, 95.0)

#: sha256 of ``bootstrap_cutpoints(_golden_samples(), QS, n_bootstrap=300,
#: seed=11)`` (the four arrays' bytes in ``QS`` order), recorded from the
#: replicate-major kernel this one replaced.
GOLDEN_SHA256 = "bc6827a70e34051ab2f429dbea164f503d1d21d0f52b63f899a9a34dc2b82293"


def _golden_samples() -> AudienceSamples:
    """90 users x 25 interests with prefix-shaped NaN tails and floored values."""
    rng = np.random.default_rng(2021)
    base = 10.0 ** (7.5 - 6.5 * np.log10(np.arange(1, 26) + 1.0))
    matrix = np.maximum(
        base[None, :] * 10.0 ** rng.normal(0.0, 0.4, size=(90, 25)), 20.0
    )
    counts = rng.integers(1, 26, size=90)
    matrix[np.arange(25)[None, :] >= counts[:, None]] = np.nan
    return AudienceSamples(matrix=matrix, floor=20)


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


@st.composite
def lane_blocks(draw):
    """Random ``(N, R, U)`` lane blocks with ragged, prefix or tied NaN layouts."""
    width = draw(st.integers(1, 6))
    replicates = draw(st.integers(1, 4))
    users = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["ragged", "prefix", "floor_ties"]))
    nan_share = draw(st.floats(0.0, 1.0))
    all_nan_share = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = np.round(rng.lognormal(4.0, 2.0, size=(width, replicates, users)), 1)
    if layout == "ragged":
        lanes[rng.random(lanes.shape) < nan_share] = np.nan
    elif layout == "prefix":
        # each resampled user keeps a leading run of N values
        counts = rng.integers(0, width + 1, size=(replicates, users))
        lanes[np.arange(width)[:, None, None] >= counts[None, :, :]] = np.nan
    else:
        # many lanes entirely at the reporting floor, the rest partly
        lanes[rng.random(lanes.shape[:2]) < 0.6] = 20.0
        lanes[rng.random(lanes.shape) < nan_share / 2] = 20.0
    lanes[rng.random(lanes.shape[:2]) < all_nan_share] = np.nan
    qs = draw(
        st.lists(st.floats(0.5, 99.5), min_size=1, max_size=4).map(sorted)
    )
    return lanes, qs


class TestLaneKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(block=lane_blocks())
    @example(block=(np.array([[[7.0]]]), [50.0]))  # one user, one replicate
    @example(block=(np.full((3, 2, 5), np.nan), [10.0, 90.0]))  # counts == 0
    @example(block=(np.full((4, 3, 9), 20.0), [50.0, 95.0]))  # all at the floor
    def test_matches_per_lane_nanpercentile(self, block):
        lanes, qs = block
        reference = _lane_oracle(lanes, qs)
        owned = lanes.copy()
        ours = masked_column_quantiles(owned, qs)
        assert ours.shape == (len(qs), lanes.shape[1], lanes.shape[0])
        assert np.array_equal(ours, reference, equal_nan=True)
        # the kernel sorts the caller's block in place along the lanes
        assert np.array_equal(owned, np.sort(lanes, axis=-1), equal_nan=True)


class TestLaneGathers:
    def test_dense_gather_is_contiguous_moveaxis(self):
        samples = _golden_samples()
        indices = np.random.default_rng(4).integers(0, samples.n_users, (3, 90))
        lanes = samples.gather_lanes(indices)
        assert lanes.shape == (25, 3, 90)
        assert lanes.flags.c_contiguous
        assert np.array_equal(
            lanes, np.moveaxis(samples.matrix[indices], -1, 0), equal_nan=True
        )

    def test_gathers_return_fresh_blocks(self):
        samples = _golden_samples()
        streamed = AudienceAccumulator().update(samples).finalize()
        indices = np.arange(samples.n_users)[None, :]
        for store in (samples, streamed):
            first = store.gather_lanes(indices)
            first.sort(axis=-1)
            assert np.array_equal(
                store.gather_lanes(indices),
                samples.matrix.T[:, None, :],
                equal_nan=True,
            )


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
