"""Property tests (hypothesis) for the batched interest-assignment kernel.

:meth:`InterestAssigner.assign_rows` must reproduce one
:meth:`InterestAssigner.assign` call per row on the row's own stream, for
any mix of row shapes in one call.  The catalog is small (60 interests over
6 topics), so large counts collide often enough to run the rejection rounds
2+ and to exhaust the 40 attempts into the deterministic top-up; the
fixed cases at the bottom pin that both paths really fire.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import derive_generator
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig
from repro.population import InterestAssigner

SETTINGS = settings(max_examples=40, deadline=None)

CATALOG = InterestCatalog.generate(CatalogConfig(n_interests=60, n_topics=6, seed=23))
TOPIC_NAMES = CATALOG.topics()
N_TOPICS = len(TOPIC_NAMES)

#: Rounded to 3 decimals, 0.5004 shares 0.5's tables and -0.2 clamps to 0.
BIAS_POOL = (None, -0.2, 0.15, 0.5, 0.5004, 0.9, 1.4)

_topic_lists = st.lists(st.integers(0, N_TOPICS - 1), min_size=1, max_size=4)

#: One row's preferred topics in every shape the kernel accepts.  Drawn
#: index lists repeat entries freely; the last shape always duplicates.
_preferred = st.one_of(
    st.none(),
    st.just(()),
    st.tuples(_topic_lists, st.sampled_from([np.int64, np.int32])).map(
        lambda pair: np.array(pair[0], dtype=pair[1])
    ),
    _topic_lists.map(lambda idx: tuple(TOPIC_NAMES[i] for i in idx)),
    st.integers(0, N_TOPICS - 1).map(lambda i: np.array([i, i, (i + 1) % N_TOPICS])),
)

_rows = st.lists(
    st.tuples(st.integers(0, 90), st.sampled_from(BIAS_POOL), _preferred),
    max_size=12,
)

#: Rows near and above the catalog size next to small ones, several biases
#: interleaved: round 2+ and the top-up both fire (see the pinned test).
COLLIDING_ROWS = [
    (60, 1.4, np.array([0, 1])),
    (3, None, None),
    (75, 0.15, (TOPIC_NAMES[2], TOPIC_NAMES[2])),
    (58, 0.9, np.array([4, 4, 5])),
    (0, 0.5, np.array([3])),
    (44, 0.5004, ()),
]


def _as_names(pref):
    """The reference path's form of a row's preferred topics: names."""
    if pref is None:
        return None
    return tuple(t if isinstance(t, str) else TOPIC_NAMES[int(t)] for t in pref)


def _run_both(assigner, rows, seed, *, whole_biases, whole_preferred):
    counts = np.array([count for count, _, _ in rows], dtype=np.int64)
    biases = [bias for _, bias, _ in rows] if whole_biases else None
    prefs = [pref for _, _, pref in rows] if whole_preferred else None
    streams = [derive_generator(seed, "prop-user", row) for row in range(len(rows))]
    kernel = assigner.assign_rows(
        counts, streams, preferred_topics=prefs, popularity_biases=biases
    )
    flat: list[int] = []
    lens: list[int] = []
    for row, (count, bias, pref) in enumerate(rows):
        ids = assigner.assign(
            count,
            derive_generator(seed, "prop-user", row),
            preferred_topics=_as_names(pref) if whole_preferred else None,
            popularity_bias=bias if whole_biases else None,
        )
        flat.extend(ids)
        lens.append(len(ids))
    return kernel, (np.array(flat, dtype=np.int64), np.array(lens, dtype=np.int64))


class TestAssignRowsMatchesPerRowAssign:
    @SETTINGS
    @given(
        rows=_rows,
        seed=st.integers(0, 2**32),
        whole_biases=st.booleans(),
        whole_preferred=st.booleans(),
    )
    @example(rows=COLLIDING_ROWS, seed=5, whole_biases=True, whole_preferred=True)
    def test_rows_match_reference(self, rows, seed, whole_biases, whole_preferred):
        # A fresh assigner per example: cache state must not matter either.
        assigner = InterestAssigner(CATALOG)
        (flat_k, lens_k), (flat_r, lens_r) = _run_both(
            assigner,
            rows,
            seed,
            whole_biases=whole_biases,
            whole_preferred=whole_preferred,
        )
        np.testing.assert_array_equal(lens_k, lens_r)
        np.testing.assert_array_equal(flat_k, flat_r)
        assert lens_k.tolist() == [min(c, len(CATALOG)) for c, _, _ in rows]
        for start, stop in zip(np.cumsum(lens_k) - lens_k, np.cumsum(lens_k)):
            row = flat_k[start:stop]
            assert np.unique(row).size == row.size


def test_colliding_rows_reach_later_rounds_and_the_top_up(monkeypatch):
    calls = {"rounds": 0, "top_up": 0}
    finish = InterestAssigner._finish_rows_batched
    top_up = InterestAssigner._top_up

    def counting_finish(self, *args, **kwargs):
        calls["rounds"] += 1
        return finish(self, *args, **kwargs)

    def counting_top_up(self, *args, **kwargs):
        calls["top_up"] += 1
        return top_up(self, *args, **kwargs)

    monkeypatch.setattr(InterestAssigner, "_finish_rows_batched", counting_finish)
    monkeypatch.setattr(InterestAssigner, "_top_up", counting_top_up)
    (flat_k, lens_k), (flat_r, lens_r) = _run_both(
        InterestAssigner(CATALOG),
        COLLIDING_ROWS,
        5,
        whole_biases=True,
        whole_preferred=True,
    )
    np.testing.assert_array_equal(flat_k, flat_r)
    np.testing.assert_array_equal(lens_k, lens_r)
    assert calls["rounds"] >= 1
    assert calls["top_up"] >= 1


@pytest.mark.parametrize("whole_biases", [True, False])
def test_every_row_shape_in_one_call(whole_biases):
    rows = [(9, bias, pref) for bias in BIAS_POOL for _, _, pref in COLLIDING_ROWS[:4]]
    (flat_k, lens_k), (flat_r, lens_r) = _run_both(
        InterestAssigner(CATALOG),
        rows,
        17,
        whole_biases=whole_biases,
        whole_preferred=True,
    )
    np.testing.assert_array_equal(lens_k, lens_r)
    np.testing.assert_array_equal(flat_k, flat_r)
