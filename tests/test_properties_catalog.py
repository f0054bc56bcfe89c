"""Property tests (hypothesis) for the columnar interest catalog.

:class:`InterestCatalog` stores ids, audiences and topic codes as arrays
and builds :class:`Interest` objects only where it returns one.  Every
lookup must match :class:`_oracles.DictCatalog`, the dict of ``Interest``
objects it replaced, on drawn catalogs with holed, strided and shuffled
ids, tied audiences, topics outside the taxonomy and fewer than 24
topics; so must the assigner's topic tables and the reach model's
same-topic relation, which both read the catalog's arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import DictCatalog, generate_dict_catalog
from repro.catalog import TOPICS, Interest, InterestCatalog
from repro.config import CatalogConfig
from repro.errors import UnknownInterestError
from repro.population import InterestAssigner
from repro.reach import StatisticalReachModel

SETTINGS = settings(max_examples=60, deadline=None)

#: Labels outside the taxonomy: the catalog keeps them, the assigner drops them.
EXTRA_TOPICS = ("Custom topic A", "Custom topic B")

#: Keys that are not ints: membership is False, ``get`` raises.
NON_INT_KEYS = ("3", 3.0, None, (3,), True, 2**70)


@st.composite
def catalogs(draw) -> list[Interest]:
    """Interest records in shuffled order, one per distinct drawn id."""
    n = draw(st.integers(1, 40))
    layout = draw(st.sampled_from(["dense", "strided", "holed", "wide"]))
    if layout == "holed":
        ids = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n, unique=True))
    elif layout == "wide":
        ids = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True))
    else:
        stride = 1 if layout == "dense" else draw(st.integers(2, 7))
        offset = draw(st.integers(0, 50))
        ids = [offset + stride * i for i in range(n)]
    n_taxonomy = draw(st.integers(1, len(TOPICS)))
    pool = TOPICS[:n_taxonomy] + EXTRA_TOPICS[: draw(st.integers(0, 2))]
    tied = draw(st.booleans())
    audiences = st.integers(0, 10**9)
    if tied:
        audiences = st.sampled_from([0, 20, 5_000, 5_000_000])
    records = [
        Interest(
            interest_id,
            draw(st.sampled_from(["Jazz", "Vintage cameras", f"interest {interest_id}"])),
            draw(st.sampled_from(pool)),
            draw(audiences),
        )
        for interest_id in ids
    ]
    return draw(st.permutations(records))


def assert_matches_oracle(catalog: InterestCatalog, oracle: DictCatalog) -> None:
    ids = sorted(oracle.interests)
    assert len(catalog) == len(ids)
    assert list(catalog) == list(oracle)
    assert catalog.to_dicts() == oracle.to_dicts()
    assert catalog.interest_ids.tolist() == ids
    for interest_id in ids:
        assert catalog.get(interest_id) == oracle.get(interest_id)
        assert catalog.get(np.int64(interest_id)) == oracle.get(interest_id)
        assert interest_id in catalog and np.int64(interest_id) in catalog
    for unknown in (-1, ids[-1] + 1, ids[0] - 1, *(i + 1 for i in ids)):
        assert (unknown in catalog) == (unknown in oracle)
        if unknown not in oracle:
            with pytest.raises(UnknownInterestError):
                catalog.get(unknown)
    for key in NON_INT_KEYS:
        assert key not in catalog and key not in oracle
        with pytest.raises(UnknownInterestError):
            catalog.get(key)
    for n in (0, 1, 3, len(ids) - 1, len(ids), len(ids) + 5):
        n = max(n, 0)
        assert catalog.rarest(n) == oracle.rarest(n)
        assert catalog.most_popular(n) == oracle.most_popular(n)
    assert catalog.topics() == oracle.topics()
    for topic in (*TOPICS, *EXTRA_TOPICS, "Not a topic"):
        assert catalog.by_topic(topic) == oracle.by_topic(topic)
    probe = np.array(ids[::-1] + ids[:2], dtype=np.int64)
    assert catalog.positions(probe).tolist() == oracle.positions(probe)
    assert catalog.audience_sizes(probe).tolist() == oracle.audience_sizes(probe)


def assert_array_readers_match(catalog: InterestCatalog, oracle: DictCatalog) -> None:
    topics, topic_ids, topic_audiences = oracle.assigner_topic_tables()
    assigner = InterestAssigner(catalog)
    assert assigner.topics == topics
    assert [ids.tolist() for ids in assigner._topic_ids] == topic_ids
    assert [a.tolist() for a in assigner._topic_audiences] == topic_audiences
    assert assigner._flat_topic_ids.tolist() == [i for ids in topic_ids for i in ids]
    assert assigner._topic_sizes.tolist() == [len(ids) for ids in topic_ids]
    codes = StatisticalReachModel(catalog)._topic_codes
    assert np.array_equal(codes[:, None] == codes[None, :], oracle.same_topic())


class TestColumnarCatalogParity:
    @SETTINGS
    @given(records=catalogs())
    def test_record_catalogs_match_the_dict_oracle(self, records):
        catalog = InterestCatalog.from_interests(records)
        oracle = DictCatalog(records)
        assert_matches_oracle(catalog, oracle)
        assert_array_readers_match(catalog, oracle)
        rebuilt = InterestCatalog.from_dicts(catalog.to_dicts())
        assert rebuilt.to_dicts() == oracle.to_dicts()

    @settings(max_examples=25, deadline=None)
    @given(
        n_interests=st.integers(1, 120),
        n_topics=st.integers(1, len(TOPICS)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_generated_catalogs_match_the_generation_loop(
        self, n_interests, n_topics, seed
    ):
        config = CatalogConfig(n_interests=n_interests, n_topics=n_topics, seed=seed)
        catalog = InterestCatalog.generate(config)
        oracle = generate_dict_catalog(config, seed)
        assert_matches_oracle(catalog, oracle)
        assert_array_readers_match(catalog, oracle)
