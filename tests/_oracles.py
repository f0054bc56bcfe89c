"""Slow reference oracles the bulk reach and ordering paths are pinned against.

``src/`` has one production path per computation: strategies order whole
CSR row ranges (``order_interests_matrix_columns``), the reach model answers
every prefix of a padded id matrix in one sweep (``prefix_audiences_panel``),
the collector issues one ``estimate_reach_matrix`` call and the FDVT
extension builds its risk reports from one deduplicated bulk query.  The
helpers below are the straightforward per-user / per-cell loops those paths
replaced, kept here so the parity tests can compare against them:

* :func:`order_interests` — one user's ordering as a tuple (least-popular
  tuple sort, or the random strategy's per-user shuffle);
* :func:`prefix_audiences` — the 1-D prefix kernel over one ordered id list;
* :func:`prefix_chain` — one :class:`TargetingSpec` per prefix of an
  ordered id list, the query family the matrix endpoint answers in bulk;
* :func:`collect_per_cell` — one ``estimate_reach`` call per (user, N) cell;
* :func:`risk_report_per_occurrence` — one single-interest
  ``estimate_reach`` call per (user, interest) occurrence;
* :func:`resample_quantiles` — the full-width rank-lane bootstrap kernel:
  every column of every replicate gathered and sorted, with no stop at the
  fit's floor (``RankTable.resample_vas`` walks only what a fit reads);
* :func:`stop_rows` — a full-width VAS block cut the way the fit cuts it,
  row by row through the scalar ``truncate_at_floor``;
* :class:`DictCatalog` — the catalog as a dict of :class:`Interest`
  objects with per-call scans, the object store the columnar
  :class:`InterestCatalog` replaced, and :func:`generate_dict_catalog`,
  the per-interest generation loop that filled it.

Importable from any test module (``from _oracles import ...``), like
``tests/_builders.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro._rng import derive_generator
from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.catalog import (
    DEFAULT_WORLD_POPULATION,
    TOPICS,
    Interest,
    InterestCatalog,
    PopularityModel,
    interest_name,
    topic_for_index,
)
from repro.config import CatalogConfig
from repro.core import LeastPopularSelection, RandomSelection
from repro.core import truncate_at_floor
from repro.core.quantiles import AudienceSamples, RankTable
from repro.errors import CatalogError, ModelError, PanelError, UnknownInterestError
from repro.fdvt import DEFAULT_THRESHOLDS, InterestRiskEntry, RiskReport, RiskThresholds
from repro.population import SyntheticUser
from repro.reach import StatisticalReachModel, country_codes
from repro.reach.jitter import lognormal_jitter, prefix_seeds


# -- per-user orderings ----------------------------------------------------------


def order_least_popular(
    user: SyntheticUser, catalog: InterestCatalog, max_interests: int
) -> tuple[int, ...]:
    """The user's rarest interests, ascending by ``(audience, id)``."""
    if max_interests < 1:
        raise ModelError("max_interests must be >= 1")
    audiences = sorted((catalog.audience_size(i), i) for i in user.interest_ids)
    return tuple(interest_id for _, interest_id in audiences[:max_interests])


def order_random(
    strategy: RandomSelection, user: SyntheticUser, max_interests: int
) -> tuple[int, ...]:
    """The user's interests shuffled with their per-user stream, truncated."""
    if max_interests < 1:
        raise ModelError("max_interests must be >= 1")
    rng = derive_generator(strategy.seed, "random-selection", user.user_id)
    interests = np.array(user.interest_ids, dtype=np.int64)
    rng.shuffle(interests)
    return tuple(int(i) for i in interests[:max_interests])


def order_interests(
    strategy, user: SyntheticUser, catalog: InterestCatalog, max_interests: int
) -> tuple[int, ...]:
    """Per-user ordering of either built-in strategy."""
    if isinstance(strategy, LeastPopularSelection):
        return order_least_popular(user, catalog, max_interests)
    if isinstance(strategy, RandomSelection):
        return order_random(strategy, user, max_interests)
    raise TypeError(f"no per-user oracle for {type(strategy).__name__}")


# -- the 1-D prefix kernel ---------------------------------------------------------


def prefix_probabilities(
    probs: np.ndarray, topics: np.ndarray, alpha: float, topic_affinity_boost: float
) -> np.ndarray:
    """Conditional-retention intersection probability of every prefix of one row.

    All operations are prefix-local (cumulative minima, sums and per-topic
    cumulative sums), so ``result[:k]`` of a truncated call equals the
    first ``k`` entries of the full call.
    """
    n = probs.size
    boost = 1.0 + topic_affinity_boost
    with np.errstate(all="ignore"):
        cumulative_min = np.minimum.accumulate(probs)
        previous_min = np.concatenate(([np.inf], cumulative_min[:-1]))
        new_min = probs < previous_min
        # Index of the rarest interest within each prefix (first winner on
        # ties, matching a stable sort by probability).
        rarest_index = np.maximum.accumulate(np.where(new_min, np.arange(n), 0))
        retention = probs**alpha
        plain = np.minimum(1.0, retention)
        boosted = np.minimum(1.0, retention * boost)
        log_plain = np.log(plain)
        log_boost_delta = np.log(boosted) - log_plain
        total_log = np.cumsum(log_plain)
        # Per-topic cumulative boost corrections; only the column of the
        # prefix's rarest topic is consumed per row.
        codes, inverse = np.unique(topics, return_inverse=True)
        one_hot = inverse[:, None] == np.arange(codes.size)[None, :]
        topic_cumulative = np.cumsum(
            np.where(one_hot, log_boost_delta[:, None], 0.0), axis=0
        )
        same_topic = topic_cumulative[np.arange(n), inverse[rarest_index]]
        log_probability = (
            np.log(probs[rarest_index])
            + (total_log - log_plain[rarest_index])
            + (same_topic - log_boost_delta[rarest_index])
        )
        return np.minimum(np.exp(log_probability), probs[rarest_index])


def prefix_audiences(
    model: StatisticalReachModel,
    ordered_ids: Sequence[int],
    locations: Sequence[str] | None = None,
) -> np.ndarray:
    """AND-audiences of every prefix ``1..N`` of one ordered id list."""
    ids = np.asarray([int(i) for i in ordered_ids], dtype=np.int64)
    if ids.size == 0:
        return np.empty(0, dtype=float)
    positions = model.catalog.positions(ids)
    probs = model._marginal_array[positions]
    topics = model._topic_codes[positions]
    config = model.config
    intersections = prefix_probabilities(
        probs, topics, config.correlation_alpha, config.topic_affinity_boost
    )
    jitters = lognormal_jitter(
        prefix_seeds(ids, model._jitter_key), config.jitter_log10_sigma
    )
    base = model.world_size(locations)
    audiences = base * intersections * jitters
    # The jitter never pushes an AND-audience above its rarest marginal.
    rarest = base * np.minimum.accumulate(probs)
    return np.maximum(np.minimum(audiences, rarest), 0.0)


# -- per-prefix specs ----------------------------------------------------------------


def prefix_chain(
    interests: Sequence[int],
    *,
    locations: Sequence[str] | None = None,
    combine: str = "and",
) -> tuple[TargetingSpec, ...]:
    """Specs for every prefix ``1..N`` of one ordered interest list.

    The full-length spec is built (and validated) first, so a duplicated id
    raises even when every shorter prefix would be valid.
    """
    longest = TargetingSpec.for_interests(
        interests, locations=locations, combine=combine
    )
    return tuple(
        longest.with_interests(longest.interests[:count])
        for count in range(1, len(longest.interests) + 1)
    )


# -- per-cell collection -------------------------------------------------------------


def collect_per_cell(
    api: AdsManagerAPI,
    users: Iterable[SyntheticUser],
    catalog: InterestCatalog,
    strategy,
    max_interests: int,
    locations: Sequence[str] | None = None,
) -> AudienceSamples:
    """The users x N audience matrix from one ``estimate_reach`` per cell."""
    users = list(users)
    matrix = np.full((len(users), max_interests), np.nan, dtype=float)
    for row, user in enumerate(users):
        ordered = order_interests(strategy, user, catalog, max_interests)
        for n_interests in range(1, len(ordered) + 1):
            spec = TargetingSpec.for_interests(
                ordered[:n_interests], locations=locations
            )
            matrix[row, n_interests - 1] = float(
                api.estimate_reach(spec).potential_reach
            )
    return AudienceSamples(
        matrix=matrix,
        floor=api.platform.reach_floor,
        user_ids=tuple(user.user_id for user in users),
    )


# -- per-occurrence risk report -------------------------------------------------------


def risk_report_per_occurrence(
    api: AdsManagerAPI,
    catalog: InterestCatalog,
    user: SyntheticUser,
    *,
    thresholds: RiskThresholds = DEFAULT_THRESHOLDS,
) -> RiskReport:
    """One user's risk view from a single-interest query per interest.

    Queries go worldwide when the platform allows it and to the 50 largest
    Facebook countries otherwise, like the extension's.
    """
    if not user.interest_ids:
        raise PanelError("the user has no interests to report on")
    locations = None if api.platform.allow_worldwide_location else country_codes()
    entries = []
    for interest_id in user.interest_ids:
        spec = TargetingSpec.for_interests([interest_id], locations=locations)
        audience = api.estimate_reach(spec).potential_reach
        entries.append(
            InterestRiskEntry(
                interest_id=interest_id,
                name=catalog.get(interest_id).name,
                risk=thresholds.classify(audience),
                audience_size=audience,
            )
        )
    entries.sort(key=lambda entry: (entry.audience_size, entry.interest_id))
    return RiskReport(user_id=user.user_id, entries=tuple(entries))


# -- the full-width bootstrap kernel ---------------------------------------------------


def resample_quantiles(
    table: RankTable, indices: np.ndarray, q_percents: Sequence[float]
) -> np.ndarray:
    """Per-replicate ``nanpercentile`` over an ``(R, draws)`` index matrix.

    Returns ``(len(q_percents), R, N)``, bit-identical to
    :func:`numpy.nanpercentile` (``axis=0``) on each ``matrix[indices[r]]``:
    a fresh ``(N, R, draws)`` block of rank lanes is gathered and sorted in
    place, and min-ranks sort as their floats do and decode to exactly the
    float at each sorted position.  The interpolation is NumPy's, with the
    ``gamma >= 0.5`` branch of its ``_lerp``.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ModelError("resample_quantiles expects a 2-D (R, draws) index matrix")
    quantiles = np.asarray([float(q) for q in q_percents], dtype=float) / 100.0
    replicates, draws = indices.shape
    width, n_patterns = table.patterns.shape
    lanes = table.ranks.take(indices.reshape(-1), axis=1).reshape(
        width, replicates, draws
    )
    lanes.sort(axis=-1)  # in place; the missing-cell sentinel sorts last
    keys = table.user_pattern.take(indices)
    keys += n_patterns * np.arange(replicates)[:, None]  # an id range per replicate
    histogram = np.bincount(keys.reshape(-1), minlength=replicates * n_patterns)
    counts = table.patterns @ histogram.reshape(replicates, n_patterns).T  # (N, R)
    top = counts - 1  # position of the largest valid entry

    def decode(positions: np.ndarray) -> np.ndarray:
        # Only an all-missing lane reads its sentinel: clipped, then masked.
        at = np.maximum(positions, 0)[..., None]
        ranks = np.take_along_axis(lanes, at, axis=-1)[..., 0]
        return table.values.take(table.offsets[:, None] + ranks, mode="clip")

    results = np.empty((quantiles.size, replicates, width))
    for position, quantile in enumerate(quantiles):
        virtual = quantile * top
        previous = np.floor(virtual)
        gamma = virtual - previous
        low = previous.astype(np.int64)
        high = low + 1
        at_top = virtual >= top
        low = np.where(at_top, top, low)
        high = np.where(at_top, top, high)
        lower, upper = decode(low), decode(high)
        difference = upper - lower
        interpolated = np.where(
            gamma >= 0.5,
            upper - difference * (1.0 - gamma),
            lower + difference * gamma,
        )
        results[position] = np.where(counts == 0, np.nan, interpolated).T
    return results


def stop_rows(vas_block: np.ndarray, floor: int) -> np.ndarray:
    """Each row of a ``(..., N)`` VAS block kept up to its stop, ``NaN`` after.

    The stop is the row's first floored or ``NaN`` value; the kept prefix is
    the scalar ``truncate_at_floor`` of the row (which drops a ``NaN`` stop,
    so that cell reads ``NaN`` either way).
    """
    block = np.asarray(vas_block, dtype=float)
    out = np.full_like(block, np.nan)
    for index in np.ndindex(block.shape[:-1]):
        kept = truncate_at_floor(block[index], floor)
        out[index][: kept.size] = kept
    return out


# -- the object-store catalog ------------------------------------------------------


class DictCatalog:
    """A catalog kept as ``{id: Interest}``; every lookup scans or sorts anew."""

    def __init__(self, interests: Iterable[Interest]) -> None:
        self.interests: dict[int, Interest] = {}
        for interest in interests:
            if interest.interest_id in self.interests:
                raise CatalogError(f"duplicate interest id: {interest.interest_id}")
            self.interests[interest.interest_id] = interest

    def __iter__(self):
        return iter([self.interests[i] for i in sorted(self.interests)])

    def __contains__(self, key: object) -> bool:
        is_int = isinstance(key, (int, np.integer)) and not isinstance(key, bool)
        return is_int and int(key) in self.interests

    def get(self, interest_id: object) -> Interest:
        if interest_id not in self:
            raise UnknownInterestError(interest_id)
        return self.interests[int(interest_id)]

    def rarest(self, n: int) -> tuple[Interest, ...]:
        ordered = sorted(self, key=lambda i: (i.audience_size, i.interest_id))
        return tuple(ordered[:n])

    def most_popular(self, n: int) -> tuple[Interest, ...]:
        return tuple(reversed(self.rarest(len(self.interests))))[:n]

    def by_topic(self, topic: str) -> tuple[Interest, ...]:
        return tuple(interest for interest in self if interest.topic == topic)

    def topics(self) -> tuple[str, ...]:
        present = {interest.topic for interest in self}
        return tuple(topic for topic in TOPICS if topic in present)

    def positions(self, ids: Sequence[int]) -> list[int]:
        ordered = sorted(self.interests)
        return [ordered.index(int(i)) for i in ids]

    def audience_sizes(self, ids: Sequence[int]) -> list[int]:
        return [self.get(int(i)).audience_size for i in ids]

    def to_dicts(self) -> list[dict]:
        return [interest.to_dict() for interest in self]

    def assigner_topic_tables(self) -> tuple[tuple[str, ...], list, list]:
        """``(topics, ids, audiences)`` per taxonomy topic, each in id order."""
        topics = self.topics()
        ids = [[i.interest_id for i in self.by_topic(t)] for t in topics]
        audiences = [[float(i.audience_size) for i in self.by_topic(t)] for t in topics]
        return topics, ids, audiences

    def same_topic(self) -> np.ndarray:
        """``[a, b]`` is True when the a-th and b-th interests share a topic."""
        topics = np.array([interest.topic for interest in self], dtype=object)
        return topics[:, None] == topics[None, :]


def generate_dict_catalog(config: CatalogConfig, seed: int) -> DictCatalog:
    """One ``Interest`` per sampled audience, topic and name per index."""
    popularity = PopularityModel.from_config(config, DEFAULT_WORLD_POPULATION)
    audiences = popularity.sample(config.n_interests, derive_generator(seed, "catalog"))
    interests = []
    for index, audience in enumerate(audiences):
        topic = topic_for_index(index, config.n_topics)
        interests.append(Interest(index, interest_name(index, topic), topic, int(audience)))
    return DictCatalog(interests)
