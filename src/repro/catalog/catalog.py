"""The synthetic interest catalog.

The catalog plays the role of Facebook's global interest inventory: the set
of ~99k unique interests observed across the FDVT panel, each with a
worldwide audience size.  Every other subsystem (reach model, population
builder, FDVT panel, uniqueness analysis) draws interests from a single
shared catalog so their views of interest popularity are mutually
consistent.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator
from ..config import CatalogConfig
from ..errors import CatalogError, UnknownInterestError
from .interest import Interest
from .popularity import PopularityModel
from .taxonomy import TOPICS, interest_name, topic_for_index

#: The paper's Appendix A user base: ~1.5B users over the 50 largest
#: Facebook countries.  The catalog generation default, the worker-rebuild
#: spec default (repro.reach.ReachModelSpec) and the catalog-stage cache
#: fingerprint (repro.pipeline.catalog_fingerprint) must all agree on this
#: value, so they all reference this constant.
DEFAULT_WORLD_POPULATION = 1_500_000_000.0

#: Id spans up to this many times the catalog size get a dense id -> position
#: table; every generated catalog (ids ``0..n-1``) qualifies.
_DENSE_SPAN_FACTOR = 4


class InterestCatalog:
    """An immutable collection of :class:`Interest` objects.

    Popularity lookups (:meth:`rarest`, :meth:`most_popular`), topic
    lookups (:meth:`by_topic`, :meth:`topics`) and id lookups
    (:meth:`positions`) are served from an audience ordering, a topic index
    and an id index, each built once on first use.  Memoising
    them is sound only because the catalog never changes after
    construction; array accessors hand out copies so callers cannot
    corrupt them.
    """

    def __init__(self, interests: Iterable[Interest]) -> None:
        self._interests: dict[int, Interest] = {}
        for interest in interests:
            if interest.interest_id in self._interests:
                raise CatalogError(
                    f"duplicate interest id: {interest.interest_id}"
                )
            self._interests[interest.interest_id] = interest
        if not self._interests:
            raise CatalogError("a catalog must contain at least one interest")
        self._ids = np.array(sorted(self._interests), dtype=np.int64)
        self._audiences = np.array(
            [self._interests[i].audience_size for i in self._ids], dtype=np.int64
        )
        self._ranks: tuple[np.ndarray, np.ndarray] | None = None
        self._id_index: np.ndarray | None = None
        self._by_audience: tuple[Interest, ...] | None = None
        self._by_topic: dict[str, tuple[Interest, ...]] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def generate(
        config: CatalogConfig | None = None,
        *,
        world_population: float = DEFAULT_WORLD_POPULATION,
        seed: SeedLike = None,
    ) -> "InterestCatalog":
        """Generate a synthetic catalog according to ``config``.

        ``world_population`` caps the largest audiences; by default it
        matches the 1.5B-user base of the paper's Appendix A country set.
        """
        config = config or CatalogConfig()
        base_seed = config.seed if seed is None else seed
        rng = (
            base_seed
            if isinstance(base_seed, np.random.Generator)
            else derive_generator(int(base_seed), "catalog")
        )
        popularity = PopularityModel.from_config(config, world_population)
        audiences = popularity.sample(config.n_interests, rng)
        interests = []
        for index, audience in enumerate(audiences):
            topic = topic_for_index(index, config.n_topics)
            interests.append(
                Interest(
                    interest_id=index,
                    name=interest_name(index, topic),
                    topic=topic,
                    audience_size=int(audience),
                )
            )
        return InterestCatalog(interests)

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return len(self._interests)

    def __iter__(self) -> Iterator[Interest]:
        for interest_id in self._ids:
            yield self._interests[int(interest_id)]

    def __contains__(self, interest_id: object) -> bool:
        return interest_id in self._interests

    def get(self, interest_id: int) -> Interest:
        """Return the interest with ``interest_id`` or raise."""
        try:
            return self._interests[interest_id]
        except KeyError:
            raise UnknownInterestError(interest_id) from None

    @property
    def interest_ids(self) -> np.ndarray:
        """Sorted array of all interest ids."""
        return self._ids.copy()

    def positions(self, interest_ids: np.ndarray | Sequence[int]) -> np.ndarray:
        """Index of each id in :attr:`interest_ids`, in the shape of the input.

        Ids spanning at most ``_DENSE_SPAN_FACTOR`` times the catalog size
        are looked up in a dense id -> position table (built once); wider
        spans fall back to a ``searchsorted``.  Raises
        :class:`UnknownInterestError` naming the first unknown id in C order.
        """
        ids = np.asarray(interest_ids, dtype=np.int64)
        if self._id_index is None:
            # An empty table selects the searchsorted fallback.
            span = int(self._ids[-1] - self._ids[0]) + 1
            index = np.empty(0, dtype=np.int64)
            if span <= _DENSE_SPAN_FACTOR * len(self._ids):
                # Holes point at position 0, which the check below rejects.
                index = np.zeros(span, dtype=np.int64)
                index[self._ids - self._ids[0]] = np.arange(len(self._ids))
            self._id_index = index
        if self._id_index.size:
            found = self._id_index.take(ids - self._ids[0], mode="clip")
        else:
            found = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        mismatched = self._ids.take(found) != ids
        if mismatched.any():
            raise UnknownInterestError(int(ids.reshape(-1)[np.argmax(mismatched)]))
        return found

    # -- audience lookups ---------------------------------------------------

    def audience_size(self, interest_id: int) -> int:
        """Worldwide audience size of a single interest."""
        return self.get(interest_id).audience_size

    def audience_sizes(self, interest_ids: Sequence[int]) -> np.ndarray:
        """Vector of audience sizes for a sequence of interest ids.

        Raises :class:`UnknownInterestError` naming the first unknown id.
        """
        return self._audiences[self.positions(interest_ids)]

    def all_audience_sizes(self) -> np.ndarray:
        """Audience sizes of every interest in id order."""
        return self._audiences.copy()

    def audience_percentiles(self, percentiles: Sequence[float]) -> np.ndarray:
        """Percentiles of the audience-size distribution (Figure 2)."""
        return np.percentile(self._audiences, list(percentiles))

    # -- topic and sampling helpers -----------------------------------------

    def _topic_index(self) -> dict[str, tuple[Interest, ...]]:
        """Topic -> interests in id order (built in one pass, memoised)."""
        if self._by_topic is None:
            groups: dict[str, list[Interest]] = {}
            for interest in self:
                groups.setdefault(interest.topic, []).append(interest)
            self._by_topic = {topic: tuple(group) for topic, group in groups.items()}
        return self._by_topic

    def topics(self) -> tuple[str, ...]:
        """Topics present in the catalog, in taxonomy order."""
        present = self._topic_index()
        return tuple(topic for topic in TOPICS if topic in present)

    def by_topic(self, topic: str) -> tuple[Interest, ...]:
        """All interests belonging to ``topic``, in id order."""
        return self._topic_index().get(topic, ())

    def audience_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ranks, ids_by_rank)`` of the ascending-audience order (memoised).

        The order sorts by audience with ties in id order.  ``ranks[p]`` is
        the rank of the interest at id position ``p`` (its index in
        :attr:`interest_ids`) and ``ids_by_rank[r]`` the id holding rank
        ``r``.  Both arrays are read-only.
        """
        if self._ranks is None:
            order = np.argsort(self._audiences, kind="stable")
            ranks = np.empty_like(order)
            ranks[order] = np.arange(order.size)
            ids_by_rank = self._ids[order]
            ranks.flags.writeable = False
            ids_by_rank.flags.writeable = False
            self._ranks = (ranks, ids_by_rank)
        return self._ranks

    def _audience_order(self) -> tuple[Interest, ...]:
        """Interests by ascending audience, ties in id order (memoised)."""
        if self._by_audience is None:
            self._by_audience = tuple(
                self._interests[int(i)] for i in self.audience_ranks()[1]
            )
        return self._by_audience

    def rarest(self, n: int) -> tuple[Interest, ...]:
        """The ``n`` interests with the smallest audiences."""
        if n < 0:
            raise CatalogError("n must be non-negative")
        return self._audience_order()[:n]

    def most_popular(self, n: int) -> tuple[Interest, ...]:
        """The ``n`` interests with the largest audiences.

        The exact reverse of the :meth:`rarest` order, so tied audiences
        come out highest id first.
        """
        if n < 0:
            raise CatalogError("n must be non-negative")
        ordered = self._audience_order()
        return ordered[len(ordered) - min(n, len(ordered)) :][::-1]

    def sample_ids(
        self,
        n: int,
        seed: SeedLike = None,
        *,
        weights: np.ndarray | None = None,
        replace: bool = False,
    ) -> np.ndarray:
        """Sample ``n`` interest ids, optionally weighted."""
        if n < 0:
            raise CatalogError("n must be non-negative")
        if not replace and n > len(self):
            raise CatalogError("cannot sample more interests than the catalog holds")
        rng = as_generator(seed)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != self._ids.shape:
                raise CatalogError("weights must have one entry per interest")
            total = weights.sum()
            if total <= 0:
                raise CatalogError("weights must sum to a positive value")
            weights = weights / total
        return rng.choice(self._ids, size=n, replace=replace, p=weights)

    # -- serialisation -------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Serialise the whole catalog to a list of dictionaries."""
        return [interest.to_dict() for interest in self]

    @staticmethod
    def from_dicts(records: Iterable[dict]) -> "InterestCatalog":
        """Rebuild a catalog from :meth:`to_dicts` output."""
        return InterestCatalog(Interest.from_dict(record) for record in records)
