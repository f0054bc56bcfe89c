"""The synthetic interest catalog.

The catalog plays the role of Facebook's global interest inventory: the set
of ~99k unique interests observed across the FDVT panel, each with a
worldwide audience size.  Every other subsystem (reach model, population
builder, FDVT panel, uniqueness analysis) draws interests from a single
shared catalog so their views of interest popularity are mutually
consistent.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator
from ..config import CatalogConfig
from ..errors import CatalogError, UnknownInterestError
from .interest import Interest
from .popularity import PopularityModel
from .taxonomy import TOPICS, interest_name

#: The paper's Appendix A user base: ~1.5B users over the 50 largest
#: Facebook countries.  The catalog generation default, the worker-rebuild
#: spec default (repro.reach.ReachModelSpec) and the catalog-stage cache
#: fingerprint (repro.pipeline.catalog_fingerprint) must all agree on this
#: value, so they all reference this constant.
DEFAULT_WORLD_POPULATION = 1_500_000_000.0

#: Id spans up to this many times the catalog size get a dense id -> position
#: table; every generated catalog (ids ``0..n-1``) qualifies.
_DENSE_SPAN_FACTOR = 4


class CatalogColumns(NamedTuple):
    """The arrays a catalog is stored as, in ascending id order.

    ``topic_codes`` index the ``topics`` table; ``names`` is ``None`` (or
    empty) when names derive from :func:`~repro.catalog.taxonomy.interest_name`,
    as in generated catalogs.
    """

    ids: np.ndarray
    audiences: np.ndarray
    topic_codes: np.ndarray
    topics: tuple[str, ...]
    names: tuple[str, ...] | None = None


class InterestCatalog:
    """An immutable, columnar collection of interests.

    Stored as the arrays its consumers read (:class:`CatalogColumns`);
    :class:`Interest` objects are built only where one is returned
    (:meth:`get`, iteration, :meth:`rarest`, :meth:`most_popular`,
    :meth:`by_topic`, :meth:`to_dicts`).  The audience order and the id
    index are memoised on first use, sound because the catalog never
    changes; stored arrays are read-only, array accessors return copies.
    """

    def __init__(self, columns: CatalogColumns) -> None:
        """Adopt read-only ``int64`` copies of ``columns``.

        Raises :class:`CatalogError` unless the columns are non-empty and
        equally long, the ids unique, ascending and non-negative, the
        audiences non-negative and every code inside a table of distinct
        topics.
        """
        arrays = [np.asarray(column) for column in columns[:3]]
        if not all(a.ndim == 1 and a.dtype.kind in "iu" for a in arrays):
            raise CatalogError("catalog columns must be 1-D integer arrays")
        ids, audiences, codes = arrays = [array.astype(np.int64) for array in arrays]
        topics, names = columns.topics, tuple(columns.names or ()) or None
        if not 0 < len(names or ids) == ids.size == audiences.size == codes.size:
            raise CatalogError("catalog columns must be non-empty and equally long")
        if ids[0] < 0 or (np.diff(ids) <= 0).any():
            raise CatalogError("interest ids must be unique, ascending, non-negative")
        if audiences.min() < 0:
            raise CatalogError("audience_size must be non-negative")
        if not isinstance(topics, (tuple, list)) or len(set(topics)) < len(topics):
            raise CatalogError("the topic table must be a sequence of distinct topics")
        if codes.min() < 0 or codes.max() >= len(topics):
            raise CatalogError("topic codes must index the topic table")
        for array in arrays:
            array.flags.writeable = False
        self._columns = CatalogColumns(ids, audiences, codes, tuple(topics), names)
        self._ids, self._audiences = ids, audiences
        self._ranks: tuple[np.ndarray, np.ndarray] | None = None
        self._id_index: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_interests(interests: Iterable[Interest]) -> "InterestCatalog":
        """Build a catalog from records; their names are kept as given."""
        records = sorted(interests, key=lambda interest: interest.interest_id)
        topics: dict[str, int] = {}
        codes = [topics.setdefault(record.topic, len(topics)) for record in records]
        return InterestCatalog(
            CatalogColumns(
                np.array([record.interest_id for record in records], dtype=np.int64),
                np.array([record.audience_size for record in records], dtype=np.int64),
                np.array(codes, dtype=np.int64),
                tuple(topics),
                tuple(record.name for record in records),
            )
        )

    @staticmethod
    def generate(
        config: CatalogConfig | None = None,
        *,
        world_population: float = DEFAULT_WORLD_POPULATION,
        seed: SeedLike = None,
    ) -> "InterestCatalog":
        """Generate a synthetic catalog according to ``config``.

        Interest ``i`` gets id ``i``, the ``i``-th sampled audience and
        topic ``i % n_topics``, round-robin over the first ``n_topics``
        taxonomy topics.  ``world_population`` caps the largest audiences;
        by default it matches the 1.5B-user base of the paper's Appendix A
        country set.
        """
        config = config or CatalogConfig()
        base_seed = config.seed if seed is None else seed
        rng = (
            base_seed
            if isinstance(base_seed, np.random.Generator)
            else derive_generator(int(base_seed), "catalog")
        )
        popularity = PopularityModel.from_config(config, world_population)
        ids = np.arange(config.n_interests, dtype=np.int64)
        return InterestCatalog(
            CatalogColumns(
                ids,
                popularity.sample(config.n_interests, rng),
                ids % config.n_topics,
                TOPICS[: config.n_topics],
            )
        )

    def to_columns(self) -> CatalogColumns:
        """The catalog's own read-only arrays (see :class:`CatalogColumns`)."""
        return self._columns

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Interest]:
        """Every interest in id order, each built on demand."""
        return iter(self._interests_at(np.arange(len(self._ids))))

    def __contains__(self, interest_id: object) -> bool:
        try:
            self._position(interest_id)
        except UnknownInterestError:
            return False
        return True

    def _position(self, interest_id: object) -> int:
        """Position of an integer id; :class:`UnknownInterestError` otherwise."""
        if isinstance(interest_id, (int, np.integer)) and type(interest_id) is not bool:
            try:
                return int(self.positions(interest_id))
            except OverflowError:  # beyond int64: never a catalog id
                pass
        raise UnknownInterestError(interest_id)

    def _interests_at(self, positions: Sequence[int]) -> tuple[Interest, ...]:
        """The interests at ``positions``, built on demand."""
        ids, audiences, codes, topics, names = self._columns
        at = np.asarray(positions, dtype=np.intp)
        rows = zip(at.tolist(), ids[at].tolist(), codes[at].tolist(), audiences[at].tolist())
        return tuple(
            Interest(i, names[p] if names else interest_name(i, topics[c]), topics[c], a)
            for p, i, c, a in rows
        )

    def get(self, interest_id: int) -> Interest:
        """Build the interest with ``interest_id``; unknown and non-int ids raise."""
        return self._interests_at([self._position(interest_id)])[0]

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
        return int(self._audiences[self._position(interest_id)])

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

    def topics(self) -> tuple[str, ...]:
        """Taxonomy topics holding at least one interest, in taxonomy order."""
        _, _, codes, table, _ = self._columns
        present = {table[code] for code in np.unique(codes).tolist()}
        return tuple(topic for topic in TOPICS if topic in present)

    def by_topic(self, topic: str) -> tuple[Interest, ...]:
        """All interests belonging to ``topic``, in id order (none for other labels)."""
        _, _, codes, table, _ = self._columns
        if topic not in table:
            return ()
        return self._interests_at(np.flatnonzero(codes == table.index(topic)))

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

    def rarest(self, n: int) -> tuple[Interest, ...]:
        """The ``n`` interests with the smallest audiences."""
        if n < 0:
            raise CatalogError("n must be non-negative")
        return self._interests_at(self.positions(self.audience_ranks()[1][:n]))

    def most_popular(self, n: int) -> tuple[Interest, ...]:
        """The ``n`` interests with the largest audiences.

        The exact reverse of the :meth:`rarest` order, so tied audiences
        come out highest id first.
        """
        if n < 0:
            raise CatalogError("n must be non-negative")
        ids = self.audience_ranks()[1]
        return self._interests_at(self.positions(ids[len(ids) - min(n, len(ids)) :][::-1]))

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
        return InterestCatalog.from_interests(map(Interest.from_dict, records))
