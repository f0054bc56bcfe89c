"""Audience-size sample matrices and the AS(Q, N) / VAS(Q) machinery.

Section 4.1 of the paper defines, for every number of interests ``N`` in
1..25, a vector of audience sizes (one sample per panel user), the quantile
``AS(Q, N)`` of each vector, and the quantile-vs-N vector

    VAS(Q) = [AS(Q, 1), AS(Q, 2), ..., AS(Q, 25)].

:class:`AudienceSamples` stores the underlying samples as a users x N matrix
(``NaN`` where a user has fewer than ``N`` interests) so that quantiles,
bootstrap resampling and per-group subsetting are all cheap array
operations.

For streamed collection (``AudienceSizeCollector.collect_stream``) the
mergeable :class:`AudienceAccumulator` absorbs per-shard sample blocks as
they arrive — ``update(block)`` per block, ``merge(other)`` across
accumulators, ``finalize()`` once — and produces a
:class:`StreamedAudienceSamples`: a column store (per-N compact vectors of
the valid samples plus per-user prefix lengths) that supports the same
quantile interface *bit-identically* to the dense matrix, while the full
users x N sample matrix is never materialised.  The bootstrap reads either
store through its cached :class:`RankTable` (both build identical ones):
:meth:`RankTable.resample_vas` sorts small-integer rank lanes in place of
float64 samples, column by column, and stops each replicate's quantile row
where the log-log fit stops reading it — bit-identical cutpoints throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._rng import SeedLike, as_generator
from ..errors import InsufficientDataError, ModelError
from .fitting import at_floor


@dataclass(frozen=True)
class AudienceSamples:
    """Audience-size samples for combinations of 1..max_interests interests."""

    matrix: np.ndarray
    floor: int
    user_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ModelError("the sample matrix must be 2-dimensional (users x N)")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ModelError("the sample matrix must not be empty")
        if self.floor < 1:
            raise ModelError("floor must be at least 1")
        if self.user_ids and len(self.user_ids) != matrix.shape[0]:
            raise ModelError("user_ids must have one entry per matrix row")
        object.__setattr__(self, "matrix", matrix)

    # -- basic views -------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of panel users contributing samples."""
        return int(self.matrix.shape[0])

    @property
    def max_interests(self) -> int:
        """Largest number of combined interests (the matrix width)."""
        return int(self.matrix.shape[1])

    def samples_for(self, n_interests: int) -> np.ndarray:
        """The audience-size vector for ``n_interests`` (NaN rows dropped)."""
        column = self._column(n_interests)
        return column[~np.isnan(column)]

    def sample_count(self, n_interests: int) -> int:
        """Number of users contributing a sample for ``n_interests``."""
        return int(self.samples_for(n_interests).size)

    # -- quantiles --------------------------------------------------------------------

    def audience_quantile(self, q_percent: float, n_interests: int) -> float:
        """``AS(Q, N)``: the Q-th percentile of the audience size for N interests."""
        samples = self.samples_for(n_interests)
        if samples.size == 0:
            raise InsufficientDataError(
                f"no samples available for N={n_interests}"
            )
        return float(np.percentile(samples, self._validate_q(q_percent)))

    def vas(self, q_percent: float) -> np.ndarray:
        """``VAS(Q)``: the quantile vector across N = 1..max_interests."""
        return self.vas_many([q_percent])[0]

    def vas_many(self, q_percents: Sequence[float]) -> np.ndarray:
        """Quantile vectors for several Q values at once (rows follow input order)."""
        qs = [self._validate_q(q) for q in q_percents]
        with np.errstate(all="ignore"):
            result = np.nanpercentile(self.matrix, qs, axis=0)
        return np.atleast_2d(result)

    # -- resampling --------------------------------------------------------------------

    def bootstrap_resample(self, seed: SeedLike = None) -> "AudienceSamples":
        """Resample users with replacement (one bootstrap replicate)."""
        rng = as_generator(seed)
        indices = rng.integers(0, self.n_users, size=self.n_users)
        ids = tuple(self.user_ids[i] for i in indices) if self.user_ids else ()
        return AudienceSamples(self.matrix[indices], self.floor, ids)

    def subset_rows(self, row_indices: Sequence[int]) -> "AudienceSamples":
        """Build a sample matrix restricted to a subset of users."""
        indices = np.asarray(list(row_indices), dtype=int)
        if indices.size == 0:
            raise InsufficientDataError("cannot build an empty subset")
        ids = tuple(self.user_ids[i] for i in indices) if self.user_ids else ()
        return AudienceSamples(self.matrix[indices], self.floor, ids)

    def rank_table(self) -> "RankTable":
        """The bootstrap's :class:`RankTable` of this matrix (built once, cached)."""
        cached = self.__dict__.get("_rank_table")
        if cached is None:
            member = ~np.isnan(self.matrix.T)
            cached = RankTable.from_columns(
                [column[valid] for column, valid in zip(self.matrix.T, member)], member
            )
            object.__setattr__(self, "_rank_table", cached)
        return cached

    # -- internals -----------------------------------------------------------------------

    def _column(self, n_interests: int) -> np.ndarray:
        if not 1 <= n_interests <= self.max_interests:
            raise ModelError(
                f"n_interests must lie in [1, {self.max_interests}], got {n_interests}"
            )
        return self.matrix[:, n_interests - 1]

    @staticmethod
    def _validate_q(q_percent: float) -> float:
        if not 0.0 < q_percent < 100.0:
            raise ModelError("quantiles must be expressed in percent, within (0, 100)")
        return float(q_percent)


@dataclass(frozen=True)
class RankTable:
    """Rank-coded samples: the bootstrap's lane-major lookup for one store.

    ``ranks[k, u]`` is the *min-rank* of user ``u``'s sample among column
    ``k``'s sorted valid samples (tied values, such as the floor, share one),
    or the sentinel ``n_users`` — which sorts last — for a missing cell;
    ``int16`` below 2**15 - 1 users, else ``int32``.  ``values[offsets[k] +
    rank]`` decodes a rank (the sorted columns concatenated, plus a ``NaN``).
    ``patterns[k, p]`` says whether membership pattern ``p`` (a prefix
    length, for collected samples) covers column ``k``; ``user_pattern``
    maps users to patterns, so lane counts are a histogram of pattern ids.
    Rows of ``ranks`` are C-contiguous, so gathering one column's lanes for
    a block of replicates is one ``take`` from a row the size of the panel.
    """

    ranks: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    patterns: np.ndarray
    user_pattern: np.ndarray

    @classmethod
    def from_columns(
        cls, columns: Sequence[np.ndarray], member: np.ndarray
    ) -> "RankTable":
        """Build the table from an ``(N, users)`` membership mask and its columns.

        ``columns[k]`` holds, in row order, the samples of the users whose
        ``member[k]`` is set.
        """
        width, n_users = member.shape
        dtype = np.int16 if n_users < np.iinfo(np.int16).max else np.int32
        ranks = np.full((width, n_users), n_users, dtype=dtype)
        ordered = [np.sort(column) for column in columns]
        for k, (column, sorted_column) in enumerate(zip(columns, ordered)):
            ranks[k, member[k]] = np.searchsorted(sorted_column, column, side="left")
        sizes = np.array([column.size for column in ordered], dtype=np.int64)
        patterns, user_pattern = np.unique(member.T, axis=0, return_inverse=True)
        return cls(
            ranks=ranks,
            values=np.concatenate([*ordered, [np.nan]]),
            offsets=np.cumsum(sizes) - sizes,
            patterns=patterns.T.astype(np.int64),
            user_pattern=user_pattern.reshape(-1),
        )

    def resample_vas(
        self, indices: np.ndarray, q_percents: Sequence[float], floor: int
    ) -> np.ndarray:
        """Per-replicate VAS rows of an ``(R, draws)`` index matrix, to each stop.

        Returns ``(len(q_percents), R, N)``.  Row ``(q, r)`` holds
        :func:`numpy.nanpercentile` of each column of ``matrix[indices[r]]``
        bit-for-bit up to and including its first value that is floored
        (:func:`~repro.core.fitting.at_floor`) or ``NaN`` — the *stop*, after
        which :func:`~repro.core.fitting.fit_vas_many` reads nothing — and
        ``NaN`` after it.

        The columns are walked in order, N = 1, 2, ...: each gathers the rank
        lanes of only the replicates with a row not yet stopped, sorts them in
        place and decodes the two order statistics every quantile
        interpolates between, with NumPy's interpolation (the ``gamma >=
        0.5`` branch of its ``_lerp``).  Min-ranks sort as their floats do and
        decode to exactly the float at each sorted position; lane counts come
        from one histogram of the drawn users' membership patterns.
        """
        indices = np.asarray(indices)
        if indices.ndim != 2:
            raise ModelError("resample_vas expects a 2-D (R, draws) index matrix")
        indices = indices.astype(np.intp, copy=False)  # converted once, not per take
        quantiles = np.asarray([float(q) for q in q_percents], dtype=float) / 100.0
        quantiles = quantiles[:, None]
        replicates = indices.shape[0]
        width, n_patterns = self.patterns.shape
        keys = self.user_pattern.take(indices)
        keys += n_patterns * np.arange(replicates)[:, None]  # an id range per replicate
        histogram = np.bincount(keys.reshape(-1), minlength=replicates * n_patterns)
        del keys  # an (R, draws) int64 block: free it before the column walk
        counts = self.patterns @ histogram.reshape(replicates, n_patterns).T  # (N, R)
        results = np.full((quantiles.size, replicates, width), np.nan)
        live = np.ones((quantiles.size, replicates), dtype=bool)
        for k in range(width):
            rows = np.flatnonzero(live.any(axis=0))
            if rows.size == 0:
                break
            drawn = indices if rows.size == replicates else indices[rows]
            lanes = self.ranks[k].take(drawn)
            lanes.sort(axis=-1)  # in place; the missing-cell sentinel sorts last
            lane_index = np.arange(rows.size)
            top = counts[k, rows] - 1  # position of the largest valid entry

            def decode(positions: np.ndarray) -> np.ndarray:
                # Only an all-missing lane reads its sentinel: clipped, then masked.
                ranks = lanes[lane_index, np.maximum(positions, 0)]
                return self.values.take(self.offsets[k] + ranks, mode="clip")

            virtual = quantiles * top
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
            values = np.where((top >= 0) & live[:, rows], interpolated, np.nan)
            results[:, rows, k] = values
            live[:, rows] = ~(np.isnan(values) | at_floor(values, floor))
        return results


@dataclass(frozen=True)
class StreamedAudienceSamples:
    """A column-store view of streamed audience samples.

    Holds, for every interest count ``N``, the compact vector of valid
    samples (users with at least ``N`` interests, in panel-row order) plus
    each user's prefix length — never the dense users x N matrix.  The
    quantile interface (:meth:`vas_many`) and the bootstrap's
    :meth:`rank_table` are bit-identical to their dense
    :class:`AudienceSamples` counterparts: the compact column equals the
    dense column with its ``NaN`` tail removed.
    """

    #: Per-column compact sample vectors, column k holding the samples of
    #: every user with ``row_counts > k`` in row order.
    columns: tuple[np.ndarray, ...]
    #: Number of valid (leading) samples per user row.
    row_counts: np.ndarray
    floor: int
    user_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise ModelError("streamed samples need at least one column")
        if self.floor < 1:
            raise ModelError("floor must be at least 1")
        row_counts = np.asarray(self.row_counts, dtype=np.int64)
        if row_counts.ndim != 1 or row_counts.size == 0:
            raise ModelError("row_counts must be a non-empty 1-D vector")
        if self.user_ids and len(self.user_ids) != row_counts.size:
            raise ModelError("user_ids must have one entry per user row")
        for k, column in enumerate(self.columns):
            if column.shape != (int((row_counts > k).sum()),):
                raise ModelError(
                    "column store is inconsistent with the per-row counts"
                )
        object.__setattr__(self, "row_counts", row_counts)

    @property
    def n_users(self) -> int:
        """Number of panel users contributing samples."""
        return int(self.row_counts.size)

    @property
    def max_interests(self) -> int:
        """Largest number of combined interests (the column count)."""
        return len(self.columns)

    def samples_for(self, n_interests: int) -> np.ndarray:
        """The audience-size vector for ``n_interests`` (valid entries only)."""
        if not 1 <= n_interests <= self.max_interests:
            raise ModelError(
                f"n_interests must lie in [1, {self.max_interests}], got {n_interests}"
            )
        return self.columns[n_interests - 1]

    def vas(self, q_percent: float) -> np.ndarray:
        """``VAS(Q)``: the quantile vector across N = 1..max_interests."""
        return self.vas_many([q_percent])[0]

    def vas_many(self, q_percents: Sequence[float]) -> np.ndarray:
        """Quantile vectors for several Q values, from the column store.

        Bit-identical to :meth:`AudienceSamples.vas_many` on the dense
        matrix: ``nanpercentile`` over a matrix column first drops the
        ``NaN`` tail and then computes the plain percentile of exactly the
        vector each compact column stores.
        """
        qs = [AudienceSamples._validate_q(q) for q in q_percents]
        result = np.full((len(qs), self.max_interests), np.nan)
        for k, column in enumerate(self.columns):
            if column.size:
                result[:, k] = np.percentile(column, qs)
        return result

    def rank_table(self) -> RankTable:
        """The bootstrap's :class:`RankTable`, built once from the column store.

        Bit-identical to the dense matrix's table: the membership mask
        follows from ``row_counts`` and each compact column is exactly the
        dense column with its ``NaN`` tail removed, so the users x N
        matrix is never built.
        """
        cached = self.__dict__.get("_rank_table")
        if cached is None:
            member = np.arange(self.max_interests)[:, None] < self.row_counts[None, :]
            cached = RankTable.from_columns(self.columns, member)
            object.__setattr__(self, "_rank_table", cached)
        return cached

    def to_samples(self) -> AudienceSamples:
        """Materialise the dense :class:`AudienceSamples` (debug/parity aid)."""
        matrix = np.full((self.n_users, self.max_interests), np.nan)
        for k, column in enumerate(self.columns):
            matrix[self.row_counts > k, k] = column
        return AudienceSamples(matrix=matrix, floor=self.floor, user_ids=self.user_ids)


class AudienceAccumulator:
    """Mergeable accumulator of per-shard :class:`AudienceSamples` blocks.

    The streaming counterpart of collecting one dense matrix: feed it the
    blocks of ``AudienceSizeCollector.collect_stream`` (in row order) with
    :meth:`update`, combine independently filled accumulators with
    :meth:`merge`, and :meth:`finalize` into a
    :class:`StreamedAudienceSamples`.  Peak memory is one block plus the
    compact valid samples — the users x N matrix is never materialised.
    Conforms to the :class:`repro.exec.Sink` protocol.
    """

    def __init__(self) -> None:
        self._column_chunks: list[list[np.ndarray]] = []
        self._row_count_chunks: list[np.ndarray] = []
        self._user_id_chunks: list[tuple[int, ...]] = []
        self._all_blocks_carried_ids = True
        self._floor: int | None = None

    @property
    def n_users(self) -> int:
        """User rows absorbed so far."""
        return int(sum(chunk.size for chunk in self._row_count_chunks))

    def update(self, block: AudienceSamples) -> "AudienceAccumulator":
        """Absorb one block of sample rows (rows append in arrival order)."""
        if self._floor is None:
            self._floor = block.floor
        elif self._floor != block.floor:
            raise ModelError("all blocks must share one reporting floor")
        matrix = block.matrix
        valid = ~np.isnan(matrix)
        counts = valid.sum(axis=1)
        # The column store indexes membership by prefix length, which is
        # only sound for the prefix-shaped NaN layout collection produces.
        if not np.array_equal(
            valid, np.arange(matrix.shape[1])[None, :] < counts[:, None]
        ):
            raise ModelError(
                "blocks must have prefix structure (valid samples lead each row)"
            )
        while len(self._column_chunks) < matrix.shape[1]:
            self._column_chunks.append([])
        for k in range(matrix.shape[1]):
            self._column_chunks[k].append(matrix[counts > k, k])
        self._row_count_chunks.append(counts.astype(np.int64))
        if block.user_ids:
            self._user_id_chunks.append(block.user_ids)
        else:
            self._all_blocks_carried_ids = False
        return self

    def merge(self, other: "AudienceAccumulator") -> "AudienceAccumulator":
        """Append another accumulator's rows after this one's (in place)."""
        if other._floor is not None:
            if self._floor is None:
                self._floor = other._floor
            elif self._floor != other._floor:
                raise ModelError("all blocks must share one reporting floor")
        while len(self._column_chunks) < len(other._column_chunks):
            self._column_chunks.append([])
        for k, chunks in enumerate(other._column_chunks):
            self._column_chunks[k].extend(chunks)
        self._row_count_chunks.extend(other._row_count_chunks)
        self._user_id_chunks.extend(other._user_id_chunks)
        self._all_blocks_carried_ids = (
            self._all_blocks_carried_ids and other._all_blocks_carried_ids
        )
        return self

    def finalize(self) -> StreamedAudienceSamples:
        """Seal the accumulator into a :class:`StreamedAudienceSamples`."""
        if self._floor is None or not self._row_count_chunks:
            raise ModelError("cannot finalize an empty accumulator")
        columns = tuple(
            np.concatenate(chunks) if chunks else np.empty(0, dtype=float)
            for chunks in self._column_chunks
        )
        user_ids: tuple[int, ...] = ()
        if self._all_blocks_carried_ids:
            user_ids = tuple(uid for chunk in self._user_id_chunks for uid in chunk)
        return StreamedAudienceSamples(
            columns=columns,
            row_counts=np.concatenate(self._row_count_chunks),
            floor=self._floor,
            user_ids=user_ids,
        )


def probability_to_percentile(probability: float) -> float:
    """Map a uniqueness probability ``P`` to the percentile used for VAS.

    ``N_P`` is derived from the ``P``-quantile of the audience-size
    distribution: an audience size that is below 1 for the ``P``-th
    percentile means that a fraction ``P`` of users would be unique.
    """
    if not 0.0 < probability < 1.0:
        raise ModelError("probability must lie in (0, 1)")
    return probability * 100.0
