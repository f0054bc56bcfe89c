"""Interest-selection strategies (Section 4.2).

The number of interests that make a user unique depends heavily on *which*
of their interests are combined.  The paper studies two strategies:

* **Least popular (LP)** — the attacker knows the user's full interest list
  and picks the rarest ones first; this yields the theoretical lower bound
  on uniqueness.
* **Random (R)** — the attacker knows a random subset of the user's
  interests, the realistic attack scenario used in the nanotargeting
  experiment.

Both strategies give each user a single *ordered* list whose length-``N``
prefixes are the combinations evaluated for each ``N``; this mirrors the
paper's construction, where interests are added one by one ("we keep adding
the following least popular interests sequentially one by one").

A strategy has one method, ``order_interests_matrix_columns``: it resolves
the ordered ids of a row range of a
:class:`~repro.population.columnar.PanelColumns` CSR store into one padded
``(n_rows, width)`` id matrix, straight off the CSR arrays.  The
least-popular strategy orders every row in one global sort of
``row * n_catalog + rank`` keys, where the rank is the interest's place in
the catalog's ascending ``(audience, id)`` order; the random strategy
shuffles each CSR row slice with a stream derived from the strategy seed
and the user id.
Every row depends only on its own user, so any ``[start, stop)`` shard of a
store orders exactly like the same rows of the whole store.  The per-user
reference orderings these are pinned against live with the test suite.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator, stable_hash
from ..catalog import InterestCatalog
from ..errors import ModelError
from ..population.columnar import PanelColumns


@runtime_checkable
class SelectionStrategy(Protocol):
    """Orders a user's interests for incremental combination."""

    #: Short name used in reports ("least_popular" or "random").
    name: str

    def order_interests_matrix_columns(
        self,
        columns: PanelColumns,
        catalog: InterestCatalog,
        max_interests: int,
        start: int = 0,
        stop: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ordered interest ids of CSR rows ``[start, stop)``.

        Returns ``(id_matrix, counts)``: a ``(n_rows, width)`` int64 matrix
        (``width = max(counts)``, capped at ``max_interests``) whose row
        ``u`` holds the first ``counts[u]`` ids of row ``start + u`` in
        combination order, padded with ``-1``.
        """
        ...  # pragma: no cover - protocol definition


class LeastPopularSelection:
    """Selects the user's rarest interests first."""

    name = "least_popular"

    def order_interests_matrix_columns(
        self,
        columns: PanelColumns,
        catalog: InterestCatalog,
        max_interests: int,
        start: int = 0,
        stop: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's rarest interests, ascending by ``(audience, id)``.

        The flat id fragment and per-row lengths come straight off the CSR
        arrays — no user objects.  Every id is resolved to its catalog
        position with :meth:`~repro.catalog.InterestCatalog.positions`; its
        :meth:`~repro.catalog.InterestCatalog.audience_ranks` already encode
        the ``(audience, id)`` order, so one in-place sort of the keys
        ``row * n_catalog + rank`` orders every row at once, and
        ``key % n_catalog`` decodes back to ids.  An id missing from the
        catalog raises :class:`~repro.errors.UnknownInterestError`.
        """
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        stop = len(columns) if stop is None else stop
        flat_ids = columns.interest_ids[
            columns.indptr[start] : columns.indptr[stop]
        ].astype(np.int64)
        full_counts = np.diff(columns.indptr[start : stop + 1])
        positions = catalog.positions(flat_ids)
        ranks, ids_by_rank = catalog.audience_ranks()
        n_catalog = len(ranks)
        keys = np.repeat(
            np.arange(len(full_counts), dtype=np.int64) * n_catalog, full_counts
        )
        keys += ranks[positions]
        keys.sort()
        keys %= n_catalog
        counts = np.minimum(full_counts, max_interests)
        return _pack_ordered_rows(ids_by_rank[keys], full_counts, counts)


class RandomSelection:
    """Selects a random subset of the user's interests.

    Each user gets an independent, deterministic shuffle derived from the
    strategy seed and the user id, so that repeated runs reproduce the same
    combinations (and so that bootstrapping over users stays meaningful).
    """

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        rng = as_generator(seed)
        self._base_seed = int(rng.integers(0, 2**62))

    @property
    def seed(self) -> int:
        """The base seed every per-user shuffle stream derives from."""
        return self._base_seed

    def order_interests_matrix_columns(
        self,
        columns: PanelColumns,
        catalog: InterestCatalog,
        max_interests: int,
        start: int = 0,
        stop: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row shuffles over rows ``[start, stop)`` of a CSR store.

        Each row's slice is copied to int64 and shuffled with the stream
        derived from :attr:`seed` and its user id, then truncated to
        ``max_interests``; the draw sequence depends only on the row length.
        """
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        stop = len(columns) if stop is None else stop
        full_counts = np.diff(columns.indptr[start : stop + 1])
        counts = np.minimum(full_counts, max_interests)
        flat_parts: list[np.ndarray] = []
        for row in range(start, stop):
            rng = derive_generator(
                self._base_seed, "random-selection", int(columns.user_ids[row])
            )
            interests = columns.interest_row(row).astype(np.int64)
            rng.shuffle(interests)
            flat_parts.append(interests)
        flat_sorted = (
            np.concatenate(flat_parts) if flat_parts else np.zeros(0, dtype=np.int64)
        )
        return _pack_ordered_rows(flat_sorted, full_counts, counts)


def _pack_ordered_rows(
    flat_sorted: np.ndarray, full_counts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the first ``counts[u]`` entries of each user's sorted segment.

    ``flat_sorted`` concatenates every user's fully ordered interest ids
    (segment ``u`` has length ``full_counts[u]``); the result is the padded
    ``(n_users, width)`` matrix of the leading ``counts[u]`` ids per row,
    padded with ``-1``.
    """
    n_users = len(full_counts)
    width = int(counts.max()) if n_users else 0
    matrix = np.full((n_users, width), -1, dtype=np.int64)
    if width:
        starts = np.concatenate(([0], np.cumsum(full_counts[:-1])))
        columns = np.arange(width)[None, :]
        valid = columns < counts[:, None]
        matrix[valid] = flat_sorted[(starts[:, None] + columns)[valid]]
    return matrix, counts


def pad_id_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged ordered id rows into the padded bulk-kernel layout.

    Returns ``(id_matrix, counts)`` in the convention every bulk kernel
    consumes (``-1`` padding, ``width = max(counts)``; see
    :meth:`SelectionStrategy.order_interests_matrix_columns`).  This is the
    entry point for callers whose rows are already ordered — the
    countermeasure workload evaluation and the nanotargeting planner — so
    the padding convention lives in one place.
    """
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    flat = np.fromiter(
        (int(i) for row in rows for i in row),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    return _pack_ordered_rows(flat, counts, counts)


def nested_subsets(
    ordered_interests: Sequence[int], sizes: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """Build the nested interest sets used by the nanotargeting experiment.

    The paper builds its 22-interest campaign from a random selection and
    derives the 20-, 18-, 12-, 9-, 7- and 5-interest campaigns by removing
    interests from the previous set; equivalently, every campaign uses a
    prefix of one ordered list.  Sizes larger than the available list raise.
    """
    ordered = tuple(int(i) for i in ordered_interests)
    if len(set(ordered)) != len(ordered):
        raise ModelError("ordered_interests must not contain duplicates")
    subsets: dict[int, tuple[int, ...]] = {}
    for size in sizes:
        if size < 1:
            raise ModelError("subset sizes must be positive")
        if size > len(ordered):
            raise ModelError(
                f"cannot build a subset of {size} interests from only {len(ordered)}"
            )
        subsets[int(size)] = ordered[:size]
    return subsets


def strategy_fingerprint(strategy: SelectionStrategy) -> int:
    """A stable fingerprint used to cache collections per strategy.

    Covers the strategy's type, name and — for seeded strategies — its
    :attr:`~RandomSelection.seed`, so two random selections with different
    seeds never share a cache entry.
    """
    return stable_hash(
        type(strategy).__name__,
        getattr(strategy, "name", ""),
        getattr(strategy, "seed", None),
    )
