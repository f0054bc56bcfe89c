"""Sharded, bit-identical generation of columnar user panels.

The builders (:meth:`~repro.population.builder.PopulationBuilder.build_columns`,
:meth:`~repro.fdvt.panel.PanelBuilder.build_columns`) draw demographics and
interest counts as whole-array operations, then derive one
``derive_generator(base_seed, key, index)`` per user for the interest
assignment.  Because every user's stream is derived independently of its
neighbours, the per-user work is embarrassingly parallel *and*
partition-free: any contiguous shard of rows reproduces exactly the draws
a single pass over all rows makes for those rows.

:class:`InterestShardTask` packages one such shard as a picklable unit of
work for a :class:`~repro.exec.runner.ShardRunner` — the same machinery the
collection paths use.  In-process runners carry the live
:class:`~repro.population.assignment.InterestAssigner`; across a process
boundary the task carries an :class:`AssignerSpec` instead, and workers
rebuild the assigner once per process through the shared
:class:`~repro.cache.BuildCache` (the catalog stage key is the same one the
pipeline and the reach-model spec use, so a worker that already built the
catalog for a cached sweep reuses it here).

Shard results concatenate in shard order into the CSR arrays of
:class:`~repro.population.columnar.PanelColumns`, so every backend, worker
count and shard size yields bit-identical columns.

Stream contract
---------------

Every row owns one ``derive_generator(base_seed, seed_key, row)`` stream,
consumed in exactly this order — the invariant both execution paths
(per-user reference loop, batched kernel) must preserve:

1. **age draw** — panel path only (``age_group_index`` present): one
   ``rng.integers`` draw via :func:`~repro.population.demographics.sample_age`
   for disclosed age groups; *no* draw for UNDISCLOSED rows;
2. **bias jitter** — panel path only (``bias_jitter > 0``): one
   ``rng.normal(0.0, jitter)`` draw, then round to 2 decimals and clip to
   ``[0.1, 0.95]``;
3. **preferred topics** — one
   ``rng.choice(n_topics, size=count, replace=False)`` draw;
4. **assignment** — the :meth:`InterestAssigner.assign
   <repro.population.assignment.InterestAssigner.assign>` attempt loop:
   per attempt one topic draw block (``rng.choice(..., p=...)``, i.e. one
   uniform block against the topic CDF) followed by one
   ``rng.random(batch)`` block for the within-topic draws; on exhaustion,
   one ``rng.shuffle`` of the not-yet-assigned id list.

:func:`run_interest_shard` runs stages 1–3 row by row, parks each row's
live generator, then hands the whole shard to the batched
:meth:`InterestAssigner.assign_rows
<repro.population.assignment.InterestAssigner.assign_rows>` kernel for
stage 4 — the per-row streams never merge (each row's generator advances
exactly as the reference), only the bookkeeping between draws is hoisted
and vectorised.  :func:`run_interest_shard_reference` keeps the original
per-user loop as the executable statement of the contract; the parity
suite pins the two against each other bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._rng import derive_generator
from ..cache import (
    BuildCache,
    SpecMemo,
    build_cache,
    catalog_stage_key,
    stable_fingerprint,
)
from .columnar import AGE_GROUP_TABLE, AGE_UNDISCLOSED
from .demographics import AGE_GROUP_BOUNDS, AgeGroup, sample_age

#: Bounded per-process memo of assigners rebuilt from specs (mirrors
#: ``repro.exec.tasks``'s model memo): long-lived sweep/service workers
#: see many spec variants over their lifetime, so the memo is a small LRU
#: instead of an ever-growing dict.
_SPEC_MEMO = SpecMemo()


def clear_spec_memo() -> None:
    """Drop every memoised assigner rebuild (test isolation hook)."""
    _SPEC_MEMO.clear()


@dataclass(frozen=True)
class AssignerSpec:
    """Everything a worker needs to rebuild an :class:`InterestAssigner`.

    Mirrors :class:`~repro.reach.ReachModelSpec`: a few config dataclasses
    instead of a pickled interest catalog.  ``catalog_config`` is the
    :class:`~repro.config.CatalogConfig` the catalog was generated from and
    ``catalog_seed`` its resolved stage seed.
    """

    catalog_config: Any
    catalog_seed: int | None
    topic_affinity_boost: float = 4.0
    default_popularity_bias: float = 0.5
    world_population: float | None = None

    def fingerprint(self) -> str:
        """Content fingerprint (collides exactly for bit-identical rebuilds)."""
        return stable_fingerprint(
            "spec:assigner",
            {
                "catalog": catalog_stage_key(
                    self.catalog_config, self.catalog_seed, self._catalog_world()
                ),
                "topic_affinity_boost": float(self.topic_affinity_boost),
                "default_popularity_bias": float(self.default_popularity_bias),
            },
        )

    def _catalog_world(self) -> float:
        from ..catalog import DEFAULT_WORLD_POPULATION

        if self.world_population is None:
            return DEFAULT_WORLD_POPULATION
        return self.world_population

    def build(self, cache: BuildCache | None = None) -> Any:
        """Rebuild the assigner on the catalog stage ``cache`` shares."""
        from ..io.artifacts import cached_catalog
        from .assignment import InterestAssigner

        catalog = cached_catalog(
            self.catalog_config, self.catalog_seed, self._catalog_world(), cache
        )
        return InterestAssigner(
            catalog,
            topic_affinity_boost=self.topic_affinity_boost,
            default_popularity_bias=self.default_popularity_bias,
            spec=self,
        )


def resolve_assigner(payload: Any) -> Any:
    """Return a live assigner for ``payload``, rebuilding specs once per process."""
    if isinstance(payload, AssignerSpec):
        return _SPEC_MEMO.get_or_build(
            payload, lambda spec: spec.build(cache=build_cache())
        )
    return payload


def assigner_shard_payload(assigner: Any, runner: Any) -> Any:
    """Pick what a generation shard should carry for ``assigner`` under ``runner``.

    Process runners get the assigner's :class:`AssignerSpec` when it has
    one (cheap to pickle, rebuilt worker-side); otherwise the live object
    is shipped and must pickle on its own.
    """
    if getattr(runner, "requires_pickling", False):
        spec = getattr(assigner, "spec", None)
        if spec is not None:
            return spec
    return assigner


@dataclass(frozen=True)
class InterestShardTask:
    """One contiguous row range of per-user interest assignment.

    Pure compute: re-derives each row's per-user generator from
    ``(base_seed, seed_key, row)``, so re-running a shard (retries, chaos)
    or re-partitioning the plan cannot change any draw.
    """

    #: A live :class:`InterestAssigner`, or an :class:`AssignerSpec`.
    assigner: Any
    #: The builder's resolved base seed.
    base_seed: int
    #: Per-user stream label: ``"user"`` (population) or ``"panel-user"``.
    seed_key: str
    #: Global row range ``[start, stop)`` this shard covers.
    start: int
    stop: int
    #: Requested interests per row — one entry per covered row.
    counts: np.ndarray
    #: Preferred topics drawn per user from its stream.
    topics_per_user: int
    #: Per-row :data:`~repro.population.columnar.AGE_GROUP_TABLE` codes to
    #: sample ages from inside the per-user stream (panel path), or ``None``
    #: when ages were sampled as a whole-array stage (population path).
    age_group_index: np.ndarray | None = None
    #: Per-row popularity bias before jitter (panel path), or ``None`` for
    #: the assigner's default bias with no jitter draw.
    base_bias: np.ndarray | None = None
    #: Std-dev of the per-user bias jitter draw (0 skips the draw).
    bias_jitter: float = 0.0


def _shard_row_streams(
    assigner: Any, task: InterestShardTask
) -> tuple[list[Any], list[np.ndarray], np.ndarray | None, np.ndarray | None]:
    """Run stream stages 1–3 for every row; park the live generators.

    Returns ``(streams, preferred, biases, ages)`` with one parked
    generator and preferred-topic index array per row, ready for the
    stage-4 batch kernel.
    """
    n_rows = task.stop - task.start
    # The loop below is the kernel's remaining per-row Python; at ~5k rows
    # it is a large share of shard wall-clock, so the per-draw helpers are
    # inlined draw-for-draw (``sample_age`` is one ``rng.integers`` inside
    # the group's bounds; the jitter clip is a scalar clamp) and the numpy
    # scalar indexing is hoisted into plain Python lists.
    ages: np.ndarray | None = None
    age_codes: list[int] | None = None
    if task.age_group_index is not None:
        ages = np.full(n_rows, AGE_UNDISCLOSED, dtype=np.int16)
        age_codes = task.age_group_index.tolist()
    bounds_by_code = [
        None if group is AgeGroup.UNDISCLOSED else AGE_GROUP_BOUNDS[group]
        for group in AGE_GROUP_TABLE
    ]
    biases: np.ndarray | None = None
    base_bias: list[float] | None = None
    if task.base_bias is not None:
        biases = np.empty(n_rows, dtype=np.float64)
        base_bias = task.base_bias.tolist()
    jitter = float(task.bias_jitter)
    sample_preferred = assigner.sample_preferred_topic_indices
    topics_per_user = task.topics_per_user
    base_seed, seed_key, start = task.base_seed, task.seed_key, task.start
    streams: list[Any] = []
    preferred: list[np.ndarray] = []
    for offset in range(n_rows):
        user_rng = derive_generator(base_seed, seed_key, start + offset)
        if age_codes is not None:
            bounds = bounds_by_code[age_codes[offset]]
            if bounds is not None:
                ages[offset] = int(  # type: ignore[index]
                    user_rng.integers(bounds[0], bounds[1] + 1)
                )
        if base_bias is not None:
            bias = base_bias[offset]
            if jitter > 0:
                bias += float(user_rng.normal(0.0, jitter))
                bias = round(bias, 2)
                bias = 0.1 if bias < 0.1 else (0.95 if bias > 0.95 else bias)
            biases[offset] = bias  # type: ignore[index]
        preferred.append(sample_preferred(topics_per_user, user_rng))
        streams.append(user_rng)
    return streams, preferred, biases, ages


def run_interest_shard(
    task: InterestShardTask,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Assign one shard's rows; returns ``(flat_ids, row_counts, ages)``.

    ``flat_ids`` is the shard's CSR fragment (``int32``), ``row_counts``
    the per-row lengths, and ``ages`` the sampled ``int16`` ages (``None``
    when the task carries no age groups).  Bit-identical to
    :func:`run_interest_shard_reference`: each per-user stream is consumed
    in exactly the documented order (see the module docstring's stream contract) — stages 1–3 row by
    row, stage 4 through the batched
    :meth:`~repro.population.assignment.InterestAssigner.assign_rows`
    kernel.  Assigner payloads without the batch API (test doubles) fall
    back to the per-user reference loop.
    """
    assigner = resolve_assigner(task.assigner)
    if not hasattr(assigner, "assign_rows") or not hasattr(
        assigner, "sample_preferred_topic_indices"
    ):
        return run_interest_shard_reference(task)
    streams, preferred, biases, ages = _shard_row_streams(assigner, task)
    flat, row_counts = assigner.assign_rows(
        task.counts,
        streams,
        preferred_topics=preferred,
        popularity_biases=biases,
    )
    return flat.astype(np.int32), row_counts, ages


def run_interest_shard_reference(
    task: InterestShardTask,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-user reference implementation of :func:`run_interest_shard`.

    The executable statement of the stream contract: one
    :meth:`~repro.population.assignment.InterestAssigner.assign` call per
    row on the row's own generator.  The parity suite pins the batched
    kernel against this loop bit-for-bit, and the benchmark's
    assignment-rate stage uses it as the pre-kernel baseline.
    """
    assigner = resolve_assigner(task.assigner)
    n_rows = task.stop - task.start
    row_counts = np.empty(n_rows, dtype=np.int64)
    ages: np.ndarray | None = None
    if task.age_group_index is not None:
        ages = np.full(n_rows, AGE_UNDISCLOSED, dtype=np.int16)
    flat: list[int] = []
    for offset in range(n_rows):
        user_rng = derive_generator(task.base_seed, task.seed_key, task.start + offset)
        if task.age_group_index is not None:
            group = AGE_GROUP_TABLE[task.age_group_index[offset]]
            age = sample_age(group, user_rng)
            if age is not None:
                ages[offset] = age  # type: ignore[index]
        bias: float | None = None
        if task.base_bias is not None:
            bias = float(task.base_bias[offset])
            if task.bias_jitter > 0:
                bias += float(user_rng.normal(0.0, task.bias_jitter))
                bias = float(np.clip(round(bias, 2), 0.1, 0.95))
        preferred = assigner.sample_preferred_topics(task.topics_per_user, user_rng)
        interests = assigner.assign(
            int(task.counts[offset]),
            user_rng,
            preferred_topics=preferred,
            popularity_bias=bias,
        )
        row_counts[offset] = len(interests)
        flat.extend(interests)
    flat_ids = np.array(flat, dtype=np.int32) if flat else np.zeros(0, dtype=np.int32)
    return flat_ids, row_counts, ages
