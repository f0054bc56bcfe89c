"""Audience-size collection from the Ads Manager API.

For every panel user and every number of interests ``N`` in 1..25 the paper
retrieves, from the Ads Manager API, the Potential Reach of the audience
formed by the first ``N`` interests of the user's selection (least popular
or random).  The collector reproduces that loop against the simulated API
and arranges the results as the users x N matrix consumed by the quantile
machinery.

:meth:`AudienceSizeCollector.collect` resolves the whole panel's strategy
ordering into one padded id matrix straight off the panel's CSR store
(:meth:`~repro.core.selection.SelectionStrategy.order_interests_matrix_columns`)
and issues a single spec-free :meth:`AdsManagerAPI.estimate_reach_matrix`
call — the users × N measurement becomes a handful of array sweeps with no
per-user Python round-trip.

On top of it sits the sharded execution layer (:mod:`repro.exec`):
:meth:`AudienceSizeCollector.collect_sharded` cuts the panel into contiguous
row shards — each shard ordered, validated and kernel-evaluated
independently, optionally on a thread or process pool — and
:meth:`AudienceSizeCollector.collect_stream` yields the same per-shard
blocks as a generator so downstream accumulators never hold the full
matrix.  Both are bit-identical to :meth:`~AudienceSizeCollector.collect`
for every backend, worker count and shard size: ordering and the prefix
kernel are row-local, and the rate-limit bill of all shards is merged and
settled in one accounting step, exactly like the fused
``estimate_reach_matrix`` call (pinned by ``tests/test_exec_sharding.py``).

Rate-limit / call-stats accounting sees one request per (user, N) cell —
the same traffic as one ``estimate_reach`` call per cell (the reference
loop the parity tests compare against) — settled in one vectorised
accounting step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..adsapi import AdsManagerAPI, CallBill
from ..errors import ModelError
from ..exec import ShardExecutor
from ..exec.plan import Shard
from ..exec.tasks import ReachShardTask, run_reach_shard, shard_backend_payload
from ..fdvt.panel import FDVTPanel
from .quantiles import AudienceSamples
from .selection import SelectionStrategy


@dataclass(frozen=True)
class _ShardJob:
    """One planned shard: its ordered block, its bill, its compute task."""

    shard: Shard
    bill: CallBill
    #: ``None`` when the shard has nothing to query (all-empty users).
    task: ReachShardTask | None


class AudienceSizeCollector:
    """Queries the Ads API for every (user, N) audience of a strategy."""

    def __init__(
        self,
        api: AdsManagerAPI,
        panel: FDVTPanel,
        *,
        max_interests: int = 25,
        locations: Sequence[str] | None = None,
    ) -> None:
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        platform_limit = api.platform.max_interests_per_audience
        if max_interests > platform_limit:
            raise ModelError(
                f"max_interests ({max_interests}) exceeds the platform limit "
                f"({platform_limit})"
            )
        self._api = api
        self._panel = panel
        self._max_interests = max_interests
        self._locations = tuple(locations) if locations else None

    @property
    def max_interests(self) -> int:
        """Largest number of interests combined per user."""
        return self._max_interests

    def collect(self, strategy: SelectionStrategy) -> AudienceSamples:
        """Collect the full audience-size matrix for one selection strategy.

        Rows correspond to panel users (in panel order) and column ``k``
        to combinations of ``k + 1`` interests; entries are ``NaN`` when the
        user has fewer interests than the column requires.
        """
        n_users = len(self._panel)
        matrix = np.full((n_users, self._max_interests), np.nan, dtype=float)
        id_matrix, counts = self._ordered_matrix(strategy, 0, n_users)
        if id_matrix.shape[1]:
            values = self._api.estimate_reach_matrix(
                id_matrix, counts, locations=self._locations
            )
            matrix[:, : values.shape[1]] = values
        return AudienceSamples(
            matrix=matrix,
            floor=self._api.platform.reach_floor,
            user_ids=self._user_ids(),
        )

    def collect_sharded(
        self,
        strategy: SelectionStrategy,
        *,
        executor: ShardExecutor | None = None,
        backend: str | None = None,
        workers: int = 1,
        shard_size: int | None = None,
    ) -> AudienceSamples:
        """Collect the full matrix through the sharded execution layer.

        The panel is cut into contiguous row shards
        (:meth:`~repro.exec.ShardExecutor.plan`); each shard is ordered and
        validated independently, the merged rate-limit bill is settled in
        one step, and the pure kernel blocks run on the executor's runner
        (serial, thread pool or process pool).  The assembled samples,
        ``call_stats`` and token-bucket levels are bit-identical to
        :meth:`collect` for every backend, worker count
        and shard size.  Pass a prebuilt ``executor`` or the loose
        ``backend`` / ``workers`` / ``shard_size`` knobs (``backend``
        defaults to a thread pool when ``workers > 1``).

        Billing is exactly-once even under retries: shard tasks are pure
        compute (no API object, no token bucket), so an executor carrying
        a :class:`~repro.faults.RetryPolicy` / :class:`~repro.faults.FaultPlan`
        can re-run a shard any number of times without double-charging —
        the coordinator settles the one merged bill above, before any
        shard executes.
        """
        executor = self._resolve_executor(executor, backend, workers, shard_size)
        runner = executor.runner()
        jobs = self._plan_shard_jobs(strategy, executor, runner)
        merged = CallBill.merged([job.bill for job in jobs])
        self._api.settle_reach_bill(merged)
        tasks = [job.task for job in jobs if job.task is not None]
        results = iter(runner.run(run_reach_shard, tasks))
        n_users = len(self._panel)
        matrix = np.full((n_users, self._max_interests), np.nan, dtype=float)
        for job in jobs:
            if job.task is None:
                continue
            values = next(results)
            matrix[job.shard.start : job.shard.stop, : values.shape[1]] = values
        self._api.record_reach_bill(merged)
        return AudienceSamples(
            matrix=matrix,
            floor=self._api.platform.reach_floor,
            user_ids=self._user_ids(),
        )

    def collect_stream(
        self,
        strategy: SelectionStrategy,
        *,
        executor: ShardExecutor | None = None,
        backend: str | None = None,
        workers: int = 1,
        shard_size: int | None = None,
    ) -> Iterator[AudienceSamples]:
        """Stream the collection as per-shard :class:`AudienceSamples` blocks.

        A generator yielding one block per shard, in panel-row order; block
        rows concatenated equal :meth:`collect`'s matrix bit-for-bit and
        every block is padded to ``max_interests`` columns, so a mergeable
        accumulator (:class:`~repro.core.quantiles.AudienceAccumulator`)
        can absorb them without ever materialising the full users x N
        sample matrix.  Ordering metadata and rate-limit accounting are
        resolved up front on first iteration — the merged bill of all
        shards is settled in one step before any audience is computed,
        matching the fused pass (with ``auto_wait=False`` the stream raises
        before yielding anything) — after which only one audience block at
        a time is alive on the serial backend, while pooled runners compute
        blocks ahead of consumption.  ``call_stats`` records each shard's
        calls as its block is yielded; a stream abandoned midway leaves the
        settled tokens spent but later shards' calls unrecorded.

        Chaos note: with a kernel-depth :class:`~repro.faults.FaultPlan`
        (``depth="kernel"``), injected faults fire *inside*
        :func:`~repro.exec.tasks.run_reach_shard` — i.e. mid-stream,
        after earlier blocks were already yielded and merged downstream.
        Retried shards recompute from pure inputs, so a consumer folding
        blocks into an accumulator stays bit-identical to the fault-free
        stream (pinned by the kernel-depth chaos-parity tests).
        """
        executor = self._resolve_executor(executor, backend, workers, shard_size)
        runner = executor.runner()
        jobs = self._plan_shard_jobs(strategy, executor, runner)
        self._api.settle_reach_bill(CallBill.merged([job.bill for job in jobs]))
        floor = self._api.platform.reach_floor
        user_ids = self._user_ids()
        tasks = [job.task for job in jobs if job.task is not None]
        results = runner.stream(run_reach_shard, tasks)
        for job in jobs:
            block = np.full((job.shard.size, self._max_interests), np.nan, dtype=float)
            if job.task is not None:
                values = next(results)
                block[:, : values.shape[1]] = values
            self._api.record_reach_bill(job.bill)
            yield AudienceSamples(
                matrix=block,
                floor=floor,
                user_ids=user_ids[job.shard.start : job.shard.stop],
            )

    def _resolve_executor(
        self,
        executor: ShardExecutor | None,
        backend: str | None,
        workers: int,
        shard_size: int | None,
    ) -> ShardExecutor:
        if executor is not None:
            if backend is not None or workers != 1 or shard_size is not None:
                raise ModelError(
                    "pass either an executor or the loose backend/workers/"
                    "shard_size knobs, not both"
                )
            return executor
        if backend is None:
            backend = "thread" if workers > 1 else "serial"
        return ShardExecutor(backend=backend, workers=workers, shard_size=shard_size)

    def _user_ids(self) -> tuple[int, ...]:
        """Panel user ids in row order, without materialising user objects."""
        return tuple(self._panel.columns.user_ids.tolist())

    def _ordered_matrix(
        self, strategy: SelectionStrategy, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ordered id matrix for panel rows ``[start, stop)``, off the CSR store."""
        return strategy.order_interests_matrix_columns(
            self._panel.columns,
            self._panel.catalog,
            self._max_interests,
            start,
            stop,
        )

    def _plan_shard_jobs(
        self,
        strategy: SelectionStrategy,
        executor: ShardExecutor,
        runner,
    ) -> list[_ShardJob]:
        """Order, validate and bill every shard (no tokens spent yet).

        Per-shard ordering is bit-identical to the global pass (every row
        depends only on its own user) and — like the per-shard kernels —
        faster than one fused sweep at scale because each shard's sort
        stays cache-resident.
        """
        payload = shard_backend_payload(self._api.backend, runner)
        floor = self._api.platform.reach_floor
        jobs: list[_ShardJob] = []
        for shard in executor.plan(len(self._panel)):
            ids, counts = self._ordered_matrix(strategy, shard.start, shard.stop)
            if ids.shape[1]:
                ids, counts, locations = self._api.validate_reach_matrix(
                    ids, counts, locations=self._locations
                )
                task = ReachShardTask(
                    backend=payload,
                    id_matrix=ids,
                    counts=counts,
                    locations=locations,
                    floor=floor,
                )
            else:
                task = None
            jobs.append(
                _ShardJob(
                    shard=shard,
                    bill=self._api.reach_matrix_bill(counts),
                    task=task,
                )
            )
        return jobs

    def collect_for_users(
        self,
        strategy: SelectionStrategy,
        user_ids: Sequence[int],
    ) -> AudienceSamples:
        """Collect the matrix for a subset of panel users (demographic groups).

        Rows follow the caller's requested order, with duplicate ids
        collapsed to their first occurrence and unknown ids ignored.  The
        sub-panel is a row gather on the CSR store — no user objects are
        materialised.
        """
        columns = self._panel.columns
        row_of = {uid: row for row, uid in enumerate(columns.user_ids.tolist())}
        rows: list[int] = []
        seen: set[int] = set()
        for user_id in user_ids:
            user_id = int(user_id)
            if user_id in seen:
                continue
            seen.add(user_id)
            row = row_of.get(user_id)
            if row is not None:
                rows.append(row)
        if not rows:
            raise ModelError("no panel users match the requested ids")
        sub_panel = FDVTPanel.from_columns(
            columns.take(np.array(rows, dtype=np.int64)), self._panel.catalog
        )
        collector = AudienceSizeCollector(
            self._api,
            sub_panel,
            max_interests=self._max_interests,
            locations=self._locations,
        )
        return collector.collect(strategy)
