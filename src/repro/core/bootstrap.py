"""Bootstrap confidence intervals for the N_P cutpoints.

The paper assesses the uncertainty of its cutpoint estimates by repeating
the aggregation and fit over 10,000 bootstrap resamples of the panel and
reporting the 95% confidence interval.  The resampling is done over *users*
(rows of the sample matrix), which keeps the per-user correlation across N
values intact.

Batch kernel design
-------------------
A paper-scale bootstrap is 10,000 resamples x several quantiles, which the
original implementation evaluated with one ``nanpercentile`` and one SVD
least-squares fit per replicate in a Python loop.  :func:`bootstrap_cutpoints`
draws the resample index matrices in bulk (one generator call per chunk —
stream-identical to a single up-front draw) and reduces the replicates in
memory-bounded chunks.  Each chunk is *lane-major* end to end: one gather
builds a fresh C-contiguous ``(N, replicates, users)`` block, so every
(N, replicate) lane of resampled users is contiguous, and one
:func:`~repro.core.quantiles.masked_column_quantiles` pass sorts those lanes
in place and interpolates — bit-identical to per-replicate ``nanpercentile``
without its per-slice Python dispatch, with O(chunk * users * N) transient
memory and no second copy of the block.  (Sorting a replicate-major
``(replicates, users, N)`` stack along ``axis=1`` instead strides every lane
by N floats, so numpy copies each lane out and back; a paper-scale chunk
runs ~3x slower that way.)  :func:`~repro.core.fitting.fit_vas_many` then
fits every replicate of a chunk at once — closed-form masked least squares
across rows, no per-replicate Python work.  Replicates whose fit would fail
(degenerate resample, non-positive slope) surface as ``NaN`` exactly like
the scalar loop did.

Streaming support
-----------------
:func:`bootstrap_cutpoints` reads its input through the lane-major gather
interface (``samples.gather_lanes`` plus the ``n_users`` / ``max_interests``
/ ``floor`` views) shared by the dense
:class:`~repro.core.quantiles.AudienceSamples` (a ``take`` along its
transposed matrix) and the streamed
:class:`~repro.core.quantiles.StreamedAudienceSamples` column store (a
``take`` on its lane-major position table), so the whole collection →
quantiles → bootstrap chain can run off accumulated per-shard blocks without
ever materialising the users x N matrix.  Both stores gather bit-identical
lane blocks, hence bit-identical cutpoint distributions.

Sharded execution
-----------------
With an ``executor`` (:class:`~repro.exec.ShardExecutor`), the replicate
chunks fan out across the same :class:`~repro.exec.runner.ShardRunner`
backends as collection: the index matrices are still drawn sequentially
from one generator (so the draw stream — and hence every cutpoint — is
bit-identical for every backend, worker count and chunk size), only the
pure per-chunk gather + quantile + fit work runs on the runner, and chunk
results are reassembled in draw order.  The sharded route materialises all
index chunks up front (``n_bootstrap × n_users`` int64), which the serial
route avoids by drawing and discarding per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._rng import SeedLike, as_generator
from ..errors import ModelError
from ..exec import ShardExecutor
from .fitting import fit_vas_many
from .quantiles import (
    AudienceSamples,
    StreamedAudienceSamples,
    masked_column_quantiles,
)

#: Target transient-buffer size (floats) when chunking bootstrap replicates.
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A two-sided percentile confidence interval."""

    low: float
    high: float
    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ModelError("confidence level must lie in (0, 1)")
        if self.high < self.low:
            raise ModelError("interval upper bound must be >= lower bound")

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """True if ``value`` falls inside the interval (inclusive)."""
        return self.low <= value <= self.high


def percentile_interval(values: Sequence[float], level: float) -> ConfidenceInterval:
    """Percentile bootstrap interval over a sample of estimates."""
    if not 0.0 < level < 1.0:
        raise ModelError("confidence level must lie in (0, 1)")
    array = np.asarray(list(values), dtype=float)
    array = array[np.isfinite(array)]
    if array.size == 0:
        raise ModelError("cannot build a confidence interval from no finite values")
    tail = (1.0 - level) / 2.0 * 100.0
    low, high = np.percentile(array, [tail, 100.0 - tail])
    return ConfidenceInterval(low=float(low), high=float(high), level=level)


@dataclass(frozen=True)
class _BootstrapChunkTask:
    """One replicate chunk: the sample store, quantiles and drawn indices."""

    samples: AudienceSamples | StreamedAudienceSamples
    q_percents: tuple[float, ...]
    indices: np.ndarray


def _run_bootstrap_chunk(task: _BootstrapChunkTask) -> np.ndarray:
    """Gather, quantile and fit one chunk; returns a (n_q, chunk) array.

    Pure compute over inputs fixed at draw time — chunk results do not
    depend on which worker (or process) evaluates them, which is what keeps
    the sharded bootstrap bit-identical across backends and worker counts.
    """
    lanes = task.samples.gather_lanes(task.indices)
    with np.errstate(all="ignore"):
        vas_rows = masked_column_quantiles(lanes, task.q_percents)
    return np.stack(
        [
            fit_vas_many(replicate_rows, task.samples.floor).cutpoints
            for replicate_rows in vas_rows
        ]
    )


def bootstrap_cutpoints(
    samples: AudienceSamples | StreamedAudienceSamples,
    q_percents: Sequence[float],
    *,
    n_bootstrap: int,
    seed: SeedLike = None,
    chunk_size: int | None = None,
    executor: ShardExecutor | None = None,
) -> dict[float, np.ndarray]:
    """Bootstrap distributions of the N_P cutpoint for several quantiles.

    Returns a mapping from each requested percentile to the array of
    cutpoints obtained across ``n_bootstrap`` resamples.  Replicates whose
    fit fails (e.g. a degenerate resample) contribute ``NaN`` and are
    ignored by :func:`percentile_interval`.

    The resample index matrices are drawn in bulk (one generator call per
    chunk, stream-identical to a single up-front draw) and the replicate
    quantiles and log-log fits are evaluated in vectorised chunks
    (``chunk_size`` replicates at a time, sized automatically to bound
    transient memory when not given; an ``executor`` with an explicit
    ``shard_size`` overrides the automatic sizing).  With ``executor`` the
    chunks run on its :class:`~repro.exec.runner.ShardRunner` backend —
    results are bit-identical for every backend, worker count and chunk
    size because the draws happen before dispatch and each chunk's
    computation is chunk-local.
    """
    if n_bootstrap < 1:
        raise ModelError("n_bootstrap must be >= 1")
    qs = tuple(AudienceSamples._validate_q(q) for q in q_percents)
    if not qs:
        raise ModelError("bootstrap_cutpoints needs at least one quantile")
    rng = as_generator(seed)
    n_users, width = samples.n_users, samples.max_interests
    if chunk_size is None:
        if executor is not None and executor.shard_size is not None:
            chunk_size = executor.shard_size
        else:
            chunk_size = max(
                1, min(n_bootstrap, _CHUNK_BUDGET // max(1, n_users * width))
            )
    if chunk_size < 1:
        raise ModelError("chunk_size must be >= 1")
    results = {q: np.empty(n_bootstrap, dtype=float) for q in qs}
    starts = range(0, n_bootstrap, chunk_size)
    # Drawing per chunk keeps peak memory O(chunk); the concatenated
    # stream is identical to one up-front (n_bootstrap, n_users) draw,
    # so results do not depend on the chunk size.
    if executor is None:
        for start in starts:
            count = min(chunk_size, n_bootstrap - start)
            chunk = rng.integers(0, n_users, size=(count, n_users))
            cutpoints = _run_bootstrap_chunk(
                _BootstrapChunkTask(samples=samples, q_percents=qs, indices=chunk)
            )
            for q, row in zip(qs, cutpoints):
                results[q][start : start + chunk.shape[0]] = row
        return results
    # Sharded route: draw every chunk first (sequentially, preserving the
    # stream), then fan the pure chunk work out to the runner and reassemble
    # in draw order.
    tasks = [
        _BootstrapChunkTask(
            samples=samples,
            q_percents=qs,
            indices=rng.integers(
                0, n_users, size=(min(chunk_size, n_bootstrap - start), n_users)
            ),
        )
        for start in starts
    ]
    for start, cutpoints in zip(starts, executor.runner().run(_run_bootstrap_chunk, tasks)):
        for q, row in zip(qs, cutpoints):
            results[q][start : start + row.size] = row
    return results
