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
memory-bounded chunks.  Each chunk runs on *rank lanes*: a lane holds the
resampled users of one column for one replicate, and the store's
:class:`~repro.core.quantiles.RankTable` replaces each sample by its min-rank
within that column (``int16`` at panel scale; tied values such as the
reporting floor share a rank), which orders a lane exactly as its floats do
and decodes to exactly the float at each sorted position.

The fit keeps VAS points only up to a row's first floored (or ``NaN``) one,
so :meth:`~repro.core.quantiles.RankTable.resample_vas` computes no more than
that: it walks the columns in order, N = 1, 2, ..., and at each column
gathers and sorts in place the lanes of only the replicates where some
quantile row has not yet *stopped* — reached a value that
:func:`~repro.core.fitting.at_floor` calls floored, or ``NaN``.  Lane counts
come from one histogram of the drawn users' membership patterns, and only
the two order statistics each quantile interpolates between are decoded.
Cells past a row's stop stay ``NaN``; :func:`~repro.core.fitting.fit_vas_many`
masks them out with the same floor test, so every cutpoint is bit-identical
to fitting the full ``nanpercentile`` rows.  At paper scale a replicate's fit
reads ~6 of 25 columns under least-popular ordering and ~14 under random.
``fit_vas_many`` then fits every replicate of a chunk at once — closed-form
masked least squares across rows, no per-replicate Python work.  Replicates
whose fit would fail (degenerate resample, non-positive slope) surface as
``NaN`` exactly like the scalar loop did.

Streaming support
-----------------
:func:`bootstrap_cutpoints` reads its input through ``samples.rank_table()``
plus the ``n_users`` / ``max_interests`` / ``floor`` views, shared by the
dense :class:`~repro.core.quantiles.AudienceSamples` (which builds the table
from its matrix columns) and the streamed
:class:`~repro.core.quantiles.StreamedAudienceSamples` column store (which
builds it from its compact columns and per-user prefix lengths), so the whole
collection → quantiles → bootstrap chain can run off accumulated per-shard
blocks without ever materialising the users x N matrix.  Both stores build
identical rank tables, hence bit-identical cutpoint distributions.

Sharded execution
-----------------
With an ``executor`` (:class:`~repro.exec.ShardExecutor`), the replicate
chunks fan out across the same :class:`~repro.exec.runner.ShardRunner`
backends as collection: the index matrices are still drawn sequentially
from one generator (so the draw stream — and hence every cutpoint — is
bit-identical for every backend, worker count and chunk size), only the
pure per-chunk quantile + fit work runs on the runner, and chunk results
are reassembled in draw order.  Each task carries the rank table, not the
sample store.  Every drawn chunk is cast to the rank dtype (``int16`` at
panel scale, a quarter of the ``int64`` draw); the sharded route holds all
of them at once, which the serial route avoids by drawing and discarding per
chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._rng import SeedLike, as_generator
from ..errors import ModelError
from ..exec import ShardExecutor
from .fitting import fit_vas_many
from .quantiles import AudienceSamples, RankTable, StreamedAudienceSamples

#: Target size (rank cells) of one column's gathered lanes when chunking
#: bootstrap replicates: ~200 replicates of a 2,390-user panel.
_CHUNK_BUDGET = 480_000


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
    array = np.asarray(values, dtype=float)
    array = array[np.isfinite(array)]
    if array.size == 0:
        raise ModelError("cannot build a confidence interval from no finite values")
    tail = (1.0 - level) / 2.0 * 100.0
    low, high = np.percentile(array, [tail, 100.0 - tail])
    return ConfidenceInterval(low=float(low), high=float(high), level=level)


@dataclass(frozen=True)
class _BootstrapChunkTask:
    """One replicate chunk: the store's rank table, floor, quantiles and draws."""

    table: RankTable
    floor: int
    q_percents: tuple[float, ...]
    indices: np.ndarray


def _run_bootstrap_chunk(task: _BootstrapChunkTask) -> np.ndarray:
    """Quantile and fit one chunk; returns a (n_q, chunk) array.

    Pure compute over inputs fixed at draw time — chunk results do not
    depend on which worker (or process) evaluates them, which is what keeps
    the sharded bootstrap bit-identical across backends and worker counts.
    """
    with np.errstate(all="ignore"):
        vas_rows = task.table.resample_vas(task.indices, task.q_percents, task.floor)
    return np.stack(
        [
            fit_vas_many(replicate_rows, task.floor).cutpoints
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
    n_users = samples.n_users
    if chunk_size is None:
        if executor is not None and executor.shard_size is not None:
            chunk_size = executor.shard_size
        else:
            chunk_size = max(1, min(n_bootstrap, _CHUNK_BUDGET // n_users))
    if chunk_size < 1:
        raise ModelError("chunk_size must be >= 1")
    results = {q: np.empty(n_bootstrap, dtype=float) for q in qs}
    starts = range(0, n_bootstrap, chunk_size)
    table = samples.rank_table()

    def draw(start: int) -> _BootstrapChunkTask:
        # The rank dtype also holds every row index; casting after the draw
        # leaves the stream untouched.
        count = min(chunk_size, n_bootstrap - start)
        indices = rng.integers(0, n_users, size=(count, n_users))
        indices = indices.astype(table.ranks.dtype)
        return _BootstrapChunkTask(table, samples.floor, qs, indices)

    if executor is None:
        # Drawing per chunk keeps peak memory O(chunk); the concatenated
        # stream is identical to one up-front (n_bootstrap, n_users) draw,
        # so results do not depend on the chunk size.
        chunks = map(_run_bootstrap_chunk, map(draw, starts))
    else:
        # Sharded route: draw every chunk first (sequentially, preserving
        # the stream), then fan the pure chunk work out to the runner;
        # results come back in draw order.
        tasks = [draw(start) for start in starts]
        chunks = executor.runner().run(_run_bootstrap_chunk, tasks)
    for start, cutpoints in zip(starts, chunks):
        for q, row in zip(qs, cutpoints):
            results[q][start : start + row.size] = row
    return results
