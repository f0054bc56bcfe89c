"""Builder for the agent-based scaled population.

:meth:`PopulationBuilder.build_columns` keeps the whole-array demographic
stages as arrays, fans the per-user interest assignment out over
contiguous row shards (:mod:`repro.exec`) and assembles a
:class:`~repro.population.columnar.PanelColumns` store directly — no user
objects, and the same columns for any backend, worker count or shard size.

Demographics and interest counts are single whole-array draws, and each
user's assignment re-derives ``derive_generator(base_seed, "user",
index)``, which depends only on the row index.  Shards run through the
batched :meth:`~repro.population.assignment.InterestAssigner.assign_rows`
kernel (see :mod:`repro.population.generation`'s stream contract), pinned
bit-identical to the per-user reference loop by
``tests/test_assignment_kernel.py``.
"""

from __future__ import annotations

import numpy as np

from .._rng import SeedLike, derive_generator
from ..catalog import InterestCatalog
from ..config import PopulationConfig
from ..errors import PopulationError
from ..exec import ShardExecutor
from ..reach.countries import TOP_50_COUNTRIES
from .assignment import InterestAssigner
from .columnar import PanelColumns
from .demographics import sample_ages, sample_gender_index
from .generation import (
    InterestShardTask,
    assigner_shard_payload,
    run_interest_shard,
)
from .population import Population
from .sampling import InterestCountModel


class PopulationBuilder:
    """Builds a :class:`Population` of synthetic Facebook users.

    Agents are spread over the 50 countries of Appendix A proportionally to
    their real Facebook user counts, receive demographics from simple
    samplers, and get correlated interest sets from the shared
    :class:`InterestAssigner`.
    """

    def __init__(
        self,
        catalog: InterestCatalog,
        config: PopulationConfig | None = None,
        *,
        assigner: InterestAssigner | None = None,
    ) -> None:
        self._catalog = catalog
        self._config = config or PopulationConfig()
        self._assigner = assigner or InterestAssigner(catalog)

    @property
    def config(self) -> PopulationConfig:
        """The population configuration in use."""
        return self._config

    def build_columns(
        self, seed: SeedLike = None, *, executor: ShardExecutor | None = None
    ) -> Population:
        """Build the population deterministically from ``seed`` (no user objects).

        ``executor`` shards the per-user assignment stage over contiguous
        row ranges (serial by default); every backend, worker count and
        shard size produces the same columns.
        """
        config = self._config
        base_seed = self._resolve_seed(seed)
        codes, country_index = self._sample_country_index(config.n_agents, base_seed)
        gender_index = sample_gender_index(
            config.n_agents, derive_generator(base_seed, "genders")
        )
        ages = sample_ages(
            config.n_agents, derive_generator(base_seed, "ages")
        ).astype(np.int16)
        counts = self._count_model().sample(
            config.n_agents, derive_generator(base_seed, "interest-counts")
        )
        executor = executor or ShardExecutor()
        runner = executor.runner()
        payload = assigner_shard_payload(self._assigner, runner)
        tasks = [
            InterestShardTask(
                assigner=payload,
                base_seed=base_seed,
                seed_key="user",
                start=shard.start,
                stop=shard.stop,
                counts=counts[shard.rows],
                topics_per_user=config.topics_per_user,
            )
            for shard in executor.plan(config.n_agents)
        ]
        fragments = runner.run(run_interest_shard, tasks)
        row_counts = (
            np.concatenate([f[1] for f in fragments])
            if fragments
            else np.zeros(0, dtype=np.int64)
        )
        indptr = np.zeros(config.n_agents + 1, dtype=np.int64)
        np.cumsum(row_counts, out=indptr[1:])
        interest_ids = (
            np.concatenate([f[0] for f in fragments])
            if fragments
            else np.zeros(0, dtype=np.int32)
        )
        columns = PanelColumns(
            user_ids=np.arange(config.n_agents, dtype=np.int64),
            country_codes=codes,
            country_index=country_index,
            gender_index=gender_index,
            ages=ages,
            indptr=indptr,
            interest_ids=interest_ids,
        )
        return Population.from_columns(columns, scale_factor=config.scale_factor)

    # -- internals -----------------------------------------------------------------

    def _resolve_seed(self, seed: SeedLike) -> int:
        base_seed = self._config.seed if seed is None else int(seed)  # type: ignore[arg-type]
        if isinstance(seed, np.random.Generator):
            base_seed = int(seed.integers(0, 2**62))
        return base_seed

    def _count_model(self) -> InterestCountModel:
        return InterestCountModel(
            median=self._config.median_interests_per_user,
            log10_sigma=self._config.interests_log10_sigma,
            minimum=self._config.min_interests_per_user,
            maximum=self._config.max_interests_per_user,
        ).clipped_to_catalog(len(self._catalog))

    def _sample_country_index(
        self, n: int, base_seed: int
    ) -> tuple[tuple[str, ...], np.ndarray]:
        """Sample country assignments as ``(code_table, int16 index array)``."""
        if n < 0:
            raise PopulationError("n must be non-negative")
        rng = derive_generator(base_seed, "countries")
        codes = tuple(country.code for country in TOP_50_COUNTRIES)
        weights = np.array(
            [country.fb_users_millions for country in TOP_50_COUNTRIES], dtype=float
        )
        weights = weights / weights.sum()
        draws = rng.choice(len(codes), size=n, p=weights)
        return codes, draws.astype(np.int16)
