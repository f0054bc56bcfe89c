"""The agent-based scaled Facebook population.

The analytic reach model works at the true world scale but cannot be
enumerated; this container holds an explicit set of synthetic users so that
delivery simulations can pick concrete recipients and so that tests can
verify the semantics of audience counting (AND/OR combination, location
filtering, floors) against exact ground truth.

Each agent represents ``scale_factor`` real users, so reported audience
sizes are ``count * scale_factor``.

The population is a thin view over a
:class:`~repro.population.columnar.PanelColumns` store: audience queries
run as array sweeps over the CSR interest layout and the demographic
columns (``np.isin`` membership + boolean masks), and user objects are
materialised only at the I/O edges (``users``, ``get``, iteration).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import PopulationError
from ..reach.backend import ReachBackend
from ..reach.countries import WORLDWIDE
from .columnar import AGE_GROUP_CODES, GENDER_CODES, PanelColumns
from .demographics import AgeGroup, Gender
from .user import SyntheticUser


class Population:
    """A collection of synthetic users with fast audience counting."""

    def __init__(self, users: Iterable[SyntheticUser], *, scale_factor: float = 1.0) -> None:
        users = tuple(users)
        if not users:
            raise PopulationError("a population must contain at least one user")
        if scale_factor <= 0:
            raise PopulationError("scale_factor must be positive")
        ids = [user.user_id for user in users]
        if len(set(ids)) != len(ids):
            raise PopulationError("user ids must be unique within a population")
        self._scale_factor = float(scale_factor)
        self._columns = PanelColumns.from_users(users)
        self._users: tuple[SyntheticUser, ...] | None = None

    @classmethod
    def from_columns(
        cls, columns: PanelColumns, *, scale_factor: float = 1.0
    ) -> "Population":
        """A population viewing ``columns`` directly — no user objects built."""
        if len(columns) == 0:
            raise PopulationError("a population must contain at least one user")
        if scale_factor <= 0:
            raise PopulationError("scale_factor must be positive")
        population = cls.__new__(cls)
        population._scale_factor = float(scale_factor)
        population._columns = columns
        population._users = None
        return population

    @property
    def columns(self) -> PanelColumns:
        """The columnar store backing this population."""
        return self._columns

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[SyntheticUser]:
        return iter(self.users)

    def __contains__(self, user_id: object) -> bool:
        if not isinstance(user_id, (int, np.integer)):
            return False
        return bool(np.any(self._columns.user_ids == int(user_id)))

    def get(self, user_id: int) -> SyntheticUser:
        """Return the user with ``user_id`` or raise (one row materialised)."""
        rows = np.flatnonzero(self._columns.user_ids == int(user_id))
        if rows.size == 0:
            raise PopulationError(f"unknown user id: {user_id}")
        return self._columns.user_at(int(rows[0]))

    @property
    def users(self) -> tuple[SyntheticUser, ...]:
        """All users, in insertion order (materialised on first access)."""
        if self._users is None:
            self._users = self._columns.to_users()
        return self._users

    @property
    def scale_factor(self) -> float:
        """Number of real users represented by each agent."""
        return self._scale_factor

    @property
    def countries(self) -> tuple[str, ...]:
        """Country codes present in the population."""
        columns = self.columns
        present = np.unique(columns.country_index)
        return tuple(sorted(columns.country_codes[i] for i in present))

    # -- audience queries -------------------------------------------------------

    def matching_user_ids(
        self,
        interest_ids: Sequence[int] = (),
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
        genders: Sequence[Gender] | None = None,
        age_groups: Sequence[AgeGroup] | None = None,
    ) -> set[int]:
        """Ids of agents matching the given targeting expression."""
        mask = self._matching_mask(
            interest_ids, locations, combine=combine, genders=genders, age_groups=age_groups
        )
        return set(int(i) for i in self.columns.user_ids[mask])

    def _matching_mask(
        self,
        interest_ids: Sequence[int] = (),
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
        genders: Sequence[Gender] | None = None,
        age_groups: Sequence[AgeGroup] | None = None,
    ) -> np.ndarray:
        """Boolean row mask of the targeting expression (the vectorised core).

        Interest membership is one ``np.isin`` over the CSR values plus a
        per-row hit count; AND demands every distinct target present, OR at
        least one.  Demographic filters are lookup-table masks over the
        code columns.
        """
        if combine not in ("and", "or"):
            raise PopulationError(f"unknown combine mode: {combine!r}")
        columns = self.columns
        n = len(columns)
        mask = self._location_mask(locations)
        if interest_ids:
            targets = np.unique(np.asarray(list(interest_ids), dtype=np.int64))
            hit_positions = np.flatnonzero(np.isin(columns.interest_ids, targets))
            rows = (
                np.searchsorted(columns.indptr, hit_positions, side="right") - 1
            )
            per_row = np.bincount(rows, minlength=n)
            if combine == "and":
                mask = mask & (per_row == targets.size)
            else:
                mask = mask & (per_row > 0)
        if genders:
            allowed = np.zeros(len(GENDER_CODES), dtype=bool)
            for gender in genders:
                allowed[GENDER_CODES[gender]] = True
            mask = mask & allowed[columns.gender_index]
        if age_groups:
            allowed = np.zeros(len(AGE_GROUP_CODES), dtype=bool)
            for group in age_groups:
                allowed[AGE_GROUP_CODES[group]] = True
            mask = mask & allowed[columns.age_group_index()]
        return mask

    def agent_count(
        self,
        interest_ids: Sequence[int] = (),
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
    ) -> int:
        """Exact number of agents matching the targeting expression."""
        return int(self._matching_mask(interest_ids, locations, combine=combine).sum())

    def audience_size(
        self,
        interest_ids: Sequence[int] = (),
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
    ) -> float:
        """Scaled audience size (agents * scale_factor)."""
        return self.agent_count(interest_ids, locations, combine=combine) * self._scale_factor

    def interest_audiences(self) -> dict[int, int]:
        """Number of agents holding each interest present in the population."""
        values, counts = np.unique(self.columns.interest_ids, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    # -- demographics -------------------------------------------------------------

    def subset(self, user_ids: Iterable[int]) -> "Population":
        """Build a sub-population restricted to ``user_ids``."""
        wanted = set(int(uid) for uid in user_ids)
        columns = self.columns
        if not wanted:
            raise PopulationError("a population must contain at least one user")
        mask = np.isin(
            columns.user_ids, np.fromiter(wanted, dtype=np.int64, count=len(wanted))
        )
        return self._view(mask)

    def by_gender(self, gender: Gender) -> "Population":
        """Sub-population of one gender."""
        return self._view(self.columns.gender_index == GENDER_CODES[gender])

    def by_age_group(self, group: AgeGroup) -> "Population":
        """Sub-population of one Erikson age group."""
        return self._view(self.columns.age_group_index() == AGE_GROUP_CODES[group])

    def by_country(self, country: str) -> "Population":
        """Sub-population of one country."""
        return self._view(self._location_mask((country,)))

    # -- internals -----------------------------------------------------------------

    def _view(self, mask: np.ndarray) -> "Population":
        if not mask.any():
            raise PopulationError("a population must contain at least one user")
        return Population.from_columns(
            self.columns.take(mask), scale_factor=self._scale_factor
        )

    def _location_mask(self, locations: Sequence[str] | None) -> np.ndarray:
        columns = self.columns
        if locations is None:
            return np.ones(len(columns), dtype=bool)
        codes = tuple(locations)
        if not codes or WORLDWIDE in codes:
            return np.ones(len(columns), dtype=bool)
        allowed = np.zeros(len(columns.country_codes), dtype=bool)
        table = {code: i for i, code in enumerate(columns.country_codes)}
        for code in codes:
            index = table.get(code)
            if index is not None:
                allowed[index] = True
        return allowed[columns.country_index]


class PopulationReachBackend(ReachBackend):
    """Adapts a :class:`Population` to the :class:`ReachBackend` protocol."""

    def __init__(self, population: Population) -> None:
        self._population = population

    @property
    def population(self) -> Population:
        """The underlying population."""
        return self._population

    def audience_for(
        self,
        interest_ids: Sequence[int],
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
    ) -> float:
        """Scaled audience size for the targeting expression."""
        return self._population.audience_size(interest_ids, locations, combine=combine)

    def world_size(self, locations: Sequence[str] | None = None) -> float:
        """Scaled size of the selected locations."""
        return self._population.audience_size((), locations)
