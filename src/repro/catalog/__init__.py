"""Synthetic interest catalog: interests, taxonomy and popularity model."""

from .catalog import DEFAULT_WORLD_POPULATION, CatalogColumns, InterestCatalog
from .interest import Interest
from .popularity import PopularityModel
from .taxonomy import TOPICS, interest_name, topic_for_index

__all__ = [
    "CatalogColumns",
    "DEFAULT_WORLD_POPULATION",
    "Interest",
    "InterestCatalog",
    "PopularityModel",
    "TOPICS",
    "interest_name",
    "topic_for_index",
]
