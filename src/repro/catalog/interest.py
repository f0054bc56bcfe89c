"""The :class:`Interest` value object.

An interest ("ad preference") is the non-PII data item at the heart of the
paper: Facebook assigns interests to users based on their activity, and
advertisers can target any combination of them.  In this reproduction an
interest carries its worldwide audience size, which plays the role of the
Potential Reach the paper retrieves from the Ads Manager API for a
single-interest audience.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CatalogError


@dataclass(frozen=True, slots=True)
class Interest:
    """A single Facebook interest.

    Attributes
    ----------
    interest_id:
        Stable integer identifier, unique within a catalog.
    name:
        Human-readable interest name (e.g. ``"Italian food"``).
    topic:
        Top-level topic of the interest taxonomy the interest belongs to.
    audience_size:
        Worldwide number of monthly active users Facebook associates with
        the interest.
    """

    interest_id: int
    name: str
    topic: str
    audience_size: int

    def __post_init__(self) -> None:
        if self.interest_id < 0:
            raise CatalogError("interest_id must be non-negative")
        if self.audience_size < 0:
            raise CatalogError("audience_size must be non-negative")
        if not self.name:
            raise CatalogError("interest name must not be empty")
        if not self.topic:
            raise CatalogError("interest topic must not be empty")

    def to_dict(self) -> dict:
        """Serialise the interest to a plain dictionary."""
        return {
            "interest_id": self.interest_id,
            "name": self.name,
            "topic": self.topic,
            "audience_size": self.audience_size,
        }

    @staticmethod
    def from_dict(data: dict) -> "Interest":
        """Rebuild an interest from :meth:`to_dict` output."""
        try:
            return Interest(
                interest_id=int(data["interest_id"]),
                name=str(data["name"]),
                topic=str(data["topic"]),
                audience_size=int(data["audience_size"]),
            )
        except KeyError as exc:
            raise CatalogError(f"missing interest field: {exc}") from exc
