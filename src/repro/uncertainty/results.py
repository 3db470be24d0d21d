"""Uncertain result sets.

Query answers in the agora carry a calibrated match probability per
item; a result set keeps them in rank order and merges across sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.data.items import InformationItem


@dataclass(frozen=True)
class UncertainMatch:
    """One candidate answer with its uncertainty annotations."""

    item: InformationItem
    score: float
    probability: float
    source_id: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not 0.0 <= self.score <= 1.0 + 1e-9:
            raise ValueError("score must be in [0, 1]")


class UncertainResultSet:
    """An ordered collection of uncertain matches.

    Matches are kept sorted by descending probability (ties by score, then
    item id) so top-k is well defined and deterministic.
    """

    def __init__(self, matches: Iterable[UncertainMatch] = ()):  # noqa: D401
        self._matches = sorted(
            matches,
            key=lambda m: (-m.probability, -m.score, m.item.item_id),
        )

    # ------------------------------------------------------------------
    @property
    def matches(self) -> List[UncertainMatch]:
        """The matches in rank order (a copy)."""
        return list(self._matches)

    def items(self) -> List[InformationItem]:
        """Just the items, in rank order."""
        return [match.item for match in self._matches]

    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self):
        return iter(self._matches)

    def __bool__(self) -> bool:
        return bool(self._matches)

    # ------------------------------------------------------------------
    def top_k(self, k: int) -> "UncertainResultSet":
        """The ``k`` most probable matches."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return UncertainResultSet(self._matches[:k])

    # ------------------------------------------------------------------
    def merge(self, other: "UncertainResultSet") -> "UncertainResultSet":
        """Union of two result sets.

        Duplicate items (same id, e.g. from overlapping sources) keep the
        entry with the higher probability — seeing an item twice never
        lowers confidence in it.
        """
        best: Dict[str, UncertainMatch] = {}
        for match in list(self._matches) + list(other._matches):
            current = best.get(match.item.item_id)
            if current is None or match.probability > current.probability:
                best[match.item.item_id] = match
        return UncertainResultSet(best.values())
