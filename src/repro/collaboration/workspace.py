"""Shared workspaces for collaborative information shopping.

"They all see everyone's results at the same time, potentially fusing some
of them into richer collections, and one may pick up on someone else's
thread of actions" (§7).  A :class:`SharedWorkspace` is the common result
pool with contributor attribution; an :class:`ExplorationThread` is a
member's visible trail of queries that any member can continue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.data.items import InformationItem
from repro.query.model import Query
from repro.uncertainty.results import UncertainMatch

_THREAD_COUNTER = itertools.count()


@dataclass
class Contribution:
    """One member's addition to the workspace."""

    user_id: str
    match: UncertainMatch
    time: float
    thread_id: Optional[int] = None


class SharedWorkspace:
    """The group's fused result collection.

    Duplicate items keep their *first* contribution (discovery credit) but
    upgrade the stored probability when a later contribution is more
    confident.
    """

    def __init__(self) -> None:
        self._contributions: Dict[str, Contribution] = {}  # by item id
        self._order: List[str] = []

    # ------------------------------------------------------------------
    def contribute(
        self,
        user_id: str,
        matches: Iterable[UncertainMatch],
        time: float = 0.0,
        thread_id: Optional[int] = None,
    ) -> int:
        """Add matches; returns how many were new items."""
        added = 0
        for match in matches:
            item_id = match.item.item_id
            existing = self._contributions.get(item_id)
            if existing is None:
                self._contributions[item_id] = Contribution(
                    user_id=user_id, match=match, time=time, thread_id=thread_id
                )
                self._order.append(item_id)
                added += 1
            elif match.probability > existing.match.probability:
                # Keep discovery credit, upgrade confidence.
                existing.match = match
        return added

    # ------------------------------------------------------------------
    def items(self) -> List[InformationItem]:
        """Workspace items in discovery order."""
        return [self._contributions[i].match.item for i in self._order]

    def contributions(self) -> List[Contribution]:
        """All contributions in discovery order."""
        return [self._contributions[i] for i in self._order]

    def contributions_by(self, user_id: str) -> List[Contribution]:
        """The contributions first discovered by ``user_id``."""
        return [c for c in self.contributions() if c.user_id == user_id]

    def __len__(self) -> int:
        return len(self._contributions)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._contributions


@dataclass
class ExplorationThread:
    """A visible trail of one member's queries."""

    owner_id: str
    thread_id: int = field(default_factory=lambda: next(_THREAD_COUNTER))
    steps: List[Query] = field(default_factory=list)
    taken_over_by: List[str] = field(default_factory=list)

    def extend(self, query: Query) -> None:
        """Append a query to the thread's trail."""
        self.steps.append(query)

    @property
    def last_query(self) -> Optional[Query]:
        """The most recent query of the thread, if any."""
        return self.steps[-1] if self.steps else None

    def pick_up(self, user_id: str) -> Optional[Query]:
        """Another member continues this thread from its last query.

        Returns the query to continue from (the caller re-issues it under
        their own profile, per §7).
        """
        if user_id != self.owner_id and user_id not in self.taken_over_by:
            self.taken_over_by.append(user_id)
        return self.last_query
