"""Browsing: profile-guided navigation over item neighbourhoods.

"People ... browse display windows or store shelves" (§9); Iris "prefers
to browse bookstores aimlessly in case she finds something interesting"
(§8).  The :class:`BrowseGraph` links items by matcher similarity (and
same-source shelf adjacency); a :class:`Browser` walks it, preferring
neighbours its profile finds interesting, with an exploration temperature
for serendipity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.data.items import InformationItem
from repro.personalization.profile import UserProfile
from repro.sim.rng import ScopedStreams
from repro.uncertainty.matching import MatchingEngine

ConceptFn = Callable[[InformationItem], np.ndarray]


class BrowseGraph:
    """A navigable similarity graph over a set of items.

    Each item links to its ``k_links`` most similar peers (by the matching
    engine) — the "store shelf" structure browsing moves along.
    """

    def __init__(self, engine: MatchingEngine, k_links: int = 4):
        if k_links < 1:
            raise ValueError("k_links must be >= 1")
        self.engine = engine
        self.k_links = k_links
        self._items: Dict[str, InformationItem] = {}
        self._links: Dict[str, List[str]] = {}

    def build(self, items: Sequence[InformationItem]) -> None:
        """Index ``items`` and wire similarity links (O(n²) scoring)."""
        if not items:
            raise ValueError("cannot build a browse graph over no items")
        self._items = {item.item_id: item for item in items}
        ids = sorted(self._items)
        for item_id in ids:
            item = self._items[item_id]
            scored = [
                (self.engine.score(item, self._items[other]), other)
                for other in ids
                if other != item_id
            ]
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            self._links[item_id] = [other for __, other in scored[: self.k_links]]

    @property
    def size(self) -> int:
        """Number of indexed items."""
        return len(self._items)

    def item(self, item_id: str) -> InformationItem:
        """Look up an indexed item by id."""
        return self._items[item_id]

    def items(self) -> List[InformationItem]:
        """All indexed items, sorted by id."""
        return [self._items[i] for i in sorted(self._items)]

    def neighbours(self, item_id: str) -> List[InformationItem]:
        """The similarity neighbours of ``item_id``."""
        if item_id not in self._links:
            raise KeyError(f"item {item_id!r} not in browse graph")
        return [self._items[i] for i in self._links[item_id]]


@dataclass
class BrowseStep:
    """One hop of a browsing walk."""

    item: InformationItem
    interest: float
    time: float = 0.0


class Browser:
    """A profile-guided walker over a browse graph.

    At each step the browser moves to a neighbour with probability
    proportional to ``exp(interest / temperature)`` — low temperature is
    the goal-driven shopper, high temperature the serendipitous one (§5's
    "quick and goal-driven vs relaxed and serendipitous").
    """

    def __init__(
        self,
        graph: BrowseGraph,
        profile: UserProfile,
        concept_fn: ConceptFn,
        streams: ScopedStreams,
        temperature: float = 0.3,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.graph = graph
        self.profile = profile
        self.concept_fn = concept_fn
        self.temperature = temperature
        self._rng = streams.stream(f"browser.{profile.user_id}")
        self.trail: List[BrowseStep] = []
        self._current: Optional[str] = None

    # ------------------------------------------------------------------
    def start(self, item_id: Optional[str] = None) -> BrowseStep:
        """Begin at ``item_id`` or at the most interesting item overall."""
        if self.graph.size == 0:
            raise RuntimeError("browse graph is empty")
        if item_id is None:
            scored = [
                (self.profile.interest_in(self.concept_fn(item)), item.item_id)
                for item in self.graph.items()
            ]
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            item_id = scored[0][1]
        item = self.graph.item(item_id)
        step = BrowseStep(item=item, interest=self.profile.interest_in(self.concept_fn(item)))
        self._current = item_id
        self.trail = [step]
        return step

    def step(self, time: float = 0.0) -> BrowseStep:
        """Move to a profile-weighted random neighbour."""
        if self._current is None:
            return self.start()
        neighbours = self.graph.neighbours(self._current)
        interests = np.array(
            [self.profile.interest_in(self.concept_fn(n)) for n in neighbours]
        )
        logits = interests / self.temperature
        logits -= logits.max()
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        index = int(self._rng.choice(len(neighbours), p=probabilities))
        chosen = neighbours[index]
        step = BrowseStep(item=chosen, interest=float(interests[index]), time=time)
        self.trail.append(step)
        self._current = chosen.item_id
        return step

    def walk(self, steps: int, start_item: Optional[str] = None) -> List[BrowseStep]:
        """A full walk of ``steps`` hops; returns the trail."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.start(start_item)
        for __ in range(steps):
            self.step()
        return list(self.trail)
