"""Continuous feeds: standing queries over source update streams.

"She immediately establishes a stream to retrieve every item from the
auction catalog and compare it with material she already has" (§9).  A
:class:`StandingQuery` is a persistent filter; the :class:`FeedService`
subscribes to source :class:`~repro.sources.streams.UpdateStream`s, scores
every new item against every standing query, and delivers hits to the
owner's inbox.

Standing queries can be *modified while running* — e.g. adding new
comparison objects — which is the paper's "modifying a query while it is
being executed".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.data.items import InformationItem
from repro.query.model import Query
from repro.sources.streams import UpdateStream
from repro.uncertainty.calibration import BinnedCalibrator
from repro.uncertainty.matching import MatchingEngine
from repro.uncertainty.results import UncertainMatch

_STANDING_COUNTER = itertools.count()


@dataclass
class FeedHit:
    """One item delivered by a standing query."""

    standing_id: int
    match: UncertainMatch
    delivered_at: float


@dataclass
class StandingQuery:
    """A persistent filter over incoming items.

    ``comparison_items`` is the evolving set of evidence objects; a new
    item matches when its best score against any of them clears the
    threshold.
    """

    owner_id: str
    comparison_items: List[InformationItem]
    threshold: float = 0.5
    domains: Optional[Sequence[str]] = None
    standing_id: int = field(default_factory=lambda: next(_STANDING_COUNTER))

    def __post_init__(self) -> None:
        if not self.comparison_items:
            raise ValueError("standing query needs at least one comparison item")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")

    def targets_domain(self, domain: str) -> bool:
        """Whether this standing query screens items from ``domain``."""
        return self.domains is None or domain in self.domains

    @classmethod
    def from_query(cls, query: Query, threshold: Optional[float] = None) -> "StandingQuery":
        """Build a standing query from a one-shot query."""
        return cls(
            owner_id=query.issuer_id,
            comparison_items=[query.evidence_item()],
            threshold=threshold if threshold is not None else 0.5,
            domains=query.target_domains,
        )


class FeedService:
    """Routes new stream items through standing queries to inboxes."""

    def __init__(
        self,
        engine: MatchingEngine,
        calibrator: Optional[BinnedCalibrator] = None,
        now_fn: Callable[[], float] = lambda: 0.0,
    ):
        self.engine = engine
        self.calibrator = calibrator
        self.now_fn = now_fn
        self._standing: Dict[int, StandingQuery] = {}
        self._inboxes: Dict[str, List[FeedHit]] = {}
        self.items_screened = 0

    # ------------------------------------------------------------------
    def register(self, standing: StandingQuery) -> int:
        """Install a standing query; returns its id."""
        self._standing[standing.standing_id] = standing
        self._inboxes.setdefault(standing.owner_id, [])
        return standing.standing_id

    def attach(self, stream: UpdateStream) -> None:
        """Subscribe this service to a source's update stream."""
        stream.subscribe(self.on_new_item)

    # ------------------------------------------------------------------
    def on_new_item(self, source_id: str, item: InformationItem) -> None:
        """Screen one incoming item against all standing queries."""
        self.items_screened += 1
        for standing in self._standing.values():
            if not standing.targets_domain(item.domain):
                continue
            score = max(
                self.engine.score(evidence, item)
                for evidence in standing.comparison_items
            )
            if self.calibrator is not None and self.calibrator.is_fitted:
                probability = self.calibrator.predict(score)
            else:
                probability = score
            if probability >= standing.threshold:
                hit = FeedHit(
                    standing_id=standing.standing_id,
                    match=UncertainMatch(
                        item=item,
                        score=min(1.0, score),
                        probability=probability,
                        source_id=source_id,
                    ),
                    delivered_at=self.now_fn(),
                )
                self._inboxes.setdefault(standing.owner_id, []).append(hit)

    # ------------------------------------------------------------------
    def drain(self, owner_id: str) -> List[FeedHit]:
        """Take and clear the owner's inbox."""
        hits = self._inboxes.get(owner_id, [])
        self._inboxes[owner_id] = []
        return hits


def reset_standing_ids() -> None:
    """Reset the standing-query counter (tests only)."""
    global _STANDING_COUNTER
    _STANDING_COUNTER = itertools.count()
