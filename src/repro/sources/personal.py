"""Personal information bases.

"She stores documents and other objects of high interest as well as her
annotations in a personal information base that she maintains, which she
also shares with Jason" (§1).  A :class:`PersonalInformationBase` is a
small user-owned source: saved items and annotations, queryable with the
same machinery as public sources, access-controlled by an explicit share
list.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Set, Tuple

from repro.data.items import Annotation, InformationItem
from repro.sim.rng import ScopedStreams
from repro.sources.source import InformationSource, SourceQuality
from repro.uncertainty.matching import MatchingEngine

PERSONAL_DOMAIN = "personal-base"


class PersonalInformationBase(InformationSource):
    """A user's private, shareable collection.

    Inherits the full source behaviour (matching, answering, estimates)
    with perfect quality parameters — one's own shelf is complete, fresh
    and correct — and adds an explicit share list: only the owner and
    users the owner shared with may query it.
    """

    def __init__(
        self,
        owner_id: str,
        engine: MatchingEngine,
        streams: ScopedStreams,
        node_id: Optional[str] = None,
    ):
        super().__init__(
            source_id=f"personal-{owner_id}",
            node_id=node_id if node_id is not None else f"node-{owner_id}",
            domains=[PERSONAL_DOMAIN],
            quality=SourceQuality(
                coverage=1.0, freshness_lag=0.0, error_rate=0.0,
                trust_class="well-known", overpromise=0.0,
            ),
            engine=engine,
            streams=streams,
        )
        self.owner_id = owner_id
        self._shared_with: Set[str] = set()

    # ------------------------------------------------------------------
    # Sharing
    # ------------------------------------------------------------------
    def share_with(self, user_id: str) -> None:
        """Grant ``user_id`` read access (the owner always has access)."""
        self._shared_with.add(user_id)

    def has_access(self, user_id: str) -> bool:
        """Whether ``user_id`` may read the base."""
        return user_id == self.owner_id or user_id in self._shared_with

    def accepts(self, consumer_id: str, now: float) -> Tuple[bool, str]:
        """Access check: private to the owner and its share list."""
        if not self.has_access(consumer_id):
            return False, "private"
        return super().accepts(consumer_id, now)

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, item: InformationItem, now: float = 0.0) -> None:
        """Store one item in the base.

        Saved items keep their original domain in metadata so the owner
        can still browse by provenance, but they are served under the
        personal domain.
        """
        stored = item
        if item.domain != PERSONAL_DOMAIN:
            # Re-domain a shallow copy; the original object is not
            # mutated (other sources may still hold it).
            stored = copy.copy(item)
            stored.metadata = dict(item.metadata)
            stored.metadata["original_domain"] = item.domain
            stored.domain = PERSONAL_DOMAIN
        self.ingest([stored], now=now, immediate=True)

    def save_all(self, items: Sequence[InformationItem], now: float = 0.0) -> None:
        """Store several items (see :meth:`save`)."""
        for item in items:
            self.save(item, now=now)

    def annotations(self, now: float = 0.0) -> List[Annotation]:
        """The annotation items stored in the base."""
        return [
            item
            for item in self.visible_items(now)
            if isinstance(item, Annotation)
        ]
