"""Append-only, bucketed collection index backing information sources.

The legacy source stored ``(item, visible_at)`` pairs in one flat list and
answered every question — "what is visible at ``now``?", "how many museum
items do I hold?" — with a full O(N) scan, three times per subquery.  The
index keeps items in per-domain buckets, each in ingest order with every
item's visible-at time stored beside it.  A bucket only ever grows at its
end, so a position names the same item forever: sources build their
prepared :class:`~repro.uncertainty.matching.CandidateBlock` per bucket
once and only ever extend it with the items ingested since.

"Visible at ``now``" is a mask over a bucket: the ascending positions
whose time is ``<= now``.  Each bucket tracks its latest visible-at time,
so when the whole bucket is visible (a historical corpus, or a live one
once its freshness lags have elapsed) the mask is ``range(len(bucket))``
without a scan.  Buckets are only ever accessed by explicit key — no
hash-ordered iteration with effects — keeping the determinism lint happy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.data.items import InformationItem


class _Bucket:
    """One bucket's items in ingest order, with their visible-at times."""

    __slots__ = ("items", "visible_at", "latest")

    def __init__(self) -> None:
        self.items: List[InformationItem] = []
        self.visible_at: List[float] = []
        self.latest = -math.inf  # the largest visible-at time held


class CollectionIndex:
    """Items bucketed by domain, append-only in ingest order."""

    #: bucket key holding every item regardless of domain
    ALL = None

    def __init__(self) -> None:
        self._buckets: Dict[Optional[str], _Bucket] = {self.ALL: _Bucket()}

    def add(self, item: InformationItem, visible_at: float) -> None:
        """Index ``item``, visible to queries from ``visible_at`` on."""
        for key in (self.ALL, item.domain):
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket()
            bucket.items.append(item)
            bucket.visible_at.append(visible_at)
            bucket.latest = max(bucket.latest, visible_at)

    def _bucket(self, domain: Optional[str]) -> _Bucket:
        bucket = self._buckets.get(domain)
        return _Bucket() if bucket is None else bucket

    def bucket_items(
        self, domain: Optional[str] = None, start: int = 0
    ) -> List[InformationItem]:
        """The bucket's items from position ``start`` on, in ingest order."""
        return self._bucket(domain).items[start:]

    def visible_positions(
        self, now: float, domain: Optional[str] = None
    ) -> Sequence[int]:
        """Ascending bucket positions of the items visible at ``now``."""
        bucket = self._bucket(domain)
        if now >= bucket.latest:
            return range(len(bucket.items))
        return [p for p, at in enumerate(bucket.visible_at) if at <= now]

    def visible_count(self, now: float, domain: Optional[str] = None) -> int:
        """How many items of the bucket are visible at ``now``."""
        return len(self.visible_positions(now, domain))

    def visible_items(
        self, now: float, domain: Optional[str] = None
    ) -> List[InformationItem]:
        """Visible items in ingest order."""
        bucket = self._bucket(domain)
        if now >= bucket.latest:
            return list(bucket.items)
        return [item for item, at in zip(bucket.items, bucket.visible_at) if at <= now]

    def domain_size(self, domain: Optional[str] = None) -> int:
        """Total number of indexed items in the bucket (visible or not)."""
        return len(self._bucket(domain).items)
