"""Sorted, bucketed collection index backing information sources.

The legacy source stored ``(item, visible_at)`` pairs in one flat list and
answered every question — "what is visible at ``now``?", "how many museum
items do I hold?" — with a full O(N) scan, three times per subquery.  The
index keeps items in per-domain buckets sorted by ``(visible_at, seq)``,
so visibility questions become a bisect: every item visible at ``now`` is
a *prefix* of its bucket.  That prefix property is also what lets sources
cache prepared :class:`~repro.uncertainty.matching.CandidateBlock` batch
state per domain and reuse it across queries at different virtual times.

Invalidation contract: ``dirty_from(domain)`` reports the smallest bucket
position touched since the caller's last ``checkpoint(domain)``.  Appends
past a cached block's length mean the cache can be *extended* in place;
an insertion inside the cached prefix forces a rebuild.  Buckets are only
ever accessed by explicit key — no hash-ordered iteration with effects —
keeping the determinism lint happy.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, List, Optional, Tuple

from repro.data.items import InformationItem

#: sentinel sequence number larger than any real one, for bisect probes
_MAX_SEQ = 1 << 62

#: bucket entries are (visible_at, ingest sequence number, item); the
#: sequence number is unique, so tuple comparison never reaches the item
_Entry = Tuple[float, int, InformationItem]


class CollectionIndex:
    """Items bucketed by domain and sorted by visibility time."""

    #: bucket key holding every item regardless of domain
    ALL = None

    def __init__(self) -> None:
        self._seq = 0
        self._buckets: Dict[Optional[str], List[_Entry]] = {self.ALL: []}
        # Smallest position touched per bucket since its last checkpoint;
        # absent key = untouched.
        self._dirty_from: Dict[Optional[str], int] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, item: InformationItem, visible_at: float) -> None:
        """Index ``item``, visible to queries from ``visible_at`` on."""
        entry: _Entry = (visible_at, self._seq, item)
        self._seq += 1
        self._insert(self.ALL, entry)
        self._insert(item.domain, entry)

    def _insert(self, key: Optional[str], entry: _Entry) -> None:
        bucket = self._buckets.setdefault(key, [])
        # Probing with the (visible_at, seq) prefix compares strictly
        # before the full entry, so the item itself is never compared.
        position = bisect_right(bucket, entry[:2])  # type: ignore[arg-type]
        insort(bucket, entry)
        previous = self._dirty_from.get(key)
        if previous is None or position < previous:
            self._dirty_from[key] = position

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def bucket_items(self, domain: Optional[str] = None) -> List[InformationItem]:
        """All items of a bucket in ``(visible_at, seq)`` order."""
        return [item for __, __, item in self._buckets.get(domain, [])]

    def visible_count(self, now: float, domain: Optional[str] = None) -> int:
        """How many items of the bucket are visible at ``now`` (bisect)."""
        bucket = self._buckets.get(domain, [])
        return bisect_right(bucket, (now, _MAX_SEQ))  # type: ignore[arg-type]

    def visible_items(
        self, now: float, domain: Optional[str] = None
    ) -> List[InformationItem]:
        """Visible items in *ingestion* order (legacy-compatible)."""
        bucket = self._buckets.get(domain, [])
        prefix = bucket[: self.visible_count(now, domain)]
        return [item for __, __, item in sorted(prefix, key=lambda e: e[1])]

    def domain_size(self, domain: Optional[str] = None) -> int:
        """Total number of indexed items in the bucket (visible or not)."""
        return len(self._buckets.get(domain, []))

    @property
    def size(self) -> int:
        """Total number of indexed items."""
        return len(self._buckets[self.ALL])

    # ------------------------------------------------------------------
    # Cache-coherence protocol
    # ------------------------------------------------------------------
    def dirty_from(self, domain: Optional[str] = None) -> Optional[int]:
        """Smallest bucket position modified since the last checkpoint.

        ``None`` means the bucket is untouched: any cache built at the
        last checkpoint is still position-for-position valid.
        """
        return self._dirty_from.get(domain)

    def checkpoint(self, domain: Optional[str] = None) -> None:
        """Mark the caller's cache as synchronised with the bucket."""
        self._dirty_from.pop(domain, None)
