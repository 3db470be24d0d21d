"""Fuzz tests: CollectionIndex invalidation under interleaved writes.

Sources keep one prepared candidate block per domain and keep it
coherent with :class:`CollectionIndex` through ``dirty_from``/
``checkpoint``.  The protocol is fuzzed here against a naive reference
model over arbitrary interleavings of appends, prefix inserts and
checkpoints.
"""

from bisect import bisect_right, insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InformationItem
from repro.sources import CollectionIndex

pytestmark = [pytest.mark.property]

_DOMAINS = ["alpha", "beta", None]  # None = the ALL bucket key


def _item(index: int, domain: str) -> InformationItem:
    return InformationItem(
        item_id=f"fz-{domain}-{index}", domain=domain, latent=np.zeros(2)
    )


# An op is ("add", domain_index in {0,1}, visible_at) or
# ("checkpoint", domain_index in {0,1,2}) — adds never target the ALL
# bucket directly (CollectionIndex.add maintains it implicitly).
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=1),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        st.tuples(st.just("checkpoint"), st.integers(min_value=0, max_value=2)),
    ),
    min_size=0,
    max_size=40,
)


class _ReferenceModel:
    """Naive re-implementation of bucket order + dirty tracking."""

    def __init__(self):
        self.seq = 0
        self.buckets = {None: []}
        self.dirty = {}

    def add(self, domain, visible_at):
        entry = (visible_at, self.seq)
        self.seq += 1
        for key in (None, domain):
            bucket = self.buckets.setdefault(key, [])
            position = bisect_right(bucket, entry)
            insort(bucket, entry)
            if key not in self.dirty or position < self.dirty[key]:
                self.dirty[key] = position

    def checkpoint(self, domain):
        self.dirty.pop(domain, None)


class TestDirtyFromFuzz:
    @settings(max_examples=120, deadline=None)
    @given(ops=_OPS)
    def test_dirty_from_matches_reference_model(self, ops):
        """``dirty_from`` is exactly the smallest touched position."""
        index = CollectionIndex()
        model = _ReferenceModel()
        counter = 0
        for op in ops:
            if op[0] == "add":
                __, domain_index, visible_at = op
                domain = _DOMAINS[domain_index]
                index.add(_item(counter, domain), visible_at)
                model.add(domain, visible_at)
                counter += 1
            else:
                domain = _DOMAINS[op[1]]
                index.checkpoint(domain)
                model.checkpoint(domain)
            for key in _DOMAINS:
                assert index.dirty_from(key) == model.dirty.get(key), (
                    f"bucket {key!r} after {op}"
                )

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_bucket_order_matches_reference_model(self, ops):
        """Buckets stay sorted by (visible_at, seq) under any interleaving."""
        index = CollectionIndex()
        model = _ReferenceModel()
        counter = 0
        items = {}
        for op in ops:
            if op[0] != "add":
                continue
            __, domain_index, visible_at = op
            domain = _DOMAINS[domain_index]
            item = _item(counter, domain)
            items[model.seq] = item
            index.add(item, visible_at)
            model.add(domain, visible_at)
            counter += 1
        for key in _DOMAINS:
            expected = [items[seq] for __, seq in model.buckets.get(key, [])]
            assert index.bucket_items(key) == expected
