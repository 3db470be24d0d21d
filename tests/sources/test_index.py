"""Tests for the append-only, bucketed collection index."""

import numpy as np
import pytest

from repro.data import InformationItem
from repro.sources import CollectionIndex


def _item(index, domain="museum"):
    return InformationItem(
        item_id=f"ci-{domain}-{index}", domain=domain, latent=np.zeros(2)
    )


@pytest.fixture
def index():
    return CollectionIndex()


class TestVisibility:
    def test_empty_index(self, index):
        assert index.visible_count(float("inf")) == 0
        assert index.visible_items(10.0) == []
        assert index.visible_count(10.0) == 0
        assert index.domain_size("museum") == 0

    def test_prefix_by_visibility_time(self, index):
        early, late = _item(0), _item(1)
        index.add(late, visible_at=50.0)
        index.add(early, visible_at=5.0)
        assert index.visible_items(0.0) == []
        assert index.visible_items(10.0) == [early]
        assert index.visible_items(60.0) == [late, early]  # ingestion order

    def test_ingestion_order_preserved(self, index):
        items = [_item(i) for i in range(5)]
        # Visibility times deliberately shuffled vs ingestion order.
        for item, visible_at in zip(items, [30.0, 10.0, 20.0, 0.0, 15.0]):
            index.add(item, visible_at)
        assert index.visible_items(100.0) == items

    def test_boundary_is_inclusive(self, index):
        item = _item(0)
        index.add(item, visible_at=7.0)
        assert index.visible_items(7.0) == [item]
        assert index.visible_count(6.999) == 0

    def test_domain_buckets(self, index):
        museum, auction = _item(0, "museum"), _item(1, "auction")
        index.add(museum, 0.0)
        index.add(auction, 0.0)
        assert index.visible_items(1.0, "museum") == [museum]
        assert index.visible_items(1.0, "auction") == [auction]
        assert index.visible_items(1.0, "no-such-domain") == []
        assert index.visible_items(1.0) == [museum, auction]
        assert index.domain_size("museum") == 1
        assert index.visible_count(float("inf")) == 2

