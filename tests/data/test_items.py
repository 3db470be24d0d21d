"""Tests for typed information items."""

import numpy as np
import pytest

from repro.data import CompoundObject, InformationItem, MediaObject, combined_latent, make_item_id


def _item(item_id="i1", latent=None):
    return InformationItem(
        item_id=item_id,
        domain="museum",
        latent=latent if latent is not None else np.array([0.5, 0.5]),
        created_at=10.0,
    )


class TestBaseItem:
    def test_age(self):
        assert _item().age(now=15.0) == 5.0

    def test_age_never_negative(self):
        assert _item().age(now=3.0) == 0.0

    def test_identity_equality(self):
        a = _item("same")
        b = _item("same")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert _item("a") != _item("b")

    def test_make_item_id_unique(self):
        ids = {make_item_id("x") for __ in range(100)}
        assert len(ids) == 100


class TestCompoundObject:
    def test_negative_weight_rejected(self):
        part = _item("p")
        with pytest.raises(ValueError):
            CompoundObject(
                item_id="c", domain="d", latent=np.array([1.0, 0.0]),
                parts=[(part, -1.0)],
            )

    def test_flat_parts_recursive(self):
        leaf1, leaf2 = _item("l1"), _item("l2")
        inner = CompoundObject(
            item_id="inner", domain="d", latent=np.array([1.0, 0.0]),
            parts=[(leaf1, 2.0)],
        )
        outer = CompoundObject(
            item_id="outer", domain="d", latent=np.array([1.0, 0.0]),
            parts=[(inner, 0.5), (leaf2, 1.0)],
        )
        flattened = outer.flat_parts()
        assert (leaf1, 1.0) in flattened
        assert (leaf2, 1.0) in flattened

    def test_combined_latent_weighted_average(self):
        a = _item("a", latent=np.array([1.0, 0.0]))
        b = _item("b", latent=np.array([0.0, 1.0]))
        latent = combined_latent([(a, 3.0), (b, 1.0)])
        np.testing.assert_allclose(latent, [0.75, 0.25])

    def test_combined_latent_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_latent([])

    def test_combined_latent_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            combined_latent([(_item("a"), 0.0)])


class TestCensus:
    def test_media_kind(self):
        media = MediaObject(
            item_id="m", domain="d", latent=np.array([1.0]),
            true_features=np.ones(4),
        )
        assert media.media_kind == "image"
