"""Tests for negotiation utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.negotiation import (
    AdditiveUtility,
    NegotiationPreferences,
    buyer_utility,
    seller_utility,
    standard_qos_issue_space,
)

SPACE = standard_qos_issue_space(max_price=10.0, max_response_time=10.0)


def _random_offer(price, rt, quality):
    return {
        "price": price,
        "response_time": rt,
        "completeness": quality,
        "freshness": quality,
        "correctness": quality,
    }


class TestAdditiveUtility:
    def test_buyer_likes_cheap_and_good(self):
        buyer = buyer_utility(SPACE)
        great = _random_offer(price=0.0, rt=0.01, quality=1.0)
        awful = _random_offer(price=10.0, rt=10.0, quality=0.0)
        assert buyer(great) > 0.99
        assert buyer(awful) < 0.01

    def test_seller_preferences_opposed(self):
        buyer = buyer_utility(SPACE)
        seller = seller_utility(SPACE)
        offer = _random_offer(price=8.0, rt=8.0, quality=0.2)
        assert seller(offer) > 0.5 > buyer(offer)

    def test_weights_must_cover_space(self):
        with pytest.raises(ValueError):
            AdditiveUtility(SPACE, {"price": 1.0}, {name: True for name in SPACE.names})

    def test_negative_weight_rejected(self):
        weights = {name: 1.0 for name in SPACE.names}
        weights["price"] = -1.0
        with pytest.raises(ValueError):
            AdditiveUtility(SPACE, weights, {name: True for name in SPACE.names})

    def test_ideal_and_worst_are_extremes(self):
        buyer = buyer_utility(SPACE)
        assert buyer(buyer.ideal()) == pytest.approx(1.0)
        assert buyer(buyer.worst()) == pytest.approx(0.0)

    @given(st.floats(min_value=0, max_value=1))
    def test_iso_utility_hits_target(self, target):
        buyer = buyer_utility(SPACE)
        offer = buyer.iso_utility_offer(target)
        assert buyer(offer) == pytest.approx(target, abs=1e-3)

    def test_iso_utility_toward_opponent(self):
        buyer = buyer_utility(SPACE)
        seller = seller_utility(SPACE)
        toward_seller = buyer.iso_utility_offer(0.6, toward=seller.ideal())
        neutral = buyer.iso_utility_offer(0.6)
        # Steering toward the seller should make the seller (weakly) happier.
        assert seller(toward_seller) >= seller(neutral) - 1e-6

    def test_iso_utility_invalid_target(self):
        with pytest.raises(ValueError):
            buyer_utility(SPACE).iso_utility_offer(1.5)


class TestPreferences:
    def test_invalid_reservation(self):
        with pytest.raises(ValueError):
            NegotiationPreferences(buyer_utility(SPACE), reservation=2.0)
