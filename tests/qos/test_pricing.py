"""Tests for SLA pricing policies."""

import pytest

from repro.qos import (
    FlatPricing,
    QoSRequirement,
    Quote,
    RiskPricedPremium,
)

REQ = QoSRequirement(min_completeness=0.8)


class TestQuote:
    def test_total(self):
        assert Quote(10.0, 2.0, 5.0).total == 12.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Quote(-1.0, 0.0, 0.0)


class TestFlatPricing:
    def test_premium_ignores_risk(self):
        policy = FlatPricing(flat_premium=0.7)
        low = policy.quote(REQ, base_cost=10.0, breach_probability=0.01)
        high = policy.quote(REQ, base_cost=10.0, breach_probability=0.9)
        assert low.premium == high.premium == 0.7

    def test_margin_applied(self):
        quote = FlatPricing(margin=1.5).quote(REQ, 10.0, 0.1)
        assert quote.base_price == pytest.approx(15.0)

    def test_invalid_breach_probability(self):
        with pytest.raises(ValueError):
            FlatPricing().quote(REQ, 10.0, 1.5)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            FlatPricing().quote(REQ, -2.0, 0.5)


class TestRiskPricedPremium:
    def test_premium_scales_with_risk(self):
        policy = RiskPricedPremium()
        low = policy.quote(REQ, 10.0, 0.1)
        high = policy.quote(REQ, 10.0, 0.5)
        assert high.premium == pytest.approx(5 * low.premium)

    def test_zero_risk_zero_premium(self):
        assert RiskPricedPremium().quote(REQ, 10.0, 0.0).premium == 0.0

    def test_premium_is_fair_plus_loading(self):
        policy = RiskPricedPremium(margin=1.0, loading=0.25, compensation_multiple=2.0)
        quote = policy.quote(REQ, 10.0, 0.3)
        fair = 0.3 * quote.compensation
        assert quote.premium == pytest.approx(fair * 1.25)
