"""Tests for post-settlement mediation."""

import pytest

from repro.negotiation import (
    AlternatingOffersProtocol,
    Mediator,
    NegotiationPreferences,
    Negotiator,
    buyer_utility,
    linear,
    seller_utility,
    standard_qos_issue_space,
)
from repro.sim import RngStreams

SPACE = standard_qos_issue_space(max_price=10.0, max_response_time=10.0)


def _mediator(seed=3, proposals=300):
    return Mediator(SPACE, RngStreams(seed).spawn("med"), proposals=proposals)


def _opposed_weights():
    """Buyer cares about quality issues; seller about price — integrative."""
    buyer_w = {"price": 0.5, "response_time": 0.5, "completeness": 3.0,
               "freshness": 3.0, "correctness": 3.0}
    seller_w = {"price": 4.0, "response_time": 1.0, "completeness": 0.3,
                "freshness": 0.3, "correctness": 0.3}
    return buyer_utility(SPACE, buyer_w), seller_utility(SPACE, seller_w)


class TestMediator:
    def test_never_hurts_either_party(self):
        buyer, seller = _opposed_weights()
        deal = {issue.name: (issue.low + issue.high) / 2 for issue in SPACE.issues}
        outcome = _mediator().improve(deal, buyer, seller)
        assert outcome.buyer_gain >= -1e-9
        assert outcome.seller_gain >= -1e-9

    def test_finds_integrative_value_on_diagonal_deal(self):
        """A negotiated midpoint deal leaves surplus a mediator recovers."""
        buyer, seller = _opposed_weights()
        protocol = AlternatingOffersProtocol(max_rounds=40)
        negotiated = protocol.run(
            Negotiator("b", NegotiationPreferences(buyer, 0.25), linear()),
            Negotiator("s", NegotiationPreferences(seller, 0.25), linear()),
        )
        assert negotiated.agreed
        outcome = _mediator().improve(negotiated.deal, buyer, seller)
        assert outcome.rounds_accepted > 0
        assert outcome.buyer_gain + outcome.seller_gain > 0.05

    def test_pareto_optimal_corner_cannot_improve_much(self):
        buyer, seller = _opposed_weights()
        # Give every issue to whoever weights it more: near Pareto-optimal.
        corner = {}
        for issue in SPACE.issues:
            if buyer.weights[issue.name] >= seller.weights[issue.name]:
                corner[issue.name] = buyer.ideal()[issue.name]
            else:
                corner[issue.name] = seller.ideal()[issue.name]
        outcome = _mediator().improve(corner, buyer, seller)
        assert outcome.buyer_gain + outcome.seller_gain < 0.05

    def test_improved_offer_is_valid(self):
        buyer, seller = _opposed_weights()
        deal = buyer.iso_utility_offer(0.5)
        outcome = _mediator().improve(deal, buyer, seller)
        SPACE.validate(outcome.improved)

    def test_deterministic_given_seed(self):
        buyer, seller = _opposed_weights()
        deal = buyer.iso_utility_offer(0.5)
        a = _mediator(seed=9).improve(deal, buyer, seller)
        b = _mediator(seed=9).improve(deal, buyer, seller)
        assert a.improved == b.improved

    def test_invalid_params(self):
        streams = RngStreams(1).spawn("m")
        with pytest.raises(ValueError):
            Mediator(SPACE, streams, proposals=0)
        with pytest.raises(ValueError):
            Mediator(SPACE, streams, step_scale=0.0)
