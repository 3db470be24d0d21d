"""Tests for the alternating-offers protocol."""

import pytest

from repro.negotiation import (
    AlternatingOffersProtocol,
    FirmStrategy,
    NegotiationPreferences,
    Negotiator,
    TitForTatStrategy,
    boulware,
    buyer_utility,
    conceder,
    linear,
    seller_utility,
    standard_qos_issue_space,
)

SPACE = standard_qos_issue_space(max_price=10.0, max_response_time=10.0)


def _buyer(strategy, reservation=0.25):
    return Negotiator(
        "buyer",
        NegotiationPreferences(buyer_utility(SPACE), reservation),
        strategy,
    )


def _seller(strategy, reservation=0.25):
    return Negotiator(
        "seller",
        NegotiationPreferences(seller_utility(SPACE), reservation),
        strategy,
    )


class TestProtocol:
    def test_conceders_agree_quickly(self):
        outcome = AlternatingOffersProtocol(max_rounds=30).run(
            _buyer(conceder()), _seller(conceder())
        )
        assert outcome.agreed
        assert outcome.rounds < 15

    def test_two_firm_agents_fail(self):
        outcome = AlternatingOffersProtocol(max_rounds=20).run(
            _buyer(FirmStrategy()), _seller(FirmStrategy())
        )
        assert not outcome.agreed
        assert outcome.deal is None
        assert outcome.joint_utility == 0.0

    def test_boulware_vs_conceder_favors_boulware(self):
        protocol = AlternatingOffersProtocol(max_rounds=40)
        outcome = protocol.run(_buyer(boulware()), _seller(conceder()))
        assert outcome.agreed
        assert outcome.buyer_utility > outcome.seller_utility

    def test_deal_meets_reservations(self):
        protocol = AlternatingOffersProtocol(max_rounds=40)
        outcome = protocol.run(_buyer(linear(), 0.4), _seller(linear(), 0.4))
        assert outcome.agreed
        assert outcome.buyer_utility >= 0.4 - 1e-9
        assert outcome.seller_utility >= 0.4 - 1e-9

    def test_transcript_recorded(self):
        outcome = AlternatingOffersProtocol(max_rounds=30).run(
            _buyer(linear()), _seller(linear())
        )
        assert len(outcome.transcript) == outcome.rounds

    def test_deal_is_valid_offer(self):
        outcome = AlternatingOffersProtocol(max_rounds=40).run(
            _buyer(conceder()), _seller(conceder())
        )
        SPACE.validate(outcome.deal)

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            AlternatingOffersProtocol(max_rounds=0)

    def test_tit_for_tat_agrees_with_conceder(self):
        outcome = AlternatingOffersProtocol(max_rounds=60).run(
            _buyer(TitForTatStrategy()), _seller(conceder())
        )
        assert outcome.agreed

    def test_symmetric_linear_roughly_fair(self):
        outcome = AlternatingOffersProtocol(max_rounds=100).run(
            _buyer(linear()), _seller(linear())
        )
        assert outcome.agreed
        assert abs(outcome.buyer_utility - outcome.seller_utility) < 0.25
