"""Alternating-offers bilateral negotiation.

The buyer and the seller exchange offers in rounds until one accepts, a
deadline passes, or both would rather walk away.  Acceptance rule: accept
the standing offer when it is at least as good (for me) as the counter I
am about to send — the standard monotonic-concession acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.negotiation.offers import Offer
from repro.negotiation.strategies import ConcessionStrategy
from repro.negotiation.utility import NegotiationPreferences


@dataclass
class Negotiator:
    """One party in a bilateral negotiation."""

    name: str
    preferences: NegotiationPreferences
    strategy: ConcessionStrategy

    def target(self, t: float, opponent_history: List[float]) -> float:
        """Demanded own-utility at time ``t`` (never below reservation)."""
        return max(
            self.preferences.reservation,
            self.strategy.target(t, self.preferences.reservation, opponent_history),
        )

    def propose(self, t: float, opponent_history: List[float],
                opponent_last: Optional[Offer]) -> Offer:
        """Generate the counter-offer for time ``t``."""
        target = self.target(t, opponent_history)
        return self.preferences.utility.iso_utility_offer(target, toward=opponent_last)

    def accepts(self, offer: Offer, own_next: Offer) -> bool:
        """Accept when the standing offer beats our own next proposal."""
        utility = self.preferences.utility
        if utility(offer) < self.preferences.reservation:
            return False
        return utility(offer) >= utility(own_next) - 1e-9


@dataclass
class NegotiationOutcome:
    """Result of one bilateral encounter."""

    agreed: bool
    deal: Optional[Offer]
    rounds: int
    buyer_utility: float
    seller_utility: float
    transcript: List[Offer] = field(default_factory=list)

    @property
    def joint_utility(self) -> float:
        """Buyer + seller utility of the deal (0 if no deal)."""
        return self.buyer_utility + self.seller_utility if self.agreed else 0.0


class AlternatingOffersProtocol:
    """Runs bilateral alternating-offers negotiations.

    Parameters
    ----------
    max_rounds:
        Deadline: total number of offers that may be exchanged.
        Normalised time ``t`` for strategies is round / max_rounds.
    """

    def __init__(self, max_rounds: int = 20):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.max_rounds = max_rounds

    def run(self, buyer: Negotiator, seller: Negotiator) -> NegotiationOutcome:
        """Negotiate; the buyer opens."""
        transcript: List[Offer] = []
        # Histories of the opponent's offers valued in each party's utility.
        buyer_view_of_seller: List[float] = []
        seller_view_of_buyer: List[float] = []
        standing: Optional[Offer] = None
        proposer, responder = buyer, seller
        for round_index in range(self.max_rounds):
            t = round_index / self.max_rounds
            if proposer is buyer:
                history = buyer_view_of_seller
            else:
                history = seller_view_of_buyer
            proposal = proposer.propose(t, history, standing)
            transcript.append(dict(proposal))
            # Record how the responder values the new proposal.
            if responder is buyer:
                buyer_view_of_seller.append(responder.preferences.utility(proposal))
            else:
                seller_view_of_buyer.append(responder.preferences.utility(proposal))
            # Responder decides: accept or plan a counter.
            t_next = (round_index + 1) / self.max_rounds
            responder_history = (
                buyer_view_of_seller if responder is buyer else seller_view_of_buyer
            )
            counter = responder.propose(min(t_next, 1.0), responder_history, proposal)
            if responder.accepts(proposal, counter):
                return NegotiationOutcome(
                    agreed=True,
                    deal=proposal,
                    rounds=round_index + 1,
                    buyer_utility=buyer.preferences.utility(proposal),
                    seller_utility=seller.preferences.utility(proposal),
                    transcript=transcript,
                )
            standing = proposal
            proposer, responder = responder, proposer
        return NegotiationOutcome(
            agreed=False,
            deal=None,
            rounds=self.max_rounds,
            buyer_utility=0.0,
            seller_utility=0.0,
            transcript=transcript,
        )
