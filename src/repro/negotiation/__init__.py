"""Negotiation: bilateral bargaining and market protocols (paper §4).

Public API:

- Offers: :class:`Issue`, :class:`IssueSpace`,
  :func:`standard_qos_issue_space`.
- Utilities: :class:`AdditiveUtility`, :class:`NegotiationPreferences`,
  :func:`buyer_utility`, :func:`seller_utility`.
- Strategies: :func:`boulware`, :func:`conceder`, :func:`linear`,
  :class:`TitForTatStrategy`, :class:`FirmStrategy`,
  :func:`standard_strategy_suite`.
- Bilateral protocol: :class:`Negotiator`,
  :class:`AlternatingOffersProtocol`, :class:`NegotiationOutcome`.
- Market protocol: :class:`ContractNetProtocol`,
  :class:`CallForProposals`, :class:`Proposal`,
  :class:`ContractNetOutcome`, :func:`consumer_bid_score`.
- Subcontracting: :class:`Intermediary`, :class:`SubcontractRecord`.
"""

from repro.negotiation.contract_net import (
    Bidder,
    CallForProposals,
    ContractNetOutcome,
    ContractNetProtocol,
    Proposal,
    consumer_bid_score,
)
from repro.negotiation.mediation import MediationOutcome, Mediator
from repro.negotiation.offers import Issue, IssueSpace, Offer, standard_qos_issue_space
from repro.negotiation.protocol import (
    AlternatingOffersProtocol,
    NegotiationOutcome,
    Negotiator,
)
from repro.negotiation.strategies import (
    ConcessionStrategy,
    FirmStrategy,
    TimeDependentStrategy,
    TitForTatStrategy,
    boulware,
    conceder,
    linear,
    standard_strategy_suite,
)
from repro.negotiation.subcontract import Intermediary, SubcontractRecord
from repro.negotiation.utility import (
    AdditiveUtility,
    NegotiationPreferences,
    buyer_utility,
    seller_utility,
)

__all__ = [
    "AdditiveUtility",
    "AlternatingOffersProtocol",
    "Bidder",
    "CallForProposals",
    "ConcessionStrategy",
    "ContractNetOutcome",
    "ContractNetProtocol",
    "FirmStrategy",
    "Intermediary",
    "Issue",
    "IssueSpace",
    "MediationOutcome",
    "Mediator",
    "NegotiationOutcome",
    "NegotiationPreferences",
    "Negotiator",
    "Offer",
    "Proposal",
    "SubcontractRecord",
    "TimeDependentStrategy",
    "TitForTatStrategy",
    "boulware",
    "buyer_utility",
    "conceder",
    "consumer_bid_score",
    "linear",
    "seller_utility",
    "standard_qos_issue_space",
    "standard_strategy_suite",
]
