"""Trading-based query optimization.

This is the paper's central §4 idea made concrete: "query optimization
should be modeled as a trading negotiation process".  For every job of a
decomposed query the consumer issues a call-for-proposals; sources (and
intermediaries) bid price + promised QoS; the consumer awards each job and
signs SLAs; the awarded assignments assemble into an executable plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.negotiation.contract_net import (
    Bidder,
    CallForProposals,
    ContractNetOutcome,
    ContractNetProtocol,
    Proposal,
    consumer_bid_score,
)
from repro.qos.breach import breach_probability
from repro.qos.pricing import PricingPolicy, RiskPricedPremium
from repro.qos.sla import SLAContract
from repro.qos.vector import QoSWeights
from repro.query.algebra import PlanNode, Retrieve, standard_plan
from repro.query.model import Query, decompose
from repro.sources.source import InformationSource


class SourceBidder:
    """Adapts an :class:`InformationSource` to the contract-net Bidder API.

    The source knows its own true quality, estimates its breach risk for
    the requested requirement honestly, declines jobs it would almost
    surely breach, and prices the rest through its pricing policy.  What
    it *promises* (the advertised vector) may still be rosier than the
    truth — that gap is what reputation eventually punishes.
    """

    def __init__(
        self,
        source: InformationSource,
        pricing: Optional[PricingPolicy] = None,
        risk_tolerance: float = 0.9,
        now: float = 0.0,
    ):
        if not 0.0 <= risk_tolerance <= 1.0:
            raise ValueError("risk_tolerance must be in [0, 1]")
        self.source = source
        self.pricing = pricing if pricing is not None else RiskPricedPremium()
        self.risk_tolerance = risk_tolerance
        self.now = now

    def __call__(self, cfp: CallForProposals) -> Optional[Proposal]:
        source = self.source
        if cfp.domain not in source.domains:
            return None
        ok, __ = source.accepts(cfp.consumer_id, self.now)
        if not ok:
            return None
        truth = source.true_quality_vector(self.now, cfp.domain)
        risk = breach_probability(truth, cfp.requirement)
        if risk > self.risk_tolerance:
            return None
        base_cost = truth.response_time
        quote = self.pricing.quote(cfp.requirement, base_cost, risk)
        return Proposal(
            provider_id=source.source_id,
            cfp=cfp,
            quote=quote,
            promised=source.advertised_quality(self.now, cfp.domain),
        )


@dataclass
class NegotiatedPlan:
    """The outcome of trading one query in the market."""

    query: Query
    plan: Optional[PlanNode]
    contracts: List[SLAContract] = field(default_factory=list)
    outcomes: List[ContractNetOutcome] = field(default_factory=list)
    unserved_jobs: List[str] = field(default_factory=list)


class TradingOptimizer:
    """Plans queries by running one contract-net auction per job.

    Parameters
    ----------
    bidders:
        The market's bidder pool (source adapters and intermediaries).
    weights:
        Consumer trade-off weights used to score proposals.
    price_sensitivity:
        Price term in the bid score.
    min_score:
        Consumer's outside option; lower-scoring markets go unserved.
    """

    def __init__(
        self,
        bidders: Sequence[Bidder],
        weights: QoSWeights,
        price_sensitivity: float = 0.02,
        min_score: float = 0.0,
    ):
        self.bidders = list(bidders)
        self.weights = weights
        self.price_sensitivity = price_sensitivity
        self.min_score = min_score

    def _protocol(self) -> ContractNetProtocol:
        protocol = ContractNetProtocol(
            consumer_bid_score(self.weights, self.price_sensitivity),
            min_score=self.min_score,
        )
        for bidder in self.bidders:
            hook = getattr(bidder, "on_award", None)
            if hook is not None:
                protocol.on_award(hook)
        return protocol

    def negotiate(
        self,
        query: Query,
        domains: Sequence[str],
        now: float = 0.0,
    ) -> NegotiatedPlan:
        """Trade every job of ``query`` and assemble the awarded plan."""
        result = NegotiatedPlan(query=query, plan=None)
        retrieves: List[Retrieve] = []
        for subquery in decompose(query, domains):
            cfp = CallForProposals(
                job_id=subquery.subquery_id,
                domain=subquery.domain,
                requirement=query.requirement,
                consumer_id=query.issuer_id,
                issued_at=now,
            )
            outcome = self._protocol().run(cfp, self.bidders, now=now)
            result.outcomes.append(outcome)
            if outcome.contract is None:
                result.unserved_jobs.append(subquery.subquery_id)
                continue
            result.contracts.append(outcome.contract)
            retrieves.append(Retrieve(subquery, outcome.awarded.executor_id))
        if retrieves:
            result.plan = standard_plan(retrieves, k=query.k)
        return result
