"""Asynchronous marketplace: trading as messages over the overlay.

The synchronous :class:`~repro.optimizer.trading.TradingOptimizer` calls
bidders directly; this module runs the same contract-net rounds as actual
*network messages* in virtual time — CFPs travel to source nodes, sources
think and reply, the consumer awards when the bid deadline passes.  The
paper's "system reaction may be unpredictable" becomes literal: bids from
distant or slow nodes can miss the deadline, and down nodes never answer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.agora import Agora
from repro.negotiation.contract_net import (
    CallForProposals,
    Proposal,
    consumer_bid_score,
)
from repro.net.messages import Message
from repro.optimizer.trading import NegotiatedPlan, SourceBidder
from repro.qos.pricing import PricingPolicy
from repro.qos.sla import SLAContract
from repro.qos.vector import QoSWeights
from repro.query.algebra import Retrieve, standard_plan
from repro.query.model import Query, decompose

MarketCallback = Callable[[NegotiatedPlan], None]


@dataclass
class _PendingAuction:
    """One open CFP awaiting proposals at the consumer."""

    cfp: CallForProposals
    proposals: List[Proposal] = field(default_factory=list)
    closed: bool = False


class AsyncMarketplace:
    """Event-driven contract-net over the simulated network.

    Parameters
    ----------
    agora:
        The agora whose network, sources and clock to use.
    consumer_node:
        The overlay node the consumer sits on.
    pricing / risk_tolerance:
        Bidder-side parameters (see :class:`SourceBidder`).
    thinking_time:
        Virtual time a source spends preparing a bid before replying.
    """

    def __init__(
        self,
        agora: Agora,
        consumer_node: Optional[str] = None,
        pricing: Optional[PricingPolicy] = None,
        risk_tolerance: float = 0.9,
        thinking_time: float = 0.05,
    ):
        if thinking_time < 0:
            raise ValueError("thinking_time must be non-negative")
        self.agora = agora
        self.consumer_node = (
            consumer_node if consumer_node is not None else agora.consumer_node()
        )
        self.pricing = pricing
        self.risk_tolerance = risk_tolerance
        self.thinking_time = thinking_time
        self._pending: Dict[str, _PendingAuction] = {}
        self._sources_by_node: Dict[str, List] = defaultdict(list)
        for __, source in sorted(agora.sources.items()):
            self._sources_by_node[source.node_id].append(source)
        for node, sources in sorted(self._sources_by_node.items()):
            agora.network.register(node, self._source_handler(sources))
        agora.network.register(self.consumer_node, self._consumer_handler)
        self.bids_received = 0
        self.bids_late = 0

    # ------------------------------------------------------------------
    # Node handlers
    # ------------------------------------------------------------------
    def _source_handler(self, sources: List) -> Callable[[Message], None]:
        def handle(message: Message) -> None:
            if message.kind != "cfp":
                return
            cfp: CallForProposals = message.payload
            for source in sources:
                if cfp.domain not in source.domains:
                    continue
                bidder = SourceBidder(
                    source,
                    pricing=self.pricing,
                    risk_tolerance=self.risk_tolerance,
                    now=self.agora.now,
                )
                proposal = bidder(cfp)
                if proposal is None:
                    continue

                def reply(proposal=proposal, message=message) -> None:
                    self.agora.network.send(
                        message.reply("proposal", payload=proposal, size=0.5)
                    )

                self.agora.sim.schedule(
                    self.thinking_time, reply, tag=f"bid:{source.source_id}"
                )

        return handle

    def _consumer_handler(self, message: Message) -> None:
        if message.kind != "proposal":
            return
        proposal: Proposal = message.payload
        pending = self._pending.get(proposal.cfp.job_id)
        if pending is None:
            return
        if pending.closed:
            self.bids_late += 1
            self.agora.sim.trace.count("market.bids_late")
            return
        self.bids_received += 1
        pending.proposals.append(proposal)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def negotiate(
        self,
        query: Query,
        weights: QoSWeights,
        callback: MarketCallback,
        bid_deadline: float = 2.0,
        price_sensitivity: float = 0.02,
        min_score: float = 0.0,
    ) -> None:
        """Open one auction per job; invoke ``callback`` when all close.

        The callback fires in virtual time, ``bid_deadline`` after the
        last CFP went out, with the assembled :class:`NegotiatedPlan`.
        """
        if bid_deadline <= 0:
            raise ValueError("bid_deadline must be positive")
        jobs = decompose(query, self.agora.available_domains())
        outcome = NegotiatedPlan(query=query, plan=None)
        retrieves: List[Retrieve] = []
        state = {"open": len(jobs)}
        if not jobs:
            callback(outcome)
            return
        scorer = consumer_bid_score(weights, price_sensitivity)
        for subquery in jobs:
            cfp = CallForProposals(
                job_id=subquery.subquery_id,
                domain=subquery.domain,
                requirement=query.requirement,
                consumer_id=query.issuer_id,
                issued_at=self.agora.now,
            )
            pending = _PendingAuction(cfp=cfp)
            self._pending[cfp.job_id] = pending
            for node in sorted(self._sources_by_node):
                self.agora.network.send(
                    Message(self.consumer_node, node, "cfp", payload=cfp, size=0.3)
                )

            def close(pending=pending, subquery=subquery) -> None:
                pending.closed = True
                best = None
                if pending.proposals:
                    ranked = sorted(
                        pending.proposals,
                        key=lambda p: (-scorer(p), p.total_price, p.provider_id),
                    )
                    if scorer(ranked[0]) >= min_score:
                        best = ranked[0]
                if best is None:
                    outcome.unserved_jobs.append(subquery.subquery_id)
                else:
                    contract = SLAContract(
                        provider_id=best.provider_id,
                        consumer_id=query.issuer_id,
                        requirement=query.requirement,
                        base_price=best.quote.base_price,
                        premium=best.quote.premium,
                        compensation=best.quote.compensation,
                        signed_at=self.agora.now,
                        job_id=pending.cfp.job_id,
                    )
                    outcome.contracts.append(contract)
                    retrieves.append(Retrieve(subquery, best.executor_id))
                    # Notify the winner (accounting only; no reply needed).
                    winner_node = self.agora.registry.source(
                        best.executor_id
                    ).node_id
                    self.agora.network.send(Message(
                        self.consumer_node, winner_node, "award",
                        payload=pending.cfp.job_id, size=0.1,
                    ))
                state["open"] -= 1
                if state["open"] == 0:
                    if retrieves:
                        outcome.plan = standard_plan(retrieves, k=query.k)
                    callback(outcome)

            self.agora.sim.schedule(bid_deadline, close, tag=f"close:{cfp.job_id}")
