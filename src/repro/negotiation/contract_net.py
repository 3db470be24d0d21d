"""Contract-net protocol: call-for-proposals → bids → award.

"Query answers and query operator execution jobs (or parts of them) should
be traded in the network until deals are struck and contracts are 'signed'
with some information sources for specific levels of QoS" (§4).  The
contract net is the one-shot market mechanism: the consumer issues a CFP
for a job, providers bid (price + promised QoS), the consumer awards the
job to the bid with the highest consumer utility and signs an SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.qos.pricing import Quote
from repro.qos.sla import SLAContract
from repro.qos.vector import QoSRequirement, QoSVector, QoSWeights, scalarize


@dataclass(frozen=True)
class CallForProposals:
    """An announcement of one job to be contracted."""

    job_id: str
    domain: str
    requirement: QoSRequirement
    consumer_id: str
    issued_at: float = 0.0


@dataclass
class Proposal:
    """One provider's bid for a CFP."""

    provider_id: str
    cfp: CallForProposals
    quote: Quote
    promised: QoSVector
    subcontracted: bool = False
    chain_depth: int = 0
    #: where the work will physically run (differs from provider_id when
    #: an intermediary resells a downstream source's capacity)
    execution_source_id: Optional[str] = None

    @property
    def total_price(self) -> float:
        """Base price plus premium."""
        return self.quote.total

    @property
    def executor_id(self) -> str:
        """The source that will physically run the job."""
        return self.execution_source_id or self.provider_id


#: anything that can respond to a CFP (source adapters, intermediaries)
Bidder = Callable[[CallForProposals], Optional[Proposal]]


AwardHook = Callable[[Proposal, SLAContract], None]


def consumer_bid_score(
    weights: QoSWeights, price_sensitivity: float = 0.02
) -> Callable[[Proposal], float]:
    """Default bid scoring: promised-QoS utility minus a price term."""
    if price_sensitivity < 0:
        raise ValueError("price_sensitivity must be non-negative")

    def score(proposal: Proposal) -> float:
        return scalarize(proposal.promised, weights) - price_sensitivity * proposal.total_price

    return score


@dataclass
class ContractNetOutcome:
    """Result of one CFP round."""

    cfp: CallForProposals
    proposals: List[Proposal] = field(default_factory=list)
    awarded: Optional[Proposal] = None
    contract: Optional[SLAContract] = None

    @property
    def bidders(self) -> int:
        """How many proposals were received."""
        return len(self.proposals)


class ContractNetProtocol:
    """Runs CFP rounds and signs contracts with winners.

    Parameters
    ----------
    scorer:
        Consumer-side scoring of proposals; highest wins.
    min_score:
        Bids below this score are rejected even if they are the best
        (the consumer's outside option).
    """

    def __init__(
        self,
        scorer: Callable[[Proposal], float],
        min_score: float = 0.0,
    ):
        self.scorer = scorer
        self.min_score = min_score
        self._award_hooks: List[AwardHook] = []

    def on_award(self, hook: AwardHook) -> None:
        """Register ``hook(proposal, contract)`` fired when a bid wins."""
        self._award_hooks.append(hook)

    def run(
        self,
        cfp: CallForProposals,
        bidders: Sequence[Bidder],
        now: float = 0.0,
    ) -> ContractNetOutcome:
        """Collect proposals from ``bidders`` and award the best one."""
        proposals = []
        for bidder in bidders:
            proposal = bidder(cfp)
            if proposal is not None:
                proposals.append(proposal)
        outcome = ContractNetOutcome(cfp=cfp, proposals=proposals)
        if not proposals:
            return outcome
        scored = sorted(
            proposals,
            key=lambda p: (-self.scorer(p), p.total_price, p.provider_id),
        )
        best = scored[0]
        if self.scorer(best) < self.min_score:
            return outcome
        contract = SLAContract(
            provider_id=best.provider_id,
            consumer_id=cfp.consumer_id,
            requirement=cfp.requirement,
            base_price=best.quote.base_price,
            premium=best.quote.premium,
            compensation=best.quote.compensation,
            signed_at=now,
            job_id=cfp.job_id,
        )
        outcome.awarded = best
        outcome.contract = contract
        for hook in self._award_hooks:
            hook(best, contract)
        return outcome
