"""Subcontracting: intermediaries between consumers and sources.

"Such trading may also occur recursively, in the sense that some nodes may
play the role of intermediaries between other nodes (subcontracting)"
(§4).  An :class:`Intermediary` answers CFPs by privately running its own
contract net over downstream bidders, marking the winning inner bid up by
a margin, and — if its outer bid wins — signing the inner contract
back-to-back with the outer one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.negotiation.contract_net import (
    Bidder,
    CallForProposals,
    ContractNetProtocol,
    Proposal,
)
from repro.qos.pricing import Quote
from repro.qos.sla import SLAContract

MAX_CHAIN_DEPTH = 4


@dataclass
class SubcontractRecord:
    """Back-to-back contract pair held by an intermediary."""

    outer: SLAContract
    inner: SLAContract

    @property
    def margin_earned(self) -> float:
        """Outer price minus inner price."""
        return self.outer.total_price - self.inner.total_price


class Intermediary:
    """A broker that resells downstream capacity with a markup.

    Parameters
    ----------
    name:
        The intermediary's provider id in outer negotiations.
    downstream:
        Bidders it may subcontract to (sources or further intermediaries).
    inner_protocol:
        The contract net used for the private downstream auction.
    margin:
        Relative markup on the inner quote (0.2 = 20%).
    max_depth:
        Refuse to extend chains beyond this depth (prevents broker loops).
    """

    def __init__(
        self,
        name: str,
        downstream: Sequence[Bidder],
        inner_protocol: ContractNetProtocol,
        margin: float = 0.2,
        max_depth: int = MAX_CHAIN_DEPTH,
    ):
        if margin < 0:
            raise ValueError("margin must be non-negative")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.name = name
        self.downstream = list(downstream)
        self.inner_protocol = inner_protocol
        self.margin = margin
        self.max_depth = max_depth
        self._pending: Dict[str, Proposal] = {}
        self.records: List[SubcontractRecord] = []

    # ------------------------------------------------------------------
    def __call__(self, cfp: CallForProposals) -> Optional[Proposal]:
        """Bid on ``cfp`` by reselling the best downstream proposal."""
        inner_cfp = CallForProposals(
            job_id=f"{cfp.job_id}#{self.name}",
            domain=cfp.domain,
            requirement=cfp.requirement,
            consumer_id=self.name,
            issued_at=cfp.issued_at,
        )
        inner = self.inner_protocol.run(inner_cfp, self.downstream)
        if inner.awarded is None:
            return None
        if inner.awarded.chain_depth + 1 >= self.max_depth:
            return None
        marked_up = Quote(
            base_price=inner.awarded.quote.base_price * (1.0 + self.margin),
            premium=inner.awarded.quote.premium * (1.0 + self.margin),
            compensation=inner.awarded.quote.compensation,
        )
        proposal = Proposal(
            provider_id=self.name,
            cfp=cfp,
            quote=marked_up,
            promised=inner.awarded.promised,
            subcontracted=True,
            chain_depth=inner.awarded.chain_depth + 1,
            execution_source_id=inner.awarded.executor_id,
        )
        self._pending[cfp.job_id] = inner.awarded
        return proposal

    def on_award(self, proposal: Proposal, outer_contract: SLAContract) -> None:
        """Sign the back-to-back inner contract when the outer bid wins."""
        if proposal.provider_id != self.name:
            return
        inner_winner = self._pending.pop(proposal.cfp.job_id, None)
        if inner_winner is None:
            return
        inner_contract = SLAContract(
            provider_id=inner_winner.provider_id,
            consumer_id=self.name,
            requirement=proposal.cfp.requirement,
            base_price=inner_winner.quote.base_price,
            premium=inner_winner.quote.premium,
            compensation=inner_winner.quote.compensation,
            signed_at=outer_contract.signed_at,
            job_id=outer_contract.job_id,
        )
        self.records.append(SubcontractRecord(outer=outer_contract, inner=inner_contract))
