"""Post-settlement mediation: Pareto-improving the struck deal.

Bilateral bargaining under asymmetric information (§4: "information
providers and consumers have asymmetric knowledge") typically lands on the
zero-sum diagonal and leaves integrative value on the table.  A classic
remedy (in the spirit of the paper's Rosenschein & Zlotkin reference) is a
*mediator*: after agreement, it proposes random perturbations of the deal
and keeps any that **both** parties weakly prefer.  Parties reveal only
accept/reject votes — never their utility functions — so the mechanism
respects the information asymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.negotiation.offers import IssueSpace, Offer
from repro.negotiation.utility import AdditiveUtility
from repro.sim.rng import ScopedStreams


@dataclass
class MediationOutcome:
    """The result of one mediation session."""

    initial: Offer
    improved: Offer
    rounds_accepted: int
    proposals_made: int
    buyer_gain: float
    seller_gain: float


class Mediator:
    """Proposes Pareto improvements to an agreed deal.

    Parameters
    ----------
    space:
        The issue space the deal lives in.
    streams:
        RNG scope for proposal sampling.
    proposals:
        How many perturbations to try.
    step_scale:
        Perturbation size as a fraction of each issue's range.
    """

    def __init__(
        self,
        space: IssueSpace,
        streams: ScopedStreams,
        proposals: int = 200,
        step_scale: float = 0.15,
    ):
        if proposals < 1:
            raise ValueError("proposals must be >= 1")
        if not 0.0 < step_scale <= 1.0:
            raise ValueError("step_scale must be in (0, 1]")
        self.space = space
        self._rng = streams.stream("mediator")
        self.proposals = proposals
        self.step_scale = step_scale

    def improve(
        self,
        deal: Offer,
        buyer: AdditiveUtility,
        seller: AdditiveUtility,
    ) -> MediationOutcome:
        """Hill-climb the deal through mutually acceptable perturbations.

        The mediator only ever observes the two accept/reject votes; the
        utilities are called here in lieu of asking the (simulated)
        parties.
        """
        current = self.space.validate(deal)
        buyer_start = buyer(current)
        seller_start = seller(current)
        accepted = 0
        for __ in range(self.proposals):
            candidate = dict(current)
            for issue in self.space.issues:
                span = issue.high - issue.low
                candidate[issue.name] = issue.clip(
                    candidate[issue.name]
                    + float(self._rng.normal(0, self.step_scale * span))
                )
            buyer_accepts = buyer(candidate) >= buyer(current) - 1e-12
            seller_accepts = seller(candidate) >= seller(current) - 1e-12
            if buyer_accepts and seller_accepts:
                current = candidate
                accepted += 1
        return MediationOutcome(
            initial=dict(deal),
            improved=current,
            rounds_accepted=accepted,
            proposals_made=self.proposals,
            buyer_gain=buyer(current) - buyer_start,
            seller_gain=seller(current) - seller_start,
        )
