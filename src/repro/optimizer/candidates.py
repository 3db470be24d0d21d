"""Candidate assignments: which source could serve which job.

A *job* is one domain-restricted subquery.  For each job, the enumerator
lists candidate (source, expected QoS, cost, breach risk) tuples, built
from *advertised* descriptors tempered by the consumer's trust view — the
consumer never sees ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.qos.breach import breach_probability
from repro.qos.vector import QoSRequirement, QoSVector
from repro.query.model import Query, Subquery, decompose
from repro.sources.registry import SourceRegistry
from repro.trust.reputation import ReputationSystem
from repro.uncertainty.estimates import UncertainEstimate


@dataclass(frozen=True)
class CandidateAssignment:
    """One (job, source) option with the consumer's beliefs about it."""

    subquery: Subquery
    source_id: str
    expected: QoSVector
    cost: UncertainEstimate
    breach_risk: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.breach_risk <= 1.0:
            raise ValueError("breach_risk must be in [0, 1]")


def discount_by_trust(advertised: QoSVector, trust: float, skepticism: float = 0.6) -> QoSVector:
    """Shrink advertised quality towards zero for untrusted sources.

    ``trust`` is the consumer's reputation score for the source.  A fully
    trusted source's claims are taken at face value; an untrusted one's
    are discounted by up to ``skepticism``.
    """
    if not 0.0 <= trust <= 1.0:
        raise ValueError("trust must be in [0, 1]")
    if not 0.0 <= skepticism <= 1.0:
        raise ValueError("skepticism must be in [0, 1]")
    factor = 1.0 - skepticism * (1.0 - trust)
    return QoSVector(
        response_time=advertised.response_time / max(factor, 1e-6),
        completeness=advertised.completeness * factor,
        freshness=advertised.freshness * factor,
        correctness=advertised.correctness * factor,
        trust=trust,
    )


class CandidateEnumerator:
    """Builds the candidate table for a query from the registry.

    Parameters
    ----------
    registry:
        Advertised source descriptors.
    reputation:
        The consumer's trust view (neutral prior for unknown sources).
    skepticism:
        How hard untrusted advertisements are discounted.
    """

    def __init__(
        self,
        registry: SourceRegistry,
        reputation: Optional[ReputationSystem] = None,
        skepticism: float = 0.6,
    ):
        self.registry = registry
        self.reputation = reputation if reputation is not None else ReputationSystem()
        self.skepticism = skepticism

    def candidates_for_job(
        self, subquery: Subquery, requirement: Optional[QoSRequirement] = None
    ) -> List[CandidateAssignment]:
        """Candidate assignments for one job, sorted by source id."""
        if requirement is None:
            requirement = subquery.parent.requirement
        candidates = []
        for descriptor in self.registry.candidates_for(subquery.domain):
            advertised = descriptor.advertised.get(subquery.domain)
            if advertised is None:
                continue
            trust = self.reputation.score(descriptor.source_id)
            expected = discount_by_trust(advertised, trust, self.skepticism)
            cost = UncertainEstimate(
                mean=expected.response_time,
                std=0.3 * expected.response_time,
                low=0.0,
                high=4.0 * expected.response_time if expected.response_time > 0 else 1.0,
            )
            candidates.append(
                CandidateAssignment(
                    subquery=subquery,
                    source_id=descriptor.source_id,
                    expected=expected,
                    cost=cost,
                    breach_risk=breach_probability(expected, requirement),
                )
            )
        return candidates

    def candidate_table(self, query: Query) -> Dict[str, List[CandidateAssignment]]:
        """Candidates per job id for every decomposed piece of ``query``.

        Jobs with no candidates are omitted (those domains are unreachable).
        """
        table: Dict[str, List[CandidateAssignment]] = {}
        for subquery in decompose(query, self.registry.domains()):
            candidates = self.candidates_for_job(subquery)
            if candidates:
                table[subquery.subquery_id] = candidates
        return table
