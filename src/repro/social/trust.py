"""Socialized trust: borrowing your circle's experience with sources.

§6's socialization applies to *every* aspect of personalization —
including which sources to trust ("they trust different information
sources", §5).  When a consumer has little first-hand experience with a
source, it can blend in the affinity-weighted opinions of neighbours who
shared their reputation views (privacy permitting).

Blend rule: own evidence counts in full; the neighbourhood vote is
discounted by each neighbour's affinity, and the two are combined in
proportion to their evidence masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.social.affinity import AffineNeighbour
from repro.trust.reputation import ReputationSystem


@dataclass
class TrustOpinion:
    """One neighbour's shared view of a source."""

    neighbour_id: str
    affinity: float
    score: float
    evidence: float


class SocialTrustView:
    """A consumer's trust view augmented by neighbours' reputations.

    Parameters
    ----------
    own:
        The consumer's first-hand reputation system.
    neighbour_systems:
        Each affine neighbour's reputation system (only neighbours whose
        view the consumer may read — privacy filtering happens upstream,
        in the AffinityIndex).
    """

    def __init__(
        self,
        own: ReputationSystem,
        neighbour_systems: Dict[str, ReputationSystem],
        neighbours: Sequence[AffineNeighbour],
    ):
        self.own = own
        self._systems = dict(neighbour_systems)
        self._neighbours = {n.user_id: n for n in neighbours}

    # ------------------------------------------------------------------
    def opinions(self, source_id: str) -> List[TrustOpinion]:
        """Neighbours' (affinity-weighted) opinions about ``source_id``."""
        collected = []
        for user_id in sorted(self._neighbours):
            system = self._systems.get(user_id)
            if system is None:
                continue
            evidence = system.evidence(source_id)
            if evidence <= 0:
                continue
            collected.append(TrustOpinion(
                neighbour_id=user_id,
                affinity=self._neighbours[user_id].affinity,
                score=system.score(source_id),
                evidence=evidence,
            ))
        return collected

    def score(self, source_id: str) -> float:
        """Blended trust score for ``source_id``.

        Own evidence mass vs affinity-discounted neighbour evidence mass
        decide the mix; with no evidence anywhere, the neutral prior 0.5.
        """
        own_evidence = self.own.evidence(source_id)
        own_score = self.own.score(source_id)
        opinions = self.opinions(source_id)
        social_mass = sum(o.affinity * o.evidence for o in opinions)
        if social_mass <= 0:
            return own_score
        social_score = (
            sum(o.affinity * o.evidence * o.score for o in opinions) / social_mass
        )
        total = own_evidence + social_mass
        if total <= 0:
            return 0.5
        return (own_evidence * own_score + social_mass * social_score) / total
