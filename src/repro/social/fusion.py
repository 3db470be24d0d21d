"""Social relevance fusion and cross-user learning.

"If personalization implies using the user's own profile to customize a
query, socialization implies that other people's profiles should be used
concurrently as well to affect the relevance of an information item" (§6).

The :class:`SocialRanker` extends the personalized blend with an
affinity-weighted vote of the visible neighbourhood:

    score = (1−β)·personal + β·Σₙ aₙ·interestₙ(item) / Σₙ aₙ

It also implements the paper's second direction — "using one's own profile
on queries that others pose to learn from their interests" — by turning
visible peer queries into profile-learning events.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.data.items import InformationItem
from repro.personalization.ranking import PersonalizedRanker
from repro.social.affinity import AffineNeighbour
from repro.uncertainty.results import UncertainMatch, UncertainResultSet

ConceptFn = Callable[[InformationItem], np.ndarray]


class SocialRanker:
    """Ranks results using one's own and one's neighbours' profiles.

    Parameters
    ----------
    personal:
        The user's own personalized ranker.
    neighbours:
        Affine neighbours (already privacy-filtered by the AffinityIndex).
    social_weight:
        β — how much the neighbourhood vote counts against the personal
        score.  β = 0 reduces to pure personalization.
    """

    def __init__(
        self,
        personal: PersonalizedRanker,
        neighbours: Sequence[AffineNeighbour],
        social_weight: float = 0.3,
    ):
        if not 0.0 <= social_weight <= 1.0:
            raise ValueError("social_weight must be in [0, 1]")
        self.personal = personal
        self.neighbours = list(neighbours)
        self.beta = social_weight

    # ------------------------------------------------------------------
    def neighbourhood_interest(self, item: InformationItem) -> float:
        """Affinity-weighted neighbour interest in ``item``."""
        if not self.neighbours:
            return 0.0
        concept = self.personal.concept_fn(item)
        total_affinity = sum(n.affinity for n in self.neighbours)
        if total_affinity <= 0:
            return 0.0
        vote = sum(
            n.affinity * n.profile.interest_in(concept) for n in self.neighbours
        )
        return vote / total_affinity

    def item_score(self, match: UncertainMatch) -> float:
        """Blended personal + neighbourhood score for one match."""
        personal = self.personal.item_score(match)
        if not self.neighbours:
            return personal
        social = self.neighbourhood_interest(match.item)
        return (1.0 - self.beta) * personal + self.beta * social

    def rerank(self, results: UncertainResultSet) -> List[UncertainMatch]:
        """Matches sorted by blended score, best first."""
        scored = [(self.item_score(match), match) for match in results]
        scored.sort(key=lambda pair: (-pair[0], pair[1].item.item_id))
        return [match for __, match in scored]

    def rerank_items(self, results: UncertainResultSet) -> List[InformationItem]:
        """Items of :meth:`rerank`."""
        return [match.item for match in self.rerank(results)]
