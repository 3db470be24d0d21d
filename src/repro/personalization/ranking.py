"""Personalized result ranking.

"Different users are interested in very different information even when
they interact with the system in exactly the same way" (§5).  The ranker
blends each match's calibrated probability with the user's interest in the
item's (estimated) concept:

    score = (1 − α) · probability + α · interest(item)

α = 0 recovers the generic ranking (the baseline in experiment T6).
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.data.items import InformationItem
from repro.personalization.profile import UserProfile
from repro.uncertainty.results import UncertainMatch, UncertainResultSet

ConceptFn = Callable[[InformationItem], np.ndarray]


class PersonalizedRanker:
    """Re-ranks uncertain result sets under a user profile.

    Parameters
    ----------
    profile:
        Whose interests to apply.
    concept_fn:
        Maps items into concept space (normally the ConceptLifter).
    personalization_weight:
        α in the blend; 0 = generic, 1 = pure interest match.
    """

    def __init__(
        self,
        profile: UserProfile,
        concept_fn: ConceptFn,
        personalization_weight: float = 0.4,
    ):
        if not 0.0 <= personalization_weight <= 1.0:
            raise ValueError("personalization_weight must be in [0, 1]")
        self.profile = profile
        self.concept_fn = concept_fn
        self.alpha = personalization_weight

    def item_score(self, match: UncertainMatch) -> float:
        """Blended relevance score for one match."""
        interest = self.profile.interest_in(self.concept_fn(match.item))
        return (1.0 - self.alpha) * match.probability + self.alpha * interest

    def rerank(self, results: UncertainResultSet) -> List[UncertainMatch]:
        """Matches sorted by blended score, best first."""
        scored = [(self.item_score(match), match) for match in results]
        scored.sort(key=lambda pair: (-pair[0], pair[1].item.item_id))
        return [match for __, match in scored]

    def rerank_items(self, results: UncertainResultSet) -> List[InformationItem]:
        """Items of :meth:`rerank`."""
        return [match.item for match in self.rerank(results)]
