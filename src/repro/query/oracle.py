"""Ground-truth relevance oracle.

The simulation knows each item's latent topic vector and each query's
latent intent, so it can *audit* deliveries: which returned items are
truly relevant, what fraction of the reachable relevant items were found,
how fresh the result is.  The oracle stands in for the paper's (human)
judgement of result quality; contract settlement and all experiment
metrics are computed through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.data.items import InformationItem
from repro.data.topics import TopicSpace
from repro.qos.vector import QoSVector
from repro.query.model import Query


@dataclass
class RelevanceOracle:
    """Audits results against latent ground truth.

    Attributes
    ----------
    topic_space:
        The shared latent space.
    relevance_threshold:
        Latent cosine above which an item counts as truly relevant.
    freshness_half_life:
        Item age at which freshness contribution halves.
    """

    topic_space: TopicSpace
    relevance_threshold: float = 0.75
    freshness_half_life: float = 50.0

    # ------------------------------------------------------------------
    def relevance(self, query: Query, item: InformationItem) -> float:
        """Ground-truth graded relevance of ``item`` to ``query`` in [0, 1]."""
        intent = self._intent(query)
        return self.topic_space.relevance(intent, item.latent)

    def is_relevant(self, query: Query, item: InformationItem) -> bool:
        """Whether graded relevance clears the threshold."""
        return self.relevance(query, item) >= self.relevance_threshold

    def relevance_many(
        self, query: Query, items: Sequence[InformationItem]
    ) -> np.ndarray:
        """:meth:`relevance` of every item, in one validated pass.

        Element ``i`` is bitwise ``relevance(query, items[i])``
        (:meth:`TopicSpace.relevance_many`).
        """
        if not items:
            return np.zeros(0)
        return self.topic_space.relevance_many(
            self._intent(query), [item.latent for item in items]
        )

    def relevant_subset(
        self, query: Query, items: Iterable[InformationItem]
    ) -> List[InformationItem]:
        """Items truly relevant to the query (order kept)."""
        items = list(items)
        relevant = self.relevance_many(query, items) >= self.relevance_threshold
        return [item for item, keep in zip(items, relevant.tolist()) if keep]

    def _intent(self, query: Query) -> np.ndarray:
        if query.intent_latent is not None:
            return query.intent_latent
        if query.reference_item is not None:
            return query.reference_item.latent
        raise ValueError("query carries no intent_latent and no reference item")

    # ------------------------------------------------------------------
    def freshness(self, item: InformationItem, now: float) -> float:
        """Exponential freshness of one item in (0, 1]."""
        age = item.age(now)
        return float(0.5 ** (age / self.freshness_half_life))

    def delivered_qos(
        self,
        query: Query,
        returned: Sequence[InformationItem],
        reachable: Sequence[InformationItem],
        response_time: float,
        now: float,
        source_trust: float = 1.0,
    ) -> QoSVector:
        """Audit a delivery into a QoS vector.

        - completeness: relevant-returned / relevant-reachable
        - correctness: relevant-returned / returned
        - freshness: mean item freshness of the returned set
        - trust: supplied by the caller (mean reputation of sources used)
        """
        relevant_returned = self.relevant_subset(query, returned)
        relevant_reachable = self.relevant_subset(query, reachable)
        if relevant_reachable:
            denominator = min(len(relevant_reachable), query.k)
            completeness = min(1.0, len(relevant_returned) / denominator)
        else:
            completeness = 1.0
        correctness = (
            len(relevant_returned) / len(returned) if returned else 0.0
        )
        freshness = (
            float(np.mean([self.freshness(item, now) for item in returned]))
            if returned
            else 0.0
        )
        return QoSVector(
            response_time=response_time,
            completeness=completeness,
            freshness=freshness,
            correctness=correctness,
            trust=float(np.clip(source_trust, 0.0, 1.0)),
        )

    # ------------------------------------------------------------------

