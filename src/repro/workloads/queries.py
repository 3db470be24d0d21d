"""Query workload generation.

Builds topic and similarity queries whose latent intent is known, either
from a user's ground-truth interests (personalized workloads) or from a
fixed topic (controlled sweeps).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.data.corpus import CorpusGenerator, DomainSpec
from repro.data.topics import TopicSpace
from repro.data.vocabulary import Vocabulary
from repro.personalization.profile import UserProfile
from repro.qos.vector import QoSRequirement
from repro.query.model import Query, QueryKind
from repro.sim.rng import ScopedStreams


class QueryWorkloadGenerator:
    """Draws queries with known latent intent."""

    def __init__(
        self,
        topic_space: TopicSpace,
        vocabulary: Vocabulary,
        streams: ScopedStreams,
        corpus: Optional[CorpusGenerator] = None,
    ):
        self.topic_space = topic_space
        self.vocabulary = vocabulary
        self.corpus = corpus
        self._rng = streams.stream("queries")

    # ------------------------------------------------------------------
    def topic_query(
        self,
        topic: str,
        k: int = 10,
        term_count: int = 60,
        weight: float = 0.9,
        requirement: Optional[QoSRequirement] = None,
        target_domains: Optional[Tuple[str, ...]] = None,
        issuer_id: str = "",
    ) -> Query:
        """A topic query concentrated on one named topic."""
        intent = self.topic_space.basis(topic, weight=weight)
        terms = self.vocabulary.sample_terms(intent, self._rng, length=term_count)
        return Query(
            kind=QueryKind.TOPIC,
            terms=terms,
            intent_latent=intent,
            k=k,
            requirement=requirement if requirement is not None else QoSRequirement(),
            target_domains=target_domains,
            issuer_id=issuer_id,
        )

    def interest_query(
        self,
        profile: UserProfile,
        k: int = 10,
        term_count: int = 60,
        sharpen: float = 2.0,
        requirement: Optional[QoSRequirement] = None,
    ) -> Query:
        """A query drawn from a user's ground-truth interests.

        The intent is a sharpened sample around the interest vector —
        users ask about *specific* needs within their general tastes.
        """
        if sharpen <= 0:
            raise ValueError("sharpen must be positive")
        intent = self.topic_space.sample(
            self._rng, concentration=1.0 / sharpen, prior=profile.interests
        )
        terms = self.vocabulary.sample_terms(intent, self._rng, length=term_count)
        return Query(
            kind=QueryKind.TOPIC,
            terms=terms,
            intent_latent=intent,
            k=k,
            requirement=requirement if requirement is not None else QoSRequirement(),
            issuer_id=profile.user_id,
        )

    def similarity_query(
        self,
        topic: str,
        k: int = 10,
        requirement: Optional[QoSRequirement] = None,
        issuer_id: str = "",
    ) -> Query:
        """A reference-item (compare-this) query.

        Needs a corpus generator to mint the reference object.
        """
        if self.corpus is None:
            raise RuntimeError("similarity queries need a corpus generator")
        spec = DomainSpec(
            name="query-reference",
            topic_prior={topic: 1.0},
            type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
            concentration=0.3,
        )
        reference = self.corpus.generate(spec, 1)[0]
        return Query(
            kind=QueryKind.SIMILARITY,
            reference_item=reference,
            intent_latent=reference.latent,
            k=k,
            requirement=requirement if requirement is not None else QoSRequirement(),
            issuer_id=issuer_id,
        )
