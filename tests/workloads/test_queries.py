"""Tests for query workload generation."""

import numpy as np
import pytest

from repro.personalization import UserProfile
from repro.query import QueryKind
from repro.workloads import QueryWorkloadGenerator

from tests.conftest import peak_topic


@pytest.fixture
def generator(topic_space, vocabulary, corpus_generator, streams):
    return QueryWorkloadGenerator(
        topic_space, vocabulary, streams.spawn("qwl"), corpus=corpus_generator,
    )


class TestTopicQueries:
    def test_topic_query_intent(self, generator, topic_space):
        query = generator.topic_query("dance-forms", k=7)
        assert query.kind is QueryKind.TOPIC
        assert query.k == 7
        assert peak_topic(topic_space, query.intent_latent) == "dance-forms"
        assert sum(query.terms.values()) == 60

    def test_issuer_propagates(self, generator):
        query = generator.topic_query("tourism", issuer_id="iris")
        assert query.issuer_id == "iris"


class TestInterestQueries:
    def test_intent_near_interests(self, generator, topic_space):
        profile = UserProfile(
            user_id="u", interests=topic_space.basis("folk-jewelry", 0.95),
        )
        peaks = [
            peak_topic(topic_space, generator.interest_query(profile).intent_latent)
            for __ in range(20)
        ]
        assert peaks.count("folk-jewelry") >= 12

    def test_invalid_sharpen(self, generator, topic_space):
        profile = UserProfile(user_id="u", interests=np.ones(topic_space.n_topics))
        with pytest.raises(ValueError):
            generator.interest_query(profile, sharpen=0.0)


class TestSimilarityQueries:
    def test_reference_item_minted(self, generator, topic_space):
        query = generator.similarity_query("folk-jewelry")
        assert query.kind is QueryKind.SIMILARITY
        assert query.reference_item is not None
        assert peak_topic(topic_space, query.reference_item.latent) == "folk-jewelry"

    def test_without_corpus_rejected(self, topic_space, vocabulary, streams):
        generator = QueryWorkloadGenerator(
            topic_space, vocabulary, streams.spawn("nocorpus"),
        )
        with pytest.raises(RuntimeError):
            generator.similarity_query("tourism")
