"""Tests for the relevance oracle."""

import numpy as np
import pytest

from repro.data import InformationItem
from repro.query import Query, QueryKind

from tests.conftest import make_topic_query


def _item(latent, created_at=0.0, item_id="i"):
    return InformationItem(
        item_id=item_id, domain="museum", latent=np.asarray(latent, float),
        created_at=created_at,
    )


class TestRelevance:
    def test_identical_latent_fully_relevant(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        item = _item(query.intent_latent)
        assert oracle.relevance(query, item) == pytest.approx(1.0)
        assert oracle.is_relevant(query, item)

    def test_orthogonal_not_relevant(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        other = topic_space.basis("tourism", weight=1.0)
        assert not oracle.is_relevant(query, _item(other))

    def test_query_without_intent_uses_reference(self, oracle, topic_space):
        reference = _item(topic_space.basis("tourism"), item_id="ref")
        query = Query(kind=QueryKind.SIMILARITY, reference_item=reference)
        assert oracle.relevance(query, _item(topic_space.basis("tourism"))) > 0.9

    def test_query_without_any_intent_raises(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        query.intent_latent = None
        query.reference_item = None
        with pytest.raises(ValueError):
            oracle.relevance(query, _item(topic_space.basis("tourism")))


class TestFreshness:
    def test_new_item_fully_fresh(self, oracle):
        assert oracle.freshness(_item([1.0] + [0.0] * 9, created_at=10.0), now=10.0) == 1.0

    def test_half_life(self, oracle):
        item = _item([1.0] + [0.0] * 9, created_at=0.0)
        assert oracle.freshness(item, now=oracle.freshness_half_life) == pytest.approx(0.5)


class TestDeliveredQoS:
    def test_perfect_delivery(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=2)
        relevant = [_item(query.intent_latent, item_id=f"r{i}") for i in range(2)]
        delivered = oracle.delivered_qos(
            query, returned=relevant, reachable=relevant,
            response_time=1.0, now=0.0, source_trust=0.8,
        )
        assert delivered.completeness == 1.0
        assert delivered.correctness == 1.0
        assert delivered.trust == 0.8

    def test_incomplete_delivery(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        relevant = [_item(query.intent_latent, item_id=f"r{i}") for i in range(4)]
        delivered = oracle.delivered_qos(
            query, returned=relevant[:1], reachable=relevant,
            response_time=1.0, now=0.0,
        )
        assert delivered.completeness == pytest.approx(0.25)

    def test_wrong_items_hurt_correctness(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        relevant = _item(query.intent_latent, item_id="good")
        junk = _item(topic_space.basis("tourism", 1.0), item_id="bad")
        delivered = oracle.delivered_qos(
            query, returned=[relevant, junk], reachable=[relevant, junk],
            response_time=1.0, now=0.0,
        )
        assert delivered.correctness == pytest.approx(0.5)

    def test_empty_delivery(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        relevant = [_item(query.intent_latent)]
        delivered = oracle.delivered_qos(
            query, returned=[], reachable=relevant, response_time=1.0, now=0.0,
        )
        assert delivered.completeness == 0.0
        assert delivered.correctness == 0.0

    def test_nothing_reachable_means_complete(self, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        delivered = oracle.delivered_qos(
            query, returned=[], reachable=[], response_time=1.0, now=0.0,
        )
        assert delivered.completeness == 1.0
