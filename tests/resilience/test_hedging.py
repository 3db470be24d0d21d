"""Tests for alternate-source selection (hedging/failover targets)."""

import pytest

from repro.resilience import BreakerBoard, BreakerPolicy, HedgeSelector
from repro.sources import SourceRegistry

from tests.conftest import make_source, make_topic_query


@pytest.fixture
def museum_registry(corpus_generator, matching_engine, streams):
    registry = SourceRegistry()
    for source_id in ("m1", "m2", "m3"):
        registry.register(
            make_source(source_id, corpus_generator, matching_engine, streams,
                        n_items=10)
        )
    return registry


@pytest.fixture
def museum_subquery(topic_space, vocabulary):
    query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
    return query.restricted_to("museum")


class TestHedgeSelector:
    def test_excludes_tried_sources(self, museum_registry, museum_subquery):
        selector = HedgeSelector(museum_registry)
        alternates = selector.alternates(museum_subquery, exclude={"m1"})
        assert "m1" not in alternates
        assert set(alternates) == {"m2", "m3"}

    def test_order_is_deterministic(self, museum_registry, museum_subquery):
        selector = HedgeSelector(museum_registry)
        first = selector.alternates(museum_subquery)
        second = selector.alternates(museum_subquery)
        assert first == second
        assert len(first) == 3

    def test_breaker_open_sources_are_skipped(
        self, museum_registry, museum_subquery
    ):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1))
        board.record_failure("m2")
        selector = HedgeSelector(museum_registry, board)
        alternates = selector.alternates(museum_subquery, exclude={"m1"})
        assert alternates == ["m3"]

    def test_best_alternate_none_when_domain_uncovered(
        self, museum_registry, topic_space, vocabulary
    ):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        selector = HedgeSelector(museum_registry)
        assert selector.alternates(query.restricted_to("atlantis")) == []

    def test_best_alternate_prefers_fastest_advertised(
        self, museum_registry, museum_subquery
    ):
        selector = HedgeSelector(museum_registry)
        best = selector.alternates(museum_subquery)[0]
        descriptors = {
            d.source_id: d.advertised["museum"].response_time
            for d in museum_registry.candidates_for("museum")
        }
        assert descriptors[best] == min(descriptors.values())
