"""Tests for adaptive (decline-triggered) execution."""

import pytest

from repro.data import DomainSpec
from repro.query import (
    AdaptiveExecutor,
    ExecutionContext,
    Retrieve,
    fallbacks_from_registry,
    standard_plan,
)
from repro.sources import SourceRegistry
from repro.trust import ReputationSystem

from tests.conftest import make_source, make_topic_query, refuse


@pytest.fixture
def adaptive_setup(corpus_generator, matching_engine, streams, oracle):
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    for source_id in ("m1", "m2", "m3"):
        registry.register(
            make_source(source_id, corpus_generator, matching_engine, streams,
                        domain_spec=museum)
        )
    context = ExecutionContext(registry=registry, oracle=oracle,
                               consumer_id="iris")
    fallbacks = fallbacks_from_registry(registry)
    return registry, context, fallbacks


class TestAdaptiveExecutor:
    def test_no_declines_no_adaptation(self, adaptive_setup, topic_space, vocabulary):
        registry, context, fallbacks = adaptive_setup
        executor = AdaptiveExecutor(context, fallbacks)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = executor.execute(plan, query)
        assert result.attempts == 1
        assert result.reassignments == []
        assert result.recovered

    def test_declined_job_reassigned(self, adaptive_setup, topic_space, vocabulary):
        registry, context, fallbacks = adaptive_setup
        refuse(registry.source("m1"))
        executor = AdaptiveExecutor(context, fallbacks)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = executor.execute(plan, query)
        assert result.attempts == 2
        assert len(result.reassignments) == 1
        move = result.reassignments[0]
        assert move.from_source == "m1"
        assert move.to_source in ("m2", "m3")
        assert result.recovered
        assert len(result.final.results) > 0

    def test_cascading_declines_until_budget(self, adaptive_setup, topic_space, vocabulary):
        registry, context, fallbacks = adaptive_setup
        for source_id in ("m1", "m2", "m3"):
            refuse(registry.source(source_id))
        executor = AdaptiveExecutor(context, fallbacks, max_attempts=5)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = executor.execute(plan, query)
        assert not result.recovered
        assert len(result.final.results) == 0
        # It tried every distinct source exactly once.
        tried = {move.to_source for move in result.reassignments} | {"m1"}
        assert tried == {"m1", "m2", "m3"}

    def test_max_attempts_one_disables_adaptation(
        self, adaptive_setup, topic_space, vocabulary
    ):
        registry, context, fallbacks = adaptive_setup
        refuse(registry.source("m1"))
        executor = AdaptiveExecutor(context, fallbacks, max_attempts=1)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = executor.execute(plan, query)
        assert result.attempts == 1
        assert not result.recovered

    def test_healthy_jobs_untouched(self, adaptive_setup, topic_space, vocabulary):
        registry, context, fallbacks = adaptive_setup
        refuse(registry.source("m1"))
        executor = AdaptiveExecutor(context, fallbacks)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        sub = query.restricted_to("museum")
        plan = standard_plan([Retrieve(sub, "m1"), Retrieve(sub, "m2")], k=5)
        result = executor.execute(plan, query)
        assert all(move.from_source == "m1" for move in result.reassignments)
        assert result.recovered

    def test_invalid_budget(self, adaptive_setup):
        registry, context, fallbacks = adaptive_setup
        with pytest.raises(ValueError):
            AdaptiveExecutor(context, fallbacks, max_attempts=0)

    def test_reputation_ordered_fallbacks(self, adaptive_setup):
        registry, __, __f = adaptive_setup
        reputation = ReputationSystem()
        for __ in range(5):
            reputation.observe("m3", 1.0)
            reputation.observe("m2", 0.0)
        fallbacks = fallbacks_from_registry(registry, reputation)
        from repro.query.model import Query, QueryKind
        import numpy as np
        from repro.data import TextDocument

        query = Query(
            kind=QueryKind.SIMILARITY,
            reference_item=TextDocument(item_id="r", domain="museum",
                                        latent=np.array([1.0]), terms={"w00001": 1}),
        )
        order = fallbacks(query.restricted_to("museum"))
        assert order[0] == "m3"
        assert order[-1] == "m2"
