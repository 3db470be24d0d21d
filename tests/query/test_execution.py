"""Tests for plan execution against live sources."""

import pytest

from repro.data import DomainSpec
from repro.query import (
    ExecutionContext,
    QueryExecutor,
    Retrieve,
    standard_plan,
)
from repro.sources import SourceRegistry
from repro.uncertainty import BinnedCalibrator

from tests.conftest import make_source, make_topic_query, refuse


@pytest.fixture
def execution_setup(corpus_generator, matching_engine, streams, oracle):
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    auction = DomainSpec(name="auction", topic_prior={"auction-market": 1.0})
    for source_id, spec in [("m1", museum), ("m2", museum), ("a1", auction)]:
        registry.register(
            make_source(
                source_id, corpus_generator, matching_engine, streams,
                domain_spec=spec, n_items=30,
            )
        )
    context = ExecutionContext(registry=registry, oracle=oracle, now=0.0,
                               consumer_id="iris")
    return registry, context


class TestExecution:
    def test_single_source_plan(
        self, execution_setup, topic_space, vocabulary
    ):
        registry, context = execution_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = QueryExecutor(context).execute(plan, query)
        assert len(result.results) <= 5
        assert result.response_time > 0
        assert [a.source_id for a in result.answers if not a.declined] == ["m1"]

    def test_merge_runs_parallel(self, execution_setup, topic_space, vocabulary):
        registry, context = execution_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        sub = query.restricted_to("museum")
        single = standard_plan([Retrieve(sub, "m1")], k=5)
        double = standard_plan([Retrieve(sub, "m1"), Retrieve(sub, "m2")], k=5)
        executor = QueryExecutor(context)
        t_single = executor.execute(single, query).response_time
        t_double = executor.execute(double, query).response_time
        # Parallel merge: roughly the max of branches, not the sum.
        assert t_double < 1.8 * t_single

    def test_more_sources_more_complete(
        self, execution_setup, topic_space, vocabulary,
        corpus_generator, matching_engine, streams,
    ):
        registry, context = execution_setup
        # Make the two museum sources partial mirrors of one corpus.
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        sub = query.restricted_to("museum")
        executor = QueryExecutor(context)
        one = executor.execute(standard_plan([Retrieve(sub, "m1")], k=10), query)
        two = executor.execute(
            standard_plan([Retrieve(sub, "m1"), Retrieve(sub, "m2")], k=10), query
        )
        assert two.delivered.completeness >= one.delivered.completeness - 1e-9

    def test_latency_charged(self, execution_setup, topic_space, vocabulary):
        registry, context = execution_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        base = QueryExecutor(context).execute(plan, query).response_time
        context.latency = lambda source_id: 5.0
        slow = QueryExecutor(context).execute(plan, query).response_time
        assert slow == pytest.approx(base + 10.0)

    def test_trust_annotated_from_context(
        self, execution_setup, topic_space, vocabulary
    ):
        registry, context = execution_setup
        context.trust = lambda source_id: 0.42
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = QueryExecutor(context).execute(plan, query)
        assert result.delivered.trust == pytest.approx(0.42)

    def test_declined_source_yields_empty(
        self, execution_setup, topic_space, vocabulary
    ):
        registry, context = execution_setup
        refuse(registry.source("m1"))
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = QueryExecutor(context).execute(plan, query)
        assert len(result.results) == 0
        assert result.declined_sources == ["m1"]
        assert result.delivered.trust == 0.0

    def test_calibrator_applied(self, execution_setup, topic_space, vocabulary):
        registry, context = execution_setup
        # A degenerate calibrator mapping every score to ~0.
        calibrator = BinnedCalibrator(n_bins=2).fit(
            [0.1, 0.2, 0.8, 0.9], [0, 0, 0, 0]
        )
        context.calibrator = calibrator
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        result = QueryExecutor(context).execute(plan, query)
        assert all(m.probability == 0.0 for m in result.results)

    def test_merge_with_no_children_returns_empty(
        self, execution_setup, topic_space, vocabulary
    ):
        # Regression: executing a Merge whose children list has been emptied
        # (e.g. by a planner pruning every branch) used to crash with
        # ``max() arg is an empty sequence`` when folding child latencies.
        registry, context = execution_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        merge = plan.child
        merge.children = []
        result = QueryExecutor(context).execute(plan, query)
        assert len(result.results) == 0
        assert result.response_time == 0.0
        assert result.answers == []
        assert result.declined_sources == []

    def test_cross_domain_merge(self, execution_setup, topic_space, vocabulary):
        registry, context = execution_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        plan = standard_plan(
            [
                Retrieve(query.restricted_to("museum"), "m1"),
                Retrieve(query.restricted_to("auction"), "a1"),
            ],
            k=10,
        )
        result = QueryExecutor(context).execute(plan, query)
        domains = {m.item.domain for m in result.results}
        assert "museum" in domains
