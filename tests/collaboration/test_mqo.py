"""Tests for multi-query optimization (shared jobs)."""

import pytest

from repro.collaboration import SharedJobExecutor, job_key
from repro.data import DomainSpec
from repro.query import ExecutionContext, Retrieve, standard_plan
from repro.sources import SourceRegistry

from tests.conftest import make_source, make_topic_query


@pytest.fixture
def mqo_setup(corpus_generator, matching_engine, streams, oracle):
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    registry.register(
        make_source("m1", corpus_generator, matching_engine, streams, domain_spec=museum)
    )
    registry.register(
        make_source("m2", corpus_generator, matching_engine, streams, domain_spec=museum)
    )
    context = ExecutionContext(registry=registry, oracle=oracle, consumer_id="group")
    return registry, SharedJobExecutor(context)


class TestJobKey:
    def test_same_terms_same_source_share(self, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", seed=1)
        a = Retrieve(query.restricted_to("museum"), "m1")
        b = Retrieve(query.restricted_to("museum"), "m1")
        assert job_key(a) == job_key(b)

    def test_different_sources_differ(self, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", seed=1)
        a = Retrieve(query.restricted_to("museum"), "m1")
        b = Retrieve(query.restricted_to("museum"), "m2")
        assert job_key(a) != job_key(b)

    def test_different_terms_differ(self, topic_space, vocabulary):
        q1 = make_topic_query(topic_space, vocabulary, "folk-jewelry", seed=1)
        q2 = make_topic_query(topic_space, vocabulary, "dance-forms", seed=2)
        a = Retrieve(q1.restricted_to("museum"), "m1")
        b = Retrieve(q2.restricted_to("museum"), "m1")
        assert job_key(a) != job_key(b)


class TestSharing:
    def test_execute_shares_and_distributes(self, mqo_setup, topic_space, vocabulary):
        registry, executor = mqo_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", seed=7, k=5)
        plans = {
            "iris": standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5),
            "jason": standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5),
        }
        result = executor.execute(plans, {"iris": query, "jason": query})
        assert result.report.distinct_jobs == 1
        assert result.report.total_jobs == 2
        iris_items = [m.item.item_id for m in result.member_results["iris"]]
        jason_items = [m.item.item_id for m in result.member_results["jason"]]
        assert iris_items == jason_items
        assert len(iris_items) > 0

    def test_members_mismatch_rejected(self, mqo_setup, topic_space, vocabulary):
        registry, executor = mqo_setup
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=5)
        with pytest.raises(ValueError):
            executor.execute({"iris": plan}, {"jason": query})

    def test_no_sharing_between_distinct_queries(self, mqo_setup, topic_space, vocabulary):
        registry, executor = mqo_setup
        q1 = make_topic_query(topic_space, vocabulary, "folk-jewelry", seed=1, k=5)
        q2 = make_topic_query(topic_space, vocabulary, "dance-forms", seed=2, k=5)
        plans = {
            "iris": standard_plan([Retrieve(q1.restricted_to("museum"), "m1")], k=5),
            "jason": standard_plan([Retrieve(q2.restricted_to("museum"), "m1")], k=5),
        }
        result = executor.execute(plans, {"iris": q1, "jason": q2})
        assert result.report.jobs_saved == 0
